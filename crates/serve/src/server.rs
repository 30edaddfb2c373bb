//! The long-lived serving loop: wire in, admission, batch placement,
//! per-tenant byte budgets, wire out.
//!
//! One [`Server`] owns one [`EvalSession`] (the shared concurrent
//! store every batch's workers intern into) and a tenant ledger. Its
//! [`run`](Server::run) loop blocks on the transport, drains up to 16
//! frames (`BATCH_WINDOW`), admits each request
//! ([`crate::admission`]), places the admitted jobs with
//! [`partition`] — the engine's one placement rule, so a large join
//! gets a worker of its own next to the small jobs of its batch —
//! evaluates them on scoped worker threads via
//! [`nra_eval::eval_batch_streamed`] — each under its **declared
//! budget** — and answers every frame exactly once, **as soon as its
//! answer is decided**: a rejection when staging turns it away, before
//! the batch evaluates, and an admitted request when its job completes,
//! so answers leave in completion order, not frame order (clients
//! match them by tenant and id). A worker panic is contained by the
//! batch layer and surfaces as a `failed` response; the loop, the
//! session, and the other jobs of the batch are unaffected. Once an
//! answer has passed the wire's nesting-cap check and been counted for
//! its tenant, the loop writes its `ok` frame straight from the result
//! handle in the session arena ([`ValueArena::write_text`]) into the
//! frame's one buffer: the byte form of [`encode_response`] on the
//! resolved answer, with no tree built on the way out.
//!
//! **Per-tenant byte budgets** ride the engine's generational
//! eviction: every completed job charges its tenant the approximate
//! bytes of its result once its batch is done; a tenant over budget is
//! rejected at staging (`rejected` outcome, before any evaluation); and
//! when the session's resident-byte budget triggers an eviction at a
//! batch's tail — bumping [`EvalSession::generation`] — the
//! per-generation charges reset, because the objects the tenants were
//! paying residency for are gone. No answer handle outlives its batch,
//! so that eviction has nothing to resolve or re-intern.
//!
//! Embedders that want the loop without the wire (tests, benches, the
//! in-process front) call [`Server::process_batch`] /
//! [`Server::run_staged`] directly; those resolve each `ok` answer to a
//! tree [`Value`] as its job completes and return the responses in
//! request order.

use crate::admission::{admit, AdmissionDecision, AdmissionPolicy};
use crate::wire::{
    decode_frame, encode_response, socketpair, validate_tenant, Endpoint, Frame, Outcome, Request,
    Response, WireError, MAX_FRAME_BYTES,
};
use nra_core::expr::intern::EId;
use nra_core::parser::MAX_NESTING;
use nra_core::typecheck::output_type;
use nra_core::value::intern::{VId, ValueArena};
use nra_core::{Expr, Value};
use nra_eval::{eval_batch_streamed, partition, BatchJob, EvalConfig, EvalSession, SessionStats};
use nra_symbolic::SpaceVerdict;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::thread::JoinHandle;

/// Maximum frames [`Server::run`] drains into one batch.
const BATCH_WINDOW: usize = 16;

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker sessions per batch (scoped threads over the shared store).
    /// 0, the default, is the machine's available parallelism (1 when
    /// unknown), read once by [`Server::new`]: reading it costs tens of
    /// microseconds, which a config whose count is set explicitly should
    /// not pay.
    pub workers: usize,
    /// Admission policy (ceiling and waiver).
    pub policy: AdmissionPolicy,
    /// Resident-byte ceiling for the session (eviction trigger); `None`
    /// disables eviction.
    pub resident_budget_bytes: Option<usize>,
    /// Evaluator configuration for the session and its workers.
    pub eval: EvalConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            policy: AdmissionPolicy::default(),
            resident_budget_bytes: None,
            // the serving front runs the full stack: the rewrite
            // optimiser in front of the memoised semi-naive walker,
            // which caches judgments on the *optimised* root — and a
            // query admission would reject in its submitted form can be
            // rescued by a space-class-improving rewrite (the
            // powerset-route → while-route transitive closure headline)
            eval: EvalConfig::rewritten(),
        }
    }
}

/// Per-tenant accounting, folded across every batch the tenant touched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Frames decoded for this tenant.
    pub submitted: u64,
    /// Requests that cleared admission (and the byte-budget check).
    pub admitted: u64,
    /// Requests turned away at staging: byte budget, typecheck or
    /// admission. (An answer too deep for the wire is refused after
    /// evaluation and counts in `errors`.)
    pub rejected: u64,
    /// Admitted requests that evaluated successfully.
    pub completed: u64,
    /// Admitted requests that erred (budget overrun, panic, an answer
    /// nesting past the wire's cap, …).
    pub errors: u64,
    /// Cross-query warm-cache hits earned by this tenant's jobs.
    pub warm_hits: u64,
    /// Bytes charged in the current eviction generation.
    pub bytes_charged: u64,
    /// Lifetime bytes charged (never reset).
    pub total_bytes: u64,
    /// Per-tenant byte budget per eviction generation, set with
    /// [`Server::set_tenant_budget`]; `None` is unlimited.
    pub budget_override: Option<u64>,
}

/// What one serving run did — returned when the loop exits.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Batches evaluated.
    pub batches: u64,
    /// Frames decoded (requests only; control frames excluded).
    pub frames: u64,
    /// Lines that failed to decode (answered with a `failed` response
    /// when a tenant could be salvaged, dropped otherwise).
    pub decode_errors: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Admitted requests completing successfully.
    pub completed: u64,
    /// Admitted requests erring during evaluation, or answering a value
    /// nested past the wire's cap.
    pub errors: u64,
    /// Rejections citing a certified-exponential verdict.
    pub rejected_exponential: u64,
    /// Other admission rejections (ceiling, unanalyzable, probe failure,
    /// ill-typed).
    pub rejected_admission: u64,
    /// Rejections for an exhausted tenant byte budget.
    pub rejected_tenant_budget: u64,
    /// Admitted requests whose *submitted* form admission would have
    /// rejected — the optimiser's rewrite moved them into the
    /// admissible class (e.g. powerset-route → while-route transitive
    /// closure).
    pub rescued: u64,
    /// Final eviction generation of the session.
    pub generation: u64,
    /// The session's aggregate counters (warm hits, evictions, …).
    pub session: SessionStats,
    /// The tenant ledger.
    pub tenants: BTreeMap<String, TenantStats>,
}

/// Does the answer `v` nest deeper than [`MAX_NESTING`], counted as the
/// parser counts values? The arena's cached depth counts an atom as 0
/// and `{}` as 1, the parser each as one level, so the parser's count is
/// the depth, or one more when some deepest branch ends in an atom. The
/// cached depth decides in `O(1)` unless it sits exactly at the cap;
/// only then are the deepest branches walked.
fn nests_past_cap(va: &ValueArena, v: VId) -> bool {
    match (va.depth(v) as usize).cmp(&MAX_NESTING) {
        Ordering::Less => false,
        Ordering::Greater => true,
        Ordering::Equal => {
            // every handle on the stack lies on a deepest branch
            let mut stack = vec![v];
            let mut seen = HashSet::new();
            while let Some(v) = stack.pop() {
                let depth = va.depth(v);
                if depth == 0 {
                    return true;
                }
                if !seen.insert(v) {
                    continue;
                }
                let children = match va.as_pair(v) {
                    Some((a, b)) => vec![a, b],
                    None => va.as_set(v).map_or_else(Vec::new, |items| items.to_vec()),
                };
                stack.extend(children.into_iter().filter(|&c| va.depth(c) + 1 == depth));
            }
            false
        }
    }
}

/// One request's answer inside the server: an `ok` answer is still a
/// handle into the session arena, resolved or written out only where it
/// leaves the server.
#[derive(Debug)]
enum Answer {
    /// Evaluated within its declared budget.
    Ok { declared_budget: u64, value: VId },
    /// Rejected at staging or failed in evaluation.
    Done(Outcome),
}

/// An admitted job, staged for one batch: session handles plus its
/// declared budget and provenance. Embedders can construct these
/// directly (handles must come from the server's [`Server::session`]
/// in its current generation) and push them through
/// [`Server::run_staged`].
#[derive(Debug, Clone)]
pub struct StagedJob {
    /// Tenant accounted.
    pub tenant: String,
    /// Correlation id.
    pub id: u64,
    /// Interned query.
    pub query: EId,
    /// Interned input.
    pub input: VId,
    /// Declared §3 space budget (enforced by the engine).
    pub budget: u64,
}

/// The serving state: session, config, ledger, counters.
pub struct Server {
    session: EvalSession,
    config: ServeConfig,
    report: ServeReport,
    charge_generation: u64,
}

impl Server {
    /// A fresh server with its own session.
    pub fn new(mut config: ServeConfig) -> Self {
        if config.workers == 0 {
            config.workers = std::thread::available_parallelism().map_or(1, usize::from);
        }
        let mut session = EvalSession::new(config.eval.clone());
        if config.eval.optimise {
            nra_opt::install(&mut session);
        }
        session.set_resident_budget(config.resident_budget_bytes);
        Server {
            session,
            config,
            report: ServeReport::default(),
            charge_generation: 0,
        }
    }

    /// The serving session (handles for [`StagedJob`] must be interned
    /// through this).
    pub fn session(&mut self) -> &mut EvalSession {
        &mut self.session
    }

    /// A snapshot of the report so far.
    pub fn report(&self) -> ServeReport {
        let mut report = self.report.clone();
        report.generation = self.session.generation();
        report.session = *self.session.stats();
        report
    }

    /// Set one tenant's per-generation byte budget (tenants are
    /// unlimited until set).
    pub fn set_tenant_budget(&mut self, tenant: &str, bytes: u64) {
        self.report
            .tenants
            .entry(tenant.to_string())
            .or_default()
            .budget_override = Some(bytes);
    }

    fn tenant(&mut self, name: &str) -> &mut TenantStats {
        self.report.tenants.entry(name.to_string()).or_default()
    }

    /// Reset per-generation charges if the session evicted since the
    /// last check — the "byte budgets ride the generational eviction"
    /// contract.
    fn roll_generation(&mut self) {
        let generation = self.session.generation();
        if generation != self.charge_generation {
            self.charge_generation = generation;
            for tenant in self.report.tenants.values_mut() {
                tenant.bytes_charged = 0;
            }
        }
    }

    /// Admit one request: byte-budget check, typecheck, symbolic +
    /// concrete admission. Returns either a staged job or the
    /// rejection. An answer too deep for the wire is refused after
    /// evaluation, by [`Server::evaluate_staged`].
    fn stage(&mut self, request: &Request) -> Result<StagedJob, Outcome> {
        let reject = |reason: String| Outcome::Rejected { reason };
        // an eviction since the last batch voids the old generation's
        // charges before they can block anyone
        self.roll_generation();
        self.tenant(&request.tenant).submitted += 1;

        // 1. tenant byte budget (per eviction generation)
        let generation = self.charge_generation;
        let tenant = self.tenant(&request.tenant);
        let allowance = tenant.budget_override.unwrap_or(u64::MAX);
        if tenant.bytes_charged >= allowance {
            tenant.rejected += 1;
            let charged = tenant.bytes_charged;
            self.report.rejected_tenant_budget += 1;
            return Err(reject(format!(
                "tenant byte budget exhausted for generation {generation}: {charged} of \
                 {allowance} bytes charged; the ledger resets at the next eviction generation"
            )));
        }

        // 2. typecheck against the input's inferred type
        if let Some(dom) = request.input.infer_type() {
            if let Err(e) = output_type(&request.query, &dom) {
                self.tenant(&request.tenant).rejected += 1;
                self.report.rejected_admission += 1;
                return Err(reject(format!("ill-typed query for this input: {e}")));
            }
        }

        // 3. optimise, then cost-based admission on the *optimised*
        // form — a rewrite that provably improves the space class (the
        // cost gate guarantees it never worsens) can move a query from
        // the rejected into the admitted set
        let raw = self.session.intern_expr(&request.query);
        let input = self.session.intern_value(&request.input);
        let query = if self.config.eval.optimise {
            self.session.optimise_eid(raw)
        } else {
            raw
        };
        match admit(&mut self.session, query, input, &self.config.policy) {
            AdmissionDecision::Admitted(a) => {
                // a rescue = the rewrite changed the query AND the
                // submitted form would have been turned away on its own
                if query != raw
                    && matches!(
                        admit(&mut self.session, raw, input, &self.config.policy),
                        AdmissionDecision::Rejected(_)
                    )
                {
                    self.report.rescued += 1;
                }
                self.tenant(&request.tenant).admitted += 1;
                self.report.admitted += 1;
                Ok(StagedJob {
                    tenant: request.tenant.clone(),
                    id: request.id,
                    query,
                    input,
                    budget: a.budget,
                })
            }
            AdmissionDecision::Rejected(r) => {
                self.tenant(&request.tenant).rejected += 1;
                if matches!(r.verdict, SpaceVerdict::Exponential { .. }) {
                    self.report.rejected_exponential += 1;
                } else {
                    self.report.rejected_admission += 1;
                }
                Err(reject(r.reason))
            }
        }
    }

    /// Evaluate one staged batch: [`partition`], scoped-thread fan-out
    /// under per-job budgets, tenant charging, generation roll.
    /// One response per job, in job order.
    pub fn run_staged(&mut self, staged: &[StagedJob]) -> Vec<Response> {
        let mut responses: Vec<Option<Response>> = vec![None; staged.len()];
        self.evaluate_staged(staged, |values, i, answer| {
            let job = &staged[i];
            responses[i] = Some(respond(values, &job.tenant, job.id, answer));
        });
        in_order(responses)
    }

    /// Evaluate one staged batch, handing each job's answer to
    /// `deliver(arena, job index, answer)` as soon as its job completes,
    /// once the answer has passed the wire's nesting-cap check and been
    /// counted for its tenant. An `ok` answer is a handle into the
    /// arena it is delivered with, valid until `deliver` returns: the
    /// batch's tail may evict. The tenants' byte charges land after the
    /// tail, in the generation the batch leaves behind.
    fn evaluate_staged(
        &mut self,
        staged: &[StagedJob],
        mut deliver: impl FnMut(&ValueArena, usize, Answer),
    ) {
        if staged.is_empty() {
            return;
        }
        let pairs: Vec<(EId, VId)> = staged.iter().map(|j| (j.query, j.input)).collect();
        let assignment = partition(&self.session, &pairs, self.config.workers);
        let jobs: Vec<BatchJob> = staged
            .iter()
            .map(|j| BatchJob {
                query: j.query,
                input: j.input,
                max_object_size: Some(j.budget),
            })
            .collect();
        let report = &mut self.report;
        let mut charges = Vec::new();
        eval_batch_streamed(&mut self.session, &jobs, &assignment, |session, i, ev| {
            let job = &staged[i];
            let tenant = report.tenants.entry(job.tenant.clone()).or_default();
            tenant.warm_hits += ev.stats.warm_hits;
            let answer = match ev.result {
                // the one nesting check: the answer itself is measured
                // before it goes on the wire
                Ok(out) if nests_past_cap(session.values(), out) => {
                    tenant.errors += 1;
                    report.errors += 1;
                    Answer::Done(Outcome::Failed {
                        detail: format!(
                            "the answer nests past the wire's nesting cap of \
                             {MAX_NESTING} levels, so the client could not decode it"
                        ),
                    })
                }
                Ok(out) => {
                    charges.push((i, session.values().size(out).saturating_mul(8)));
                    tenant.completed += 1;
                    report.completed += 1;
                    Answer::Ok {
                        declared_budget: job.budget,
                        value: out,
                    }
                }
                Err(e) => {
                    tenant.errors += 1;
                    report.errors += 1;
                    Answer::Done(Outcome::Failed {
                        detail: e.to_string(),
                    })
                }
            };
            deliver(session.values(), i, answer);
        });
        self.report.batches += 1;
        // the batch tail may have evicted — roll the tenant ledgers
        // before charging this batch
        self.roll_generation();
        for (i, bytes) in charges {
            let tenant = self
                .report
                .tenants
                .get_mut(&staged[i].tenant)
                .expect("a completed job's tenant is on the ledger");
            tenant.bytes_charged = tenant.bytes_charged.saturating_add(bytes);
            tenant.total_bytes = tenant.total_bytes.saturating_add(bytes);
        }
    }

    /// Admit and evaluate one batch of parsed requests. One response
    /// per request, in request order.
    pub fn process_batch(&mut self, requests: &[Request]) -> Vec<Response> {
        let mut responses: Vec<Option<Response>> = vec![None; requests.len()];
        self.serve_batch(requests, |values, i, answer| {
            let request = &requests[i];
            responses[i] = Some(respond(values, &request.tenant, request.id, answer));
        });
        in_order(responses)
    }

    /// Stage every request of one batch, then evaluate the admitted
    /// ones, handing each request's answer to `deliver(arena, request
    /// index, answer)` as soon as it is decided: a rejection when
    /// staging turns it away, an admitted request when its job
    /// completes ([`Server::evaluate_staged`]).
    fn serve_batch(
        &mut self,
        requests: &[Request],
        mut deliver: impl FnMut(&ValueArena, usize, Answer),
    ) {
        let mut staged = Vec::new();
        let mut staged_slots = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            self.report.frames += 1;
            match self.stage(request) {
                Ok(job) => {
                    staged.push(job);
                    staged_slots.push(i);
                }
                Err(rejection) => deliver(self.session.values(), i, Answer::Done(rejection)),
            }
        }
        self.evaluate_staged(&staged, |values, j, answer| {
            deliver(values, staged_slots[j], answer)
        });
    }

    /// The serving loop: block for a frame, drain the window, process,
    /// respond; exit on [`SHUTDOWN_FRAME`](crate::wire::SHUTDOWN_FRAME)
    /// or peer hangup. Inbound lines are bounded at [`MAX_FRAME_BYTES`].
    /// Returns the final report.
    pub fn run(mut self, mut transport: Endpoint) -> ServeReport {
        transport.rx.set_max_line(Some(MAX_FRAME_BYTES));
        // exits when the peer hangs up or a shutdown frame arrives
        'serve: while let Some(first) = transport.rx.recv_line() {
            let mut lines = vec![first];
            while lines.len() < BATCH_WINDOW {
                match transport.rx.try_recv_line() {
                    Ok(Some(line)) => lines.push(Ok(line)),
                    Err(e @ WireError::FrameTooLong { .. }) => lines.push(Err(e)),
                    Ok(None) | Err(_) => break,
                }
            }
            let mut requests = Vec::new();
            let mut shutdown = false;
            for line in lines {
                let (text, frame) = match line {
                    Ok(line) => {
                        let frame = decode_frame(&line);
                        (line, frame)
                    }
                    Err(e) => match &e {
                        WireError::FrameTooLong { head, .. } => (head.clone(), Err(e)),
                        _ => (String::new(), Err(e)),
                    },
                };
                match frame {
                    Ok(Frame::Request(request)) => requests.push(request),
                    Ok(Frame::Shutdown) => shutdown = true,
                    Err(e) => {
                        self.report.decode_errors += 1;
                        // salvage the tenant prefix when present so the
                        // client can correlate the failure
                        let tenant = text.split(';').next().unwrap_or("");
                        if validate_tenant(tenant).is_ok() {
                            let id = text
                                .split(';')
                                .nth(1)
                                .and_then(|f| f.parse::<u64>().ok())
                                .unwrap_or(0);
                            let failed = Answer::Done(Outcome::Failed {
                                detail: format!("wire: {e}"),
                            });
                            if send(&transport, self.session.values(), tenant, id, failed).is_err()
                            {
                                break 'serve;
                            }
                        }
                    }
                }
            }
            // each answer leaves as soon as it is decided; once a send
            // fails the peer is gone, and the batch finishes unsent
            let mut hung_up = false;
            self.serve_batch(&requests, |values, i, answer| {
                let request = &requests[i];
                hung_up = hung_up
                    || send(&transport, values, &request.tenant, request.id, answer).is_err();
            });
            if hung_up {
                break 'serve;
            }
            if shutdown {
                break;
            }
        }
        self.report()
    }
}

/// Every slot of a batch's responses, filled once each, in order.
fn in_order(responses: Vec<Option<Response>>) -> Vec<Response> {
    responses
        .into_iter()
        .map(|r| r.expect("every request answered exactly once"))
        .collect()
}

/// The response to one answer, its `ok` value resolved to a tree.
fn respond(values: &ValueArena, tenant: &str, id: u64, answer: Answer) -> Response {
    let outcome = match answer {
        Answer::Ok {
            declared_budget,
            value,
        } => Outcome::Ok {
            declared_budget,
            value: values.resolve(value),
        },
        Answer::Done(outcome) => outcome,
    };
    Response {
        tenant: tenant.to_string(),
        id,
        outcome,
    }
}

/// Send one answer as one frame. An `ok` answer is written straight
/// from the arena that holds it into the frame's only buffer, after the
/// tenant check [`encode_response`] makes, so its bytes are
/// `encode_response`'s on the resolved answer; any other answer goes
/// through `encode_response` itself.
fn send(
    transport: &Endpoint,
    values: &ValueArena,
    tenant: &str,
    id: u64,
    answer: Answer,
) -> Result<(), WireError> {
    match answer {
        Answer::Ok {
            declared_budget,
            value,
        } => {
            validate_tenant(tenant)?;
            let mut line = format!("{tenant};{id};ok;{declared_budget};");
            values.write_text(value, &mut line);
            line.push('\n');
            transport.tx.send_bytes(line.into_bytes())
        }
        Answer::Done(outcome) => transport.tx.send_line(&encode_response(&Response {
            tenant: tenant.to_string(),
            id,
            outcome,
        })?),
    }
}

/// A client for the wire front: submit parsed queries, receive
/// responses. Both halves are independently usable (the sender clones),
/// so many submitter threads can share one server.
#[derive(Debug)]
pub struct Client {
    /// Frame sender (cloneable).
    pub tx: crate::wire::LineSender,
    /// Response receiver.
    pub rx: crate::wire::LineReceiver,
}

impl Client {
    /// Submit one query under `tenant` with correlation id `id`.
    pub fn submit(
        &self,
        tenant: &str,
        id: u64,
        query: &Expr,
        input: &Value,
    ) -> Result<(), WireError> {
        let request = Request {
            tenant: tenant.to_string(),
            id,
            query: query.clone(),
            input: input.clone(),
        };
        self.tx.send_line(&crate::wire::encode_request(&request)?)
    }

    /// Block for the next response; `None` when the server exited.
    pub fn recv(&mut self) -> Option<Result<Response, WireError>> {
        self.rx
            .recv_line()
            .map(|line| line.and_then(|line| crate::wire::decode_response(&line)))
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&self) -> Result<(), WireError> {
        self.tx.send_line(crate::wire::SHUTDOWN_FRAME)
    }
}

/// Spawn a server on its own thread, returning the connected client
/// and the handle that yields the [`ServeReport`] after
/// [`Client::shutdown`] (or hangup).
pub fn spawn(config: ServeConfig) -> (Client, JoinHandle<ServeReport>) {
    let (client_end, server_end) = socketpair();
    let handle = std::thread::spawn(move || Server::new(config).run(server_end));
    (
        Client {
            tx: client_end.tx,
            rx: client_end.rx,
        },
        handle,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::queries;

    #[test]
    fn serve_round_trip_admits_rescues_and_rejects() {
        let (mut client, handle) = spawn(ServeConfig::default());
        client
            .submit("acme", 1, &queries::tc_while(), &Value::chain(6))
            .unwrap();
        // the powerset route: certified exponential as submitted, but
        // the optimiser rewrites it to the while route at the door
        client
            .submit("acme", 2, &queries::tc_paths(), &Value::chain(20))
            .unwrap();
        // a bare powerset really is exponential — nothing to rewrite
        client
            .submit("acme", 3, &nra_core::builder::powerset(), &Value::chain(20))
            .unwrap();
        let mut by_id = BTreeMap::new();
        for _ in 0..3 {
            let resp = client.recv().unwrap().unwrap();
            by_id.insert(resp.id, resp.outcome);
        }
        match &by_id[&1] {
            Outcome::Ok { value, .. } => assert_eq!(*value, Value::chain_tc(6)),
            other => panic!("tc_while: {other:?}"),
        }
        match &by_id[&2] {
            Outcome::Ok { value, .. } => assert_eq!(*value, Value::chain_tc(20)),
            other => panic!("tc_paths chain(20) must be rescued: {other:?}"),
        }
        match &by_id[&3] {
            Outcome::Rejected { reason } => {
                assert!(reason.contains("Theorem 4.1"), "{reason}")
            }
            other => panic!("powerset chain(20): {other:?}"),
        }
        client.shutdown().unwrap();
        let report = handle.join().unwrap();
        assert_eq!(report.completed, 2);
        assert_eq!(report.rescued, 1);
        assert_eq!(report.rejected_exponential, 1);
        assert_eq!(report.tenants["acme"].submitted, 3);
    }

    #[test]
    fn optimise_off_front_rejects_what_the_default_front_rescues() {
        let mut server = Server::new(ServeConfig {
            eval: EvalConfig::optimised(),
            ..ServeConfig::default()
        });
        let responses = server.process_batch(&[Request {
            tenant: "acme".into(),
            id: 1,
            query: queries::tc_paths(),
            input: Value::chain(20),
        }]);
        assert!(
            matches!(&responses[0].outcome, Outcome::Rejected { reason } if reason.contains("Theorem 4.1")),
            "{responses:?}"
        );
        assert_eq!(server.report().rescued, 0);
    }

    #[test]
    fn admission_probe_warms_the_shared_store_for_the_admitted_run() {
        // powerset over a nontrivial powerset-free prefix: admission
        // must evaluate `tc_step` on the live input to price the site,
        // and that judgment must land in the session's apply table,
        // which the batch's worker shares, so the admitted run starts
        // warm.
        // Interpreted memo config: it probes the cache at every node,
        // so the overlap with the probe's keys is exact rather than
        // call-grain dependent; optimise stays off so the query runs as
        // submitted
        let mut server = Server::new(ServeConfig {
            eval: EvalConfig::optimised(),
            ..ServeConfig::default()
        });
        let query = nra_core::builder::compose(nra_core::builder::powerset(), queries::tc_step());
        let responses = server.process_batch(&[Request {
            tenant: "acme".into(),
            id: 1,
            query,
            input: Value::chain(4),
        }]);
        assert!(
            matches!(&responses[0].outcome, Outcome::Ok { .. }),
            "{responses:?}"
        );
        let report = server.report();
        assert!(
            report.tenants["acme"].warm_hits > 0,
            "probe judgments must land in the shared store, not a doomed local cache: {report:?}"
        );
    }

    #[test]
    fn warm_hits_accrue_across_tenants_on_the_shared_store() {
        let (mut client, handle) = spawn(ServeConfig::default());
        for (round, tenant) in ["alpha", "beta", "alpha", "beta"].iter().enumerate() {
            client
                .submit(tenant, round as u64, &queries::tc_while(), &Value::chain(9))
                .unwrap();
            let resp = client.recv().unwrap().unwrap();
            assert!(matches!(resp.outcome, Outcome::Ok { .. }), "{resp:?}");
        }
        client.shutdown().unwrap();
        let report = handle.join().unwrap();
        assert!(
            report.tenants["beta"].warm_hits > 0,
            "beta must warm-hit judgments derived for alpha: {report:?}"
        );
    }

    #[test]
    fn the_default_worker_count_is_the_machines_parallelism() {
        let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(
            Server::new(ServeConfig::default()).config.workers,
            parallelism
        );
        let set = ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        };
        assert_eq!(Server::new(set).config.workers, 3);
    }

    #[test]
    fn ill_typed_queries_are_rejected_at_the_door() {
        let mut server = Server::new(ServeConfig::default());
        let responses = server.process_batch(&[Request {
            tenant: "acme".into(),
            id: 9,
            // fst of a set input: ill-typed
            query: nra_core::builder::fst(),
            input: Value::chain(3),
        }]);
        assert!(
            matches!(&responses[0].outcome, Outcome::Rejected { reason } if reason.contains("ill-typed")),
            "{responses:?}"
        );
    }
}
