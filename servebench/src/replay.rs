//! The traced replay: the same seeded frames on `Server::new(config)` +
//! `server.session()`, making the calls `Server::run` and
//! `Server::process_batch` make, in their order, with a span around each
//! call into a layer and the layer's counts read at the same boundary.
//!
//! One call is added when spans are on: `nra_symbolic::predict_space` is
//! pure, and `admission::admit` runs it inside, so the replay calls it
//! once more just before `admit` to time the symbolic verdict on its own.
//! That extra call is part of the measured tracing overhead.

use crate::reference::{Expect, Tally};
use crate::workload::Job;
use nra_core::output_type;
use nra_eval::{eval_batch_assigned, BatchJob, SessionStats};
use nra_serve::{
    admit, decode_frame, encode_response, partition, AdmissionDecision, Frame, Outcome, Response,
    ServeConfig, Server,
};
use nra_symbolic::predict_space;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One recorded call: which layer, when, under which span, for which
/// request (`None` for the batch-level spans several requests share).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, as in the per-layer metric names.
    pub name: &'static str,
    /// Start, in nanoseconds since the replay began.
    pub start_ns: u64,
    /// End, in nanoseconds since the replay began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Correlation id of the request the span belongs to.
    pub request: Option<u64>,
}

/// In-memory span recorder; a no-op when off.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn enter(&mut self, name: &'static str, request: Option<u64>) {
        if self.on {
            let now = self.origin.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: self.open.last().copied(),
                request,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    fn exit(&mut self) {
        if self.on {
            let i = self.open.pop().expect("exit matches an enter");
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }
}

/// The counts that must repeat exactly: between two replays of one seed,
/// and, where the server keeps the same count, against its `ServeReport`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// `EvalStats::nodes`, summed over jobs.
    pub nodes: u64,
    /// `EvalStats::max_object_size`, summed over jobs.
    pub max_object_size: u64,
    /// `EvalStats::warm_hits`, summed over jobs.
    pub warm_hits: u64,
    /// Roots the optimiser changed.
    pub rewritten: u64,
    /// Rewritten roots whose submitted form admission rejects
    /// (`ServeReport::rescued`).
    pub rescued: u64,
    /// Requests turned away at the door.
    pub rejects: u64,
    /// The session's own counters at the end of the replay.
    pub session: SessionStats,
}

/// Everything else the traced replay reads at its boundaries.
#[derive(Debug, Clone, Default)]
pub struct Readings {
    /// Bytes of every encoded response.
    pub response_bytes: Vec<usize>,
    /// Declared budget ÷ observed `max_object_size`, per completed job.
    pub slack: Vec<f64>,
    /// Non-empty partitions, per evaluated batch.
    pub workers_used: Vec<usize>,
    /// `approx_resident_bytes` after each batch.
    pub resident_bytes: Vec<usize>,
    /// Apply-cache hits and misses, summed over jobs.
    pub memo_hits: u64,
    /// See `memo_hits`.
    pub memo_misses: u64,
    /// `EvalStats::delta_hits`, summed over jobs.
    pub delta_hits: u64,
    /// `EvalStats::dense_ops`, summed over jobs.
    pub dense_ops: u64,
}

/// One replay's results.
pub struct Replay {
    /// Recorded spans (empty when spans were off).
    pub spans: Vec<Span>,
    /// Exact counts.
    pub counts: Counts,
    /// Other readings.
    pub readings: Readings,
    /// Answers checked against their references.
    pub tally: Tally,
    /// Wall time of the replay, answer checks excluded.
    pub wall_s: f64,
}

/// Replay `batches` (each one drained server batch) on a fresh server.
pub fn replay(config: &ServeConfig, batches: &[Vec<&Job>], spans: bool) -> Replay {
    let mut server = Server::new(config.clone());
    let mut tracer = Tracer {
        on: spans,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    };
    let mut counts = Counts::default();
    let mut readings = Readings::default();
    let mut answered: Vec<(&Expect, Outcome)> = Vec::new();

    let start = Instant::now();
    for batch in batches {
        tracer.enter("batch", None);
        // Server::run: decode every drained line
        let mut requests = Vec::with_capacity(batch.len());
        for job in batch {
            tracer.enter("wire.decode", Some(job.id));
            let frame = decode_frame(&job.line);
            tracer.exit();
            match frame {
                Ok(Frame::Request(request)) => requests.push(request),
                other => panic!("generated frame {} failed to decode: {other:?}", job.id),
            }
        }

        // Server::process_batch → Server::stage, per request
        let session = server.session();
        let mut outcomes: Vec<Option<Outcome>> = vec![None; requests.len()];
        let mut staged = Vec::new();
        for (slot, request) in requests.iter().enumerate() {
            let id = Some(request.id);
            tracer.enter("stage", id);
            tracer.enter("typecheck", id);
            let typed = request
                .input
                .infer_type()
                .map(|dom| output_type(&request.query, &dom));
            tracer.exit();
            if let Some(Err(e)) = typed {
                tracer.exit();
                counts.rejects += 1;
                outcomes[slot] = Some(Outcome::Rejected {
                    reason: format!("ill-typed query for this input: {e}"),
                });
                continue;
            }
            tracer.enter("intern", id);
            let raw = session.intern_expr(&request.query);
            let input = session.intern_value(&request.input);
            tracer.exit();
            tracer.enter("opt", id);
            let query = if config.eval.optimise {
                session.optimise_eid(raw)
            } else {
                raw
            };
            tracer.exit();
            if query != raw {
                counts.rewritten += 1;
            }
            if spans {
                tracer.enter("symbolic", id);
                let size = session.values().size(input);
                let card = session.values().cardinality(input).map_or(0, |c| c as u64);
                black_box(predict_space(query, session.exprs(), size, card));
                tracer.exit();
            }
            tracer.enter("admission", id);
            let decision = admit(session, query, input, &config.policy);
            if matches!(decision, AdmissionDecision::Admitted(_))
                && query != raw
                && matches!(
                    admit(session, raw, input, &config.policy),
                    AdmissionDecision::Rejected(_)
                )
            {
                counts.rescued += 1;
            }
            tracer.exit();
            tracer.exit();
            match decision {
                AdmissionDecision::Admitted(a) => staged.push((slot, query, input, a.budget)),
                AdmissionDecision::Rejected(r) => {
                    counts.rejects += 1;
                    outcomes[slot] = Some(Outcome::Rejected { reason: r.reason });
                }
            }
        }

        // Server::run_staged
        if !staged.is_empty() {
            let pairs: Vec<_> = staged.iter().map(|&(_, q, v, _)| (q, v)).collect();
            tracer.enter("schedule", None);
            let assignment = partition(session, &pairs, config.workers);
            tracer.exit();
            readings
                .workers_used
                .push(assignment.iter().filter(|part| !part.is_empty()).count());
            let jobs: Vec<BatchJob> = staged
                .iter()
                .map(|&(_, query, input, budget)| BatchJob {
                    query,
                    input,
                    max_object_size: Some(budget),
                })
                .collect();
            tracer.enter("eval", None);
            let evals = eval_batch_assigned(session, &jobs, &assignment);
            tracer.exit();
            for (&(slot, _, _, budget), ev) in staged.iter().zip(evals) {
                counts.nodes += ev.stats.nodes;
                counts.max_object_size += ev.stats.max_object_size;
                counts.warm_hits += ev.stats.warm_hits;
                readings.memo_hits += ev.stats.memo_hits;
                readings.memo_misses += ev.stats.memo_misses;
                readings.delta_hits += ev.stats.delta_hits;
                readings.dense_ops += ev.stats.dense_ops;
                outcomes[slot] = Some(match ev.result {
                    Ok(out) => {
                        readings
                            .slack
                            .push(budget as f64 / ev.stats.max_object_size.max(1) as f64);
                        // the tenant charge Server::run_staged reads
                        black_box(session.values().size(out));
                        tracer.enter("resolve", Some(batch[slot].id));
                        let value = session.resolve(out);
                        tracer.exit();
                        Outcome::Ok {
                            declared_budget: budget,
                            value,
                        }
                    }
                    Err(e) => Outcome::Failed {
                        detail: e.to_string(),
                    },
                });
            }
        }
        readings
            .resident_bytes
            .push(session.approx_resident_bytes());

        // Server::run: encode every response, in request order
        for ((request, outcome), job) in requests.iter().zip(outcomes).zip(batch) {
            let response = Response {
                tenant: request.tenant.clone(),
                id: request.id,
                outcome: outcome.expect("every request answered exactly once"),
            };
            tracer.enter("wire.encode", Some(request.id));
            let line = encode_response(&response).expect("responses encode");
            tracer.exit();
            readings.response_bytes.push(line.len() + 1);
            answered.push((&job.expect, response.outcome));
        }
        tracer.exit();
    }
    let wall_s = start.elapsed().as_secs_f64();
    counts.session = *server.session().stats();

    let mut tally = Tally::default();
    for (expect, outcome) in &answered {
        if let Err(e) = tally.record(expect, outcome) {
            eprintln!("servebench: replay answer: {e}");
        }
    }
    Replay {
        spans: tracer.spans,
        counts,
        readings,
        tally,
        wall_s,
    }
}

/// Self time per layer: each span's duration minus the time its direct
/// children cover, summed by name, with the number of spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.end_ns - span.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += (span.end_ns - span.start_ns).saturating_sub(children) as f64 * 1e-9;
        entry.1 += 1;
    }
    by_name
}
