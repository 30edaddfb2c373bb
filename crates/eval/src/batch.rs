//! Parallel batch evaluation over one **shared concurrent store**.
//!
//! A batch is a list of `(EId, VId)` queries against one parent
//! [`EvalSession`]. Every arena is shareable from birth, so
//! [`eval_batch`] fans the queries across up to `workers` scoped
//! threads (`std::thread::scope` — no external crates) as they are,
//! each owning a worker session [split](EvalSession::split) off the
//! parent:
//!
//! 1. workers **share the parent's arenas and apply table** — there is
//!    no per-worker arena, no resolve-to-tree hand-off, and no
//!    re-intern merge pass; every worker interns into the single
//!    canonical store, so a handle issued by any of them is valid in
//!    all of them (and in the parent);
//! 2. workers claim the queries their **assignment** names and evaluate
//!    them on handles directly. [`partition`] is the one placement
//!    rule — [`eval_batch`] passes its assignment to
//!    [`eval_batch_assigned`], the serving layer to
//!    [`eval_batch_streamed`] — and it places jobs by cost alone,
//!    heaviest first on the least-loaded worker. Because the apply
//!    table is shared, a judgment derived by one worker is an `O(1)`
//!    warm hit for every other worker (and for later queries of the
//!    parent) — one worker's derivation is the whole batch's warm
//!    start;
//! 3. results are handles into the shared store, handed out in one of
//!    two orders over one evaluation path. [`eval_batch_streamed`]
//!    hands each job to a callback on the calling thread **as soon as
//!    it completes** (fanned-out workers send finished jobs over a
//!    channel), so a server can answer a small job while a large one
//!    still runs; [`eval_batch_assigned`] collects the same jobs and
//!    returns them in input order. Interning is canonical, so the
//!    handles (and the §3 statistics, which are a pure function of
//!    `(query, input, config)`) are **bit-for-bit identical** to a
//!    sequential evaluation of the same batch, regardless of thread
//!    scheduling. The differential harness holds this across all seven
//!    graph families.
//!
//! Evaluation is pure, so correctness never depends on the partition;
//! the partition only decides wall-clock time and the interleaving of
//! cache fills, and the shared apply table makes even that immaterial
//! for warmth.
//!
//! **Small batches never pay for threads.** Spawning a scoped worker
//! costs on the order of 100µs, which dominates a sub-millisecond
//! batch — the `dag/tc_while n=8` workload used to *lose* 8% against
//! sequential evaluation. [`partition`] therefore prices the batch up
//! front (an `O(1)`-per-job metadata read) and keeps batches under
//! [`SMALL_BATCH_COST`] in one partition, which the batch runs inline
//! on the calling thread, still through a single split
//! worker session — so the shared apply table, panic containment,
//! statistics and budget accounting are identical on both paths, and
//! the results stay bit-for-bit the same (a regression test pins both
//! sides of the threshold).
//!
//! The batch also keeps the parent's *accounting* honest:
//!
//! * every per-query [`EvalStats`](crate::stats::EvalStats) is folded
//!   into the parent's [`SessionStats`](crate::SessionStats), exactly
//!   as a sequential [`EvalSession::eval_vid`] loop would;
//! * the parent's resident budget is enforced at the batch boundary:
//!   if the shared store ends the batch over budget, the parent
//!   [evicts](EvalSession::evict). [`eval_batch_assigned`] resolves
//!   its results first and re-interns them into the fresh generation
//!   (the returned handles are valid in the post-batch generation
//!   either way); [`eval_batch_streamed`] has handed every result out
//!   already, so its handles are valid only until it returns;
//! * a worker panic (e.g. a stale fabricated handle) is contained to
//!   its job and surfaced as
//!   [`EvalError::WorkerPanicked`]
//!   — the other jobs of the batch still return their results.
//!
//! ```
//! use nra_core::{queries, Value};
//! use nra_eval::{batch::eval_batch, EvalConfig, EvalSession};
//!
//! let mut session = EvalSession::new(EvalConfig::optimised());
//! let q = session.intern_expr(&queries::tc_while());
//! let jobs: Vec<_> = (3..7u64)
//!     .map(|n| (q, session.values_mut().chain(n)))
//!     .collect();
//! let results = eval_batch(&mut session, &jobs, 2);
//! for (n, ev) in (3..7u64).zip(&results) {
//!     let expect = session.values_mut().chain_tc(n);
//!     assert_eq!(ev.result.clone().unwrap(), expect);
//! }
//! ```

use crate::eager::VidEvaluation;
use crate::error::EvalError;
use crate::session::EvalSession;
use nra_core::expr::intern::EId;
use nra_core::value::intern::VId;
use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;

/// Batches whose summed [`partition`] cost falls below this run inline
/// on the calling thread instead of spawning workers. Calibrated so the
/// 12-job `tc_while` batches on ≤10-node graphs (sub-millisecond of
/// total work, where thread spawns used to eat the parallel win) stay
/// sequential while the larger differential/bench workloads still fan
/// out.
pub const SMALL_BATCH_COST: u64 = 750_000;

/// One job of an assigned batch: a query applied to an input, with an
/// optional per-job `max_object_size` tightening (the serving layer's
/// *declared budget* — admission control predicts a space envelope per
/// query and the engine enforces it, surfacing an overrun as
/// [`EvalError::SpaceBudgetExceeded`]).
/// `None` inherits the session's configured budget unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchJob {
    /// The hash-consed query.
    pub query: EId,
    /// The interned input.
    pub input: VId,
    /// Per-job space budget (§3 object-size units); the effective budget
    /// is the minimum of this and the session's configured one.
    pub max_object_size: Option<u64>,
}

impl From<(EId, VId)> for BatchJob {
    fn from((query, input): (EId, VId)) -> Self {
        BatchJob {
            query,
            input,
            max_object_size: None,
        }
    }
}

/// The one placement rule for a batch: which of `workers` workers
/// evaluates which of `jobs`, as an assignment for
/// [`eval_batch_assigned`] (`assignment[w]` lists worker `w`'s job
/// indices in job order; every index appears exactly once).
///
/// `workers` is clamped to `1..=jobs.len()`, and a batch whose summed
/// cost falls under [`SMALL_BATCH_COST`] is one inline partition
/// (sub-millisecond batches lose more to thread spawns than they gain
/// from parallelism — the `batch_speedup: 0.168` regression on chain
/// n=8). Otherwise the jobs are placed heaviest first, each on the
/// least-loaded worker (longest processing time first), ties broken by
/// fewer jobs and then by lower worker index, so equal-cost jobs are
/// dealt round-robin and a job heavier than all the others together
/// gets a worker of its own. A job's cost is the `O(1)` proxy
/// `ops(query) · size(input)²` — two interned metadata reads, the square
/// reflecting that the relational workloads are dominated by their
/// self-products. Placement changes no answer and no §3 statistic; it
/// only decides wall-clock time.
pub fn partition(session: &EvalSession, jobs: &[(EId, VId)], workers: usize) -> Vec<Vec<usize>> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let costs: Vec<u64> = jobs
        .iter()
        .map(|&(query, input)| job_cost(session, query, input))
        .collect();
    let workers = workers.clamp(1, jobs.len());
    if workers == 1 || costs.iter().fold(0u64, |a, &c| a.saturating_add(c)) < SMALL_BATCH_COST {
        return vec![(0..jobs.len()).collect()];
    }
    // a stable sort: equal costs keep job order
    let mut heaviest_first: Vec<usize> = (0..jobs.len()).collect();
    heaviest_first.sort_by_key(|&i| Reverse(costs[i]));
    let mut assignment = vec![Vec::new(); workers];
    let mut loads = vec![0u64; workers];
    for i in heaviest_first {
        // the first minimum: the lower index on a full tie
        let w = (0..workers)
            .min_by_key(|&w| (loads[w], assignment[w].len()))
            .expect("workers >= 1");
        loads[w] = loads[w].saturating_add(costs[i]);
        assignment[w].push(i);
    }
    for part in &mut assignment {
        part.sort_unstable();
    }
    assignment
}

/// [`partition`]'s per-job cost proxy. A stale or fabricated handle
/// costs 0 here and panics inside the per-job guard instead
/// ([`EvalError::WorkerPanicked`]), not in the placement.
fn job_cost(session: &EvalSession, query: EId, input: VId) -> u64 {
    if query.index() >= session.exprs().node_count() || input.index() >= session.values().len() {
        return 0;
    }
    let s = session.values().size(input);
    session
        .exprs()
        .ops(query)
        .saturating_mul(s.saturating_mul(s))
}

/// Evaluate `queries` (handles into `session`) across at most `workers`
/// scoped worker threads over the session's stores, returning one
/// [`VidEvaluation`] per query, in input order, with result handles
/// valid in `session`. The jobs are placed by [`partition`], so a batch
/// under [`SMALL_BATCH_COST`] runs on one inline worker (results are
/// partition-independent by construction, so the placement is invisible
/// except in wall-clock time). The session keeps the shared apply table
/// afterwards, so a later batch re-uses every judgment this one
/// derived.
pub fn eval_batch(
    session: &mut EvalSession,
    queries: &[(EId, VId)],
    workers: usize,
) -> Vec<VidEvaluation> {
    let assignment = partition(session, queries, workers);
    let jobs: Vec<BatchJob> = queries.iter().copied().map(BatchJob::from).collect();
    eval_batch_assigned(session, &jobs, &assignment)
}

/// The evaluation under [`eval_batch`]: evaluate `jobs` under an
/// **explicit partition** — `assignment[w]` lists the job indices worker
/// `w` evaluates, and every job index must be assigned exactly once.
/// Each non-empty partition gets one worker session; an empty one gets
/// nothing. When at most one partition is non-empty the batch runs
/// inline on the calling thread (no spawn); anything else fans out on
/// scoped threads. Results come back in job order either way, with the
/// same statistics folding, panic containment and parent-budget
/// enforcement as [`eval_batch`] — which is this function with the
/// [`partition`] assignment. It collects what [`eval_batch_streamed`]
/// hands out, so both run one evaluation path; only the tail differs,
/// because the collected handles outlive the batch: an eviction
/// resolves them first and re-interns them into the new generation.
pub fn eval_batch_assigned(
    session: &mut EvalSession,
    jobs: &[BatchJob],
    assignment: &[Vec<usize>],
) -> Vec<VidEvaluation> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let mut gathered: Vec<Option<VidEvaluation>> = (0..jobs.len()).map(|_| None).collect();
    stream(session, jobs, assignment, |_, i, ev| gathered[i] = Some(ev));
    let mut results: Vec<VidEvaluation> = gathered
        .into_iter()
        .map(|ev| ev.expect("every job was claimed by exactly one worker"))
        .collect();
    // the resident budget is enforced at the batch boundary. An
    // eviction invalidates the gathered handles, so resolve-evict-
    // re-intern keeps the returned handles valid in the new generation.
    if session.over_budget() {
        let resolved: Vec<_> = results
            .iter()
            .map(|ev| ev.result.as_ref().ok().map(|&out| session.resolve(out)))
            .collect();
        session.evict();
        for (ev, value) in results.iter_mut().zip(&resolved) {
            if let Some(value) = value {
                ev.result = Ok(session.intern_value(value));
            }
        }
    }
    results
}

/// [`eval_batch_assigned`] in completion order: hand each job's
/// evaluation to `on_done(session, job index, evaluation)` on the
/// calling thread as soon as the job completes, instead of returning
/// them all in job order once the batch is done. Inline partitions call
/// back between jobs; fanned-out workers send each finished job to the
/// calling thread over a channel. Before every call the parent session
/// has absorbed the job's statistics and caught up with the chunks the
/// workers allocated, so the answer reads as fast through it as through
/// the worker that interned it. Every job reaches `on_done` exactly
/// once, a panicking one as [`EvalError::WorkerPanicked`].
///
/// A result handle is valid in `session` until the call returns: if the
/// batch ends over the parent's resident budget, the tail evicts, and
/// no handle is re-interned.
pub fn eval_batch_streamed(
    session: &mut EvalSession,
    jobs: &[BatchJob],
    assignment: &[Vec<usize>],
    on_done: impl FnMut(&EvalSession, usize, VidEvaluation),
) {
    if jobs.is_empty() {
        return;
    }
    stream(session, jobs, assignment, on_done);
    if session.over_budget() {
        session.evict();
    }
}

/// The one evaluation path under [`eval_batch_assigned`] and
/// [`eval_batch_streamed`]: split, run each partition inline or on its
/// own scoped thread, and deliver each finished job — its statistics
/// folded into the parent's books as a sequential
/// [`EvalSession::eval_vid`] loop would fold them — to `on_done`.
fn stream(
    session: &mut EvalSession,
    jobs: &[BatchJob],
    assignment: &[Vec<usize>],
    mut on_done: impl FnMut(&EvalSession, usize, VidEvaluation),
) {
    let assigned: usize = assignment.iter().map(Vec::len).sum();
    debug_assert!(
        assigned == jobs.len() && {
            let mut seen = vec![false; jobs.len()];
            assignment
                .iter()
                .flatten()
                .all(|&i| i < jobs.len() && !std::mem::replace(&mut seen[i], true))
        },
        "assignment must name every job index exactly once"
    );

    let parts: Vec<&[usize]> = assignment
        .iter()
        .map(Vec::as_slice)
        .filter(|part| !part.is_empty())
        .collect();
    let mut deliver = |session: &mut EvalSession, i: usize, ev: VidEvaluation| {
        session.catch_up();
        session.absorb(&ev.stats);
        on_done(session, i, ev);
    };
    let mut worker_sessions = session.split(parts.len().max(1));
    if parts.len() <= 1 {
        // inline: same worker-session semantics, no spawn. The worker's
        // views are released before the last job is handed out, so only
        // the budget check follows the last hand-off.
        let mut worker = worker_sessions.pop().expect("one worker session");
        let mine = parts.first().copied().unwrap_or_default();
        if let Some((&last, rest)) = mine.split_last() {
            for &i in rest {
                let ev = run_job(&mut worker, jobs[i]);
                deliver(session, i, ev);
            }
            let ev = run_job(&mut worker, jobs[last]);
            drop(worker);
            deliver(session, last, ev);
        }
        return;
    }
    let (done, finished) = mpsc::channel();
    std::thread::scope(|scope| {
        let handles: Vec<_> = worker_sessions
            .into_iter()
            .zip(&parts)
            .map(|(mut worker, &mine)| {
                let done = done.clone();
                scope.spawn(move || {
                    for &i in mine {
                        // the receiver is gone only if the calling
                        // thread is unwinding: stop early
                        if done.send((i, run_job(&mut worker, jobs[i]))).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(done);
        // ends once every worker has finished and dropped its sender
        let mut delivered = vec![false; jobs.len()];
        for (i, ev) in finished {
            delivered[i] = true;
            deliver(session, i, ev);
        }
        for (handle, &mine) in handles.into_iter().zip(&parts) {
            // a panic that escaped the per-job guard (should not
            // happen): fail that worker's undelivered share
            if let Err(payload) = handle.join() {
                let detail = panic_detail(&payload);
                for &i in mine.iter().filter(|&&i| !delivered[i]) {
                    let ev = VidEvaluation {
                        result: Err(EvalError::WorkerPanicked {
                            detail: detail.clone(),
                        }),
                        stats: crate::stats::EvalStats::default(),
                    };
                    deliver(session, i, ev);
                }
            }
        }
    });
}

/// One job on one worker session, with the panic guard: a panicking job
/// (stale fabricated handle, debug assertion, …) is contained to that
/// job and surfaced as [`EvalError::WorkerPanicked`].
fn run_job(worker: &mut EvalSession, job: BatchJob) -> VidEvaluation {
    catch_unwind(AssertUnwindSafe(|| {
        worker.eval_vid_budgeted(job.query, job.input, job.max_object_size)
    }))
    .unwrap_or_else(|payload| VidEvaluation {
        result: Err(EvalError::WorkerPanicked {
            detail: panic_detail(&payload),
        }),
        stats: crate::stats::EvalStats::default(),
    })
}

/// Render a panic payload for [`EvalError::WorkerPanicked`].
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EvalConfig;
    use nra_core::{queries, Expr, Value};
    use nra_testkit::graphs::{self, FamilyGraph};
    use nra_testkit::Rng;

    #[test]
    fn batch_matches_sequential_session_evaluation() {
        for config in [EvalConfig::default(), EvalConfig::optimised()] {
            let mut session = EvalSession::new(config.clone());
            let q_while = session.intern_expr(&queries::tc_while());
            let q_step = session.intern_expr(&queries::tc_step());
            let jobs: Vec<(EId, VId)> = (2..8u64)
                .flat_map(|n| {
                    let input = session.values_mut().chain(n);
                    [(q_while, input), (q_step, input)]
                })
                .collect();
            // sequential reference, through the same session
            let sequential: Vec<_> = jobs
                .iter()
                .map(|&(eid, input)| session.eval_vid(eid, input))
                .collect();
            let batched = eval_batch(&mut session, &jobs, 4);
            assert_eq!(batched.len(), sequential.len());
            for (i, (seq, par)) in sequential.iter().zip(&batched).enumerate() {
                // same canonical store ⇒ identical handles
                assert_eq!(
                    seq.result.as_ref().unwrap(),
                    par.result.as_ref().unwrap(),
                    "job {i}"
                );
            }
        }
    }

    #[test]
    fn batch_stats_are_partition_independent() {
        // the §3 statistics are a pure function of (query, input,
        // config): every worker count reports the same per-query stats
        let mut session = EvalSession::new(EvalConfig::default());
        let q = session.intern_expr(&queries::tc_while());
        let jobs: Vec<(EId, VId)> = (2..6u64)
            .map(|n| (q, session.values_mut().chain(n)))
            .collect();
        let one = eval_batch(&mut session, &jobs, 1);
        let four = eval_batch(&mut session, &jobs, 4);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        }
    }

    #[test]
    fn empty_and_oversized_worker_counts() {
        let mut session = EvalSession::new(EvalConfig::default());
        assert!(eval_batch(&mut session, &[], 4).is_empty());
        let q = session.intern_expr(&queries::tc_while());
        let input = session.values_mut().chain(3);
        let jobs = [(q, input)];
        // more workers than jobs clamps cleanly
        let out = eval_batch(&mut session, &jobs, 64);
        let expect = session.values_mut().chain_tc(3);
        assert_eq!(out[0].result.clone().unwrap(), expect);
    }

    #[test]
    fn batch_shares_one_store_and_one_apply_table() {
        // the parent's arenas are the workers' store: the handles a
        // batch returns are the parent's own, and the judgments the
        // workers derived are warm for the parent
        let mut session = EvalSession::new(EvalConfig::optimised());
        let q = session.intern_expr(&queries::tc_while());
        let jobs: Vec<(EId, VId)> = (4..8u64)
            .map(|n| (q, session.values_mut().chain(n)))
            .collect();
        // what the parent derived before the batch is warm for the
        // worker that meets it
        let (eid, input) = jobs[0];
        let own = session.eval_vid(eid, input).result.unwrap();
        let first = eval_batch(&mut session, &jobs, 4);
        assert_eq!(*first[0].result.as_ref().unwrap(), own);
        assert!(first[0].stats.warm_hits > 0, "{:?}", first[0].stats);
        let nodes = session.values().len();
        for (n, ev) in (4..8u64).zip(&first) {
            let expect = session.values_mut().chain_tc(n);
            assert_eq!(*ev.result.as_ref().unwrap(), expect, "n={n}");
        }
        assert_eq!(
            session.values().len(),
            nodes,
            "the workers' answers were already in the parent's store"
        );
        // a second batch over the same jobs hits the shared table the
        // first batch filled: every job reports warm activity
        let second = eval_batch(&mut session, &jobs, 4);
        for (i, (a, b)) in first.iter().zip(&second).enumerate() {
            assert_eq!(a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert!(
                b.stats.warm_hits > 0,
                "job {i}: second batch found no warm entries: {:?}",
                b.stats
            );
        }
        // …and the parent itself hits them too, sequentially
        let (eid, input) = jobs[2];
        let warm = session.eval_vid(eid, input);
        assert!(warm.stats.warm_hits > 0, "{:?}", warm.stats);
    }

    /// Regression (bug 1): worker sessions used to be constructed with
    /// `EvalSession::new(config)` — no resident budget — so a budgeted
    /// parent could blow N-fold past its ceiling during a batch with
    /// `evictions` still reading 0. The budget is now enforced at the
    /// batch boundary.
    #[test]
    fn batch_respects_the_parent_resident_budget() {
        let mut session = EvalSession::with_resident_budget(EvalConfig::optimised(), 1);
        let q = session.intern_expr(&queries::tc_while());
        let jobs: Vec<(EId, VId)> = (2..6u64)
            .map(|n| (q, session.values_mut().chain(n)))
            .collect();
        let generation = session.generation();
        let out = eval_batch(&mut session, &jobs, 2);
        assert!(
            session.stats().evictions >= 1,
            "a 1-byte budget must evict at the batch boundary: {:?}",
            session.stats()
        );
        assert!(session.generation() > generation);
        // the returned handles were re-interned into the new generation
        for (n, ev) in (2..6u64).zip(&out) {
            let expect = session.values_mut().chain_tc(n);
            assert_eq!(*ev.result.as_ref().unwrap(), expect, "n={n}");
        }
    }

    /// Regression (bug 3): a single panicking job used to abort the
    /// whole batch through `handle.join().expect(…)`. It now surfaces
    /// as a per-job `WorkerPanicked` error and the other jobs return
    /// their results.
    #[test]
    fn one_panicking_job_does_not_poison_the_batch() {
        let mut session = EvalSession::new(EvalConfig::optimised());
        let q = session.intern_expr(&queries::tc_while());
        let good: Vec<(EId, VId)> = (2..6u64)
            .map(|n| (q, session.values_mut().chain(n)))
            .collect();
        // a fabricated handle no arena ever issued: evaluating it
        // panics inside the worker (stale-handle detection)
        let poison = (q, VId::from_index(usize::from(u16::MAX) << 8));
        let mut jobs = good.clone();
        jobs.insert(2, poison);
        let out = eval_batch(&mut session, &jobs, 3);
        assert_eq!(out.len(), jobs.len());
        assert!(
            matches!(out[2].result, Err(EvalError::WorkerPanicked { .. })),
            "poisoned job must fail with WorkerPanicked: {:?}",
            out[2].result
        );
        let expect: Vec<_> = (2..6u64)
            .map(|n| session.values_mut().chain_tc(n))
            .collect();
        let survivors = out
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 2)
            .map(|(_, ev)| ev);
        for (ev, expect) in survivors.zip(&expect) {
            assert_eq!(ev.result.as_ref().unwrap(), expect);
        }
    }

    /// A panicking job must be contained on the *inline* (small-batch)
    /// path too — same guard, no thread to die on.
    #[test]
    fn panicking_job_is_contained_on_the_inline_path() {
        let mut session = EvalSession::new(EvalConfig::optimised());
        let q = session.intern_expr(&queries::tc_while());
        let good = session.values_mut().chain(3);
        let jobs = [(q, good), (q, VId::from_index(usize::from(u16::MAX) << 8))];
        assert_eq!(partition(&session, &jobs, 4), vec![vec![0, 1]]);
        let out = eval_batch(&mut session, &jobs, 4);
        let expect = session.values_mut().chain_tc(3);
        assert_eq!(out[0].result.clone().unwrap(), expect);
        assert!(matches!(
            out[1].result,
            Err(EvalError::WorkerPanicked { .. })
        ));
    }

    /// Regression: a panicking job's declared budget stayed on its
    /// worker, so the next job of the same partition ran under it and
    /// failed `SpaceBudgetExceeded { required: 16, budget: 1 }`.
    #[test]
    fn a_panicking_jobs_budget_does_not_reach_the_next_job() {
        let mut session = EvalSession::new(EvalConfig::optimised());
        let q = session.intern_expr(&queries::tc_while());
        let good = session.values_mut().chain(5);
        let poison = BatchJob {
            query: q,
            input: VId::from_index(usize::from(u16::MAX) << 8),
            max_object_size: Some(1),
        };
        let jobs = [poison, BatchJob::from((q, good))];
        let out = eval_batch_assigned(&mut session, &jobs, &[vec![0, 1]]);
        assert!(matches!(
            out[0].result,
            Err(EvalError::WorkerPanicked { .. })
        ));
        let expect = session.values_mut().chain_tc(5);
        assert_eq!(out[1].result, Ok(expect), "the unbudgeted neighbour");
    }

    /// The small-batch fallback is invisible in the results: on both
    /// 12-job shapes `effective_workers_floors_small_batches` places
    /// (inline at chain n=8, fanned out at n=12), the inline and the
    /// threaded path give **bit-for-bit** identical results — forced
    /// through both code paths via explicit assignments, including one
    /// whose only non-empty partition sits between two empty ones
    /// (inline too).
    #[test]
    fn small_batch_fallback_is_bit_for_bit() {
        let mut session = EvalSession::new(EvalConfig::optimised());
        let q = session.intern_expr(&queries::tc_while());
        let small: Vec<(EId, VId)> = (0..12)
            .map(|_| (q, session.values_mut().chain(8)))
            .collect();
        let big: Vec<(EId, VId)> = (0..12)
            .map(|_| (q, session.values_mut().chain(12)))
            .collect();

        // both shapes, both code paths, same result bits (under the
        // warm cache, per-job *hit counters* are timing-dependent
        // across threads by design, so handles are the contract here)
        for jobs in [&small, &big] {
            let batch_jobs: Vec<BatchJob> = jobs.iter().copied().map(BatchJob::from).collect();
            let inline_assignment = vec![(0..jobs.len()).collect::<Vec<_>>()];
            let padded_assignment = vec![vec![], inline_assignment[0].clone(), vec![]];
            let threaded_assignment: Vec<Vec<usize>> = (0..4)
                .map(|w| (w..jobs.len()).step_by(4).collect())
                .collect();
            let inline = eval_batch_assigned(&mut session, &batch_jobs, &inline_assignment);
            let padded = eval_batch_assigned(&mut session, &batch_jobs, &padded_assignment);
            let threaded = eval_batch_assigned(&mut session, &batch_jobs, &threaded_assignment);
            for (i, ((a, b), c)) in inline.iter().zip(&threaded).zip(&padded).enumerate() {
                assert_eq!(
                    a.result.as_ref().unwrap(),
                    b.result.as_ref().unwrap(),
                    "job {i}: inline vs threaded handles"
                );
                assert_eq!(
                    a.result.as_ref().unwrap(),
                    c.result.as_ref().unwrap(),
                    "job {i}: inline vs padded handles"
                );
            }
        }

        // under the exact (memo-off) §3 accounting, the *statistics*
        // are bit-for-bit partition-independent too
        let mut exact = EvalSession::new(EvalConfig::default());
        let q = exact.intern_expr(&queries::tc_while());
        let jobs: Vec<BatchJob> = (2..8u64)
            .map(|n| BatchJob::from((q, exact.values_mut().chain(n))))
            .collect();
        let inline_assignment = vec![(0..jobs.len()).collect::<Vec<_>>()];
        let threaded_assignment: Vec<Vec<usize>> = (0..3)
            .map(|w| (w..jobs.len()).step_by(3).collect())
            .collect();
        let inline = eval_batch_assigned(&mut exact, &jobs, &inline_assignment);
        let threaded = eval_batch_assigned(&mut exact, &jobs, &threaded_assignment);
        for (i, (a, b)) in inline.iter().zip(&threaded).enumerate() {
            assert_eq!(a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(a.stats, b.stats, "job {i}: inline vs threaded stats");
        }
    }

    /// The streaming entry point against the collector and a sequential
    /// loop. Over inline (one partition, also between two empty ones)
    /// and fanned-out assignments, with a job on a fabricated handle
    /// and one under an undersized declared budget, every job reaches
    /// the callback exactly once, on the calling thread, its answer
    /// reads back through the
    /// session the callback is handed, and its result and statistics
    /// equal `eval_batch_assigned`'s and a sequential
    /// `eval_vid_budgeted` loop's bit for bit (the panicking job fails
    /// in the loop, and as the same `WorkerPanicked` in both batches).
    #[test]
    fn streamed_batches_match_the_collector_and_a_sequential_loop() {
        // the exact (memo-off) accounting: a job's statistics do not
        // depend on which worker warmed what
        let mut session = EvalSession::new(EvalConfig::default());
        let q_while = session.intern_expr(&queries::tc_while());
        let q_step = session.intern_expr(&queries::tc_step());
        let mut jobs: Vec<BatchJob> = (2..9u64)
            .map(|n| {
                let query = if n % 2 == 0 { q_while } else { q_step };
                BatchJob::from((query, session.values_mut().chain(n)))
            })
            .collect();
        jobs[3].max_object_size = Some(1);
        let poison = VId::from_index(usize::from(u16::MAX) << 8);
        jobs.insert(2, BatchJob::from((q_while, poison)));
        let sequential: Vec<Option<VidEvaluation>> = jobs
            .iter()
            .map(|j| {
                catch_unwind(AssertUnwindSafe(|| {
                    session.eval_vid_budgeted(j.query, j.input, j.max_object_size)
                }))
                .ok()
            })
            .collect();
        assert!(sequential[2].is_none(), "the fabricated handle panics");
        assert!(matches!(
            sequential[4].as_ref().unwrap().result,
            Err(EvalError::SpaceBudgetExceeded { .. })
        ));
        let answers: Vec<Option<Value>> = sequential
            .iter()
            .map(|ev| {
                let out = ev.as_ref()?.result.as_ref().ok()?;
                Some(session.resolve(*out))
            })
            .collect();

        let all: Vec<usize> = (0..jobs.len()).collect();
        let dealt = |workers: usize| -> Vec<Vec<usize>> {
            (0..workers)
                .map(|w| (w..jobs.len()).step_by(workers).collect())
                .collect()
        };
        for assignment in [
            vec![all.clone()],
            vec![vec![], all.clone(), vec![]],
            dealt(2),
            dealt(3),
            vec![vec![2], vec![0, 1, 3, 4, 5, 6, 7]],
        ] {
            let mut calls = vec![0; jobs.len()];
            let mut streamed: Vec<Option<VidEvaluation>> = vec![None; jobs.len()];
            let caller = std::thread::current().id();
            eval_batch_streamed(&mut session, &jobs, &assignment, |view, i, ev| {
                assert_eq!(std::thread::current().id(), caller);
                calls[i] += 1;
                if let Ok(out) = ev.result {
                    assert_eq!(Some(view.resolve(out)), answers[i], "job {i}");
                }
                streamed[i] = Some(ev);
            });
            assert_eq!(calls, vec![1; jobs.len()], "{assignment:?}");
            let collected = eval_batch_assigned(&mut session, &jobs, &assignment);
            for (i, (streamed, collected)) in streamed.iter().zip(&collected).enumerate() {
                let streamed = format!("{:?}", streamed.as_ref().unwrap());
                assert_eq!(
                    streamed,
                    format!("{collected:?}"),
                    "job {i}: {assignment:?}"
                );
                match &sequential[i] {
                    Some(ev) => assert_eq!(streamed, format!("{ev:?}"), "job {i}"),
                    None => assert!(
                        matches!(collected.result, Err(EvalError::WorkerPanicked { .. })),
                        "job {i}: {collected:?}"
                    ),
                }
            }
        }
    }

    /// The placement's worker count, unit-tested without timing: the
    /// bench's 12-job batch shapes land on one inline partition at chain
    /// n=8 (the `batch_speedup: 0.168` regression shape) and fan out to
    /// the requested four at chain n=12, dealt round-robin because
    /// their costs are equal; the clamp and the empty batch behave.
    #[test]
    fn effective_workers_floors_small_batches() {
        let mut session = EvalSession::new(EvalConfig::optimised());
        let q = session.intern_expr(&queries::tc_while());
        let small: Vec<(EId, VId)> = (0..12)
            .map(|_| (q, session.values_mut().chain(8)))
            .collect();
        assert_eq!(
            partition(&session, &small, 4),
            vec![(0..12).collect::<Vec<_>>()]
        );
        let big: Vec<(EId, VId)> = (0..12)
            .map(|_| (q, session.values_mut().chain(12)))
            .collect();
        let round_robin: Vec<Vec<usize>> = (0..4).map(|w| (w..12).step_by(4).collect()).collect();
        assert_eq!(partition(&session, &big, 4), round_robin);
        // the clamp still applies above the floor
        assert_eq!(partition(&session, &big, 20).len(), 12);
        assert!(partition(&session, &[], 4).is_empty());
    }

    /// A batch of mixed queries and sizes, above the floor, is placed
    /// with every job exactly once, in job order within each worker and
    /// no worker idle, at every worker count.
    #[test]
    fn every_job_is_assigned_exactly_once() {
        let mut session = EvalSession::new(EvalConfig::optimised());
        let q = session.intern_expr(&queries::tc_while());
        let q_step = session.intern_expr(&queries::tc_step());
        let mixed: Vec<(EId, VId)> = (1..13u64)
            .map(|n| {
                let input = session.values_mut().chain(8 * n);
                (if n % 2 == 0 { q } else { q_step }, input)
            })
            .collect();
        assert_eq!(partition(&session, &mixed, 4).len(), 4, "above the floor");
        for workers in 1..=mixed.len() + 1 {
            let assignment = partition(&session, &mixed, workers);
            assert!(
                assignment.iter().all(|part| !part.is_empty()),
                "workers={workers}: {assignment:?}"
            );
            assert!(
                assignment
                    .iter()
                    .all(|part| part.windows(2).all(|w| w[0] < w[1])),
                "workers={workers}: job order within a worker: {assignment:?}"
            );
            let mut seen: Vec<usize> = assignment.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..mixed.len()).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    /// A few jobs over short chains, whose summed cost is under
    /// [`SMALL_BATCH_COST`], collapse to one inline partition whatever
    /// the requested worker count.
    #[test]
    fn small_batches_collapse_to_one_inline_partition() {
        let mut session = EvalSession::new(EvalConfig::optimised());
        let q = session.intern_expr(&queries::tc_while());
        let jobs: Vec<(EId, VId)> = (2..6u64)
            .map(|n| (q, session.values_mut().chain(n)))
            .collect();
        for workers in [2, 4, 16] {
            assert_eq!(
                partition(&session, &jobs, workers),
                vec![(0..jobs.len()).collect::<Vec<_>>()],
                "workers={workers}: a small batch must not fan out"
            );
        }
    }

    /// Build the same batch in two fresh sessions, place it with
    /// [`partition`] over `workers`, evaluate that placement in one and
    /// each job sequentially in the other, require identical answers,
    /// and return the placement.
    fn partitioned_matches_sequential(
        workers: usize,
        build: impl Fn(&mut EvalSession) -> Vec<(EId, VId)>,
    ) -> Vec<Vec<usize>> {
        let mut parallel = EvalSession::new(EvalConfig::optimised());
        let mut sequential = EvalSession::new(EvalConfig::optimised());
        let jobs = build(&mut parallel);
        let assignment = partition(&parallel, &jobs, workers);
        let batch: Vec<BatchJob> = jobs.iter().copied().map(BatchJob::from).collect();
        let evals = eval_batch_assigned(&mut parallel, &batch, &assignment);
        for (i, (ev, (q, v))) in evals.iter().zip(build(&mut sequential)).enumerate() {
            let expect = sequential.eval_vid(q, v);
            assert_eq!(
                parallel.resolve(*ev.result.as_ref().unwrap()),
                sequential.resolve(*expect.result.as_ref().unwrap()),
                "job {i}"
            );
        }
        assignment
    }

    /// The serving burst's shape: one 512-node road-grid join among
    /// seven door-sized jobs. Over two workers the join gets a worker of
    /// its own and the seven small jobs share the other, instead of all
    /// eight queueing on one worker behind the join; evaluating that
    /// placement answers exactly what sequential evaluation does.
    #[test]
    fn a_large_join_gets_a_worker_of_its_own() {
        let mut rng = Rng::new(7);
        let join = graphs::road_grid(&mut rng, 512);
        let door = graphs::family_graphs(&mut rng);
        let door_queries = [
            queries::tc_while(),
            queries::tc_step(),
            queries::siblings_powerset(),
        ];
        let assignment = partitioned_matches_sequential(2, |session| {
            let mut job = |query: &Expr, g: &FamilyGraph| {
                (
                    session.intern_expr(query),
                    session.intern_value(&Value::relation(g.edges.iter().copied())),
                )
            };
            let mut jobs = vec![job(&queries::tc_step(), &join)];
            let door_jobs = door.iter().zip(door_queries.iter().cycle());
            jobs.extend(door_jobs.map(|(g, query)| job(query, g)));
            jobs
        });
        assert_eq!(assignment, vec![vec![0], (1..8).collect::<Vec<_>>()]);
    }

    /// A batch of three queries over growing chains, placed by
    /// [`partition`] across three threaded workers, answers exactly what
    /// a sequential session does.
    #[test]
    fn partitions_feed_eval_batch_assigned_bit_for_bit() {
        let zoo = [
            queries::tc_while(),
            queries::tc_step(),
            queries::compose_rel(),
        ];
        let assignment = partitioned_matches_sequential(3, |session| {
            let mut jobs = Vec::new();
            for (k, query) in zoo.iter().enumerate() {
                let query = session.intern_expr(query);
                for n in 8..12u64 {
                    jobs.push((query, session.values_mut().chain(2 * n + k as u64)));
                }
            }
            jobs
        });
        assert_eq!(assignment.len(), 3, "the batch must fan out");
    }

    /// The explicit-assignment hook honours arbitrary partitions (here:
    /// all jobs on one of three workers, which runs inline) and per-job
    /// declared budgets — an undersized budget surfaces as the engine's
    /// own `SpaceBudgetExceeded`, not a panic.
    #[test]
    fn assigned_partitions_and_declared_budgets() {
        let mut session = EvalSession::new(EvalConfig::optimised());
        let q = session.intern_expr(&queries::tc_while());
        let jobs: Vec<BatchJob> = (4..8u64)
            .map(|n| BatchJob {
                query: q,
                input: session.values_mut().chain(n),
                max_object_size: if n == 5 { Some(1) } else { None },
            })
            .collect();
        let assignment = vec![vec![], vec![3, 1, 0, 2], vec![]];
        let out = eval_batch_assigned(&mut session, &jobs, &assignment);
        for (n, ev) in (4..8u64).zip(&out) {
            if n == 5 {
                assert!(
                    matches!(ev.result, Err(EvalError::SpaceBudgetExceeded { .. })),
                    "declared budget of 1 must trip: {:?}",
                    ev.result
                );
            } else {
                let expect = session.values_mut().chain_tc(n);
                assert_eq!(ev.result.clone().unwrap(), expect, "n={n}");
            }
        }
        // a budget generous enough never changes the result
        let roomy: Vec<BatchJob> = jobs
            .iter()
            .map(|j| BatchJob {
                max_object_size: Some(u64::MAX),
                ..*j
            })
            .collect();
        let rr = vec![vec![0, 2], vec![1, 3]];
        let out = eval_batch_assigned(&mut session, &roomy, &rr);
        for (n, ev) in (4..8u64).zip(&out) {
            let expect = session.values_mut().chain_tc(n);
            assert_eq!(ev.result.clone().unwrap(), expect, "n={n}");
        }
    }
}
