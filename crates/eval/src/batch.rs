//! Parallel batch evaluation over one **shared concurrent store**.
//!
//! A batch is a list of `(EId, VId)` queries against one parent
//! [`EvalSession`]. Every arena is shareable from birth, so
//! [`eval_batch`] fans the queries across `workers` scoped threads
//! (`std::thread::scope` — no external crates) as they are, each owning
//! a worker session [split](EvalSession::split) off the parent:
//!
//! 1. workers **share the parent's arenas and apply table** — there is
//!    no per-worker arena, no resolve-to-tree hand-off, and no
//!    re-intern merge pass; every worker interns into the single
//!    canonical store, so a handle issued by any of them is valid in
//!    all of them (and in the parent);
//! 2. workers claim the queries their **assignment** names (round-robin
//!    for [`eval_batch`]; scheduling layers pass an explicit partition
//!    to [`eval_batch_assigned`], e.g. grouping jobs that share
//!    hash-consed subtrees onto one worker) and evaluate them on
//!    handles directly; because the apply table is shared, a judgment
//!    derived by one worker is an `O(1)` warm hit for every other
//!    worker (and for later queries of the parent) — one worker's
//!    derivation is the whole batch's warm start;
//! 3. results are returned in input order as handles into the shared
//!    store. Interning is canonical, so the handles (and the §3
//!    statistics, which are a pure function of `(query, input,
//!    config)`) are **bit-for-bit identical** to a sequential
//!    evaluation of the same batch, regardless of thread scheduling.
//!    The differential harness holds this across all seven graph
//!    families.
//!
//! Evaluation is pure, so correctness never depends on the partition;
//! the partition only decides the interleaving of cache fills, and the
//! shared apply table makes even that immaterial for warmth.
//!
//! **Small batches never pay for threads.** Spawning a scoped worker
//! costs on the order of 100µs, which dominates a sub-millisecond
//! batch — the `dag/tc_while n=8` workload used to *lose* 8% against
//! sequential evaluation. [`eval_batch`] therefore estimates the batch
//! cost up front ([`estimated_batch_cost`], an `O(1)`-per-job metadata
//! read) and runs batches under [`SMALL_BATCH_COST`] inline on the
//! calling thread, still through a single split worker session — so
//! the shared apply table, panic containment, statistics and budget
//! accounting are identical on both paths, and the results stay
//! bit-for-bit the same (a regression test pins both sides of the
//! threshold).
//!
//! The batch also keeps the parent's *accounting* honest:
//!
//! * every per-query [`EvalStats`](crate::stats::EvalStats) is folded
//!   into the parent's [`SessionStats`](crate::SessionStats), exactly
//!   as a sequential [`EvalSession::eval_vid`] loop would;
//! * the parent's resident budget is enforced at the batch boundary:
//!   if the shared store ends the batch over budget, the parent
//!   resolves the results, [evicts](EvalSession::evict), and re-interns
//!   them into the fresh generation (the returned handles are valid in
//!   the post-batch generation either way);
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
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Batches whose [`estimated_batch_cost`] falls below this run inline on
/// the calling thread instead of spawning workers. Calibrated so the
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

/// A crude, `O(1)`-per-job cost proxy for batch scheduling:
/// `Σ ops(query) · size(input)²` over the jobs — the square reflecting
/// that the relational workloads are dominated by their self-products.
/// Both factors are interned metadata reads. Scheduling layers use it
/// to pick worker counts and balance partitions; [`eval_batch`] uses it
/// to decide the sequential fallback.
pub fn estimated_batch_cost(session: &EvalSession, queries: &[(EId, VId)]) -> u64 {
    queries
        .iter()
        .map(|&(eid, input)| {
            // a stale/fabricated handle costs 0 here and panics inside
            // the per-job guard instead (WorkerPanicked), not in the
            // scheduler
            if eid.index() >= session.exprs().node_count()
                || input.index() >= session.values().len()
            {
                return 0;
            }
            let s = session.values().size(input);
            session.exprs().ops(eid).saturating_mul(s.saturating_mul(s))
        })
        .fold(0u64, u64::saturating_add)
}

/// The worker count [`eval_batch`] actually uses for this batch — the
/// scheduling decision itself, exposed so callers (and the regression
/// tests) can check the small-batch floor without timing anything: the
/// requested count clamped to `1..=queries.len()`, then floored to a
/// single inline worker when [`estimated_batch_cost`] falls under
/// [`SMALL_BATCH_COST`] (sub-millisecond batches lose more to thread
/// spawns than they gain from parallelism — the `batch_speedup: 0.168`
/// regression on chain n=8). Returns 0 for an empty batch.
pub fn effective_workers(session: &EvalSession, queries: &[(EId, VId)], workers: usize) -> usize {
    if queries.is_empty() {
        return 0;
    }
    if estimated_batch_cost(session, queries) < SMALL_BATCH_COST {
        1
    } else {
        workers.clamp(1, queries.len())
    }
}

/// Evaluate `queries` (handles into `session`) across `workers` scoped
/// worker threads over the session's stores, returning one
/// [`VidEvaluation`] per query, in input order, with result handles
/// valid in `session`. The worker count is [`effective_workers`]:
/// clamped to `1..=queries.len()`, and a batch under
/// [`SMALL_BATCH_COST`] runs on one inline worker (results are
/// partition-independent by construction, so the fallback is invisible
/// except in wall-clock time). The session keeps the shared apply
/// table afterwards, so a later batch re-uses every judgment this one
/// derived.
pub fn eval_batch(
    session: &mut EvalSession,
    queries: &[(EId, VId)],
    workers: usize,
) -> Vec<VidEvaluation> {
    if queries.is_empty() {
        return Vec::new();
    }
    let workers = effective_workers(session, queries, workers);
    let assignment: Vec<Vec<usize>> = (0..workers)
        .map(|w| (w..queries.len()).step_by(workers).collect())
        .collect();
    let jobs: Vec<BatchJob> = queries.iter().copied().map(BatchJob::from).collect();
    eval_batch_assigned(session, &jobs, &assignment)
}

/// The scheduling hook under [`eval_batch`]: evaluate `jobs` under an
/// **explicit partition** — `assignment[w]` lists the job indices worker
/// `w` evaluates, and every job index must be assigned exactly once.
/// A single-worker assignment runs inline on the calling thread (no
/// spawn); anything else fans out on scoped threads. Results come back
/// in job order either way, with the same statistics folding, panic
/// containment and parent-budget enforcement as [`eval_batch`] — which
/// is this function with a round-robin assignment.
///
/// Serving layers use the explicit partition for **cache-aware
/// placement**: jobs sharing hash-consed subtrees grouped onto the same
/// worker derive their common judgments once and hit the shared apply
/// table for the rest.
pub fn eval_batch_assigned(
    session: &mut EvalSession,
    jobs: &[BatchJob],
    assignment: &[Vec<usize>],
) -> Vec<VidEvaluation> {
    if jobs.is_empty() {
        return Vec::new();
    }
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

    let mut worker_sessions = session.split(assignment.len().max(1));
    let mut gathered: Vec<Option<VidEvaluation>> = (0..jobs.len()).map(|_| None).collect();
    if assignment.len() <= 1 {
        // inline fallback: same worker-session semantics, no spawn
        let worker = &mut worker_sessions[0];
        for &i in assignment.first().map(Vec::as_slice).unwrap_or(&[]) {
            gathered[i] = Some(run_job(worker, jobs[i]));
        }
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = worker_sessions
                .into_iter()
                .zip(assignment)
                .map(|(mut worker, mine)| {
                    scope.spawn(move || {
                        mine.iter()
                            .map(|&i| (i, run_job(&mut worker, jobs[i])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for (w, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(list) => {
                        for (i, ev) in list {
                            gathered[i] = Some(ev);
                        }
                    }
                    // a panic that escaped the per-job guard (should not
                    // happen): fail that worker's share, keep the rest
                    Err(payload) => {
                        let detail = panic_detail(&payload);
                        for &i in &assignment[w] {
                            gathered[i].get_or_insert_with(|| VidEvaluation {
                                result: Err(EvalError::WorkerPanicked {
                                    detail: detail.clone(),
                                }),
                                stats: crate::stats::EvalStats::default(),
                            });
                        }
                    }
                }
            }
        });
    }
    let mut results: Vec<VidEvaluation> = gathered
        .into_iter()
        .map(|ev| ev.expect("every job was claimed by exactly one worker"))
        .collect();
    session.catch_up();

    // the batch counts against the parent's books like a sequential
    // loop would: per-query stats fold into SessionStats…
    for ev in &results {
        session.absorb(&ev.stats);
    }
    // …and the resident budget is enforced at the batch boundary. An
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
    use nra_core::queries;

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
        assert!(estimated_batch_cost(&session, &jobs) < SMALL_BATCH_COST);
        let out = eval_batch(&mut session, &jobs, 4);
        let expect = session.values_mut().chain_tc(3);
        assert_eq!(out[0].result.clone().unwrap(), expect);
        assert!(matches!(
            out[1].result,
            Err(EvalError::WorkerPanicked { .. })
        ));
    }

    /// The small-batch regression fix, pinned from both sides: the
    /// 12-job `tc_while` batches on small graphs fall under
    /// [`SMALL_BATCH_COST`] (they run inline), the larger bench
    /// workloads stay parallel, and the results are **bit-for-bit**
    /// identical either way — forced through both code paths via
    /// explicit assignments.
    #[test]
    fn small_batch_fallback_is_bit_for_bit() {
        let mut session = EvalSession::new(EvalConfig::optimised());
        let q = session.intern_expr(&queries::tc_while());
        let small: Vec<(EId, VId)> = (0..12)
            .map(|_| (q, session.values_mut().chain(8)))
            .collect();
        assert!(
            estimated_batch_cost(&session, &small) < SMALL_BATCH_COST,
            "the dag/chain n=8 batch shape must take the sequential fallback"
        );
        let big: Vec<(EId, VId)> = (0..12)
            .map(|_| (q, session.values_mut().chain(12)))
            .collect();
        assert!(
            estimated_batch_cost(&session, &big) >= SMALL_BATCH_COST,
            "the chain n=12 batch must still fan out"
        );

        // both shapes, both code paths, same result bits (under the
        // warm cache, per-job *hit counters* are timing-dependent
        // across threads by design, so handles are the contract here)
        for jobs in [&small, &big] {
            let batch_jobs: Vec<BatchJob> = jobs.iter().copied().map(BatchJob::from).collect();
            let inline_assignment = vec![(0..jobs.len()).collect::<Vec<_>>()];
            let threaded_assignment: Vec<Vec<usize>> = (0..4)
                .map(|w| (w..jobs.len()).step_by(4).collect())
                .collect();
            let inline = eval_batch_assigned(&mut session, &batch_jobs, &inline_assignment);
            let threaded = eval_batch_assigned(&mut session, &batch_jobs, &threaded_assignment);
            for (i, (a, b)) in inline.iter().zip(&threaded).enumerate() {
                assert_eq!(
                    a.result.as_ref().unwrap(),
                    b.result.as_ref().unwrap(),
                    "job {i}: inline vs threaded handles"
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

    /// The scheduling decision itself, unit-tested without timing: the
    /// bench's 12-job batch shapes land on one inline worker at chain
    /// n=8 (the `batch_speedup: 0.168` regression shape) and fan out to
    /// the requested four at chain n=12; the clamp and the empty batch
    /// behave.
    #[test]
    fn effective_workers_floors_small_batches() {
        let mut session = EvalSession::new(EvalConfig::optimised());
        let q = session.intern_expr(&queries::tc_while());
        let small: Vec<(EId, VId)> = (0..12)
            .map(|_| (q, session.values_mut().chain(8)))
            .collect();
        assert_eq!(effective_workers(&session, &small, 4), 1);
        let big: Vec<(EId, VId)> = (0..12)
            .map(|_| (q, session.values_mut().chain(12)))
            .collect();
        assert_eq!(effective_workers(&session, &big, 4), 4);
        // the clamp still applies above the floor
        assert_eq!(effective_workers(&session, &big, 20), 12);
        assert_eq!(effective_workers(&session, &[], 4), 0);
    }

    /// The explicit-assignment hook honours arbitrary partitions (here:
    /// all jobs on one of three workers, the others idle) and per-job
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
