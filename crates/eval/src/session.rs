//! Explicit evaluation sessions: the owned engine layer over the
//! evaluators.
//!
//! Every cached evaluation runs in an [`EvalSession`], which owns all of
//! its state in one value:
//!
//! * a [`ValueArena`] and an [`ExprArena`] (the §3 store of complex
//!   objects and the hash-consed expressions over it);
//! * a view of an apply table `(EId, VId) → VId` ([`crate::memo`]) and
//!   the join-recognition and delta caches of the cached walker;
//! * the [`EvalConfig`] every query of the session runs under.
//!
//! Owning the state buys three things:
//!
//! 1. **Cross-query warm starts** — the arenas *and* the apply cache
//!    survive across [`EvalSession::eval`] calls, so re-evaluating a
//!    query (or any query sharing judgments with an earlier one) hits
//!    cached derivations immediately. Warm activity is reported in
//!    [`EvalStats::warm_hits`](crate::stats::EvalStats::warm_hits) and
//!    aggregated in [`SessionStats`].
//! 2. **Bounded residency** — [`EvalSession::set_resident_budget`]
//!    installs an `approx_resident_bytes` ceiling; when a query boundary
//!    finds the session above it, the session **evicts**: both arenas
//!    and the cache state are cleared and [`EvalSession::generation`]
//!    is bumped (all previously issued handles go stale — the
//!    tree-boundary [`EvalSession::eval`] is immune, handle-level
//!    callers must re-intern). Eviction never changes results, only
//!    cache hit counters — a property test holds this.
//! 3. **Parallelism** — `EvalSession` is `Send` (handles travel with
//!    their arena), so sessions can move across threads, and
//!    [`crate::batch`] fans a batch of queries across N worker sessions.
//!
//! The free function [`crate::evaluate`] runs each call on a one-shot
//! session, built cold and freed on return, so what it reports is a
//! function of its arguments. The traced and streaming strategies
//! ([`crate::evaluate_traced`], [`crate::evaluate_lazy`]) build the
//! exact §3 derivation and need no cache state, so they run on a local
//! [`ValueArena`] and have no session counterpart.
//!
//! ```
//! use nra_core::{queries, Value};
//! use nra_eval::{EvalConfig, EvalSession};
//!
//! let mut session = EvalSession::new(EvalConfig::optimised());
//! let input = Value::chain(6);
//! let cold = session.eval(&queries::tc_while(), &input);
//! let warm = session.eval(&queries::tc_while(), &input);
//! assert_eq!(cold.result.unwrap(), warm.result.unwrap());
//! // the second call found the whole judgment in the surviving cache
//! assert!(warm.stats.warm_hits > 0);
//! assert!(session.stats().warm_hits > 0);
//! ```

use crate::eager::{self, Evaluation, MemoState, VidEvaluation};
use crate::error::EvalConfig;
use nra_core::expr::intern::{EId, ExprArena};
use nra_core::value::intern::{VId, ValueArena};
use nra_core::value::Value;
use nra_core::Expr;
use std::collections::HashMap;
use std::sync::Arc;

/// An injected pre-evaluation rewrite pass: given the session's
/// expression arena and a root, return the (possibly identical) root to
/// evaluate instead. The evaluator owns no rules — `nra-opt` provides
/// the real pass (`nra_opt::pass()`), keeping the dependency arrow
/// `opt → eval`. The closure must be pure up to interning: it may grow
/// the arena but must return a handle valid in it, and equal inputs must
/// give equal outputs (the session memoises per root `EId`).
pub type RewritePass = Arc<dyn Fn(&mut ExprArena, EId) -> EId + Send + Sync>;

/// Aggregate counters of one session, accumulated across its queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries evaluated through this session (any strategy).
    pub queries: u64,
    /// Apply-cache hits summed over all queries.
    pub memo_hits: u64,
    /// Apply-cache misses summed over all queries.
    pub memo_misses: u64,
    /// The subset of `memo_hits` served **across** queries — entries
    /// written by an earlier `eval` of this session. The cross-query
    /// warm-start counter.
    pub warm_hits: u64,
    /// Generation-based evictions performed (resident budget exceeded).
    pub evictions: u64,
}

/// An owned evaluation context: arenas, apply cache, and configuration —
/// see the [module docs](self).
pub struct EvalSession {
    values: ValueArena,
    exprs: ExprArena,
    memo: MemoState,
    config: EvalConfig,
    stats: SessionStats,
    resident_budget: Option<usize>,
    generation: u64,
    /// The injected rewrite pass, when one is installed — see
    /// [`RewritePass`]. Only consulted when [`EvalConfig::optimise`] is
    /// set.
    rewriter: Option<RewritePass>,
    /// Memoised `root → rewritten root` per generation (cleared on
    /// eviction along with the arenas whose handles it holds).
    rewrites: HashMap<EId, EId>,
}

impl EvalSession {
    /// A fresh session evaluating under `config`. For warm starts across
    /// queries, use a config with the apply cache on
    /// ([`EvalConfig::memoised`] or [`EvalConfig::optimised`]); the
    /// arenas warm-start regardless.
    pub fn new(config: EvalConfig) -> Self {
        let mut exprs = ExprArena::new();
        let memo = MemoState::new(&mut exprs);
        EvalSession {
            values: ValueArena::new(),
            exprs,
            memo,
            config,
            stats: SessionStats::default(),
            resident_budget: None,
            generation: 0,
            rewriter: None,
            rewrites: HashMap::new(),
        }
    }

    /// [`EvalSession::new`] with a resident-byte budget installed — see
    /// [`EvalSession::set_resident_budget`].
    pub fn with_resident_budget(config: EvalConfig, bytes: usize) -> Self {
        let mut session = EvalSession::new(config);
        session.set_resident_budget(Some(bytes));
        session
    }

    /// Split off `workers` sessions over this session's stores.
    ///
    /// Each returned session interns into the **same** canonical
    /// value/expression store and probes the **same** apply table as
    /// the parent — handles issued by any of them are valid in all of
    /// them, and one worker's derivation is every worker's warm hit —
    /// but owns its private recognition/delta caches, its own
    /// [`SessionStats`], and no resident budget (the parent enforces
    /// its budget at batch boundaries instead; see [`crate::eval_batch`]).
    pub fn split(&mut self, workers: usize) -> Vec<EvalSession> {
        (0..workers)
            .map(|_| EvalSession {
                values: self.values.shared_clone(),
                exprs: self.exprs.shared_clone(),
                memo: self.memo.worker(),
                config: self.config.clone(),
                stats: SessionStats::default(),
                resident_budget: None,
                generation: self.generation,
                rewriter: self.rewriter.clone(),
                rewrites: HashMap::new(),
            })
            .collect()
    }

    /// Make the values split-off workers interned as cheap to read
    /// through this session as its own (see [`ValueArena::catch_up`]);
    /// the batch layer calls this when a batch ends, before the answers
    /// are read.
    pub(crate) fn catch_up(&mut self) {
        self.values.catch_up();
    }

    /// Install (or remove) the pre-evaluation rewrite pass — see
    /// [`RewritePass`]. The pass runs at [`EvalSession::eval`] /
    /// [`EvalSession::eval_vid`] boundaries when
    /// [`EvalConfig::optimise`] is set; worker sessions produced by
    /// [`EvalSession::split`] inherit it. Installing a pass clears the
    /// per-root rewrite memo.
    pub fn set_rewriter(&mut self, pass: Option<RewritePass>) {
        self.rewriter = pass;
        self.rewrites.clear();
    }

    /// The root actually evaluated for `eid`: the rewrite pass's output
    /// when [`EvalConfig::optimise`] is on and a pass is installed, `eid`
    /// itself otherwise. Memoised per root within a generation, so the
    /// rules run once per distinct query — warm re-evaluations pay one
    /// hash lookup. The returned handle is what the apply cache is keyed
    /// on.
    pub fn optimise_eid(&mut self, eid: EId) -> EId {
        if !self.config.optimise {
            return eid;
        }
        let Some(pass) = self.rewriter.clone() else {
            return eid;
        };
        if let Some(&done) = self.rewrites.get(&eid) {
            return done;
        }
        let out = pass(&mut self.exprs, eid);
        self.rewrites.insert(eid, out);
        out
    }

    /// Install (or remove) the occupancy ceiling. At every
    /// [`EvalSession::eval`] boundary where
    /// [`EvalSession::approx_resident_bytes`] exceeds the budget, the
    /// session [evicts](EvalSession::evict).
    pub fn set_resident_budget(&mut self, bytes: Option<usize>) {
        self.resident_budget = bytes;
    }

    /// The configuration every query of this session runs under.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// Aggregate counters accumulated so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The eviction generation: bumped exactly when previously issued
    /// [`VId`]/[`EId`] handles went stale. Within one generation, the
    /// arenas only grow and [`EvalSession::approx_resident_bytes`] is
    /// monotone over successful queries.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The session's value arena (read access for resolving, occupancy
    /// inspection, merge-algebra reads).
    pub fn values(&self) -> &ValueArena {
        &self.values
    }

    /// Mutable access to the value arena — for callers that build inputs
    /// handle-by-handle before [`EvalSession::eval_vid`].
    pub fn values_mut(&mut self) -> &mut ValueArena {
        &mut self.values
    }

    /// The session's expression arena.
    pub fn exprs(&self) -> &ExprArena {
        &self.exprs
    }

    /// Intern a tree value into this session's arena.
    pub fn intern_value(&mut self, v: &Value) -> VId {
        self.values.intern(v)
    }

    /// Intern an expression into this session's arena.
    pub fn intern_expr(&mut self, e: &Expr) -> EId {
        self.exprs.intern(e)
    }

    /// Materialise the tree form of a session handle.
    pub fn resolve(&self, v: VId) -> Value {
        self.values.resolve(v)
    }

    /// Approximate bytes resident in this session: both arenas plus the
    /// retained cache state. Monotone within one generation; drops at
    /// eviction.
    pub fn approx_resident_bytes(&self) -> usize {
        self.values.approx_resident_bytes()
            + self.exprs.approx_resident_bytes()
            + self.memo.approx_resident_bytes()
    }

    /// Evaluate `expr` on a tree `input` — the evict-safe boundary:
    /// input is interned on entry, the result resolved on exit, so the
    /// caller never holds session handles across a possible eviction.
    pub fn eval(&mut self, expr: &Expr, input: &Value) -> Evaluation {
        let eid = self.exprs.intern(expr);
        let iv = self.values.intern(input);
        let ev = self.eval_vid(eid, iv);
        let result = ev.result.map(|out| self.values.resolve(out));
        self.maybe_evict();
        Evaluation {
            result,
            stats: ev.stats,
        }
    }

    /// Evaluate entirely on session handles (`eid` and `input` must have
    /// been issued by *this* session in its *current* generation). No
    /// eviction happens inside this call — the returned handle is valid
    /// until the next tree-boundary query triggers one.
    pub fn eval_vid(&mut self, eid: EId, input: VId) -> VidEvaluation {
        self.eval_vid_budgeted(eid, input, None)
    }

    /// [`EvalSession::eval_vid`] under a per-call space budget: the
    /// effective `max_object_size` is the minimum of `max_object_size`
    /// and the session's configured one. The call evaluates under a
    /// config built for it and never writes the session's, so a budget
    /// cannot outlive its call, not even one a panic cut short. `None`
    /// is exactly `eval_vid`. This is how a batch job's *declared
    /// budget* ([`crate::batch::BatchJob`]) is enforced by the engine
    /// rather than audited after the fact — an overrun surfaces as
    /// [`EvalError::SpaceBudgetExceeded`](crate::EvalError::SpaceBudgetExceeded)
    /// carrying the exact requirement. Budgets never change results,
    /// only whether the evaluation is cut off.
    pub fn eval_vid_budgeted(
        &mut self,
        eid: EId,
        input: VId,
        max_object_size: Option<u64>,
    ) -> VidEvaluation {
        debug_assert!(
            eid.index() < self.exprs.node_count() && input.index() < self.values.len(),
            "stale handle: eval_vid called with EId {} / VId {} but this session's arenas hold \
             only {} expressions / {} values — the handle predates an eviction (generation is \
             now {}); re-intern through the current arenas",
            eid.index(),
            input.index(),
            self.exprs.node_count(),
            self.values.len(),
            self.generation,
        );
        let mut config = self.config.clone();
        if let Some(budget) = max_object_size {
            config.max_object_size = Some(config.max_object_size.map_or(budget, |s| s.min(budget)));
        }
        // rewrite before the query opens: the (possibly new) root is what
        // the apply cache keys on
        let eid = self.optimise_eid(eid);
        self.memo.begin_query();
        let (result, stats) = eager::run(&config, &mut self.values, |ctx, va| {
            eager::eval_eid(eid, input, ctx, &self.exprs, &mut self.memo, va)
        });
        self.absorb(&stats);
        VidEvaluation { result, stats }
    }

    /// Force an eviction now: clear both arenas and the cache state,
    /// bump the generation, count it. **All handles issued by this
    /// session become invalid.** Results of subsequent queries are
    /// unaffected — only cache hit counters change (cold restart). The
    /// cache state moves onto a fresh apply table: split-off workers
    /// keep the old one with the old stores, so nothing they store
    /// afterwards can reach this session's new generation.
    pub fn evict(&mut self) {
        self.values.clear();
        self.exprs.clear();
        self.memo = MemoState::new(&mut self.exprs);
        self.rewrites.clear();
        self.generation += 1;
        self.stats.evictions += 1;
    }

    fn maybe_evict(&mut self) {
        if self.over_budget() {
            self.evict();
        }
    }

    /// Whether the installed resident budget (if any) is currently
    /// exceeded — the batch layer checks this at its own boundary.
    pub(crate) fn over_budget(&self) -> bool {
        self.resident_budget
            .is_some_and(|budget| self.approx_resident_bytes() > budget)
    }

    pub(crate) fn absorb(&mut self, stats: &crate::stats::EvalStats) {
        self.stats.queries += 1;
        self.stats.memo_hits += stats.memo_hits;
        self.stats.memo_misses += stats.memo_misses;
        self.stats.warm_hits += stats.warm_hits;
    }
}

impl std::fmt::Debug for EvalSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalSession")
            .field("generation", &self.generation)
            .field("values", &self.values.node_count())
            .field("exprs", &self.exprs.node_count())
            .field("approx_resident_bytes", &self.approx_resident_bytes())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::queries;

    // the tentpole's thread-mobility contract, checked at compile time
    const _: fn() = || {
        fn assert_send<T: Send>() {}
        assert_send::<EvalSession>();
    };

    #[test]
    fn session_agrees_with_the_facade() {
        for config in [
            EvalConfig::default(),
            EvalConfig::memoised(),
            EvalConfig::semi_naive(),
            EvalConfig::optimised(),
        ] {
            // one session reused over every input and query, against a
            // one-shot session per call
            let mut session = EvalSession::new(config.clone());
            for n in 0..6u64 {
                let input = Value::chain(n);
                for q in [queries::tc_while(), queries::tc_step(), queries::tc_paths()] {
                    let one_shot = crate::evaluate(&q, &input, &config);
                    let owned = session.eval(&q, &input);
                    assert_eq!(
                        one_shot.result.unwrap(),
                        owned.result.unwrap(),
                        "{q} n={n} (session vs one-shot)"
                    );
                    // a completed exact derivation does not depend on
                    // the handles earlier queries left in the arenas
                    if config == EvalConfig::default() {
                        assert_eq!(one_shot.stats, owned.stats, "{q} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn warm_start_hits_on_reevaluation() {
        let mut session = EvalSession::new(EvalConfig::optimised());
        let input = Value::chain(8);
        let cold = session.eval(&queries::tc_while(), &input);
        assert_eq!(cold.stats.warm_hits, 0, "first query cannot be warm");
        let warm = session.eval(&queries::tc_while(), &input);
        assert_eq!(cold.result.unwrap(), warm.result.unwrap());
        assert!(warm.stats.memo_hits > 0);
        assert!(warm.stats.warm_hits > 0, "{:?}", warm.stats);
        assert_eq!(session.stats().queries, 2);
        assert!(session.stats().warm_hits > 0);
    }

    #[test]
    fn facade_never_reports_warm_hits() {
        // each call runs on a one-shot session, so a query repeated on
        // one thread finds no entry an earlier call stored
        let input = Value::chain(6);
        for _ in 0..3 {
            let ev = crate::evaluate(&queries::tc_while(), &input, &EvalConfig::optimised());
            assert!(ev.stats.memo_misses > 0, "{:?}", ev.stats);
            assert_eq!(ev.stats.warm_hits, 0);
        }
    }

    #[test]
    fn eviction_resets_generation_and_counters() {
        // a budget of one byte forces an eviction after every query
        let mut session = EvalSession::with_resident_budget(EvalConfig::optimised(), 1);
        let input = Value::chain(5);
        let first = session.eval(&queries::tc_while(), &input);
        assert_eq!(session.generation(), 1);
        assert_eq!(session.stats().evictions, 1);
        let second = session.eval(&queries::tc_while(), &input);
        assert_eq!(first.result.unwrap(), second.result.unwrap());
        assert_eq!(second.stats.warm_hits, 0, "evicted cache cannot be warm");
        assert_eq!(session.generation(), 2);
    }

    #[test]
    fn an_eviction_hides_every_earlier_entry() {
        let mut session = EvalSession::new(EvalConfig::memoised());
        let intern = |s: &mut EvalSession| {
            let q = s.intern_expr(&queries::tc_while());
            let q2 = s.intern_expr(&nra_core::builder::powerset());
            (q, q2, s.values_mut().chain(6))
        };
        let (q, q2, input) = intern(&mut session);
        // entries stored before the eviction…
        let closure = session.eval_vid(q, input).result.unwrap();
        let closure = session.resolve(closure);
        // …and by a worker that keeps the old stores and table, after it
        let mut worker = session.split(1).pop().unwrap();
        session.evict();
        let subsets = worker.eval_vid(q2, input).result.unwrap();
        let subsets = worker.resolve(subsets);
        // the fresh arenas reissue the same handles, and neither kind of
        // entry is seen through them
        assert_eq!(intern(&mut session), (q, q2, input));
        let ev = session.eval_vid(q2, input);
        assert_eq!(ev.stats.warm_hits, 0, "{:?}", ev.stats);
        assert_eq!(session.resolve(ev.result.unwrap()), subsets);
        let ev = session.eval_vid(q, input);
        assert!(ev.stats.memo_misses > 0, "{:?}", ev.stats);
        assert_eq!(session.resolve(ev.result.unwrap()), closure);
    }

    #[test]
    fn handle_level_evaluation_round_trips() {
        let mut session = EvalSession::new(EvalConfig::default());
        let eid = session.intern_expr(&queries::tc_while());
        let input = session.values_mut().chain(5);
        let ev = session.eval_vid(eid, input);
        let expect = session.values_mut().chain_tc(5);
        assert_eq!(ev.result.unwrap(), expect, "O(1) handle equality");
    }

    /// Regression: a budgeted call installed its budget on the session
    /// and restored the old one only after evaluating, so a panic in
    /// between (here: a fabricated handle) left the budget behind for
    /// every later query of a caller that caught the unwind.
    #[test]
    fn a_panicking_budgeted_call_leaves_no_budget_behind() {
        let mut session = EvalSession::new(EvalConfig::default());
        let q = session.intern_expr(&queries::tc_while());
        let poison = VId::from_index(usize::from(u16::MAX) << 8);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.eval_vid_budgeted(q, poison, Some(1))
        }));
        assert!(caught.is_err(), "the fabricated handle panics");
        assert_eq!(session.config().max_object_size, None);
        let input = session.values_mut().chain(5);
        let ev = session.eval_vid(q, input);
        let expect = session.values_mut().chain_tc(5);
        assert_eq!(ev.result, Ok(expect), "the next query runs unbudgeted");
    }
}
