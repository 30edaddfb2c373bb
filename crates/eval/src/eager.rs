//! The eager natural-semantics evaluator of §3.
//!
//! Evaluation `f(C) ⇓ C'` is implemented by structural recursion over the
//! expression, exactly mirroring the paper's rule set: each recursive call
//! is one node of the derivation tree, and at each node the input and
//! output objects are *observed* — their sizes feed the §3 complexity
//! measure ([`crate::stats::EvalStats`]) and the space budget
//! ([`crate::error::EvalConfig`]).
//!
//! Since the §3 measure observes `size(C)` at **every** rule application,
//! the default evaluation path runs on the hash-consed arena of
//! [`nra_core::value::intern`]: objects are [`VId`] handles whose size is
//! cached metadata, so each observation is `O(1)` instead of a full
//! traversal, `clone` is a handle copy, and the `while` fixpoint test is a
//! `u32` comparison. [`evaluate`] interns its input, runs interned, and
//! resolves the result — the [`Value`] API is a conversion layer.
//! [`evaluate_vid`] exposes the interned path end-to-end for callers that
//! already hold handles; [`evaluate_tree`] keeps the original
//! tree-walking implementation as a differential baseline (same rules,
//! same statistics, `O(size)` bookkeeping).
//!
//! `powerset` is special-cased: its output size is computed
//! **combinatorially before materialisation** (`1 + 2^k + 2^{k-1}·Σᵢ
//! size(eᵢ)` for a k-element input, saturating), so a budgeted evaluation
//! can report the exact space requirement of runs that would never fit in
//! memory.
//!
//! Two opt-in cost-model switches run on the interned-expression walker
//! (`eval_eid`, which reads each expression node in place through
//! [`ExprArena::node_ref`]), never changing a result:
//!
//! * [`EvalConfig::memo`] — the BDD-style apply cache `(EId, VId) →
//!   VId` ([`crate::memo`]): one table that every session, batch worker
//!   and facade call probes through its own view, with each slot
//!   carrying the subtree's as-if-uncached cost so hits charge the node
//!   budget exactly;
//! * [`EvalConfig::semi_naive`] — delta-driven iteration: `while`
//!   threads `(total, delta)`, `map`/`μ` evaluate frontier-only against
//!   the `DeltaEntry` cache, and the hash-consed Prop 2.1 shapes —
//!   cartesian product (`eval_cartprod_fused`), selection
//!   (`eval_select_fused`), projection equality and tupling
//!   (`eval_projeq_fused`, `eval_projpair_fused`) — run fused delta
//!   rules. The §3 counters only ever shrink (every skipped object
//!   already occurred, and was observed, earlier in the evaluation);
//!   the default mode remains the exact §3 measure.

use crate::error::{EvalConfig, EvalError};
use crate::memo::ApplyView;
use crate::shapes::{apply_proj, proj_path, JoinShape, ProjPath, ShapeCaches};
use crate::stats::EvalStats;
use nra_core::expr::intern::{self as expr_intern, EId, ENode, ExprArena};
use nra_core::expr::Expr;
use nra_core::value::intern::{self, FxBuildHasher, VId, ValueArena};
use nra_core::value::Value;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// The outcome of an evaluation: result (or budget error) plus statistics.
/// The statistics are meaningful in both cases — on a budget error they
/// describe the partial derivation tree built so far, with
/// `max_object_size` already raised to the size that broke the budget.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The value `C'` with `f(C) ⇓ C'`, or the budget/divergence error.
    pub result: Result<Value, EvalError>,
    /// §3 statistics of the (possibly partial) derivation tree.
    pub stats: EvalStats,
}

impl Evaluation {
    /// The paper's complexity of this evaluation.
    pub fn complexity(&self) -> u64 {
        self.stats.max_object_size
    }
}

/// The outcome of an evaluation on the interned path: a [`VId`] handle
/// into the thread-local arena (or a budget error) plus §3 statistics.
#[derive(Debug, Clone)]
pub struct VidEvaluation {
    /// The handle of the result `C'` with `f(C) ⇓ C'`, or the error.
    pub result: Result<VId, EvalError>,
    /// §3 statistics of the (possibly partial) derivation tree.
    pub stats: EvalStats,
}

impl VidEvaluation {
    /// The paper's complexity of this evaluation.
    pub fn complexity(&self) -> u64 {
        self.stats.max_object_size
    }
}

pub(crate) struct Ctx<'a> {
    pub(crate) config: &'a EvalConfig,
    pub(crate) stats: EvalStats,
    /// Derivation nodes charged against [`EvalConfig::max_nodes`]: the
    /// *as-if-uncached* count. Equal to `stats.nodes` in the default
    /// mode; an apply-cache hit or a delta-skipped frontier adds the
    /// recorded cost of the skipped subtree here (and only here), so
    /// budget exhaustion is strategy-independent — a budget that cuts
    /// the naive derivation cuts the cached one at the same point in
    /// the judgment sequence.
    charged_nodes: u64,
    /// Per-rule application counts, indexed by [`Expr::head_index`] —
    /// a flat array on the hot path (one increment per derivation
    /// node); folded into the [`EvalStats::rule_counts`] map once, by
    /// [`Ctx::finish`].
    rules: [u64; Expr::HEAD_NAMES.len()],
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(config: &'a EvalConfig) -> Self {
        Ctx {
            config,
            stats: EvalStats::default(),
            charged_nodes: 0,
            rules: [0; Expr::HEAD_NAMES.len()],
        }
    }

    /// Fold the flat per-rule counters into the statistics map and
    /// return the completed [`EvalStats`].
    fn finish(mut self) -> EvalStats {
        for (i, &count) in self.rules.iter().enumerate() {
            if count > 0 {
                self.stats.rule_counts.insert(Expr::HEAD_NAMES[i], count);
            }
        }
        self.stats
    }

    /// Charge the recorded cost of a skipped (cached or delta-folded)
    /// sub-derivation against the node budget without touching the §3
    /// counters.
    fn charge(&mut self, cost: u64) -> Result<(), EvalError> {
        self.charged_nodes = self.charged_nodes.saturating_add(cost);
        match self.config.max_nodes {
            Some(budget) if self.charged_nodes > budget => {
                Err(EvalError::NodeBudgetExceeded { budget })
            }
            _ => Ok(()),
        }
    }

    /// Observe a tree-represented object — `O(size)` traversal.
    fn observe(&mut self, value: &Value) -> Result<(), EvalError> {
        let size = value.size();
        self.stats.observe_object(size, value.cardinality());
        self.check_size(size)
    }

    /// Observe an interned object against the supplied arena — the size
    /// and cardinality are cached arena metadata, so the observation is
    /// `O(1)` and touches no thread-local state.
    pub(crate) fn observe_vid(&mut self, a: &ValueArena, value: VId) -> Result<(), EvalError> {
        let size = a.size(value);
        self.stats.observe_object(size, a.cardinality(value));
        self.check_size(size)
    }

    fn check_size(&mut self, size: u64) -> Result<(), EvalError> {
        self.stats.max_object_size = self.stats.max_object_size.max(size);
        match self.config.max_object_size {
            Some(budget) if size > budget => Err(EvalError::SpaceBudgetExceeded {
                required: size,
                budget,
            }),
            _ => Ok(()),
        }
    }

    pub(crate) fn node(&mut self, rule: usize) -> Result<(), EvalError> {
        self.stats.nodes += 1;
        self.rules[rule] += 1;
        self.charge(1)
    }
}

fn stuck(rule: &'static str, detail: impl Into<String>) -> EvalError {
    EvalError::Stuck {
        rule,
        detail: detail.into(),
    }
}

/// Evaluate `expr` on `input` under `config`, returning both the result and
/// the §3 statistics. Runs on the interned (hash-consed) path; the input
/// is interned once and the result resolved once at the boundary.
///
/// Interned intermediates are retained by the calling thread's arena
/// *across* calls — repeated evaluations over shared data get cache hits,
/// at the price of monotone memory growth. Long-running processes that
/// evaluate unboundedly many distinct inputs should call
/// [`nra_core::value::intern::reset_thread_arena`] at quiescent points
/// (no live `VId`s); see the arena docs for the trade-off.
///
/// ```
/// use nra_core::{builder, Value};
/// use nra_eval::{evaluate, EvalConfig};
///
/// // powerset(r₃) has 2³ subsets; the complexity measure sees them all
/// let ev = evaluate(&builder::powerset(), &Value::chain(3), &EvalConfig::default());
/// assert_eq!(ev.result.unwrap().cardinality(), Some(8));
/// assert_eq!(ev.stats.max_object_size, 45);
/// ```
pub fn evaluate(expr: &Expr, input: &Value, config: &EvalConfig) -> Evaluation {
    let iv = intern::intern(input);
    let ev = evaluate_vid(expr, iv, config);
    Evaluation {
        result: ev.result.map(intern::resolve),
        stats: ev.stats,
    }
}

/// Evaluate entirely on interned handles: the input is a [`VId`] into the
/// calling thread's arena and so is the result — no tree conversion at
/// either end. This is the hot entry point used by the benchmarks, the
/// graph/circuit bridges and the symbolic Lemma checks.
///
/// ```
/// use nra_core::{queries, value::intern};
/// use nra_eval::{evaluate_vid, EvalConfig};
///
/// let input = intern::chain(4);
/// let ev = evaluate_vid(&queries::tc_while(), input, &EvalConfig::default());
/// let out = ev.result.unwrap();
/// assert_eq!(out, intern::chain_tc(4)); // O(1) equality on handles
/// assert_eq!(intern::to_edges(out).unwrap().len(), 10);
/// ```
pub fn evaluate_vid(expr: &Expr, input: VId, config: &EvalConfig) -> VidEvaluation {
    let (result, stats) = if config.memo || config.semi_naive {
        // the cached routes walk the interned expression, so the
        // (EId, VId) pair is available as the apply-cache key — and the
        // EId as the delta-cache key — at every recursion step. The
        // facade borrows both thread-local arenas once, for the whole
        // evaluation: the walker itself never touches a thread-local.
        expr_intern::with_arena(|ea| {
            let eid = ea.intern(expr);
            // the thread's pooled state opens a cold query
            let mut state = MEMO_POOL.take().unwrap_or_else(|| MemoState::new(ea));
            state.begin_query(ea, false);
            let ev = intern::with_arena(|va| {
                run(config, va, |ctx, va| {
                    eval_eid(eid, input, ctx, ea, &mut state, va)
                })
            });
            MEMO_POOL.set(Some(state));
            ev
        })
    } else {
        intern::with_arena(|va| run(config, va, |ctx, va| eval_vid(expr, input, ctx, va)))
    };
    VidEvaluation { result, stats }
}

/// Run one walk under a fresh [`Ctx`] against `va` and complete its
/// statistics (the per-rule counters are folded in). Every evaluation
/// entry point with [`EvalStats`] goes through here.
pub(crate) fn run<T>(
    config: &EvalConfig,
    va: &mut ValueArena,
    walk: impl FnOnce(&mut Ctx, &mut ValueArena) -> Result<T, EvalError>,
) -> (Result<T, EvalError>, EvalStats) {
    let mut ctx = Ctx::new(config);
    let result = walk(&mut ctx, va);
    (result, ctx.finish())
}

/// Evaluate with the default (unbudgeted) configuration, discarding stats.
pub fn eval(expr: &Expr, input: &Value) -> Result<Value, EvalError> {
    evaluate(expr, input, &EvalConfig::default()).result
}

/// Evaluate `expr` on `input` with the original tree-walking
/// implementation: for evaluations that complete, results and statistics
/// are identical to [`evaluate`] — but every observation traverses the
/// object (`O(size)`) and every `clone` is deep. Kept as the differential
/// baseline the interned path is tested and benchmarked against.
///
/// On *budget errors* the two paths may report different partial
/// statistics and `required` sizes: `map` visits set elements in `Value`
/// order here but in handle order on the interned path, so a budget can
/// trip at a different element.
pub fn evaluate_tree(expr: &Expr, input: &Value, config: &EvalConfig) -> Evaluation {
    let mut ctx = Ctx::new(config);
    let result = eval_in(expr, input, &mut ctx);
    Evaluation {
        result,
        stats: ctx.finish(),
    }
}

/// The interned §3 rule set: one call = one derivation node — the exact
/// walker, whatever the memo and semi-naive switches say. Shared with
/// [`crate::lazy`] (which re-uses it for per-subset sub-evaluations); the
/// traced builder in [`crate::trace`] mirrors it rule for rule. The
/// arena is an explicit parameter.
pub(crate) fn eval_vid(
    expr: &Expr,
    input: VId,
    ctx: &mut Ctx,
    va: &mut ValueArena,
) -> Result<VId, EvalError> {
    ctx.node(expr.head_index())?;
    if !matches!(
        expr,
        Expr::Tuple(..) | Expr::Map(_) | Expr::Cond(..) | Expr::Compose(..) | Expr::While(_)
    ) {
        return eval_leaf_rule(expr, input, ctx, va);
    }
    ctx.observe_vid(va, input)?;
    let output = match expr {
        Expr::Tuple(f, g) => {
            let a = eval_vid(f, input, ctx, va)?;
            let b = eval_vid(g, input, ctx, va)?;
            va.pair(a, b)
        }
        Expr::Map(f) => {
            let items = va
                .as_set(input)
                .ok_or_else(|| stuck("map", "input is not a set"))?;
            let mut out = Vec::with_capacity(items.len());
            for &item in items.iter() {
                out.push(eval_vid(f, item, ctx, va)?);
            }
            va.set_from_vec(out)
        }
        Expr::Cond(c, then, els) => {
            let cv = eval_vid(c, input, ctx, va)?;
            match va.as_bool(cv) {
                Some(true) => eval_vid(then, input, ctx, va)?,
                Some(false) => eval_vid(els, input, ctx, va)?,
                None => return Err(stuck("if", "condition is not boolean")),
            }
        }
        Expr::Compose(g, f) => {
            let mid = eval_vid(f, input, ctx, va)?;
            eval_vid(g, mid, ctx, va)?
        }
        Expr::While(f) => {
            let mut current = input;
            let mut iterations: u64 = 0;
            loop {
                let next = eval_vid(f, current, ctx, va)?;
                iterations += 1;
                ctx.stats.while_iterations += 1;
                // hash-consing makes the fixpoint test O(1)
                if next == current {
                    break current;
                }
                if iterations >= ctx.config.max_while_iters {
                    return Err(EvalError::WhileDiverged { iterations });
                }
                current = next;
            }
        }
        leaf => unreachable!("leaf {} handled above", leaf.head_name()),
    };
    ctx.observe_vid(va, output)?;
    Ok(output)
}

/// One full leaf rule — both §3 observations plus the primitive itself —
/// shared by [`eval_vid`] and the memoised [`eval_eid`]. The caller has
/// already counted the derivation node.
fn eval_leaf_rule(
    expr: &Expr,
    input: VId,
    ctx: &mut Ctx,
    va: &mut ValueArena,
) -> Result<VId, EvalError> {
    if matches!(expr, Expr::Powerset | Expr::PowersetM(_) | Expr::Const(..)) {
        ctx.observe_vid(va, input)?;
        let output = apply_leaf_vid(expr, input, ctx, va)?;
        ctx.observe_vid(va, output)?;
        Ok(output)
    } else {
        ctx.observe_vid(va, input)?;
        let output = apply_simple_leaf(expr, input, va)?;
        ctx.observe_vid(va, output)?;
        Ok(output)
    }
}

thread_local! {
    /// The pooled [`MemoState`], so consecutive memoised evaluations
    /// through [`evaluate_vid`] reuse its table and caches. Sessions own
    /// their state instead.
    static MEMO_POOL: std::cell::Cell<Option<MemoState>> = const { std::cell::Cell::new(None) };
}

/// One entry of the **delta cache**: the last `(input, output)` pair a
/// `map`/`μ` node produced, plus the as-if-uncached cost (derivation
/// nodes) of its per-element sub-derivations. When the same expression
/// node next fires on a *superset* of `input` — exactly what happens to
/// every pointwise rule inside an inflationary `while` body — the body
/// runs on the frontier only and `output` is folded in by a sorted
/// merge. `map` and `μ` distribute over union element-by-element, so
/// the incremental result is bit-for-bit the recomputed one.
#[derive(Clone, Copy)]
struct DeltaEntry {
    /// The input set of the previous application.
    input: VId,
    /// Its output.
    output: VId,
    /// As-if-uncached cost of the per-element sub-derivations (0 for
    /// `μ`, which has none); charged on a skip so node budgets stay
    /// strategy-independent.
    cost: u64,
}

/// The delta cache: one [`DeltaEntry`] per `map`/`μ` expression node,
/// keyed by [`EId`]. Cleared per evaluation.
type DeltaMap = HashMap<EId, DeltaEntry, FxBuildHasher>;

/// Everything one cached (memoised and/or semi-naive) evaluation
/// threads through [`eval_eid`]: a view of the apply table (active under
/// [`EvalConfig::memo`]), the delta cache (active under
/// [`EvalConfig::semi_naive`]) and the shape-recognition caches. The
/// walker reads expression structure from the [`ExprArena`] itself, so
/// the state holds no copy of it. A session owns one state for its
/// lifetime, and [`evaluate_vid`] pools one per thread.
pub(crate) struct MemoState {
    /// The expression-arena generation the recognised handles below
    /// were interned in.
    generation: u64,
    memo: ApplyView,
    delta: DeltaMap,
    /// The interned handle of the Prop 2.1 derived term
    /// [`nra_core::derived::cartprod`] — hash-consing makes every
    /// occurrence of the derived product share this `EId`, so the
    /// semi-naive walker can recognise it and apply the fused
    /// delta-join rule `A×B = Aₚ×Bₚ ∪ δA×B ∪ Aₚ×δB` (see
    /// [`eval_cartprod_fused`]).
    cartprod: EId,
    /// The interned handle of the Prop 2.1 `unnest = μ ∘ map(ρ₂)` term
    /// — like `cartprod`, monomorphic and hence recognisable by handle
    /// equality. See [`eval_unnest_fused`].
    unnest: EId,
    /// Recognition caches for the type-parameterised Prop 2.1 shapes —
    /// equality at a type, membership, inclusion, and `nest` — which
    /// cannot be recognised by a single handle (each type instantiation
    /// interns differently) and are matched structurally instead. See
    /// [`crate::shapes`].
    shapes: ShapeCaches,
    /// Recognition cache for the Prop 2.1 selection shape
    /// `σ_p = μ ∘ map(if p then η else ∅ˢ ∘ !)`: maps a `Compose` node
    /// to `Some(predicate)` when it is a selection, `None` when it is
    /// not (so the shape is walked at most once per node). See
    /// [`eval_select_fused`].
    selects: HashMap<EId, Option<EId>, FxBuildHasher>,
    /// Recognition cache for projection-equality predicates
    /// `=_N ∘ ⟨π-chain, π-chain⟩` (the coordinate comparisons every
    /// Prop 2.1 join condition is built from), keyed at the outer
    /// `Compose`. See [`eval_projeq_fused`].
    projeqs: HashMap<EId, Option<(ProjPath, ProjPath)>, FxBuildHasher>,
    /// Recognition cache for projection tupling `⟨π-chain, π-chain⟩`
    /// (the re-assembly step of every Prop 2.1 join), keyed at the
    /// `Tuple` node. See [`eval_projpair_fused`].
    projpairs: HashMap<EId, Option<(ProjPath, ProjPath)>, FxBuildHasher>,
}

/// Recognise the Prop 2.1 selection shape at `eid` and return its
/// predicate, caching the verdict.
fn select_pred(eid: EId, exprs: &ExprArena, caches: &mut MemoState) -> Option<EId> {
    *caches
        .selects
        .entry(eid)
        .or_insert_with(|| crate::shapes::select_shape(exprs, eid))
}

/// Probe the delta cache for an incremental application: `Some((prev
/// output, prev cost, frontier))` when `eid` last fired on a subset of
/// `input` (the one-pass [`set_merge_delta`] gives the subset test and
/// the frontier together — `old ⊆ new` iff their union interns back to
/// `new`).
///
/// [`set_merge_delta`]: nra_core::value::intern::ValueArena::set_merge_delta
fn delta_probe(
    eid: EId,
    input: VId,
    delta: &DeltaMap,
    va: &mut ValueArena,
) -> Option<(VId, u64, VId)> {
    let e = delta.get(&eid)?;
    if e.input == input {
        // the identical application: the frontier is empty
        return Some((e.output, e.cost, va.empty_set()));
    }
    // subset test by merge *scan* (interns nothing on the miss path),
    // then one pass for the frontier — equivalent to `set_merge_delta`
    // with the union elided, since `old ⊆ new` makes the union `new`
    if !va.is_subset(e.input, input)? {
        return None;
    }
    let fresh = va.set_difference(input, e.input)?;
    Some((e.output, e.cost, fresh))
}

impl MemoState {
    /// A fresh state on a fresh apply table, against the given
    /// expression arena (interns the monomorphic recognisable derived
    /// terms).
    pub(crate) fn new(ea: &mut ExprArena) -> Self {
        let cartprod = ea.intern(&nra_core::derived::cartprod());
        let unnest = ea.intern(&nra_core::derived::unnest());
        MemoState::around(ea.generation(), ApplyView::new(), cartprod, unnest)
    }

    /// A batch worker's state: a view of this state's apply table at
    /// this state's floor, the same recognised handles (the worker's
    /// expression arena is a clone of this one's store), and empty
    /// delta and recognition caches.
    pub(crate) fn worker(&mut self) -> Self {
        MemoState::around(
            self.generation,
            self.memo.share(),
            self.cartprod,
            self.unnest,
        )
    }

    fn around(generation: u64, memo: ApplyView, cartprod: EId, unnest: EId) -> Self {
        MemoState {
            generation,
            memo,
            delta: DeltaMap::default(),
            cartprod,
            unnest,
            shapes: ShapeCaches::default(),
            selects: HashMap::default(),
            projeqs: HashMap::default(),
            projpairs: HashMap::default(),
        }
    }

    /// Open the next query against this state.
    ///
    /// * `warm = false` ([`evaluate_vid`]'s per-call semantics): a cold
    ///   open — the apply-table view raises its floor, so every earlier
    ///   entry is hidden in `O(1)` — and cleared recognition caches.
    /// * `warm = true` (the session semantics): apply-table entries
    ///   **survive across queries**, and later hits on them are counted
    ///   as warm. Falls back to a cold open when the expression arena
    ///   was cleared in between (every cached `EId` went stale).
    ///
    /// The delta cache is cleared either way: its entries carry
    /// per-evaluation cost accounting.
    pub(crate) fn begin_query(&mut self, ea: &mut ExprArena, warm: bool) {
        let cleared = ea.generation() != self.generation;
        if cleared {
            // interning is canonical, so the recognised handles only
            // move when the arena was cleared; re-intern them then
            self.generation = ea.generation();
            self.cartprod = ea.intern(&nra_core::derived::cartprod());
            self.unnest = ea.intern(&nra_core::derived::unnest());
        }
        let warm = warm && !cleared;
        self.memo.open(warm);
        if !warm {
            // the shape-recognition caches key on EIds (and on VIds, for
            // conformance), which a cold open treats as untrusted: the
            // facade's arenas may have been reset
            self.shapes.clear();
            self.selects.clear();
            self.projeqs.clear();
            self.projpairs.clear();
        }
        self.delta.clear();
    }

    /// Approximate resident bytes of the retained cache state: the
    /// apply table, charged in full by every view of it (the
    /// recognition caches are negligible next to it).
    pub(crate) fn approx_resident_bytes(&self) -> usize {
        self.memo.resident_bytes()
    }
}

/// The cached §3 rule set over the *interned* expression: identical
/// semantics to [`eval_vid`] (the differential harnesses hold the two
/// bit-for-bit equal), but every recursion step carries an [`EId`],
/// which keys both caches:
///
/// * under [`EvalConfig::memo`], each judgment `f(C) ⇓ C'` is first
///   looked up in the apply cache `(EId, VId) → VId` and recorded there
///   after a miss — a hit returns the cached handle in `O(1)` without
///   re-deriving, which collapses the repeated body applications inside
///   `while`, `map` over recurring elements, and `powersetₘ` chains;
/// * under [`EvalConfig::semi_naive`], the pointwise set rules (`map`,
///   `μ`) consult the delta cache: when their input grew from the
///   previous application of the same node — the steady state of every
///   rule inside an inflationary `while` body — the body runs on the
///   frontier only and the previous output is folded in by a sorted
///   merge, and the `while` rule itself threads the `(total, delta)`
///   pair, recording each iterate's frontier in
///   [`EvalStats::while_frontiers`].
///
/// Hits and skips are counted in [`EvalStats::memo_hits`] /
/// [`EvalStats::delta_skipped`] and deliberately do **not** re-count
/// the skipped derivation's nodes or object observations — but they do
/// charge its recorded as-if-uncached cost against the node budget, so
/// budget exhaustion is strategy-independent.
pub(crate) fn eval_eid(
    eid: EId,
    input: VId,
    ctx: &mut Ctx,
    exprs: &ExprArena,
    caches: &mut MemoState,
    va: &mut ValueArena,
) -> Result<VId, EvalError> {
    let memo = ctx.config.memo;
    if memo {
        if let Some((out, cost, warm)) = caches.memo.probe(eid, input) {
            ctx.stats.memo_hits += 1;
            if warm {
                ctx.stats.warm_hits += 1;
            }
            ctx.charge(cost)?;
            return Ok(out);
        }
        ctx.stats.memo_misses += 1;
    }
    if ctx.config.semi_naive {
        // the fused-rule hooks; every stored slot carries the cost the
        // fused application actually charged (one node for the pure
        // projection rules; node + folded frontier + fresh predicate
        // derivations for the selection), so later hits keep charging
        // the budget exactly what a re-run would
        let fused_start = ctx.charged_nodes;
        let fused = if eid == caches.cartprod {
            eval_cartprod_fused(eid, input, ctx, caches, va)?
        } else if eid == caches.unnest {
            eval_unnest_fused(eid, input, ctx, caches, va)?
        } else if let ENode::Compose(g, _) = *exprs.node_ref(eid) {
            // one-read pre-filters before the (cached) full shape
            // recognitions: σ_p starts `μ ∘ …`, projection equality
            // starts `=_N ∘ …`, inclusion starts `empty ∘ …`,
            // membership starts `(¬ ∘ empty) ∘ …`, the self-join
            // `(μ ∘ …) ∘ …`, the projected self-join `map(⟨…⟩) ∘ …`,
            // nest starts `map(⟨π₁, …⟩) ∘ …`
            match exprs.node_ref(g) {
                ENode::Leaf(l) if **l == Expr::Flatten => match select_pred(eid, exprs, caches) {
                    Some(pred) => eval_select_fused(eid, pred, input, ctx, exprs, caches, va)?,
                    None => None,
                },
                ENode::Leaf(l) if **l == Expr::EqNat => {
                    eval_projeq_fused(eid, input, ctx, exprs, caches, va)?
                }
                ENode::Leaf(l) if **l == Expr::IsEmpty => {
                    eval_subset_fused(eid, input, ctx, exprs, caches, va)?
                }
                // membership and the self-join share this head, the
                // projected self-join and nest share the next
                ENode::Compose(..) | ENode::Map(_)
                    if crate::shapes::join_shape(
                        eid,
                        caches.cartprod,
                        exprs,
                        &mut caches.shapes,
                    )
                    .is_some() =>
                {
                    eval_join_fused(eid, input, ctx, exprs, caches, va)?
                }
                ENode::Compose(..) => eval_member_fused(eid, input, ctx, exprs, caches, va)?,
                ENode::Map(_) => eval_nest_fused(eid, input, ctx, exprs, caches, va)?,
                _ => None,
            }
        } else if matches!(*exprs.node_ref(eid), ENode::Tuple(..)) {
            eval_projpair_fused(eid, input, ctx, exprs, caches, va)?
        } else {
            None
        };
        if let Some(output) = fused {
            if memo {
                caches
                    .memo
                    .store(eid, input, output, ctx.charged_nodes - fused_start);
            }
            return Ok(output);
        }
    }
    let cost_start = ctx.charged_nodes;
    let node = exprs.node_ref(eid);
    ctx.node(node.head_index())?;
    let output = match node {
        ENode::Leaf(leaf) if ctx.config.semi_naive && **leaf == Expr::Flatten => {
            eval_flatten_delta(eid, input, ctx, caches, va)?
        }
        ENode::Leaf(leaf) => eval_leaf_rule(leaf, input, ctx, va)?,
        recursive => {
            ctx.observe_vid(va, input)?;
            let output = match *recursive {
                ENode::Tuple(f, g) => {
                    let a = eval_eid(f, input, ctx, exprs, caches, va)?;
                    let b = eval_eid(g, input, ctx, exprs, caches, va)?;
                    va.pair(a, b)
                }
                ENode::Map(f) => eval_map_eid(eid, f, input, ctx, exprs, caches, va)?,
                ENode::Cond(c, then, els) => {
                    let cv = eval_eid(c, input, ctx, exprs, caches, va)?;
                    match va.as_bool(cv) {
                        Some(true) => eval_eid(then, input, ctx, exprs, caches, va)?,
                        Some(false) => eval_eid(els, input, ctx, exprs, caches, va)?,
                        None => return Err(stuck("if", "condition is not boolean")),
                    }
                }
                ENode::Compose(g, f) => {
                    let mid = eval_eid(f, input, ctx, exprs, caches, va)?;
                    eval_eid(g, mid, ctx, exprs, caches, va)?
                }
                ENode::While(f) => {
                    let mut current = input;
                    let mut iterations: u64 = 0;
                    loop {
                        let next = eval_eid(f, current, ctx, exprs, caches, va)?;
                        iterations += 1;
                        ctx.stats.while_iterations += 1;
                        record_frontier(ctx, va, current, next);
                        if next == current {
                            break current;
                        }
                        if iterations >= ctx.config.max_while_iters {
                            return Err(EvalError::WhileDiverged { iterations });
                        }
                        current = next;
                    }
                }
                ENode::Leaf(_) => unreachable!("leaf handled above"),
            };
            ctx.observe_vid(va, output)?;
            output
        }
    };
    if memo {
        caches
            .memo
            .store(eid, input, output, ctx.charged_nodes - cost_start);
    }
    Ok(output)
}

/// Thread the `(total, delta)` pair of one semi-naive `while` iterate:
/// record the frontier cardinality `|next ∖ current|` in
/// [`EvalStats::while_frontiers`] — a count-only merge scan, nothing is
/// interned. No-op in the default mode and on non-set iterates.
fn record_frontier(ctx: &mut Ctx, va: &ValueArena, current: VId, next: VId) {
    if ctx.config.semi_naive {
        if let Some(card) = va.set_delta_cardinality(current, next) {
            ctx.stats.while_frontiers.push(card);
        }
    }
}

/// The `map` rule of [`eval_eid`], with the semi-naive incremental
/// path: `map(f)` distributes over union element-by-element, so when
/// the input is a superset of the node's previous input, `{f(x) | x ∈
/// fresh}` merged into the previous output *is* the full result —
/// bit-for-bit, for every `f`.
fn eval_map_eid(
    eid: EId,
    f: EId,
    input: VId,
    ctx: &mut Ctx,
    exprs: &ExprArena,
    caches: &mut MemoState,
    va: &mut ValueArena,
) -> Result<VId, EvalError> {
    let items = va
        .as_set(input)
        .ok_or_else(|| stuck("map", "input is not a set"))?;
    if ctx.config.semi_naive {
        if let Some((prev_out, prev_cost, fresh)) = delta_probe(eid, input, &caches.delta, va) {
            let fresh_items = va.as_set(fresh).expect("frontier is a set");
            ctx.stats.delta_hits += 1;
            ctx.stats.delta_skipped += (items.len() - fresh_items.len()) as u64;
            let cost_start = ctx.charged_nodes;
            ctx.charge(prev_cost)?;
            let mut images = Vec::with_capacity(fresh_items.len());
            for &item in fresh_items.iter() {
                images.push(eval_eid(f, item, ctx, exprs, caches, va)?);
            }
            let imgs = va.set_from_vec(images);
            let output = va
                .set_merge_frontier(prev_out, &[imgs])
                .expect("map outputs are sets");
            let cost = ctx.charged_nodes - cost_start;
            caches.delta.insert(
                eid,
                DeltaEntry {
                    input,
                    output,
                    cost,
                },
            );
            return Ok(output);
        }
    }
    let cost_start = ctx.charged_nodes;
    let mut out = Vec::with_capacity(items.len());
    for &item in items.iter() {
        out.push(eval_eid(f, item, ctx, exprs, caches, va)?);
    }
    let output = va.set_from_vec(out);
    if ctx.config.semi_naive {
        let cost = ctx.charged_nodes - cost_start;
        caches.delta.insert(
            eid,
            DeltaEntry {
                input,
                output,
                cost,
            },
        );
    }
    Ok(output)
}

/// The fused delta-join rule for the Prop 2.1 derived product: when the
/// semi-naive walker reaches the (hash-consed, hence recognisable)
/// `cartprod` term on a pair of sets, it constructs `A × B` directly in
/// the arena instead of deriving the `μ ∘ map(ρ₂) ∘ ρ₁` spread — and
/// when the node's previous application was on `(Aₚ ⊆ A, Bₚ ⊆ B)` (the
/// steady state of the self-join inside `tc_step`), only the delta
/// products are built and merged into the previous result:
///
/// ```text
/// A × B  =  Aₚ × Bₚ  ∪  δA × B  ∪  Aₚ × δB
/// ```
///
/// The output is the canonical set either way — bit-for-bit the derived
/// result. The §3 observations of this rule are the judgment's own
/// boundary objects (a *subset* of the derivation's, so counters never
/// inflate and the complexity never grows); the skipped spread is the
/// point — semi-naive turns the dominant `O(iterations × |closure|²)`
/// re-materialisation into `O(|closure|²)` total work. Returns
/// `Ok(None)` when the input is not a pair of sets (the caller falls
/// back to the ordinary derivation, which reports the proper stuck
/// state).
fn eval_cartprod_fused(
    eid: EId,
    input: VId,
    ctx: &mut Ctx,
    caches: &mut MemoState,
    va: &mut ValueArena,
) -> Result<Option<VId>, EvalError> {
    #[derive(Clone, Copy)]
    enum Plan {
        /// Build `A × B` from scratch.
        Full(VId, VId),
        /// Build `δA × B ∪ Aₚ × δB` and merge into the previous output.
        Delta {
            prev_out: VId,
            a_prev: VId,
            delta_a: VId,
            b: VId,
            delta_b: VId,
        },
    }
    let plan = (|va: &mut ValueArena| {
        let (a, b) = va.as_pair(input)?;
        va.as_set(a)?;
        va.as_set(b)?;
        let incremental = caches.delta.get(&eid).copied().and_then(|e| {
            let (a_prev, b_prev) = va.as_pair(e.input)?;
            if !(va.is_subset(a_prev, a)? && va.is_subset(b_prev, b)?) {
                return None;
            }
            let delta_a = va.set_difference(a, a_prev)?;
            let delta_b = va.set_difference(b, b_prev)?;
            Some(Plan::Delta {
                prev_out: e.output,
                a_prev,
                delta_a,
                b,
                delta_b,
            })
        });
        Some(incremental.unwrap_or(Plan::Full(a, b)))
    })(va);
    let Some(plan) = plan else {
        return Ok(None);
    };
    // one derivation node for the fused judgment, plus its two boundary
    // observations — a strict subset of what the spread would observe
    ctx.node(ENode::Compose(eid, eid).head_index())?;
    ctx.observe_vid(va, input)?;
    let output = match plan {
        Plan::Full(a, b) => {
            let xs = va.as_set(a).expect("checked above");
            let ys = va.as_set(b).expect("checked above");
            let mut pairs = Vec::with_capacity(xs.len() * ys.len());
            for &x in xs.iter() {
                for &y in ys.iter() {
                    pairs.push(va.pair(x, y));
                }
            }
            va.set_from_vec(pairs)
        }
        Plan::Delta {
            prev_out,
            a_prev,
            delta_a,
            b,
            delta_b,
        } => {
            let da = va.as_set(delta_a).expect("frontier is a set");
            let db = va.as_set(delta_b).expect("frontier is a set");
            let ys = va.as_set(b).expect("checked above");
            let xs_prev = va.as_set(a_prev).expect("previous input was a set");
            let mut pairs = Vec::with_capacity(da.len() * ys.len() + xs_prev.len() * db.len());
            for &x in da.iter() {
                for &y in ys.iter() {
                    pairs.push(va.pair(x, y));
                }
            }
            for &x in xs_prev.iter() {
                for &y in db.iter() {
                    pairs.push(va.pair(x, y));
                }
            }
            let fresh = va.set_from_vec(pairs);
            va.set_merge_frontier(prev_out, &[fresh])
                .expect("products are sets")
        }
    };
    if let Plan::Delta { prev_out, .. } = plan {
        ctx.stats.delta_hits += 1;
        ctx.stats.delta_skipped += va.cardinality(prev_out).unwrap_or(0) as u64;
    }
    ctx.observe_vid(va, output)?;
    caches.delta.insert(
        eid,
        DeltaEntry {
            input,
            output,
            cost: 0,
        },
    );
    Ok(Some(output))
}

/// The fused rule for projection-equality predicates
/// `=_N ∘ ⟨π-chain, π-chain⟩` — the coordinate comparison at the heart
/// of every Prop 2.1 join condition (`eq_coords`). Both coordinates are
/// read by direct arena walks and compared, under a single borrow —
/// one derivation node instead of the ~8-node compose/tuple/projection
/// spread, with the same boolean. Returns `Ok(None)` when the shape
/// does not match or the input does not fit it (fall back to the
/// ordinary derivation and its stuck reporting).
fn eval_projeq_fused(
    eid: EId,
    input: VId,
    ctx: &mut Ctx,
    exprs: &ExprArena,
    caches: &mut MemoState,
    va: &mut ValueArena,
) -> Result<Option<VId>, EvalError> {
    let recognised = caches.projeqs.entry(eid).or_insert_with(|| {
        let ENode::Compose(_, f) = *exprs.node_ref(eid) else {
            return None;
        };
        let ENode::Tuple(p1, p2) = *exprs.node_ref(f) else {
            return None;
        };
        let (mut a, mut b) = (ProjPath::new(), ProjPath::new());
        proj_path(p1, exprs, &mut a)?;
        proj_path(p2, exprs, &mut b)?;
        Some((a, b))
    });
    let Some((p1, p2)) = recognised else {
        return Ok(None);
    };
    let output = (|| {
        let x = apply_proj(va, input, p1)?;
        let y = apply_proj(va, input, p2)?;
        match (va.as_nat(x), va.as_nat(y)) {
            (Some(m), Some(n)) => Some(m == n),
            _ => None,
        }
    })();
    let Some(output) = output else {
        return Ok(None);
    };
    let output = va.bool_(output);
    ctx.node(ENode::Compose(eid, eid).head_index())?;
    ctx.observe_vid(va, input)?;
    ctx.observe_vid(va, output)?;
    Ok(Some(output))
}

/// The fused rule for projection tupling `⟨π-chain, π-chain⟩` — the
/// re-assembly step of every Prop 2.1 join (`tuple(coord_a, coord_d)`).
/// One derivation node and one arena borrow instead of the
/// compose/projection spread; the pair is bit-identical. `Ok(None)`
/// falls back as in [`eval_projeq_fused`].
fn eval_projpair_fused(
    eid: EId,
    input: VId,
    ctx: &mut Ctx,
    exprs: &ExprArena,
    caches: &mut MemoState,
    va: &mut ValueArena,
) -> Result<Option<VId>, EvalError> {
    let recognised = caches.projpairs.entry(eid).or_insert_with(|| {
        let ENode::Tuple(p1, p2) = *exprs.node_ref(eid) else {
            return None;
        };
        let (mut a, mut b) = (ProjPath::new(), ProjPath::new());
        proj_path(p1, exprs, &mut a)?;
        proj_path(p2, exprs, &mut b)?;
        // plain ⟨id, id⟩ (dup) gains nothing from fusion
        (!(a.is_empty() && b.is_empty())).then_some((a, b))
    });
    let Some((p1, p2)) = recognised else {
        return Ok(None);
    };
    let output = (|| {
        let x = apply_proj(va, input, p1)?;
        let y = apply_proj(va, input, p2)?;
        Some((x, y))
    })();
    let Some((x, y)) = output else {
        return Ok(None);
    };
    let output = va.pair(x, y);
    ctx.node(ENode::Tuple(eid, eid).head_index())?;
    ctx.observe_vid(va, input)?;
    ctx.observe_vid(va, output)?;
    Ok(Some(output))
}

/// The fused rule for the Prop 2.1 selection
/// `σ_p = μ ∘ map(if p then η else ∅ˢ ∘ !)`: evaluate the predicate
/// per element (a full, memo-shared §3 sub-derivation — selection
/// semantics stay honest) but keep the kept elements directly instead
/// of deriving the singleton/empty wrapping and the `μ` merge over
/// `|S|` singletons. Combined with the delta cache, a grown input
/// evaluates `p` on the frontier only and merges the newly selected
/// elements into the previous result — bit-for-bit the derived output,
/// with the §3 counters only ever shrinking. Returns `Ok(None)` when
/// the input is not a set (the caller falls back to the ordinary
/// derivation and its stuck reporting).
fn eval_select_fused(
    eid: EId,
    pred: EId,
    input: VId,
    ctx: &mut Ctx,
    exprs: &ExprArena,
    caches: &mut MemoState,
    va: &mut ValueArena,
) -> Result<Option<VId>, EvalError> {
    let Some(items) = va.as_set(input) else {
        return Ok(None);
    };
    // one derivation node for the fused judgment + boundary observations
    ctx.node(ENode::Compose(eid, eid).head_index())?;
    ctx.observe_vid(va, input)?;
    let probed = delta_probe(eid, input, &caches.delta, va);
    let (prev_out, prev_cost, fresh_items) = match probed {
        Some((prev_out, prev_cost, fresh)) => {
            let fresh_items = va.as_set(fresh).expect("frontier is a set");
            ctx.stats.delta_hits += 1;
            ctx.stats.delta_skipped += (items.len() - fresh_items.len()) as u64;
            (Some(prev_out), prev_cost, fresh_items)
        }
        None => (None, 0, items),
    };
    let cost_start = ctx.charged_nodes;
    ctx.charge(prev_cost)?;
    let mut selected = Vec::new();
    for &item in fresh_items.iter() {
        let verdict = eval_eid(pred, item, ctx, exprs, caches, va)?;
        match va.as_bool(verdict) {
            Some(true) => selected.push(item),
            Some(false) => {}
            None => return Err(stuck("if", "condition is not boolean")),
        }
    }
    // `selected` preserves the canonical element order, so this is a
    // sort of an already-sorted vector plus one merge
    let sel = va.set_from_vec(selected);
    let output = match prev_out {
        Some(prev) => va
            .set_merge_frontier(prev, &[sel])
            .expect("selections are sets"),
        None => sel,
    };
    ctx.observe_vid(va, output)?;
    let cost = ctx.charged_nodes - cost_start;
    caches.delta.insert(
        eid,
        DeltaEntry {
            input,
            output,
            cost,
        },
    );
    Ok(Some(output))
}

/// The `μ` (flatten) rule of [`eval_eid`] under semi-naive iteration:
/// `μ` distributes over union of its input's *elements*, so a grown
/// input only needs its fresh inner sets folded into the previous
/// output — the n-ary frontier merge, never a re-sort. Falls back to
/// the one-shot [`eval_leaf_rule`] when the node has no usable
/// previous application.
fn eval_flatten_delta(
    eid: EId,
    input: VId,
    ctx: &mut Ctx,
    caches: &mut MemoState,
    va: &mut ValueArena,
) -> Result<VId, EvalError> {
    let probed = delta_probe(eid, input, &caches.delta, va);
    let output = match probed {
        Some((prev_out, _, fresh)) => {
            let fresh_sets = va.as_set(fresh).expect("frontier is a set");
            ctx.stats.delta_hits += 1;
            ctx.stats.delta_skipped +=
                (va.cardinality(input).unwrap_or(0) - fresh_sets.len()) as u64;
            ctx.observe_vid(va, input)?;
            let output = va
                .set_merge_frontier(prev_out, &fresh_sets)
                .ok_or_else(|| stuck("flatten", "element is not a set"))?;
            ctx.observe_vid(va, output)?;
            output
        }
        None => eval_leaf_rule(&Expr::Flatten, input, ctx, va)?,
    };
    caches.delta.insert(
        eid,
        DeltaEntry {
            input,
            output,
            cost: 0,
        },
    );
    Ok(output)
}

/// The fused delta rule for the Prop 2.1 `unnest = μ ∘ map(ρ₂)` term
/// (monomorphic, hence recognised by handle equality like `cartprod`):
/// `unnest({(x₁,S₁),…})` is constructed directly in the arena as
/// `⋃ᵢ {xᵢ} × Sᵢ` instead of deriving the map/ρ₂/μ spread — and since
/// unnest distributes over union of its input's *elements*, a grown
/// input (the steady state inside an inflationary `while`) only
/// processes its fresh `(x, S)` pairs and folds the previous output in
/// by a sorted merge. Bit-for-bit the derived result; the §3
/// observations (the judgment's own boundary objects) are a subset of
/// the spread's. Returns `Ok(None)` when the input does not fit the
/// shape (the ordinary derivation then reports the proper stuck state).
fn eval_unnest_fused(
    eid: EId,
    input: VId,
    ctx: &mut Ctx,
    caches: &mut MemoState,
    va: &mut ValueArena,
) -> Result<Option<VId>, EvalError> {
    let Some(items) = va.as_set(input) else {
        return Ok(None);
    };
    let probed = delta_probe(eid, input, &caches.delta, va);
    let (prev_out, work_items) = match &probed {
        Some((prev_out, _, fresh)) => (Some(*prev_out), va.as_set(*fresh).expect("frontier")),
        None => (None, items.clone()),
    };
    let mut pairs = Vec::new();
    for &item in work_items.iter() {
        let Some((x, s)) = va.as_pair(item) else {
            return Ok(None);
        };
        let Some(ys) = va.as_set(s) else {
            return Ok(None);
        };
        for &y in ys.iter() {
            pairs.push(va.pair(x, y));
        }
    }
    ctx.node(ENode::Compose(eid, eid).head_index())?;
    ctx.observe_vid(va, input)?;
    let fresh_pairs = va.set_from_vec(pairs);
    let output = match prev_out {
        Some(prev) => {
            ctx.stats.delta_hits += 1;
            ctx.stats.delta_skipped += (items.len() - work_items.len()) as u64;
            va.set_merge_frontier(prev, &[fresh_pairs])
                .expect("unnest outputs are sets")
        }
        None => fresh_pairs,
    };
    ctx.observe_vid(va, output)?;
    caches.delta.insert(
        eid,
        DeltaEntry {
            input,
            output,
            cost: 0,
        },
    );
    Ok(Some(output))
}

/// The fused rule for the Prop 2.1 membership predicate
/// `∈ = ¬empty ∘ σ_{=ₜ} ∘ ρ₂` (recognised structurally at any element
/// type — see [`crate::shapes`]): handle equality *is* structural
/// equality within one arena, so `x ∈ S` is a binary search over `S`'s
/// canonical element slice instead of spreading `{x} × S` and deriving
/// `=ₜ` per element. One derivation node, the same boolean. `Ok(None)`
/// on shape mismatch — or when the input does not *conform* to the
/// witnessed type `t`: the derived `=ₜ` is only total-and-structural on
/// conforming values (it gets stuck on shape mismatches, and `=_unit`
/// is constantly true on anything), so ill-typed inputs fall back to
/// the ordinary derivation and keep its exact behaviour.
fn eval_member_fused(
    eid: EId,
    input: VId,
    ctx: &mut Ctx,
    exprs: &ExprArena,
    caches: &mut MemoState,
    va: &mut ValueArena,
) -> Result<Option<VId>, EvalError> {
    let Some(t) = crate::shapes::member_elem_type(eid, exprs, &mut caches.shapes) else {
        return Ok(None);
    };
    let Some((x, s)) = va.as_pair(input) else {
        return Ok(None);
    };
    let Some(found) = va.set_contains(s, x) else {
        return Ok(None);
    };
    let items = va.as_set(s).expect("checked above");
    if !crate::shapes::conforms_cached(&mut caches.shapes, va, eid, x, &t)
        || !items
            .iter()
            .all(|&y| crate::shapes::conforms_cached(&mut caches.shapes, va, eid, y, &t))
    {
        return Ok(None);
    }
    ctx.node(ENode::Compose(eid, eid).head_index())?;
    ctx.observe_vid(va, input)?;
    let output = va.bool_(found);
    ctx.observe_vid(va, output)?;
    Ok(Some(output))
}

/// The fused rule for the Prop 2.1 inclusion predicate
/// `⊆ = empty ∘ σ_{∉} ∘ ρ₁` (recognised structurally at any element
/// type): one merge scan over the two canonical element slices instead
/// of the ρ₁ spread with a per-element membership sub-derivation.
/// `Ok(None)` on shape mismatch or when either set's elements do not
/// conform to the witnessed type (same soundness gate as
/// [`eval_member_fused`]).
fn eval_subset_fused(
    eid: EId,
    input: VId,
    ctx: &mut Ctx,
    exprs: &ExprArena,
    caches: &mut MemoState,
    va: &mut ValueArena,
) -> Result<Option<VId>, EvalError> {
    let Some(t) = crate::shapes::subset_elem_type(eid, exprs, &mut caches.shapes) else {
        return Ok(None);
    };
    let Some((a, b)) = va.as_pair(input) else {
        return Ok(None);
    };
    let Some(holds) = va.is_subset(a, b) else {
        return Ok(None);
    };
    for set in [a, b] {
        let items = va.as_set(set).expect("checked above");
        if !items
            .iter()
            .all(|&y| crate::shapes::conforms_cached(&mut caches.shapes, va, eid, y, &t))
        {
            return Ok(None);
        }
    }
    ctx.node(ENode::Compose(eid, eid).head_index())?;
    ctx.observe_vid(va, input)?;
    let output = va.bool_(holds);
    ctx.observe_vid(va, output)?;
    Ok(Some(output))
}

/// The fused rule for the Prop 2.1 grouping operator
/// `nest(R) = {(x, {y | (x,y) ∈ R}) | x ∈ π₁(R)}` (recognised
/// structurally at any key/value type): one grouping pass over `R`'s
/// canonical elements instead of the π₁-image/ρ₁/σ spread whose
/// intermediate product is quadratic in `|R|`.
///
/// Unlike `map`/`μ`/`unnest`, nest does **not** distribute over union —
/// a grown input *replaces* group values rather than adding elements —
/// so there is no frontier rule: the fused rule recomputes the grouping
/// from the full input (linear, versus the derived spread's quadratic
/// re-derivation). `Ok(None)` on shape mismatch, on non-pair elements,
/// or when a key does not conform to the witnessed key type `s` (the
/// derived `=ₛ` comparing keys is only structural on conforming values
/// — same soundness gate as [`eval_member_fused`]).
fn eval_nest_fused(
    eid: EId,
    input: VId,
    ctx: &mut Ctx,
    exprs: &ExprArena,
    caches: &mut MemoState,
    va: &mut ValueArena,
) -> Result<Option<VId>, EvalError> {
    let Some(key_type) = crate::shapes::nest_key_type(eid, exprs, &mut caches.shapes) else {
        return Ok(None);
    };
    let Some(items) = va.as_set(input) else {
        return Ok(None);
    };
    // group in canonical element order: keys first occur in that order,
    // and each group's values arrive ascending (pairs sharing a first
    // component sort by their second within the canonical slice)
    let mut keys: Vec<VId> = Vec::new();
    let mut groups: HashMap<VId, Vec<VId>, FxBuildHasher> = HashMap::default();
    for &item in items.iter() {
        let Some((x, y)) = va.as_pair(item) else {
            return Ok(None);
        };
        if !crate::shapes::conforms_cached(&mut caches.shapes, va, eid, x, &key_type) {
            return Ok(None);
        }
        groups
            .entry(x)
            .or_insert_with(|| {
                keys.push(x);
                Vec::new()
            })
            .push(y);
    }
    ctx.node(ENode::Compose(eid, eid).head_index())?;
    ctx.observe_vid(va, input)?;
    let mut out = Vec::with_capacity(keys.len());
    for x in keys {
        let ys = groups.remove(&x).expect("key recorded with its group");
        let group = va.set_from_vec(ys);
        out.push(va.pair(x, group));
    }
    let output = va.set_from_vec(out);
    ctx.observe_vid(va, output)?;
    Ok(Some(output))
}

/// The fused hash self-join for the Prop 2.1 shape
/// `σ_p ∘ (cartprod ∘ ⟨id, id⟩)`, bare or under a trailing projection
/// `map(⟨c₁, c₂⟩)` — the join inside relational composition
/// `map(⟨a, d⟩) ∘ σ_{b=c}(R × R)`, `tc_step`, `tc_while`'s body and the
/// siblings queries (recognised structurally — see
/// [`crate::shapes::join_shape`]). Instead of materialising `R × R`
/// and deriving `p` per pair, `R` is hashed on the right element's key
/// coordinate, every left element probes that index, the remaining
/// conjuncts are checked by direct arena reads, and only each match
/// `(x, y)` — or, projected, `(c₁(x, y), c₂(x, y))` — is interned: work
/// proportional to `|R|` plus the key matches, not `|R|²`, and a
/// projected join never builds the matched set the `map` would walk.
/// When the node last ran on `Rₚ ⊆ R` (the steady state inside
/// `while`), only the delta joins are built and folded into the
/// previous output (`map` distributes over `∪`, so the projected form
/// carries over unchanged):
///
/// ```text
/// σ_p(R × R)  =  σ_p(Rₚ × Rₚ)  ∪  δ ⋈ R  ∪  Rₚ ⋈ δ      (δ = R ∖ Rₚ)
/// ```
///
/// The output is the canonical selected (or projected) set, bit-for-bit
/// the derived one. The fused judgment is one derivation node observing
/// its input and its output, so under semi-naive a join's
/// `max_object_size` is its input or its answer, never the product nor
/// (projected) the matched pairs. **Totality gate:** `R × R` pairs every
/// element of `R` with every other on both sides, so the derived
/// predicate is total iff every coordinate it reads is a `Nat` on every
/// element of `R`, and the projection cannot get stuck if each of its
/// paths resolves on every element of `R` — an `O(|R|)` check made
/// before any work (only the frontier's elements on a delta step: the
/// node's previous input passed the gate when this rule recorded it).
/// Otherwise — or when the input is not a set — `Ok(None)`: the
/// ordinary derivation runs (a projected shape's inner join is then
/// still fused on its own gate) and gets stuck exactly as it does
/// without fusion.
fn eval_join_fused(
    eid: EId,
    input: VId,
    ctx: &mut Ctx,
    exprs: &ExprArena,
    caches: &mut MemoState,
    va: &mut ValueArena,
) -> Result<Option<VId>, EvalError> {
    let Some(shape) = crate::shapes::join_shape(eid, caches.cartprod, exprs, &mut caches.shapes)
    else {
        return Ok(None);
    };
    let Some(items) = va.as_set(input) else {
        return Ok(None);
    };
    // the previous application, when its input is a subset of this one
    let prev = caches
        .delta
        .get(&eid)
        .copied()
        .filter(|e| va.is_subset(e.input, input) == Some(true));
    let (old, fresh) = match prev {
        Some(e) => {
            let fresh = va
                .set_difference(input, e.input)
                .expect("both inputs are sets");
            (
                va.as_set(e.input).expect("previous input was a set"),
                va.as_set(fresh).expect("frontier is a set"),
            )
        }
        None => (Arc::from(Vec::new()), Arc::clone(&items)),
    };
    let total = fresh.iter().all(|&e| {
        shape
            .reads
            .iter()
            .all(|path| apply_proj(va, e, path).is_some_and(|c| va.as_nat(c).is_some()))
            && shape
                .project
                .iter()
                .flatten()
                .all(|c| apply_proj(va, e, &c.path).is_some())
    });
    if !total {
        return Ok(None);
    }
    ctx.node(ENode::Compose(eid, eid).head_index())?;
    ctx.observe_vid(va, input)?;
    // a join node applied again in one evaluation (`tc_while`'s
    // squaring) can project one answer from many matches: it interns
    // each distinct answer once, across both halves of the delta form
    let mut seen = prev.is_some().then(HashSet::default);
    let mut pairs = Vec::new();
    hash_join(&shape, &fresh, &items, va, seen.as_mut(), &mut pairs);
    let output = match prev {
        Some(e) => {
            hash_join(&shape, &old, &fresh, va, seen.as_mut(), &mut pairs);
            ctx.stats.delta_hits += 1;
            ctx.stats.delta_skipped += va.cardinality(e.output).unwrap_or(0) as u64;
            let fresh_pairs = va.set_from_vec(pairs);
            va.set_merge_frontier(e.output, &[fresh_pairs])
                .expect("join outputs are sets")
        }
        None => va.set_from_vec(pairs),
    };
    ctx.observe_vid(va, output)?;
    caches.delta.insert(
        eid,
        DeltaEntry {
            input,
            output,
            cost: 0,
        },
    );
    Ok(Some(output))
}

/// `σ_p(lefts × rights)` for a gated [`JoinShape`], appended to `out`
/// (each match projected when the shape carries a projection): hash
/// `rights` on the right key, probe with each left element's key, keep
/// the pairs passing the residual conjuncts. Nat handles are
/// hash-consed, so handle equality is `=_N`. With a `seen` set, a
/// projected answer is interned and appended only the first time its
/// [`answer_key`] enters it; a bare join's matches are distinct pairs
/// already.
fn hash_join(
    shape: &JoinShape,
    lefts: &[VId],
    rights: &[VId],
    va: &mut ValueArena,
    mut seen: Option<&mut HashSet<u64, FxBuildHasher>>,
    out: &mut Vec<VId>,
) {
    if lefts.is_empty() || rights.is_empty() {
        return;
    }
    let gated = "join coordinates passed the totality gate";
    let mut index: HashMap<VId, Vec<VId>, FxBuildHasher> = HashMap::default();
    for &y in rights {
        let key = apply_proj(va, y, &shape.right_key).expect(gated);
        index.entry(key).or_default().push(y);
    }
    for &x in lefts {
        let key = apply_proj(va, x, &shape.left_key).expect(gated);
        let Some(ys) = index.get(&key) else {
            continue;
        };
        for &y in ys {
            let keep = shape.residual.iter().all(|t| {
                let a = t.lhs.read(va, x, y).expect(gated);
                let b = t.rhs.read(va, x, y).expect(gated);
                (a == b) != t.negated
            });
            if keep {
                match &shape.project {
                    None => out.push(va.pair(x, y)),
                    Some([c1, c2]) => {
                        let a = c1.read(va, x, y).expect(gated);
                        let b = c2.read(va, x, y).expect(gated);
                        if seen.as_mut().is_none_or(|s| s.insert(answer_key(a, b))) {
                            out.push(va.pair(a, b));
                        }
                    }
                }
            }
        }
    }
}

/// The `seen` key of a projected answer `(a, b)`: the two handles'
/// indices packed into one word, then multiplied and rotated — a
/// bijection, so keys stay distinct — because FxHash places a `u64` key
/// by its low bits, which in the packed word are `b`'s alone.
fn answer_key(a: VId, b: VId) -> u64 {
    let packed = ((a.index() as u64) << 32) | b.index() as u64;
    packed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32)
}

/// Apply a non-recursive primitive on the interned path (every rule
/// without sub-derivations). Shared with the derivation-tree builder in
/// [`crate::trace`].
pub(crate) fn apply_leaf_vid(
    expr: &Expr,
    input: VId,
    ctx: &mut Ctx,
    va: &mut ValueArena,
) -> Result<VId, EvalError> {
    // the powerset leaves need the budget context; everything else is a
    // plain arena operation
    match expr {
        Expr::Powerset => eval_powerset_vid(input, ctx, va),
        Expr::PowersetM(m) => eval_powerset_m_vid(*m, input, ctx, va),
        Expr::Const(v, _) => Ok(va.intern(v)),
        _ => apply_simple_leaf(expr, input, va),
    }
}

/// The non-recursive, non-powerset rules, against an explicitly borrowed
/// arena — a single borrow per leaf instead of one per constructed node
/// (a `pairwith` over k elements would otherwise take k + 1 of them).
fn apply_simple_leaf(expr: &Expr, input: VId, a: &mut ValueArena) -> Result<VId, EvalError> {
    let output = match expr {
        Expr::Id => input,
        Expr::Bang => a.unit(),
        Expr::Fst => match a.as_pair(input) {
            Some((x, _)) => x,
            None => return Err(stuck("fst", "input is not a pair")),
        },
        Expr::Snd => match a.as_pair(input) {
            Some((_, y)) => y,
            None => return Err(stuck("snd", "input is not a pair")),
        },
        Expr::Sng => a.set([input]),
        Expr::Flatten => {
            let sets = a
                .as_set(input)
                .ok_or_else(|| stuck("flatten", "input is not a set"))?;
            // n-ary merge over the inner sets' canonical element slices:
            // μ never re-sorts what the arena already keeps sorted
            a.set_from_sorted_merge(&sets)
                .ok_or_else(|| stuck("flatten", "element is not a set"))?
        }
        Expr::PairWith => match a.as_pair(input) {
            Some((x, s)) => match a.as_set(s) {
                Some(items) => {
                    let pairs: Vec<VId> = items.iter().map(|&y| a.pair(x, y)).collect();
                    a.set_from_vec(pairs)
                }
                None => return Err(stuck("pairwith", "second component is not a set")),
            },
            None => return Err(stuck("pairwith", "input is not a pair")),
        },
        Expr::EmptySet(_) => a.empty_set(),
        Expr::Union => match a.as_pair(input) {
            // one linear merge over the two canonical element slices
            Some((x, y)) => a
                .set_union(x, y)
                .ok_or_else(|| stuck("union", "components are not sets"))?,
            None => return Err(stuck("union", "input is not a pair")),
        },
        Expr::EqNat => match a.as_pair(input) {
            Some((x, y)) => match (a.as_nat(x), a.as_nat(y)) {
                (Some(m), Some(n)) => a.bool_(m == n),
                _ => return Err(stuck("eq", "components are not naturals")),
            },
            None => return Err(stuck("eq", "input is not a pair")),
        },
        Expr::IsEmpty => match a.cardinality(input) {
            Some(k) => a.bool_(k == 0),
            None => return Err(stuck("isempty", "input is not a set")),
        },
        Expr::ConstTrue => a.bool_(true),
        Expr::ConstFalse => a.bool_(false),
        Expr::Powerset
        | Expr::PowersetM(_)
        | Expr::Const(..)
        | Expr::Tuple(..)
        | Expr::Map(_)
        | Expr::Cond(..)
        | Expr::Compose(..)
        | Expr::While(_) => {
            unreachable!("apply_simple_leaf called on a recursive or powerset construct")
        }
    };
    Ok(output)
}

/// Predicted size of `powerset({e₁,…,eₖ})` in the §3 measure, from the
/// cardinality `k` and the summed element size `Σᵢ size(eᵢ)` (for a set
/// `s`, that sum is `size(s) − 1`): `1 + 2ᵏ + 2ᵏ⁻¹ · Σᵢ size(eᵢ)` (the
/// outer set node, one node per subset, and each element occurring in
/// half of the subsets). Saturating — huge or deeply shared inputs
/// report `u128::MAX`/`u64::MAX` rather than wrapping in release builds.
/// Admission control prices its powerset sites with it, so the price it
/// declares is the size the evaluator checks.
pub fn powerset_output_size(cardinality: u64, elem_size_sum: u128) -> u128 {
    if cardinality >= 120 {
        return u128::MAX;
    }
    let subsets = 1u128 << cardinality;
    1u128
        .saturating_add(subsets)
        .saturating_add((subsets >> 1).saturating_mul(elem_size_sum))
}

fn eval_powerset_vid(input: VId, ctx: &mut Ctx, va: &mut ValueArena) -> Result<VId, EvalError> {
    let items = va
        .as_set(input)
        .ok_or_else(|| stuck("powerset", "input is not a set"))?;
    let elem_size_sum = items.iter().map(|&v| u128::from(va.size(v))).sum();
    let predicted = powerset_output_size(items.len() as u64, elem_size_sum);
    let predicted64 = u64::try_from(predicted).unwrap_or(u64::MAX);
    // Record the requirement and enforce the budget *before* materialising.
    ctx.check_size(predicted64)?;
    if items.len() > 62 {
        return Err(EvalError::PowersetOverflow {
            input_cardinality: items.len() as u64,
        });
    }
    let k = items.len();
    let mut subsets = Vec::with_capacity(1usize << k);
    for mask in 0u64..(1u64 << k) {
        // the canonical element order is preserved under subset selection
        let subset: Vec<VId> = items
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &e)| e)
            .collect();
        subsets.push(va.set_from_vec(subset));
    }
    Ok(va.set_from_vec(subsets))
}

/// Saturating binomial coefficient `C(n, k)` in `u128`.
pub fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128);
        acc /= (i + 1) as u128;
        if acc == u128::MAX {
            return u128::MAX;
        }
    }
    acc
}

/// Predicted size of `powersetₘ({e₁,…,eₖ})`:
/// `1 + Σ_{i≤m} C(k,i) + (Σ_{i=1..m} C(k−1, i−1)) · Σᵢ size(eᵢ)`.
/// Saturating, like [`powerset_output_size`].
pub fn powerset_m_output_size(m: u64, elem_sizes: &[u64]) -> u128 {
    let k = elem_sizes.len() as u64;
    let sum = elem_sizes
        .iter()
        .fold(0u128, |acc, &s| acc.saturating_add(s as u128));
    let mut count: u128 = 0;
    for i in 0..=m.min(k) {
        count = count.saturating_add(binomial(k, i));
    }
    let mut per_elem: u128 = 0;
    if k > 0 {
        for i in 1..=m.min(k) {
            per_elem = per_elem.saturating_add(binomial(k - 1, i - 1));
        }
    }
    1u128
        .saturating_add(count)
        .saturating_add(per_elem.saturating_mul(sum))
}

fn eval_powerset_m_vid(
    m: u64,
    input: VId,
    ctx: &mut Ctx,
    va: &mut ValueArena,
) -> Result<VId, EvalError> {
    let items = va
        .as_set(input)
        .ok_or_else(|| stuck("powerset_m", "input is not a set"))?;
    let sizes: Vec<u64> = items.iter().map(|&v| va.size(v)).collect();
    let predicted = powerset_m_output_size(m, &sizes);
    let predicted64 = u64::try_from(predicted).unwrap_or(u64::MAX);
    ctx.check_size(predicted64)?;
    // Breadth-first by cardinality: level i holds the i-element subsets,
    // each a sorted handle vector (the canonical set representation).
    let mut all: Vec<VId> = vec![va.empty_set()];
    let mut level: BTreeSet<Vec<VId>> = BTreeSet::new();
    level.insert(Vec::new());
    for _ in 0..m.min(items.len() as u64) {
        let mut next: BTreeSet<Vec<VId>> = BTreeSet::new();
        for subset in &level {
            for &e in items.iter() {
                if let Err(pos) = subset.binary_search(&e) {
                    let mut bigger = subset.clone();
                    bigger.insert(pos, e);
                    next.insert(bigger);
                }
            }
        }
        for s in &next {
            all.push(va.set(s.iter().copied()));
        }
        level = next;
    }
    Ok(va.set(all))
}

// ---------------------------------------------------------------------------
// The tree-walking baseline (the original implementation).

/// The tree-path §3 rule set — used by [`evaluate_tree`] and by the
/// streaming evaluator's per-subset sub-evaluations (which must not
/// retain their transient inputs in the arena).
pub(crate) fn eval_in(expr: &Expr, input: &Value, ctx: &mut Ctx) -> Result<Value, EvalError> {
    ctx.node(expr.head_index())?;
    ctx.observe(input)?;
    let output = match expr {
        Expr::Tuple(f, g) => {
            let a = eval_in(f, input, ctx)?;
            let b = eval_in(g, input, ctx)?;
            Value::pair(a, b)
        }
        Expr::Map(f) => match input {
            Value::Set(items) => {
                let mut out = BTreeSet::new();
                for item in items {
                    out.insert(eval_in(f, item, ctx)?);
                }
                Value::Set(out)
            }
            _ => return Err(stuck("map", "input is not a set")),
        },
        Expr::Cond(c, then, els) => match eval_in(c, input, ctx)? {
            Value::Bool(true) => eval_in(then, input, ctx)?,
            Value::Bool(false) => eval_in(els, input, ctx)?,
            _ => return Err(stuck("if", "condition is not boolean")),
        },
        Expr::Compose(g, f) => {
            let mid = eval_in(f, input, ctx)?;
            eval_in(g, &mid, ctx)?
        }
        Expr::While(f) => {
            let mut current = input.clone();
            let mut iterations: u64 = 0;
            loop {
                let next = eval_in(f, &current, ctx)?;
                iterations += 1;
                ctx.stats.while_iterations += 1;
                if next == current {
                    break current;
                }
                if iterations >= ctx.config.max_while_iters {
                    return Err(EvalError::WhileDiverged { iterations });
                }
                current = next;
            }
        }
        leaf => apply_leaf(leaf, input, ctx)?,
    };
    ctx.observe(&output)?;
    Ok(output)
}

/// Apply a non-recursive primitive on the tree path.
fn apply_leaf(expr: &Expr, input: &Value, ctx: &mut Ctx) -> Result<Value, EvalError> {
    let output = match expr {
        Expr::Id => input.clone(),
        Expr::Bang => Value::Unit,
        Expr::Fst => match input {
            Value::Pair(a, _) => (**a).clone(),
            _ => return Err(stuck("fst", "input is not a pair")),
        },
        Expr::Snd => match input {
            Value::Pair(_, b) => (**b).clone(),
            _ => return Err(stuck("snd", "input is not a pair")),
        },
        Expr::Sng => Value::set([input.clone()]),
        Expr::Flatten => match input {
            Value::Set(sets) => {
                let mut out = BTreeSet::new();
                for s in sets {
                    match s {
                        Value::Set(inner) => out.extend(inner.iter().cloned()),
                        _ => return Err(stuck("flatten", "element is not a set")),
                    }
                }
                Value::Set(out)
            }
            _ => return Err(stuck("flatten", "input is not a set")),
        },
        Expr::PairWith => match input {
            Value::Pair(x, s) => match &**s {
                Value::Set(items) => {
                    Value::set(items.iter().map(|y| Value::pair((**x).clone(), y.clone())))
                }
                _ => return Err(stuck("pairwith", "second component is not a set")),
            },
            _ => return Err(stuck("pairwith", "input is not a pair")),
        },
        Expr::EmptySet(_) => Value::empty_set(),
        Expr::Union => match input {
            Value::Pair(a, b) => match (&**a, &**b) {
                (Value::Set(x), Value::Set(y)) => {
                    let mut out = x.clone();
                    out.extend(y.iter().cloned());
                    Value::Set(out)
                }
                _ => return Err(stuck("union", "components are not sets")),
            },
            _ => return Err(stuck("union", "input is not a pair")),
        },
        Expr::EqNat => match input {
            Value::Pair(a, b) => match (&**a, &**b) {
                (Value::Nat(x), Value::Nat(y)) => Value::Bool(x == y),
                _ => return Err(stuck("eq", "components are not naturals")),
            },
            _ => return Err(stuck("eq", "input is not a pair")),
        },
        Expr::IsEmpty => match input {
            Value::Set(items) => Value::Bool(items.is_empty()),
            _ => return Err(stuck("isempty", "input is not a set")),
        },
        Expr::ConstTrue => Value::Bool(true),
        Expr::ConstFalse => Value::Bool(false),
        Expr::Powerset => eval_powerset(input, ctx)?,
        Expr::PowersetM(m) => eval_powerset_m(*m, input, ctx)?,
        Expr::Const(v, _) => v.clone(),
        Expr::Tuple(..) | Expr::Map(_) | Expr::Cond(..) | Expr::Compose(..) | Expr::While(_) => {
            unreachable!("apply_leaf called on a recursive construct")
        }
    };
    Ok(output)
}

fn eval_powerset(input: &Value, ctx: &mut Ctx) -> Result<Value, EvalError> {
    let items = match input {
        Value::Set(items) => items,
        _ => return Err(stuck("powerset", "input is not a set")),
    };
    let elems: Vec<&Value> = items.iter().collect();
    let elem_size_sum = elems.iter().map(|v| u128::from(v.size())).sum();
    let predicted = powerset_output_size(elems.len() as u64, elem_size_sum);
    let predicted64 = u64::try_from(predicted).unwrap_or(u64::MAX);
    // Record the requirement and enforce the budget *before* materialising.
    ctx.check_size(predicted64)?;
    if elems.len() > 62 {
        return Err(EvalError::PowersetOverflow {
            input_cardinality: elems.len() as u64,
        });
    }
    let k = elems.len();
    let mut subsets = BTreeSet::new();
    for mask in 0u64..(1u64 << k) {
        let mut subset = BTreeSet::new();
        for (i, e) in elems.iter().enumerate() {
            if mask & (1 << i) != 0 {
                subset.insert((*e).clone());
            }
        }
        subsets.insert(Value::Set(subset));
    }
    Ok(Value::Set(subsets))
}

fn eval_powerset_m(m: u64, input: &Value, ctx: &mut Ctx) -> Result<Value, EvalError> {
    let items = match input {
        Value::Set(items) => items,
        _ => return Err(stuck("powerset_m", "input is not a set")),
    };
    let sizes: Vec<u64> = items.iter().map(|v| v.size()).collect();
    let predicted = powerset_m_output_size(m, &sizes);
    let predicted64 = u64::try_from(predicted).unwrap_or(u64::MAX);
    ctx.check_size(predicted64)?;
    // Breadth-first by cardinality: level i holds the i-element subsets.
    let mut all: BTreeSet<Value> = BTreeSet::new();
    let mut level: BTreeSet<BTreeSet<Value>> = BTreeSet::new();
    level.insert(BTreeSet::new());
    all.insert(Value::Set(BTreeSet::new()));
    for _ in 0..m.min(items.len() as u64) {
        let mut next: BTreeSet<BTreeSet<Value>> = BTreeSet::new();
        for subset in &level {
            for e in items {
                if !subset.contains(e) {
                    let mut bigger = subset.clone();
                    bigger.insert(e.clone());
                    next.insert(bigger);
                }
            }
        }
        for s in &next {
            all.insert(Value::Set(s.clone()));
        }
        level = next;
    }
    Ok(Value::Set(all))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::builder::*;
    use nra_core::types::Type;

    fn run(e: &Expr, v: &Value) -> Value {
        eval(e, v).unwrap()
    }

    #[test]
    fn primitives_follow_the_rules() {
        let r2 = Value::chain(2);
        assert_eq!(run(&id(), &r2), r2);
        assert_eq!(run(&bang(), &r2), Value::Unit);
        assert_eq!(
            run(&tuple(id(), bang()), &Value::nat(3)),
            Value::pair(Value::nat(3), Value::Unit)
        );
        let p = Value::pair(Value::nat(1), Value::nat(2));
        assert_eq!(run(&fst(), &p), Value::nat(1));
        assert_eq!(run(&snd(), &p), Value::nat(2));
        assert_eq!(run(&sng(), &Value::nat(5)), Value::set([Value::nat(5)]));
        assert_eq!(
            run(
                &flatten(),
                &Value::set([Value::set([Value::nat(1)]), Value::set([Value::nat(2)])])
            ),
            Value::set([Value::nat(1), Value::nat(2)])
        );
        assert_eq!(run(&empty_set(Type::Nat), &Value::Unit), Value::empty_set());
        assert_eq!(run(&eq_nat(), &Value::edge(3, 3)), Value::TRUE);
        assert_eq!(run(&eq_nat(), &Value::edge(3, 4)), Value::FALSE);
        assert_eq!(run(&is_empty(), &Value::empty_set()), Value::TRUE);
        assert_eq!(run(&is_empty(), &r2), Value::FALSE);
        assert_eq!(run(&tru(), &Value::Unit), Value::TRUE);
        assert_eq!(run(&fls(), &Value::Unit), Value::FALSE);
    }

    #[test]
    fn pairwith_spreads_the_left_component() {
        let input = Value::pair(Value::nat(9), Value::set([Value::nat(1), Value::nat(2)]));
        assert_eq!(run(&pairwith(), &input), Value::relation([(9, 1), (9, 2)]));
    }

    #[test]
    fn union_and_map() {
        let input = Value::pair(Value::chain(1), Value::relation([(5, 6)]));
        assert_eq!(run(&union(), &input), Value::relation([(0, 1), (5, 6)]));
        // map(π₂) over the chain
        assert_eq!(
            run(&map(snd()), &Value::chain(3)),
            Value::set([Value::nat(1), Value::nat(2), Value::nat(3)])
        );
    }

    #[test]
    fn map_may_merge_equal_images() {
        // map(!) collapses everything to {()}
        assert_eq!(
            run(&map(bang()), &Value::chain(5)),
            Value::set([Value::Unit])
        );
    }

    #[test]
    fn cond_branches() {
        let f = cond(is_empty(), always_true(), always_false());
        assert_eq!(run(&f, &Value::empty_set()), Value::TRUE);
        assert_eq!(run(&f, &Value::chain(1)), Value::FALSE);
    }

    #[test]
    fn compose_applies_right_first() {
        // flatten ∘ map(sng) = id on sets
        let f = compose(flatten(), map(sng()));
        let v = Value::chain(4);
        assert_eq!(run(&f, &v), v);
    }

    #[test]
    fn powerset_of_small_sets() {
        let out = run(&powerset(), &Value::set([Value::nat(1), Value::nat(2)]));
        let subsets = out.as_set().unwrap();
        assert_eq!(subsets.len(), 4);
        assert!(subsets.contains(&Value::empty_set()));
        assert!(subsets.contains(&Value::set([Value::nat(1), Value::nat(2)])));
        // powerset(∅) = {∅}
        let out = run(&powerset(), &Value::empty_set());
        assert_eq!(out, Value::set([Value::empty_set()]));
    }

    #[test]
    fn powerset_size_prediction_matches_reality() {
        for k in 0..6 {
            let v = Value::set((0..k).map(Value::nat));
            // atoms have size 1
            let predicted = powerset_output_size(k, u128::from(k)) as u64;
            let actual = run(&powerset(), &v).size();
            assert_eq!(predicted, actual, "k = {k}");
        }
        // with non-atomic elements too: the elements sum to size(s) − 1
        let v = Value::chain(4);
        assert_eq!(
            powerset_output_size(4, u128::from(v.size() - 1)) as u64,
            run(&powerset(), &v).size()
        );
    }

    #[test]
    fn powerset_m_matches_full_powerset_when_m_is_large() {
        let v = Value::set((0..4).map(Value::nat));
        let full = run(&powerset(), &v);
        let approx = run(&powerset_m_prim(4), &v);
        assert_eq!(full, approx);
        let approx5 = run(&powerset_m_prim(50), &v);
        assert_eq!(full, approx5);
    }

    #[test]
    fn powerset_m_counts_binomials() {
        let v = Value::set((0..5).map(Value::nat));
        // C(5,0)+C(5,1)+C(5,2) = 1+5+10 = 16
        let out = run(&powerset_m_prim(2), &v);
        assert_eq!(out.cardinality(), Some(16));
        let sizes = [1u64; 5];
        assert_eq!(powerset_m_output_size(2, &sizes) as u64, out.size());
    }

    #[test]
    fn powerset_m_zero_is_singleton_empty() {
        let v = Value::chain(3);
        assert_eq!(
            run(&powerset_m_prim(0), &v),
            Value::set([Value::empty_set()])
        );
    }

    #[test]
    fn while_reaches_fixpoints() {
        // while(id) terminates immediately
        let f = while_fix(id());
        let v = Value::chain(3);
        assert_eq!(run(&f, &v), v);
    }

    #[test]
    fn while_diverges_cleanly() {
        // exercise the iteration cap with a tiny cap and a two-step
        // convergence
        let step = compose(union(), tuple(id(), compose(map(fst()), self_prod())));
        let cfg = EvalConfig {
            max_while_iters: 1,
            ..EvalConfig::default()
        };
        let ev = evaluate(&while_fix(step), &Value::chain(3), &cfg);
        assert!(matches!(
            ev.result,
            Err(EvalError::WhileDiverged { .. }) | Ok(_)
        ));
    }

    fn self_prod() -> Expr {
        nra_core::derived::self_product()
    }

    #[test]
    fn budget_cuts_powerset_before_materialising() {
        let cfg = EvalConfig::with_space_budget(1000);
        let big = Value::set((0..40).map(Value::nat)); // 2^40 subsets
        let ev = evaluate(&powerset(), &big, &cfg);
        match ev.result {
            Err(EvalError::SpaceBudgetExceeded { required, budget }) => {
                assert_eq!(budget, 1000);
                assert!(required > 1u64 << 40);
            }
            other => panic!("expected budget error, got {:?}", other),
        }
        // stats still carry the prediction as the complexity
        assert!(ev.stats.max_object_size > 1u64 << 40);
    }

    #[test]
    fn node_budget() {
        let cfg = EvalConfig {
            max_nodes: Some(3),
            ..EvalConfig::default()
        };
        let f = compose(map(sng()), compose(map(sng()), map(sng())));
        let ev = evaluate(&f, &Value::chain(5), &cfg);
        assert!(matches!(
            ev.result,
            Err(EvalError::NodeBudgetExceeded { .. })
        ));
    }

    #[test]
    fn stuck_on_ill_shaped_input() {
        assert!(matches!(
            eval(&fst(), &Value::nat(1)),
            Err(EvalError::Stuck { rule: "fst", .. })
        ));
        assert!(matches!(
            eval(&flatten(), &Value::chain(1)),
            Err(EvalError::Stuck {
                rule: "flatten",
                ..
            })
        ));
    }

    #[test]
    fn stats_track_the_derivation() {
        let f = compose(flatten(), map(sng()));
        let ev = evaluate(&f, &Value::chain(2), &EvalConfig::default());
        assert!(ev.result.is_ok());
        // compose + map + flatten + 2 × sng = 5 nodes
        assert_eq!(ev.stats.nodes, 5);
        assert_eq!(ev.stats.rule_counts["sng"], 2);
        // the chain r₂ itself (size 7) dominates… its singleton wrapping {{(0,1)},{(1,2)}} has size 9
        assert_eq!(ev.stats.max_object_size, 9);
    }

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 6), 0);
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(60, 30), 118264581564861424);
    }

    #[test]
    fn const_returns_its_value() {
        let f = konst(Value::chain(2), Type::nat_rel());
        assert_eq!(run(&f, &Value::Unit), Value::chain(2));
    }

    #[test]
    fn tree_and_interned_paths_agree_on_results_and_stats() {
        let cfg = EvalConfig::default();
        let corpus: Vec<(Expr, Value)> = vec![
            (nra_core::queries::tc_paths(), Value::chain(5)),
            (nra_core::queries::tc_while(), Value::chain(6)),
            (nra_core::queries::tc_step(), Value::chain(4)),
            (nra_core::queries::siblings_powerset(), Value::chain(4)),
            (compose(flatten(), map(sng())), Value::chain(3)),
            (powerset(), Value::set((0..4).map(Value::nat))),
            (powerset_m_prim(2), Value::chain(4)),
        ];
        for (q, input) in &corpus {
            let tree = evaluate_tree(q, input, &cfg);
            let interned = evaluate(q, input, &cfg);
            assert_eq!(
                tree.result.as_ref().unwrap(),
                interned.result.as_ref().unwrap(),
                "{q}"
            );
            assert_eq!(tree.stats, interned.stats, "{q}");
        }
    }

    #[test]
    fn memoised_path_agrees_with_unmemoised_on_the_corpus() {
        let cfg = EvalConfig::default();
        let memo_cfg = EvalConfig::memoised();
        let corpus: Vec<(Expr, Value)> = vec![
            (nra_core::queries::tc_paths(), Value::chain(5)),
            (nra_core::queries::tc_while(), Value::chain(6)),
            (nra_core::queries::tc_step(), Value::chain(4)),
            (nra_core::queries::siblings_powerset(), Value::chain(4)),
            (compose(flatten(), map(sng())), Value::chain(3)),
            (powerset(), Value::set((0..4).map(Value::nat))),
            (powerset_m_prim(2), Value::chain(4)),
        ];
        for (q, input) in &corpus {
            let plain = evaluate(q, input, &cfg);
            let memoised = evaluate(q, input, &memo_cfg);
            assert_eq!(
                plain.result.as_ref().unwrap(),
                memoised.result.as_ref().unwrap(),
                "{q}"
            );
            // hits are reported separately, never inflating the §3 counters
            assert!(memoised.stats.nodes <= plain.stats.nodes, "{q}");
            assert_eq!(
                memoised.stats.max_object_size, plain.stats.max_object_size,
                "{q}"
            );
            assert_eq!(plain.stats.memo_hits + plain.stats.memo_misses, 0, "{q}");
        }
        // the while route re-applies its body to largely-shared sets: the
        // cache must actually fire there
        let ev = evaluate(&nra_core::queries::tc_while(), &Value::chain(6), &memo_cfg);
        assert!(ev.stats.memo_hits > 0);
        assert!(ev.stats.memo_hit_rate() > 0.0 && ev.stats.memo_hit_rate() < 1.0);
    }

    #[test]
    fn evaluate_vid_stays_on_handles() {
        use nra_core::value::intern;
        let input = intern::chain(5);
        let ev = evaluate_vid(
            &nra_core::queries::tc_while(),
            input,
            &EvalConfig::default(),
        );
        assert_eq!(ev.result.unwrap(), intern::chain_tc(5));
    }

    #[test]
    fn powerset_size_prediction_saturates() {
        // sizes near u64::MAX must saturate, not wrap
        let sizes = [u64::MAX, u64::MAX, 7];
        let p = powerset_output_size(3, sizes.iter().map(|&s| u128::from(s)).sum());
        assert!(p >= u64::MAX as u128);
        assert_eq!(powerset_output_size(120, 0), u128::MAX);
        let pm = powerset_m_output_size(2, &sizes);
        assert!(pm >= u64::MAX as u128);
        // and through the evaluator the u64 report pins at u64::MAX: a
        // 63-element set of atoms already predicts > 2⁶³
        let big = Value::set((0..63).map(Value::nat));
        let ev = evaluate(
            &nra_core::builder::powerset(),
            &big,
            // above the input's own size (64), far below the prediction
            &EvalConfig::with_space_budget(1000),
        );
        match ev.result {
            Err(EvalError::SpaceBudgetExceeded { required, .. }) => {
                assert!(required > 1u64 << 62);
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }
}
