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
//! `u32` comparison. [`evaluate`] runs one query on a one-shot
//! [`EvalSession`]: it interns its input, runs interned, resolves the
//! result and frees the session — the [`Value`] API is a conversion
//! layer. Callers that already hold handles evaluate through their own
//! session ([`EvalSession::eval_vid`]); [`evaluate_tree`] keeps the
//! original tree-walking implementation as a differential baseline
//! (same rules, same statistics, `O(size)` bookkeeping).
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
//!   VId` ([`crate::memo`]): one table that a session and its batch
//!   workers probe, each through its own view, with each slot
//!   carrying the subtree's as-if-uncached cost so hits charge the node
//!   budget exactly;
//! * [`EvalConfig::semi_naive`] — one fused rule: the Prop 2.1
//!   self-join `σ_p ∘ (cartprod ∘ ⟨id, id⟩)`, bare or projected, runs as
//!   a hash join (`eval_join_fused`), in the delta form
//!   `δ ⋈ R ∪ Rₚ ⋈ δ` when its input grew from the node's previous
//!   application, and `while` records each iterate's frontier. Every
//!   other node runs the exact rule. The §3 counters only ever shrink
//!   (the fused judgment observes its input and its answer, both of
//!   which the exact derivation observes too); the default mode remains
//!   the exact §3 measure.

use crate::error::{EvalConfig, EvalError};
use crate::memo::ApplyView;
use crate::session::EvalSession;
use crate::shapes::{apply_proj, JoinCache, JoinShape};
use crate::stats::EvalStats;
use nra_core::expr::intern::{EId, ENode, ExprArena};
use nra_core::expr::Expr;
use nra_core::value::intern::{FxBuildHasher, VId, ValueArena};
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
/// into the evaluating session's arena (or a budget error) plus §3
/// statistics.
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
    /// mode; an apply-cache hit adds the recorded cost of the skipped
    /// subtree here (and only here), so budget exhaustion is
    /// strategy-independent — a budget that cuts the naive derivation
    /// cuts the cached one at the same point in the judgment sequence.
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

    /// Charge the recorded cost of a cached sub-derivation against the
    /// node budget without touching the §3 counters.
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
    /// `O(1)`.
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
/// the §3 statistics. Runs on a one-shot [`EvalSession`]: the input is
/// interned once, the result resolved once, and the session's arenas
/// and apply table are freed on return. Every call starts cold, so the
/// statistics are a function of the arguments alone; a caller that
/// wants warm starts across queries holds an [`EvalSession`].
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
    EvalSession::new(config.clone()).eval(expr, input)
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

/// One full leaf rule — both §3 observations plus the primitive itself —
/// shared by the interned walker [`eval_eid`] and the lazy strategy's
/// leaf sub-evaluations ([`crate::lazy`]). The caller has already
/// counted the derivation node.
pub(crate) fn eval_leaf_rule(
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

/// One entry of the **delta cache**: the last `(input, output)` pair a
/// fused self-join node produced. When the same node next fires on a
/// *superset* of `input` — the steady state of the join inside an
/// inflationary `while` body — only the joins touching the frontier are
/// built and `output` is folded in by a sorted merge (see
/// [`eval_join_fused`]).
#[derive(Clone, Copy)]
struct DeltaEntry {
    /// The input set of the previous application.
    input: VId,
    /// Its output.
    output: VId,
}

/// The delta cache: one [`DeltaEntry`] per fused join node, keyed by
/// [`EId`]. Cleared per evaluation.
type DeltaMap = HashMap<EId, DeltaEntry, FxBuildHasher>;

/// Everything one cached (memoised and/or semi-naive) evaluation
/// threads through [`eval_eid`]: a view of the apply table (active under
/// [`EvalConfig::memo`]), the delta cache and the join-recognition
/// cache (active under [`EvalConfig::semi_naive`]). The walker reads
/// expression structure from the [`ExprArena`] itself, so the state
/// holds no copy of it. A session owns one state per generation.
pub(crate) struct MemoState {
    memo: ApplyView,
    delta: DeltaMap,
    /// The interned handle of the Prop 2.1 derived term
    /// [`nra_core::derived::cartprod`] — hash-consing makes every
    /// occurrence of the derived product share this `EId`, which is how
    /// [`crate::shapes::join_shape`] recognises the self-product under a
    /// join.
    cartprod: EId,
    /// Join-recognition verdicts per `EId`.
    joins: JoinCache,
}

impl MemoState {
    /// A fresh state on a fresh apply table, against the given
    /// expression arena (interns the derived product).
    pub(crate) fn new(ea: &mut ExprArena) -> Self {
        let cartprod = ea.intern(&nra_core::derived::cartprod());
        MemoState::around(ApplyView::new(), cartprod)
    }

    /// A batch worker's state: a view of this state's apply table, the
    /// same `cartprod` handle (the worker's expression arena is a clone
    /// of this one's store), and empty delta and recognition caches.
    pub(crate) fn worker(&mut self) -> Self {
        MemoState::around(self.memo.share(), self.cartprod)
    }

    fn around(memo: ApplyView, cartprod: EId) -> Self {
        MemoState {
            memo,
            delta: DeltaMap::default(),
            cartprod,
            joins: JoinCache::default(),
        }
    }

    /// Open the next query against this state: apply-table entries
    /// **survive across queries**, and later hits on them are counted as
    /// warm. The delta cache is cleared: its entries are handles of the
    /// previous evaluation's values.
    pub(crate) fn begin_query(&mut self) {
        self.memo.open();
        self.delta.clear();
    }

    /// Approximate resident bytes of the retained cache state: the
    /// apply table, charged in full by every view of it (the
    /// recognition cache is negligible next to it).
    pub(crate) fn approx_resident_bytes(&self) -> usize {
        self.memo.resident_bytes()
    }
}

/// The cached §3 rule set over the *interned* expression: identical
/// semantics to the tree walker [`eval_in`] (the differential harnesses
/// hold the two bit-for-bit equal), but every recursion step carries an
/// [`EId`], which keys both caches:
///
/// * under [`EvalConfig::memo`], each judgment `f(C) ⇓ C'` is first
///   looked up in the apply cache `(EId, VId) → VId` and recorded there
///   after a miss — a hit returns the cached handle in `O(1)` without
///   re-deriving, which collapses the repeated body applications inside
///   `while`, `map` over recurring elements, and `powersetₘ` chains;
/// * under [`EvalConfig::semi_naive`], a Prop 2.1 self-join runs as one
///   fused hash join ([`eval_join_fused`]), in its delta form when its
///   input grew from the node's previous application, and the `while`
///   rule records each iterate's frontier in
///   [`EvalStats::while_frontiers`]. Every other node runs the exact
///   rule.
///
/// Apply-cache hits are counted in [`EvalStats::memo_hits`] and
/// deliberately do **not** re-count the skipped derivation's nodes or
/// object observations — but they do charge its recorded as-if-uncached
/// cost against the node budget, so budget exhaustion is
/// strategy-independent.
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
    if ctx.config.semi_naive && is_join_head(eid, exprs) {
        // the stored slot carries the one node the fused join charged,
        // so later hits charge the budget what a re-run would
        let fused_start = ctx.charged_nodes;
        if let Some(output) = eval_join_fused(eid, input, ctx, exprs, caches, va)? {
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
        ENode::Leaf(leaf) => eval_leaf_rule(leaf, input, ctx, va)?,
        recursive => {
            ctx.observe_vid(va, input)?;
            let output = match *recursive {
                ENode::Tuple(f, g) => {
                    let a = eval_eid(f, input, ctx, exprs, caches, va)?;
                    let b = eval_eid(g, input, ctx, exprs, caches, va)?;
                    va.pair(a, b)
                }
                ENode::Map(f) => {
                    let items = va
                        .as_set(input)
                        .ok_or_else(|| stuck("map", "input is not a set"))?;
                    let mut out = Vec::with_capacity(items.len());
                    for &item in items.iter() {
                        out.push(eval_eid(f, item, ctx, exprs, caches, va)?);
                    }
                    va.set_from_vec(out)
                }
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

/// The one-read pre-filter before the (cached) join recognition: a
/// self-join starts `(μ ∘ …) ∘ …`, a projected one `map(⟨…⟩) ∘ …`.
fn is_join_head(eid: EId, exprs: &ExprArena) -> bool {
    matches!(*exprs.node_ref(eid), ENode::Compose(g, _)
        if matches!(exprs.node_ref(g), ENode::Compose(..) | ENode::Map(_)))
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
    let Some(shape) = crate::shapes::join_shape(eid, caches.cartprod, exprs, &mut caches.joins)
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
            va.set_union(e.output, fresh_pairs)
                .expect("join outputs are sets")
        }
        None => va.set_from_vec(pairs),
    };
    ctx.observe_vid(va, output)?;
    caches.delta.insert(eid, DeltaEntry { input, output });
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
