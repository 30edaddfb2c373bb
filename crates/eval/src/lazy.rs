//! A streaming ("lazy") evaluation strategy for `powerset` and
//! `powersetₘ`.
//!
//! §3 scopes the lower bound precisely: "our main result will depend (1) on
//! the particular evaluation strategy and (2) on the complexity measure. …
//! it is not obvious whether it still holds for a lazy evaluation
//! strategy." This module makes that caveat concrete: `powerset` (and
//! `powersetₘ`) results are represented *symbolically* (as "the subsets of
//! this base set", optionally cardinality-bounded) and only streamed — one
//! subset at a time — when a consumer such as `map` actually traverses
//! them.
//!
//! Under this strategy the paper's eager measure no longer reflects the
//! memory actually held: for `tc_paths` on the chain `rₙ`, the eager
//! complexity is `2^{Θ(n)}` while the streaming *peak resident size* stays
//! polynomial (the number of subset evaluations — i.e. *time* — remains
//! `2^{Θ(n)}`). Experiment E11 tabulates both.
//!
//! Like [`crate::eager`], the recursion runs on interned handles against
//! an explicitly threaded [`ValueArena`] ([`evaluate_lazy`] builds a
//! local one per call), so the §3 resident-size accounting reads cached
//! arena metadata. The streamed subsets themselves are built as
//! transient tree values and evaluated on the tree path — interning 2ᵏ
//! throwaway subsets would retain them all in the arena and quietly void
//! the polynomial-resident-space property this strategy exists to
//! demonstrate. Only the base set and the (live) images touch the arena.
//!
//! Every sub-evaluation is the exact §3 derivation: [`EvalConfig::memo`]
//! and [`EvalConfig::semi_naive`] are ignored here (the apply and delta
//! caches live in the eager walker alone), so the result and the
//! statistics do not depend on them. The budgets of [`EvalConfig`] apply
//! as usual.

use crate::eager::{self, Ctx};
use crate::error::{EvalConfig, EvalError};
use crate::stats::EvalStats;
use nra_core::expr::Expr;
use nra_core::value::intern::{VId, ValueArena};
use nra_core::value::Value;
use std::collections::BTreeSet;

/// Statistics of a streaming evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LazyStats {
    /// Peak size (in the §3 measure) of the objects *simultaneously live*:
    /// for a streamed `map`-over-`powerset`, the base set, the current
    /// subset, the accumulator, and the per-subset evaluation's own peak.
    pub peak_resident: u64,
    /// Number of subsets streamed out of symbolic powersets — a proxy for
    /// time, which stays exponential even though space does not.
    pub streamed_subsets: u64,
    /// Derivation-node count (rule applications), including per-subset
    /// work.
    pub nodes: u64,
    /// `while` iterations.
    pub while_iterations: u64,
}

/// Result and statistics of a streaming evaluation.
#[derive(Debug, Clone)]
pub struct LazyEvaluation {
    /// The value, or the error that interrupted evaluation.
    pub result: Result<Value, EvalError>,
    /// Streaming statistics.
    pub stats: LazyStats,
}

/// Result and statistics of a streaming evaluation on interned handles.
#[derive(Debug, Clone)]
pub struct LazyVidEvaluation {
    /// The handle of the result, or the error that interrupted evaluation.
    pub result: Result<VId, EvalError>,
    /// Streaming statistics.
    pub stats: LazyStats,
}

/// A possibly-symbolic intermediate value.
enum Lv {
    /// A fully materialised (interned) object.
    Concrete(VId),
    /// `powerset(base)` (`bound = None`) or `powersetₘ(base)`
    /// (`bound = Some(m)`), not yet materialised.
    Subsets {
        /// The base set whose subsets are denoted.
        base: VId,
        /// Cardinality bound `m` for `powersetₘ`; `None` = full powerset.
        bound: Option<u64>,
    },
}

struct LazyCtx<'a> {
    config: &'a EvalConfig,
    stats: LazyStats,
    /// The value arena every rule runs against, borrowed from the
    /// caller for the whole evaluation.
    va: &'a mut ValueArena,
}

impl<'a> LazyCtx<'a> {
    fn resident(&mut self, size: u64) -> Result<(), EvalError> {
        self.stats.peak_resident = self.stats.peak_resident.max(size);
        match self.config.max_object_size {
            Some(budget) if size > budget => Err(EvalError::SpaceBudgetExceeded {
                required: size,
                budget,
            }),
            _ => Ok(()),
        }
    }

    fn node(&mut self) -> Result<(), EvalError> {
        self.stats.nodes += 1;
        match self.config.max_nodes {
            Some(budget) if self.stats.nodes > budget => {
                Err(EvalError::NodeBudgetExceeded { budget })
            }
            _ => Ok(()),
        }
    }

    /// Run one leaf rule eagerly on interned handles — [`lazy_in`] hands
    /// over only leaves: the powersets [`force`] materialises and the
    /// non-recursive primitives — folding its one derivation node's
    /// statistics into ours. Its peak is *transient* memory and counts
    /// toward `peak_resident`.
    fn eager_sub(&mut self, leaf: &Expr, input: VId) -> Result<VId, EvalError> {
        let mut sub = Ctx::new(self.config);
        let out = sub
            .node(leaf.head_index())
            .and_then(|()| eager::eval_leaf_rule(leaf, input, &mut sub, self.va));
        self.merge_sub(&sub.stats, 0)?;
        out
    }

    /// Run a sub-evaluation eagerly on the *tree* path — used for the
    /// bodies applied to each streamed subset, so the transient subsets
    /// are never retained by the interning arena.
    fn eager_sub_tree(
        &mut self,
        expr: &Expr,
        input: &Value,
        extra_live: u64,
    ) -> Result<Value, EvalError> {
        let mut sub = Ctx::new(self.config);
        let out = eager::eval_in(expr, input, &mut sub);
        self.merge_sub(&sub.stats, extra_live)?;
        out
    }

    fn merge_sub(&mut self, sub: &EvalStats, extra_live: u64) -> Result<(), EvalError> {
        self.stats.nodes += sub.nodes;
        self.stats.while_iterations += sub.while_iterations;
        self.resident(sub.max_object_size.saturating_add(extra_live))
    }
}

/// Evaluate under the streaming strategy, on a local arena freed on
/// return.
pub fn evaluate_lazy(expr: &Expr, input: &Value, config: &EvalConfig) -> LazyEvaluation {
    let mut va = ValueArena::new();
    let iv = va.intern(input);
    let ev = evaluate_lazy_vid(expr, iv, config, &mut va);
    LazyEvaluation {
        result: ev.result.map(|out| va.resolve(out)),
        stats: ev.stats,
    }
}

/// Evaluate under the streaming strategy, entirely on interned handles
/// in `va`, the arena that issued `input`.
pub fn evaluate_lazy_vid(
    expr: &Expr,
    input: VId,
    config: &EvalConfig,
    va: &mut ValueArena,
) -> LazyVidEvaluation {
    let mut ctx = LazyCtx {
        config,
        stats: LazyStats::default(),
        va,
    };
    let result = lazy_in(expr, Lv::Concrete(input), &mut ctx).and_then(|lv| force(lv, &mut ctx));
    LazyVidEvaluation {
        result,
        stats: ctx.stats,
    }
}

/// Materialise a symbolic value (falls back to the eager powerset rules).
fn force(lv: Lv, ctx: &mut LazyCtx) -> Result<VId, EvalError> {
    match lv {
        Lv::Concrete(v) => {
            ctx.resident(ctx.va.size(v))?;
            Ok(v)
        }
        Lv::Subsets { base, bound } => {
            let expr = match bound {
                None => Expr::Powerset,
                Some(m) => Expr::PowersetM(m),
            };
            ctx.eager_sub(&expr, base)
        }
    }
}

fn stuck(rule: &'static str, detail: &str) -> EvalError {
    EvalError::Stuck {
        rule,
        detail: detail.to_string(),
    }
}

/// Enumerate every index combination of `0..n` with size ≤ `max_len`,
/// calling `f` once per combination (the empty one included), in DFS
/// order. The stream uses this instead of a 2ⁿ mask scan so a
/// cardinality-bounded stream costs `Σᵢ C(n, i)`, not `2ⁿ`.
fn for_each_combination(
    n: usize,
    max_len: usize,
    f: &mut impl FnMut(&[usize]) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    fn rec(
        start: usize,
        n: usize,
        remaining: usize,
        cur: &mut Vec<usize>,
        f: &mut impl FnMut(&[usize]) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        f(cur)?;
        if remaining == 0 {
            return Ok(());
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, remaining - 1, cur, f)?;
            cur.pop();
        }
        Ok(())
    }
    rec(0, n, max_len, &mut Vec::with_capacity(max_len), f)
}

fn lazy_in(expr: &Expr, input: Lv, ctx: &mut LazyCtx) -> Result<Lv, EvalError> {
    ctx.node()?;
    match expr {
        Expr::Compose(g, f) => {
            let mid = lazy_in(f, input, ctx)?;
            lazy_in(g, mid, ctx)
        }
        Expr::Powerset => {
            let base = force(input, ctx)?;
            if ctx.va.cardinality(base).is_none() {
                return Err(stuck("powerset", "input is not a set"));
            }
            Ok(Lv::Subsets { base, bound: None })
        }
        Expr::PowersetM(m) => {
            let base = force(input, ctx)?;
            if ctx.va.cardinality(base).is_none() {
                return Err(stuck("powerset_m", "input is not a set"));
            }
            Ok(Lv::Subsets {
                base,
                bound: Some(*m),
            })
        }
        Expr::Flatten => match input {
            // μ(powerset(x)) = x; μ(powersetₘ(x)) = x for m ≥ 1, ∅ for
            // m = 0 ({∅} is the only subset) — no subset is ever streamed.
            Lv::Subsets { base, bound } => match bound {
                Some(0) => Ok(Lv::Concrete(ctx.va.empty_set())),
                _ => Ok(Lv::Concrete(base)),
            },
            Lv::Concrete(v) => Ok(Lv::Concrete(ctx.eager_sub(&Expr::Flatten, v)?)),
        },
        Expr::IsEmpty => match input {
            // powerset(ₘ)(x) always contains ∅, hence is never empty.
            Lv::Subsets { .. } => Ok(Lv::Concrete(ctx.va.bool_(false))),
            Lv::Concrete(v) => Ok(Lv::Concrete(ctx.eager_sub(&Expr::IsEmpty, v)?)),
        },
        Expr::Map(f) => match input {
            Lv::Subsets { base, bound } => stream_map(f, base, bound, ctx),
            Lv::Concrete(v) => {
                let items = ctx
                    .va
                    .as_set(v)
                    .ok_or_else(|| stuck("map", "input is not a set"))?;
                let mut out = Vec::with_capacity(items.len());
                for &item in items.iter() {
                    let image = lazy_in(f, Lv::Concrete(item), ctx)?;
                    out.push(force(image, ctx)?);
                }
                let out = ctx.va.set_from_vec(out);
                ctx.resident(ctx.va.size(out))?;
                Ok(Lv::Concrete(out))
            }
        },
        Expr::Tuple(f, g) => {
            let v = force(input, ctx)?;
            let a = force(lazy_in(f, Lv::Concrete(v), ctx)?, ctx)?;
            let b = force(lazy_in(g, Lv::Concrete(v), ctx)?, ctx)?;
            Ok(Lv::Concrete(ctx.va.pair(a, b)))
        }
        Expr::Cond(c, then, els) => {
            let v = force(input, ctx)?;
            let cv = force(lazy_in(c, Lv::Concrete(v), ctx)?, ctx)?;
            match ctx.va.as_bool(cv) {
                Some(true) => lazy_in(then, Lv::Concrete(v), ctx),
                Some(false) => lazy_in(els, Lv::Concrete(v), ctx),
                None => Err(stuck("if", "condition is not boolean")),
            }
        }
        Expr::While(f) => {
            let mut current = force(input, ctx)?;
            let mut iterations: u64 = 0;
            loop {
                let next = force(lazy_in(f, Lv::Concrete(current), ctx)?, ctx)?;
                iterations += 1;
                ctx.stats.while_iterations += 1;
                // O(1) fixpoint test on handles
                if next == current {
                    break Ok(Lv::Concrete(current));
                }
                if iterations >= ctx.config.max_while_iters {
                    break Err(EvalError::WhileDiverged { iterations });
                }
                current = next;
            }
        }
        leaf => {
            let v = force(input, ctx)?;
            Ok(Lv::Concrete(ctx.eager_sub(leaf, v)?))
        }
    }
}

/// Stream the subsets of `base` (cardinality-bounded for `powersetₘ`)
/// through the `map` body `f`: only base + current subset + accumulator
/// + per-subset transient memory are live at any point.
fn stream_map(f: &Expr, base: VId, bound: Option<u64>, ctx: &mut LazyCtx) -> Result<Lv, EvalError> {
    let items = ctx
        .va
        .as_set(base)
        .ok_or_else(|| stuck("map", "powerset base is not a set"))?;
    if items.len() > 62 {
        return Err(EvalError::PowersetOverflow {
            input_cardinality: items.len() as u64,
        });
    }
    let base_size = ctx.va.size(base);
    let max_len = bound.map_or(items.len(), |m| (m.min(items.len() as u64)) as usize);
    let mut acc: BTreeSet<VId> = BTreeSet::new();
    let mut acc_size: u64 = 1;
    // the subsets are deliberately built as *transient tree values* and
    // evaluated on the tree path — interning them would retain all 2ᵏ
    // subsets in the never-shrinking arena, silently trading the
    // strategy's polynomial peak-resident guarantee for speed. Only the
    // images — genuinely live in the accumulator — are interned.
    let elems: Vec<Value> = items.iter().map(|&e| ctx.va.resolve(e)).collect();
    for_each_combination(elems.len(), max_len, &mut |idx| {
        let subset = Value::set(idx.iter().map(|&i| elems[i].clone()));
        ctx.stats.streamed_subsets += 1;
        let live = base_size + subset.size() + acc_size;
        let image = ctx.eager_sub_tree(f, &subset, live)?;
        let image = ctx.va.intern(&image);
        if acc.insert(image) {
            acc_size += ctx.va.size(image);
        }
        ctx.resident(live)
    })?;
    Ok(Lv::Concrete(ctx.va.set(acc)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eager::evaluate;
    use nra_core::builder::*;
    use nra_core::queries;

    #[test]
    fn lazy_agrees_with_eager_on_queries() {
        let cfg = EvalConfig::default();
        for n in 0..6u64 {
            let input = Value::chain(n);
            for q in [
                queries::tc_paths(),
                queries::tc_while(),
                queries::siblings_powerset(),
                compose(flatten(), map(sng())),
            ] {
                let eager_out = evaluate(&q, &input, &cfg).result.unwrap();
                let lazy_out = evaluate_lazy(&q, &input, &cfg).result.unwrap();
                assert_eq!(eager_out, lazy_out, "n = {n}");
            }
        }
    }

    #[test]
    fn streaming_keeps_peak_resident_small() {
        let cfg = EvalConfig::default();
        let q = queries::tc_paths();
        let n = 9;
        let eager_ev = evaluate(&q, &Value::chain(n), &cfg);
        let lazy_ev = evaluate_lazy(&q, &Value::chain(n), &cfg);
        assert_eq!(eager_ev.result.unwrap(), lazy_ev.result.clone().unwrap());
        let eager_peak = eager_ev.stats.max_object_size;
        let lazy_peak = lazy_ev.stats.peak_resident;
        // eager materialises powerset(r₉): > 2⁹ · something; lazy holds a
        // few polynomial objects.
        assert!(
            eager_peak > 8 * lazy_peak,
            "eager {eager_peak} vs lazy {lazy_peak}"
        );
        // but the *time* (streamed subsets) is still 2⁹
        assert_eq!(lazy_ev.stats.streamed_subsets, 512);
    }

    #[test]
    fn flatten_of_powerset_is_identity() {
        let q = compose(flatten(), powerset());
        let v = Value::chain(5);
        let ev = evaluate_lazy(&q, &v, &EvalConfig::default());
        assert_eq!(ev.result.unwrap(), v);
        // no subsets were ever streamed
        assert_eq!(ev.stats.streamed_subsets, 0);
    }

    #[test]
    fn flatten_of_powerset_m_respects_the_bound() {
        let v = Value::chain(4);
        // m ≥ 1: the subsets' union is the base itself
        let q = compose(flatten(), powerset_m_prim(2));
        let ev = evaluate_lazy(&q, &v, &EvalConfig::default());
        assert_eq!(ev.result.unwrap(), v);
        assert_eq!(ev.stats.streamed_subsets, 0);
        // m = 0: powerset₀(x) = {∅}, whose union is ∅
        let q0 = compose(flatten(), powerset_m_prim(0));
        let ev0 = evaluate_lazy(&q0, &v, &EvalConfig::default());
        assert_eq!(ev0.result.unwrap(), Value::empty_set());
    }

    #[test]
    fn powerset_m_streams_only_bounded_subsets() {
        // map(sng) over powersetₘ(r₄): Σ_{i≤2} C(4,i) = 11 subsets
        let q = compose(map(sng()), powerset_m_prim(2));
        let input = Value::chain(4);
        let lazy_ev = evaluate_lazy(&q, &input, &EvalConfig::default());
        let eager_ev = evaluate(&q, &input, &EvalConfig::default());
        assert_eq!(lazy_ev.result.unwrap(), eager_ev.result.unwrap());
        assert_eq!(lazy_ev.stats.streamed_subsets, 11);
    }

    #[test]
    fn isempty_of_powerset_short_circuits() {
        let q = compose(is_empty(), powerset());
        let ev = evaluate_lazy(&q, &Value::empty_set(), &EvalConfig::default());
        assert_eq!(ev.result.unwrap(), Value::FALSE);
        assert_eq!(ev.stats.streamed_subsets, 0);
    }

    #[test]
    fn budget_applies_to_resident_not_streamed_total() {
        // A budget far below the eager powerset size still admits the
        // streamed evaluation.
        let q = queries::tc_paths();
        let n = 8;
        let eager_needed = evaluate(&q, &Value::chain(n), &EvalConfig::default())
            .stats
            .max_object_size;
        let cfg = EvalConfig::with_space_budget(eager_needed / 4);
        let lazy_ev = evaluate_lazy(&q, &Value::chain(n), &cfg);
        assert!(lazy_ev.result.is_ok(), "{:?}", lazy_ev.result);
        let eager_ev = evaluate(&q, &Value::chain(n), &cfg);
        assert!(matches!(
            eager_ev.result,
            Err(EvalError::SpaceBudgetExceeded { .. })
        ));
    }

    #[test]
    fn streaming_does_not_retain_subsets_in_the_arena() {
        // the point of the strategy: 2ⁿ subsets are streamed, but they are
        // transient tree values — the arena must grow by far less than 2ⁿ
        // (only the base, the images actually live in the accumulator, and
        // boundary conversions)
        let n = 10u64;
        let mut va = ValueArena::new();
        let input = va.chain(n);
        let before = va.node_count();
        let ev = evaluate_lazy_vid(&queries::tc_paths(), input, &EvalConfig::default(), &mut va);
        assert_eq!(ev.result.unwrap(), va.chain_tc(n));
        assert_eq!(ev.stats.streamed_subsets, 1 << n);
        let delta = va.node_count() - before;
        assert!(
            delta < (1 << n) / 2,
            "arena grew by {delta} nodes for 2^{n} streamed subsets — \
             transient subsets are being retained"
        );
    }

    #[test]
    fn lazy_vid_stays_on_handles() {
        let mut va = ValueArena::new();
        let input = va.chain(6);
        let ev = evaluate_lazy_vid(&queries::tc_paths(), input, &EvalConfig::default(), &mut va);
        assert_eq!(ev.result.unwrap(), va.chain_tc(6));
    }
}
