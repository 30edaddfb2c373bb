//! The paper's complexity measure (§3) and its companions.
//!
//! > "The complexity of some evaluation `f(C) ⇓` is defined to be the size
//! > of the largest complex object occurring in the derivation tree of
//! > `f(C) ⇓`. This complexity measure is robust: e.g. the total number of
//! > nodes of the evaluation tree is polynomially bounded by this
//! > complexity, while the sum of the sizes of all complex objects in a
//! > tree is polynomially related to it."
//!
//! [`EvalStats`] records all three quantities — `max_object_size` (the
//! complexity), `nodes`, and `total_size` — plus per-rule counters, so
//! experiment E10 can verify the claimed polynomial relations empirically.

use std::collections::BTreeMap;

/// Statistics of one eager evaluation, in the sense of §3.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// The paper's complexity: the size of the largest complex object
    /// occurring anywhere in the derivation tree.
    pub max_object_size: u64,
    /// Number of rule applications (nodes of the derivation tree).
    pub nodes: u64,
    /// Sum of the sizes of all complex objects observed at derivation
    /// nodes (inputs and outputs both count, as both "occur" in a node).
    pub total_size: u64,
    /// Largest set cardinality observed.
    pub max_set_cardinality: u64,
    /// Rule applications per primitive (keys are `Expr::head_name`s).
    pub rule_counts: BTreeMap<&'static str, u64>,
    /// Iterations performed by `while` sub-evaluations.
    pub while_iterations: u64,
    /// Apply-cache hits (only nonzero under
    /// [`EvalConfig::memo`](crate::error::EvalConfig::memo)). Hits are
    /// reported *separately* rather than inflating the §3 counters: a
    /// hit contributes nothing to `nodes`, `total_size`, or
    /// `max_object_size` — the skipped sub-derivation was never built.
    pub memo_hits: u64,
    /// Apply-cache misses — evaluations that ran the derivation and
    /// populated the cache. Only nonzero under `EvalConfig::memo`.
    pub memo_misses: u64,
    /// The subset of `memo_hits` served by entries another query wrote:
    /// an **earlier query of the same session** (cross-query warm
    /// starts), or a batch worker sharing its apply table. Always 0
    /// through [`crate::evaluate`], whose one-shot session has no
    /// earlier query; a `session::EvalSession` keeps its apply cache
    /// across `eval` calls and re-derivations of judgments already seen
    /// by previous queries land here.
    pub warm_hits: u64,
    /// Number of fused self-join applications served incrementally
    /// (only nonzero under
    /// [`EvalConfig::semi_naive`](crate::error::EvalConfig::semi_naive)):
    /// the join's input was a superset of its previous input, so only
    /// the joins touching the frontier were built and the previous
    /// answer was folded in by a sorted merge.
    pub delta_hits: u64,
    /// Previous answers those incremental applications folded in
    /// rather than recomputed. Like `memo_hits`, skips are reported
    /// *separately*: they contribute nothing to `nodes`/`total_size`/
    /// `max_object_size` (every skipped object already occurred, and
    /// was observed, earlier in the same evaluation).
    pub delta_skipped: u64,
    /// Frontier cardinality per `while` iteration — `|cₖ₊₁ ∖ cₖ|` for
    /// each iterate, in order (the `(total, delta)` pair the semi-naive
    /// `while` rule threads; the final entry is 0, the fixpoint test).
    /// Recorded only under `EvalConfig::semi_naive`, and only for
    /// set-valued iterates.
    pub while_frontiers: Vec<u64>,
    /// Packed-word operations run during this evaluation. No evaluator
    /// rule runs on packed words, so this reads 0; servebench reports
    /// it as `eval.dense_ops`.
    pub dense_ops: u64,
}

impl EvalStats {
    /// Record an object of the given size and cardinality occurring at a
    /// derivation node.
    pub(crate) fn observe_object(&mut self, size: u64, cardinality: Option<usize>) {
        self.max_object_size = self.max_object_size.max(size);
        self.total_size = self.total_size.saturating_add(size);
        if let Some(card) = cardinality {
            self.max_set_cardinality = self.max_set_cardinality.max(card as u64);
        }
    }

    /// `log₂` of the complexity, the quantity whose growth-in-`n` slope the
    /// experiments fit (Theorem 4.1 predicts slope ≥ c > 0 for TC queries).
    pub fn log2_complexity(&self) -> f64 {
        (self.max_object_size as f64).log2()
    }

    /// Apply-cache hit rate `hits / (hits + misses)`, or 0 when the
    /// cache never ran (memo off).
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observes_max_and_total() {
        let mut s = EvalStats::default();
        s.observe_object(5, None);
        s.observe_object(3, Some(2));
        s.observe_object(4, Some(7));
        assert_eq!(s.max_object_size, 5);
        assert_eq!(s.total_size, 12);
        assert_eq!(s.max_set_cardinality, 7);
    }

    #[test]
    fn log2() {
        let mut s = EvalStats::default();
        s.observe_object(1024, None);
        assert!((s.log2_complexity() - 10.0).abs() < 1e-9);
    }
}
