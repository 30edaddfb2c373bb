//! Cross-validation bridge: run flat queries both as circuits and through
//! the `NRA` evaluator, on the same binary relations.
//!
//! Proposition 4.3 relates the polynomially-bounded fragment of
//! `NRA(powerset)` to `TC⁰`. The bridge makes the relationship checkable
//! on real queries: a binary relation is encoded once as a complex object
//! `{N × N}` and once as a `d²`-wire bit vector; the `NRA` term and the
//! compiled circuit must produce the same relation.

use crate::relalg::{compile, CompiledQuery, FlatQuery};
use nra_core::expr::Expr;
use nra_eval::{EvalConfig, EvalSession};
use std::collections::BTreeSet;

/// An edge set over `u64` node ids.
pub type EdgeSet = BTreeSet<(u64, u64)>;

/// A pair of equivalent artefacts for one query over binary relations.
pub struct BridgedQuery {
    /// The `NRA` term, of type `{N×N} → {N×N}`.
    pub nra: Expr,
    /// The flat query over one binary input.
    pub flat: FlatQuery,
}

/// The relational-composition round `r ∘ r`.
pub fn join_bridge() -> BridgedQuery {
    BridgedQuery {
        nra: nra_core::queries::compose_rel(),
        flat: crate::relalg::join_query(),
    }
}

/// The inflationary TC step `r ∪ r∘r`.
pub fn tc_step_bridge() -> BridgedQuery {
    BridgedQuery {
        nra: nra_core::queries::tc_step(),
        flat: crate::relalg::tc_step_query(),
    }
}

/// Evaluate both sides on the same relation (nodes must be `< d`) and
/// return `(nra_result, circuit_result)`.
pub fn run_both(bridged: &BridgedQuery, edges: &EdgeSet, d: u64) -> (EdgeSet, EdgeSet) {
    // NRA side, on the interned hot path of a one-shot session: the
    // relation is hash-consed straight into its arena and the result
    // decoded from its handle — no tree Value is ever materialised.
    let mut session = EvalSession::new(EvalConfig::default());
    let query = session.intern_expr(&bridged.nra);
    let input = session.values_mut().relation(edges.iter().copied());
    let nra_out = session
        .eval_vid(query, input)
        .result
        .expect("NRA evaluation");
    let nra_edges: EdgeSet = session
        .values()
        .to_edges(nra_out)
        .expect("relation out")
        .into_iter()
        .collect();
    // circuit side
    let compiled: CompiledQuery = compile(&bridged.flat, &[2], d);
    let rel: BTreeSet<Vec<u64>> = edges.iter().map(|&(a, b)| vec![a, b]).collect();
    let circ_out = compiled.run(std::slice::from_ref(&rel));
    let circ_edges: EdgeSet = circ_out.into_iter().map(|t| (t[0], t[1])).collect();
    (nra_edges, circ_edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: u64) -> BTreeSet<(u64, u64)> {
        (0..n).map(|i| (i, i + 1)).collect()
    }

    #[test]
    fn join_agrees_with_nra_on_chains() {
        for n in 0..6u64 {
            let (nra, circ) = run_both(&join_bridge(), &chain(n), n + 1);
            assert_eq!(nra, circ, "n={n}");
        }
    }

    #[test]
    fn tc_step_agrees_with_nra_on_chains_and_cycles() {
        for n in 1..6u64 {
            let (nra, circ) = run_both(&tc_step_bridge(), &chain(n), n + 1);
            assert_eq!(nra, circ, "chain n={n}");
            let cycle: BTreeSet<(u64, u64)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            let (nra, circ) = run_both(&tc_step_bridge(), &cycle, n);
            assert_eq!(nra, circ, "cycle n={n}");
        }
    }

    #[test]
    fn agrees_on_random_relations() {
        let d = 5u64;
        let mut state = 0xC0FFEEu64;
        for case in 0..10 {
            let mut edges = BTreeSet::new();
            for a in 0..d {
                for b in 0..d {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state.is_multiple_of(4) {
                        edges.insert((a, b));
                    }
                }
            }
            for bridged in [join_bridge(), tc_step_bridge()] {
                let (nra, circ) = run_both(&bridged, &edges, d);
                assert_eq!(nra, circ, "case {case}");
            }
        }
    }
}
