//! Conversions between [`DiGraph`] and complex objects of type `{N × N}`.
//!
//! This is the tree representation ([`graph_to_value`] /
//! [`value_to_graph`]), for display and the parser surface. A graph
//! enters the interned evaluation hot path of `nra-eval` without a tree
//! through one arena call each way: `arena.relation(g.edges())`, and
//! `DiGraph::from_edges(arena.to_edges(v)?)` back.

use crate::digraph::DiGraph;
use nra_core::value::Value;

/// Encode a graph as the complex object `{(a, b), …}` of type `{N × N}`.
pub fn graph_to_value(g: &DiGraph) -> Value {
    Value::relation(g.edges())
}

/// Decode a complex object of type `{N × N}` back into a graph. Returns
/// `None` if the value is not a binary relation over naturals.
pub fn value_to_graph(v: &Value) -> Option<DiGraph> {
    Some(DiGraph::from_edges(v.to_edges()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::types::Type;
    use nra_core::value::intern::ValueArena;

    #[test]
    fn round_trip() {
        for g in [
            DiGraph::new(),
            DiGraph::chain(5),
            DiGraph::cycle(3),
            DiGraph::random(8, 0.3, 1),
        ] {
            let v = graph_to_value(&g);
            assert!(v.has_type(&Type::nat_rel()));
            assert_eq!(value_to_graph(&v).unwrap(), g);
        }
    }

    #[test]
    fn chain_matches_value_chain() {
        assert_eq!(graph_to_value(&DiGraph::chain(4)), Value::chain(4));
    }

    #[test]
    fn non_relations_decode_to_none() {
        assert_eq!(value_to_graph(&Value::nat(3)), None);
        assert_eq!(value_to_graph(&Value::set([Value::nat(1)])), None);
    }

    #[test]
    fn interned_round_trip_matches_tree_encoding() {
        for g in [
            DiGraph::new(),
            DiGraph::chain(5),
            DiGraph::cycle(3),
            DiGraph::random(8, 0.3, 1),
        ] {
            let mut arena = ValueArena::new();
            let vid = arena.relation(g.edges());
            // the two encodings intern to the same handle…
            assert_eq!(vid, arena.intern(&graph_to_value(&g)));
            // …and decode to the same graph
            assert_eq!(DiGraph::from_edges(arena.to_edges(vid).unwrap()), g);
        }
    }

    #[test]
    fn interned_non_relations_decode_to_none() {
        let mut arena = ValueArena::new();
        let n = arena.nat(3);
        assert_eq!(arena.to_edges(n), None);
        let one = arena.nat(1);
        let s = arena.set([one]);
        assert_eq!(arena.to_edges(s), None);
    }
}
