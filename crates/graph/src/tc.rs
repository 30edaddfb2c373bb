//! Classical transitive-closure algorithms — the polynomial ground truth
//! against which every `NRA(powerset)` evaluation is checked, and the
//! baselines of experiment E3.
//!
//! Four algorithms with different complexity profiles:
//! * [`warshall`] — bitmap Warshall, `O(V³/64)`;
//! * [`semi_naive`] — delta-driven datalog-style iteration, the classical
//!   implementation of the paper's `while` query;
//! * [`bfs_per_source`] — `O(V·(V+E))` adjacency-list search;
//! * [`tc_arena`] — closure of an *interned* relation, answer interned
//!   once.
//!
//! [`warshall`] and [`tc_arena`] run one kernel: bitmap Warshall over
//! compacted node ids, on the shared [`dense`] word primitives. All
//! agree (property-tested); `tc` picks the BFS variant.

use crate::digraph::DiGraph;
use nra_core::value::dense;
use nra_core::value::intern::{VId, ValueArena};
use std::collections::{BTreeSet, VecDeque};

/// Transitive closure via per-source BFS (the default).
pub fn tc(g: &DiGraph) -> DiGraph {
    bfs_per_source(g)
}

/// Warshall's algorithm over packed bitmap rows (the kernel
/// [`tc_arena`] runs). Nodes are compacted first, so sparse id spaces
/// cost only `O(V)` extra.
pub fn warshall(g: &DiGraph) -> DiGraph {
    let edges: Vec<(u64, u64)> = g.edges().collect();
    DiGraph::from_edges(dense_closure(&edges))
}

/// Semi-naive evaluation: iterate `Δ ← (Δ ∘ r) ∖ acc` to a fixpoint. This
/// is the efficient implementation of the paper's `while(λr. r ∪ r∘r)`
/// query, evaluating only the *new* pairs each round.
pub fn semi_naive(g: &DiGraph) -> DiGraph {
    let succ = g.successors();
    let mut acc: BTreeSet<(u64, u64)> = g.edges().collect();
    let mut delta: BTreeSet<(u64, u64)> = acc.clone();
    while !delta.is_empty() {
        let mut next = BTreeSet::new();
        for &(a, b) in &delta {
            if let Some(outs) = succ.get(&b) {
                for &c in outs {
                    if !acc.contains(&(a, c)) {
                        next.insert((a, c));
                    }
                }
            }
        }
        acc.extend(next.iter().copied());
        delta = next;
    }
    DiGraph::from_edges(acc)
}

/// Per-source breadth-first search.
pub fn bfs_per_source(g: &DiGraph) -> DiGraph {
    let succ = g.successors();
    let mut out = BTreeSet::new();
    for &src in succ.keys() {
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut queue: VecDeque<u64> = VecDeque::new();
        queue.push_back(src);
        // note: src itself is only reachable if on a cycle, so we do not
        // pre-seed `seen` with it as "reached".
        while let Some(v) = queue.pop_front() {
            if let Some(outs) = succ.get(&v) {
                for &w in outs {
                    if seen.insert(w) {
                        queue.push_back(w);
                    }
                }
            }
        }
        for w in seen {
            out.insert((src, w));
        }
    }
    DiGraph::from_edges(out)
}

/// Transitive closure of an interned relation `{N × N}`, returned as the
/// canonical interned closure handle. `None` if `rel` is not a relation
/// of nat pairs.
///
/// The closure runs as [`warshall`] does — bitmap Warshall over
/// compacted node ids, `O(V³/64)` word operations — and the result set
/// is interned **once** at the end, with no per-round interning.
///
/// ```
/// use nra_core::value::intern::ValueArena;
/// use nra_graph::tc_arena;
///
/// let mut va = ValueArena::new();
/// let r = va.chain(100);
/// let closure = tc_arena(&mut va, r).unwrap();
/// assert_eq!(closure, va.chain_tc(100));
/// ```
pub fn tc_arena(va: &mut ValueArena, rel: VId) -> Option<VId> {
    let edges = va.to_edges(rel)?;
    if edges.is_empty() {
        return Some(rel); // the closure of the empty relation is itself
    }
    Some(va.relation(dense_closure(&edges)))
}

/// The closure kernel of [`warshall`] and [`tc_arena`]: bitmap Warshall
/// over compacted node indices, where bit `j` of row `i` means an
/// `i → j` path. Pure word arithmetic — decoding the input and
/// building the answer are the callers'.
fn dense_closure(edges: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut nodes: Vec<u64> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let idx = |v: u64| nodes.binary_search(&v).expect("node was collected");
    let n = nodes.len();
    let mut rows: Vec<Vec<u64>> = vec![vec![0u64; dense::words_for_bits(n)]; n];
    for &(a, b) in edges {
        dense::set_bit(&mut rows[idx(a)], idx(b));
    }
    for k in 0..n {
        // a clone of row k is enough: within iteration k the row only
        // ever absorbs itself, a no-op
        let row_k = rows[k].clone();
        for row in rows.iter_mut() {
            if dense::get_bit(row, k) {
                dense::union_into(row, &row_k);
            }
        }
    }
    let mut out = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        out.extend(dense::iter_ones(row).map(|j| (nodes[i], nodes[j])));
    }
    out
}

/// Number of semi-naive rounds needed (the `while` iteration count is
/// `⌈log₂(diameter)⌉`-ish for the squaring step, but linear for the
/// edge-extension step used here; exposed for the E3 report).
pub fn semi_naive_rounds(g: &DiGraph) -> u64 {
    let succ = g.successors();
    let mut acc: BTreeSet<(u64, u64)> = g.edges().collect();
    let mut delta = acc.clone();
    let mut rounds = 0;
    while !delta.is_empty() {
        rounds += 1;
        let mut next = BTreeSet::new();
        for &(a, b) in &delta {
            if let Some(outs) = succ.get(&b) {
                for &c in outs {
                    if !acc.contains(&(a, c)) {
                        next.insert((a, c));
                    }
                }
            }
        }
        acc.extend(next.iter().copied());
        delta = next;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_algorithms(g: &DiGraph) -> [DiGraph; 3] {
        [warshall(g), semi_naive(g), bfs_per_source(g)]
    }

    #[test]
    fn chain_closure_is_the_paper_q_n() {
        for n in 0..8u64 {
            let g = DiGraph::chain(n);
            let expect =
                DiGraph::from_edges((0..=n).flat_map(|x| (x + 1..=n).map(move |y| (x, y))));
            for (i, got) in all_algorithms(&g).into_iter().enumerate() {
                assert_eq!(got, expect, "algorithm {i}, n = {n}");
            }
        }
    }

    #[test]
    fn cycle_closure_is_complete() {
        let g = DiGraph::cycle(4);
        let expect = DiGraph::from_edges((0..4).flat_map(|a| (0..4).map(move |b| (a, b))));
        for got in all_algorithms(&g) {
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn self_loop() {
        let g = DiGraph::from_edges([(3, 3)]);
        for got in all_algorithms(&g) {
            assert_eq!(got, g);
        }
    }

    #[test]
    fn algorithms_agree_on_random_graphs() {
        for seed in 0..20 {
            let g = DiGraph::random(12, 0.15, seed);
            let [w, s, b] = all_algorithms(&g);
            assert_eq!(w, s, "seed {seed}");
            assert_eq!(s, b, "seed {seed}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        for got in all_algorithms(&g) {
            assert_eq!(got, g);
        }
    }

    #[test]
    fn rounds_reflect_diameter() {
        assert_eq!(semi_naive_rounds(&DiGraph::chain(1)), 1);
        assert!(semi_naive_rounds(&DiGraph::chain(8)) >= 7);
        assert_eq!(semi_naive_rounds(&DiGraph::new()), 0);
    }

    #[test]
    fn tc_arena_routes_agree_with_the_classical_algorithms() {
        for seed in 0..10 {
            let g = DiGraph::random(12, 0.15, seed);
            let mut va = ValueArena::new();
            let rel = va.relation(g.edges());
            let closure = tc_arena(&mut va, rel).unwrap();
            let got = DiGraph::from_edges(va.to_edges(closure).unwrap());
            assert_eq!(got, tc(&g), "seed {seed}: tc_arena vs BFS closure");
        }
    }

    #[test]
    fn tc_arena_edge_cases() {
        let mut va = ValueArena::new();
        let empty = va.relation([]);
        assert_eq!(tc_arena(&mut va, empty), Some(empty));
        let nat = va.nat(3);
        assert_eq!(tc_arena(&mut va, nat), None, "not a relation");
        let loops = va.relation([(3, 3)]);
        assert_eq!(tc_arena(&mut va, loops), Some(loops));
        // ids beyond the dense coordinate bound still close correctly
        // (the Warshall rows index *compacted* ids, not raw labels)
        let wide = va.relation([(1_000_000, 2_000_000), (2_000_000, 3_000_000)]);
        let c = tc_arena(&mut va, wide).unwrap();
        let got: BTreeSet<(u64, u64)> = va.to_edges(c).unwrap().into_iter().collect();
        let expect: BTreeSet<(u64, u64)> = [
            (1_000_000, 2_000_000),
            (1_000_000, 3_000_000),
            (2_000_000, 3_000_000),
        ]
        .into_iter()
        .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn closure_is_transitive_and_contains_input() {
        for seed in 0..5 {
            let g = DiGraph::random(10, 0.2, seed);
            let c = tc(&g);
            for (a, b) in g.edges() {
                assert!(c.has_edge(a, b));
            }
            for (a, b) in c.edges() {
                for (c2, d) in c.edges() {
                    if b == c2 {
                        assert!(c.has_edge(a, d), "({a},{b}),({c2},{d})");
                    }
                }
            }
        }
    }
}
