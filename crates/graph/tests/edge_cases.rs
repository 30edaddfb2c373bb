//! Edge-case unit tests for `graph::tc`, run through every closure
//! algorithm — `tc_arena` included, through a `ValueArena` round trip:
//! empty structures, n = 0/1, self-loops, relabelled nodes, and inputs
//! that are already transitively closed.

use nra_core::value::intern::ValueArena;
use nra_graph::{bfs_per_source, semi_naive, tc, tc_arena, warshall, DiGraph};

/// [`tc_arena`] on `g`'s edges, read back as a graph.
fn arena_closure(g: &DiGraph) -> DiGraph {
    let mut va = ValueArena::new();
    let rel = va.relation(g.edges());
    let closure = tc_arena(&mut va, rel).expect("a relation closes");
    DiGraph::from_edges(va.to_edges(closure).expect("the closure is a relation"))
}

fn all_algorithms(g: &DiGraph) -> [DiGraph; 4] {
    [
        warshall(g),
        semi_naive(g),
        bfs_per_source(g),
        arena_closure(g),
    ]
}

#[test]
fn tc_of_empty_graph_is_empty() {
    let g = DiGraph::new();
    for (i, got) in all_algorithms(&g).into_iter().enumerate() {
        assert_eq!(got, g, "algorithm {i}");
    }
    assert_eq!(tc(&g).edge_count(), 0);
}

#[test]
fn tc_of_chain_0_and_1() {
    // chain(0) has no edges at all (the empty relation)
    let g0 = DiGraph::chain(0);
    assert_eq!(g0.edge_count(), 0);
    for got in all_algorithms(&g0) {
        assert_eq!(got, g0);
    }
    // chain(1) = {(0,1)} is its own closure
    let g1 = DiGraph::chain(1);
    for got in all_algorithms(&g1) {
        assert_eq!(got, g1);
    }
}

#[test]
fn tc_of_single_self_loop() {
    let g = DiGraph::from_edges([(7, 7)]);
    for got in all_algorithms(&g) {
        assert_eq!(got, g, "a self-loop is its own closure");
    }
}

#[test]
fn tc_with_self_loops_everywhere() {
    // self-loops on a chain must not add spurious reachability…
    let g = DiGraph::from_edges([(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]);
    let expect = DiGraph::from_edges([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]);
    for got in all_algorithms(&g) {
        assert_eq!(got, expect);
    }
}

#[test]
fn tc_is_idempotent_on_closed_inputs() {
    // already-transitively-closed inputs are fixed points of tc
    let closed = [
        DiGraph::from_edges((0..=4u64).flat_map(|x| (x + 1..=4).map(move |y| (x, y)))), // chain_tc(4)
        DiGraph::from_edges((0..4u64).flat_map(|a| (0..4u64).map(move |b| (a, b)))), // complete w/ loops
        DiGraph::from_edges([(3, 3)]),
        DiGraph::new(),
    ];
    for g in &closed {
        for (i, got) in all_algorithms(g).into_iter().enumerate() {
            assert_eq!(&got, g, "algorithm {i} must fix a closed input");
        }
    }
    // and tc∘tc = tc on arbitrary inputs
    for seed in 0..10u64 {
        let g = DiGraph::random(8, 0.2, seed);
        let once = tc(&g);
        assert_eq!(tc(&once), once, "seed {seed}");
    }
}

#[test]
fn tc_ignores_node_labels() {
    // sparse, large labels — Warshall's compaction must handle them
    let g = DiGraph::from_edges([(1_000_000, 2_000_000), (2_000_000, 3_000_000)]);
    let expect = DiGraph::from_edges([
        (1_000_000, 2_000_000),
        (1_000_000, 3_000_000),
        (2_000_000, 3_000_000),
    ]);
    for got in all_algorithms(&g) {
        assert_eq!(got, expect);
    }
}

#[test]
fn tc_rows_cross_word_boundaries() {
    // 63/64/65 nodes straddle the first u64 word boundary of a Warshall
    // row, 128/129 the second
    for n in [62u64, 63, 64, 127, 128] {
        let chain = DiGraph::chain(n);
        let expect = DiGraph::from_edges((0..=n).flat_map(|x| (x + 1..=n).map(move |y| (x, y))));
        for (i, got) in all_algorithms(&chain).into_iter().enumerate() {
            assert_eq!(got, expect, "algorithm {i}, chain({n})");
        }
        let cycle = DiGraph::cycle(n + 1);
        let complete = DiGraph::from_edges((0..=n).flat_map(|a| (0..=n).map(move |b| (a, b))));
        for (i, got) in all_algorithms(&cycle).into_iter().enumerate() {
            assert_eq!(got, complete, "algorithm {i}, cycle({})", n + 1);
        }
    }
}
