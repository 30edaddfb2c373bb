//! Differential tests for `nra_graph::tc_arena`, the bitmap Warshall
//! closure over the packed-word `nra_core::value::dense` primitives: it
//! must intern the same canonical `VId` as the evaluator's `tc_while` on
//! the seven small graph families, and agree with the BFS referee on the
//! three large ones (road-grid, power-law, two-community).

use nra_core::queries;
use nra_core::value::intern::ValueArena;
use nra_eval::{EvalConfig, EvalSession};
use nra_graph::{tc, tc_arena, DiGraph};
use nra_testkit::graphs::{family_graphs, large_family_graphs, FamilyGraph};
use nra_testkit::{check, Rng};

/// `tc_arena` interns the evaluator's `tc_while` answer on the small
/// families — two independent closure implementations, one canonical
/// handle.
#[test]
fn tc_arena_agrees_with_evaluator_on_small_families() {
    check(
        "tc_arena_agrees_with_evaluator_on_small_families",
        12,
        |_, rng| {
            for g in family_graphs(rng) {
                let family = g.family;
                let mut session = EvalSession::new(EvalConfig::default());
                let q = session.intern_expr(&queries::tc_while());
                let iv = session.values_mut().relation(g.edges.iter().copied());
                let expect = session.eval_vid(q, iv).result.unwrap();
                let got = tc_arena(session.values_mut(), iv).unwrap();
                assert_eq!(got, expect, "{family}: tc_arena vs evaluator");
            }
        },
    );
}

/// `tc_arena`'s closure of `g` against the classical BFS closure.
fn assert_agrees_with_bfs(g: &FamilyGraph, what: &str) {
    let mut va = ValueArena::new();
    let rel = va.relation(g.edges.iter().copied());
    let closure = tc_arena(&mut va, rel).unwrap();
    let got: std::collections::BTreeSet<(u64, u64)> =
        va.to_edges(closure).unwrap().into_iter().collect();
    let digraph = DiGraph::from_edges(g.edges.iter().copied());
    let expect: std::collections::BTreeSet<(u64, u64)> = tc(&digraph).edges().collect();
    assert_eq!(got, expect, "{what}: closure vs BFS referee");
}

/// The large-graph closure differential at n = 512: two closure routes,
/// `tc_arena` and the classical BFS, give the same edge set on every
/// large family. (The evaluator's `tc_while` is not in this loop: at
/// this scale it is `join_scale.rs`'s subject.)
#[test]
fn tc_arena_routes_agree_on_large_families() {
    let mut rng = Rng::new(512);
    for g in large_family_graphs(&mut rng, 512) {
        assert_agrees_with_bfs(&g, g.family);
    }
}

/// The release-sized rung of the large-graph differential (CI runs this
/// suite under `--release`): closures at n = 2048 on every large family,
/// multiple seeds at n = 512. Ignored in debug builds — the BFS referee
/// at n = 2048 would dominate the tier-1 wall clock.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-sized: run with --release")]
fn tc_arena_routes_agree_on_large_families_release() {
    for n in [512u64, 2048] {
        let seeds = if n == 512 { 0..3 } else { 0..1 };
        for seed in seeds {
            let mut rng = Rng::new(n + seed);
            for g in large_family_graphs(&mut rng, n) {
                assert_agrees_with_bfs(&g, &format!("{} n={n} seed={seed}", g.family));
            }
        }
    }
}
