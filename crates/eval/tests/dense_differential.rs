//! Dense-vs-sorted differential tests for `nra_graph::tc_arena`: its
//! two closure routes — bitmap Warshall over the packed-word
//! `nra_core::value::dense` primitives, and semi-naive rounds on sorted
//! arena spines — must intern the identical canonical `VId`, and agree
//! with the evaluator's `tc_while` on the seven small graph families and
//! with the BFS referee on the three large ones (road-grid, power-law,
//! two-community).

use nra_core::queries;
use nra_core::value::intern::ValueArena;
use nra_eval::{EvalConfig, EvalSession};
use nra_graph::{tc, tc_arena, DiGraph};
use nra_testkit::graphs::{family_graphs, large_family_graphs};
use nra_testkit::{check, Rng};

/// `tc_arena`'s two routes agree with each other *and* with the
/// evaluator's `tc_while` on the small families — three independent
/// closure implementations interning to one canonical handle.
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
                let va = session.values_mut();
                let sorted = tc_arena(va, iv, false).unwrap();
                let dense = tc_arena(va, iv, true).unwrap();
                assert_eq!(sorted, expect, "{family}: sorted tc_arena vs evaluator");
                assert_eq!(dense, expect, "{family}: dense tc_arena vs evaluator");
            }
        },
    );
}

/// The large-graph closure differential at n = 512: dense and sorted
/// `tc_arena` routes return the same handle on every large family, and
/// the edge set matches the classical BFS closure. (The evaluator's
/// `tc_while` is not in this loop: its compose step is a cartesian
/// self-product, certifiably infeasible at this scale — which is the
/// point of the prediction layer.)
#[test]
fn tc_arena_routes_agree_on_large_families() {
    let mut rng = Rng::new(512);
    for g in large_family_graphs(&mut rng, 512) {
        let digraph = DiGraph::from_edges(g.edges.iter().copied());
        let mut va = ValueArena::new();
        let rel = va.relation(g.edges.iter().copied());
        let sorted = tc_arena(&mut va, rel, false).unwrap();
        let dense = tc_arena(&mut va, rel, true).unwrap();
        assert_eq!(sorted, dense, "{}: routes split at n=512", g.family);
        let got: std::collections::BTreeSet<(u64, u64)> =
            va.to_edges(dense).unwrap().into_iter().collect();
        let expect: std::collections::BTreeSet<(u64, u64)> = tc(&digraph).edges().collect();
        assert_eq!(got, expect, "{}: closure vs BFS referee", g.family);
    }
}

/// The release-sized rung of the large-graph differential (CI runs this
/// suite under `--release`): closures at n = 2048 on every large family,
/// multiple seeds at n = 512. Ignored in debug builds — the sorted rung
/// alone would dominate the tier-1 wall clock.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-sized: run with --release")]
fn tc_arena_routes_agree_on_large_families_release() {
    for n in [512u64, 2048] {
        let seeds = if n == 512 { 0..3 } else { 0..1 };
        for seed in seeds {
            let mut rng = Rng::new(n + seed);
            for g in large_family_graphs(&mut rng, n) {
                let digraph = DiGraph::from_edges(g.edges.iter().copied());
                let mut va = ValueArena::new();
                let rel = va.relation(g.edges.iter().copied());
                let sorted = tc_arena(&mut va, rel, false).unwrap();
                let dense = tc_arena(&mut va, rel, true).unwrap();
                assert_eq!(
                    sorted, dense,
                    "{} n={n} seed={seed}: routes split",
                    g.family
                );
                let got: std::collections::BTreeSet<(u64, u64)> =
                    va.to_edges(dense).unwrap().into_iter().collect();
                let expect: std::collections::BTreeSet<(u64, u64)> = tc(&digraph).edges().collect();
                assert_eq!(got, expect, "{} n={n} seed={seed}", g.family);
            }
        }
    }
}
