//! Dense-vs-sorted differential tests: the arena's packed-word
//! representation (`SetRepr::Dense`) must be *invisible* — every
//! set-algebra op, every evaluator strategy, and both transitive-closure
//! routes return bit-for-bit the sorted-spine results (same canonical
//! `VId`, same `EvalStats` modulo the `dense_*` counters) whether the
//! dense path is on or off, across the seven small graph families and
//! the three large ones (road-grid, power-law, two-community).
//!
//! The toggle is [`ValueArena::set_dense_enabled`]; within one arena the
//! canonical-dedup invariant makes VId equality the strongest possible
//! agreement check. Across twin arenas the lockstep argument holds
//! because neither path interns intermediates the other doesn't — the
//! fuzz test at the bottom drives that through randomized
//! promotion/demotion at merge boundaries.

use nra_core::value::intern::{self, VId, ValueArena};
use nra_core::{queries, Value};
use nra_eval::{EvalConfig, EvalSession};
use nra_graph::{tc, tc_arena, DiGraph};
use nra_testkit::graphs::{family_graphs, large_family_graphs};
use nra_testkit::{check, Rng};

/// Evaluate in a fresh session whose arena has the dense path toggled.
/// Fresh tables each run keep the stats deterministic per
/// (query, input, cfg): the direct-mapped apply cache grows as entries
/// accumulate, so back-to-back runs through one table see different
/// collision patterns and hence different `memo_hits`.
fn eval_with_dense(
    q: &nra_core::Expr,
    input: &Value,
    cfg: &EvalConfig,
    dense: bool,
) -> nra_eval::Evaluation {
    let mut s = EvalSession::new(cfg.clone());
    s.values_mut().set_dense_enabled(dense);
    s.eval(q, input)
}

/// The config mixes the dense toggle must be invisible under.
fn modes() -> Vec<(&'static str, EvalConfig)> {
    vec![
        ("plain", EvalConfig::default()),
        ("memo", EvalConfig::memoised()),
        ("semi-naive", EvalConfig::semi_naive()),
        ("memo+semi-naive", EvalConfig::optimised()),
    ]
}

/// Dense-on results and statistics are the dense-off ones on every small
/// family, every strategy mix, and both TC routes (`EvalStats` equality
/// ignores exactly the `dense_*` counters, nothing else).
#[test]
fn dense_toggle_is_invisible_on_all_families() {
    check("dense_toggle_is_invisible_on_all_families", 12, |_, rng| {
        for g in family_graphs(rng) {
            let family = g.family;
            let input = Value::relation(g.edges.iter().copied());
            for q in [queries::tc_paths(), queries::tc_while(), queries::tc_step()] {
                for (mode, cfg) in modes() {
                    let sorted = eval_with_dense(&q, &input, &cfg, false);
                    let dense = eval_with_dense(&q, &input, &cfg, true);
                    assert_eq!(sorted.result, dense.result, "{family}: {mode} {q}");
                    assert_eq!(sorted.stats, dense.stats, "{family}: {mode} {q}");
                    assert_eq!(
                        sorted.stats.dense_ops, 0,
                        "{family}: {mode} {q} — dense-off runs must never take the dense path"
                    );
                }
            }
        }
    });
}

/// Through the handle-level facade the agreement is *handle identity*:
/// toggling the thread arena's dense switch between two evaluations of
/// the same judgment must hand back the same `VId`.
#[test]
fn dense_vid_handles_match_sorted_handles() {
    let q = queries::tc_while();
    let mut rng = Rng::new(5);
    let mut inputs = vec![Value::chain(16)];
    inputs.extend(
        family_graphs(&mut rng)
            .into_iter()
            .map(|g| Value::relation(g.edges)),
    );
    for input in &inputs {
        let iv = intern::intern(input);
        for (mode, cfg) in modes() {
            intern::with_arena(|va| va.set_dense_enabled(false));
            let sorted = nra_eval::evaluate_vid(&q, iv, &cfg);
            intern::with_arena(|va| va.set_dense_enabled(true));
            let dense = nra_eval::evaluate_vid(&q, iv, &cfg);
            assert_eq!(
                sorted.result.as_ref().unwrap(),
                dense.result.as_ref().unwrap(),
                "{mode}: the routes must intern to the same handle"
            );
        }
    }
}

/// The counters observably fire where the representation can pay: a
/// chain long enough to clear the min-cardinality gate runs its closure
/// with dense ops (and at least one promotion), and the disabled arena
/// reports exact zeros.
#[test]
fn dense_counters_fire_and_stay_zero_when_disabled() {
    // chain(12): the closure has 78 edges — past the 64-card dense gate,
    // so the while route's accumulating merges promote and word-op, at a
    // small fraction of the cost of a longer chain (the evaluator's
    // compose step is quadratic in the closure)
    let q = queries::tc_while();
    let input = Value::chain(12);
    for (mode, cfg) in modes() {
        let dense = eval_with_dense(&q, &input, &cfg, true);
        let sorted = eval_with_dense(&q, &input, &cfg, false);
        assert_eq!(sorted.result, dense.result, "{mode}");
        assert!(
            dense.stats.dense_ops > 0,
            "{mode}: expected dense ops on chain(12) tc_while, stats {:?}",
            dense.stats
        );
        assert!(
            dense.stats.dense_promotions > 0,
            "{mode}: expected at least one promotion, stats {:?}",
            dense.stats
        );
        assert_eq!(sorted.stats.dense_ops, 0, "{mode}");
        assert_eq!(sorted.stats.dense_promotions, 0, "{mode}");
    }
}

/// Every set-algebra op agrees — dense on vs off in the *same* arena, so
/// agreement is VId equality — on the large families at all three
/// standard sizes. Ops only (no closure): this is the part that is cheap
/// at n = 8192, where the closure spine would dwarf the test.
#[test]
fn set_algebra_ops_agree_dense_vs_sorted_on_large_families() {
    for n in nra_testkit::graphs::LARGE_SIZES {
        let mut rng = Rng::new(n);
        let graphs = large_family_graphs(&mut rng, n);
        let mut va = ValueArena::new();
        let rels: Vec<(&str, VId)> = graphs
            .iter()
            .map(|g| (g.family, va.relation(g.edges.iter().copied())))
            .collect();
        for &(fa, a) in &rels {
            for &(fb, b) in &rels {
                let label = format!("n={n} {fa}×{fb}");
                va.set_dense_enabled(false);
                let union_s = va.set_union(a, b).unwrap();
                let inter_s = va.set_intersection(a, b).unwrap();
                let diff_s = va.set_difference(a, b).unwrap();
                let sub_s = va.is_subset(a, b).unwrap();
                let (merged_s, delta_s) = va.set_merge_delta(a, union_s).unwrap();
                let frontier_s = va.set_merge_frontier(a, &[b, diff_s]).unwrap();
                va.set_dense_enabled(true);
                let (ops0, _) = va.dense_counters();
                assert_eq!(va.set_union(a, b).unwrap(), union_s, "{label}: union");
                assert_eq!(
                    va.set_intersection(a, b).unwrap(),
                    inter_s,
                    "{label}: intersection"
                );
                assert_eq!(
                    va.set_difference(a, b).unwrap(),
                    diff_s,
                    "{label}: difference"
                );
                assert_eq!(va.is_subset(a, b).unwrap(), sub_s, "{label}: subset");
                assert_eq!(
                    va.set_merge_delta(a, union_s).unwrap(),
                    (merged_s, delta_s),
                    "{label}: merge_delta"
                );
                assert_eq!(
                    va.set_merge_frontier(a, &[b, diff_s]).unwrap(),
                    frontier_s,
                    "{label}: merge_frontier"
                );
                let (ops1, _) = va.dense_counters();
                // the density heuristic accepts the raw edge relations
                // only at n = 512 (at larger strides the bitmap words
                // outgrow 8·card and the arena rightly stays sorted —
                // closures re-densify, which the closure tests cover)
                if n == 512 {
                    assert!(ops1 > ops0, "{label}: the dense path must actually run");
                }
                // membership probes against a handful of elements of b
                let elems = va.as_set(b).unwrap();
                for &e in elems.iter().take(5) {
                    va.set_dense_enabled(false);
                    let sorted = va.set_contains(a, e).unwrap();
                    va.set_dense_enabled(true);
                    assert_eq!(va.set_contains(a, e).unwrap(), sorted, "{label}: contains");
                }
            }
        }
    }
}

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
                let input = Value::relation(g.edges.iter().copied());
                let iv = intern::intern(&input);
                let ev = nra_eval::evaluate_vid(&queries::tc_while(), iv, &EvalConfig::default());
                let expect = ev.result.unwrap();
                intern::with_arena(|va| {
                    va.set_dense_enabled(false);
                    let sorted = tc_arena(va, iv).unwrap();
                    va.set_dense_enabled(true);
                    let dense = tc_arena(va, iv).unwrap();
                    assert_eq!(sorted, expect, "{family}: sorted tc_arena vs evaluator");
                    assert_eq!(dense, expect, "{family}: dense tc_arena vs evaluator");
                });
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
        va.set_dense_enabled(false);
        let sorted = tc_arena(&mut va, rel).unwrap();
        va.set_dense_enabled(true);
        let dense = tc_arena(&mut va, rel).unwrap();
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
                va.set_dense_enabled(false);
                let sorted = tc_arena(&mut va, rel).unwrap();
                va.set_dense_enabled(true);
                let dense = tc_arena(&mut va, rel).unwrap();
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

/// Seeded promotion/demotion fuzz at merge boundaries: twin arenas (one
/// dense, one sorted) fed the same randomized op sequence over a pool of
/// relations that straddles every representation boundary — below the
/// min-cardinality gate, dense small-domain, sparse wide-domain (the
/// density heuristic refuses), and coords beyond `DENSE_MAX_COORD`
/// (never densifiable). Results feed back into the pool, so grown sets
/// re-promote and shrunk ones fall back. The arenas must stay in
/// lockstep: same node count, same structure at every index, same
/// handles from every op.
#[test]
fn promotion_demotion_fuzz_keeps_twin_arenas_in_lockstep() {
    check(
        "promotion_demotion_fuzz_keeps_twin_arenas_in_lockstep",
        30,
        |_, rng| {
            let mut on = ValueArena::new();
            let mut off = ValueArena::new();
            off.set_dense_enabled(false);
            let mut pool: Vec<VId> = Vec::new();
            // one guaranteed-densifiable chain per seed (rng.relation's
            // length is random and can undershoot the min-card gate on
            // every draw), then the boundary-straddling randoms
            let len = rng.range_u64(70, 120);
            let chain: Vec<(u64, u64)> = (0..len).map(|i| (i, i + 1)).collect();
            let shifted: Vec<(u64, u64)> = (0..len).map(|i| (i + 1, i + 2)).collect();
            for edges in [&chain, &shifted] {
                let a = on.relation(edges.iter().copied());
                assert_eq!(
                    a,
                    off.relation(edges.iter().copied()),
                    "pool interning must be in lockstep"
                );
                pool.push(a);
            }
            // op the two chains together up front so at least one dense
            // word-parallel operation is guaranteed regardless of which
            // pairs the random walk below happens to draw
            let seeded = on.set_union(pool[0], pool[1]).unwrap();
            assert_eq!(
                seeded,
                off.set_union(pool[0], pool[1]).unwrap(),
                "seeded union must be in lockstep"
            );
            pool.push(seeded);
            for _ in 0..6 {
                let edges = match rng.below(4) {
                    0 => rng.relation(8, 6),       // below the min-card gate
                    1 => rng.relation(40, 120),    // dense, small domain
                    2 => rng.relation(2_000, 90),  // sparse, wide domain
                    _ => rng.relation(50_000, 80), // beyond DENSE_MAX_COORD
                };
                let a = on.relation(edges.iter().copied());
                let b = off.relation(edges.iter().copied());
                assert_eq!(a, b, "pool interning must be in lockstep");
                pool.push(a);
            }
            for step in 0..50 {
                let a = *rng.choose(&pool);
                let b = *rng.choose(&pool);
                let result = match rng.below(6) {
                    0 => {
                        let x = on.set_union(a, b).unwrap();
                        assert_eq!(x, off.set_union(a, b).unwrap(), "step {step}: union");
                        x
                    }
                    1 => {
                        let x = on.set_intersection(a, b).unwrap();
                        assert_eq!(
                            x,
                            off.set_intersection(a, b).unwrap(),
                            "step {step}: intersection"
                        );
                        x
                    }
                    2 => {
                        let x = on.set_difference(a, b).unwrap();
                        assert_eq!(x, off.set_difference(a, b).unwrap(), "step {step}: diff");
                        x
                    }
                    3 => {
                        assert_eq!(
                            on.is_subset(a, b),
                            off.is_subset(a, b),
                            "step {step}: subset"
                        );
                        if let Some(&e) = on.as_set(b).unwrap().first() {
                            assert_eq!(
                                on.set_contains(a, e),
                                off.set_contains(a, e),
                                "step {step}: contains"
                            );
                        }
                        continue;
                    }
                    4 => {
                        let grown = on.set_union(a, b).unwrap();
                        assert_eq!(grown, off.set_union(a, b).unwrap(), "step {step}");
                        let (merged, delta) = on.set_merge_delta(a, grown).unwrap();
                        assert_eq!(
                            (merged, delta),
                            off.set_merge_delta(a, grown).unwrap(),
                            "step {step}: merge_delta"
                        );
                        delta
                    }
                    _ => {
                        let x = on.set_merge_frontier(a, &[b]).unwrap();
                        assert_eq!(
                            x,
                            off.set_merge_frontier(a, &[b]).unwrap(),
                            "step {step}: merge_frontier"
                        );
                        x
                    }
                };
                pool.push(result);
            }
            // full lockstep: identical tables, structurally
            assert_eq!(on.len(), off.len(), "twin arenas diverged in size");
            for i in 0..on.len() {
                let v = VId::from_index(i);
                assert_eq!(
                    on.structural_hash(v),
                    off.structural_hash(v),
                    "twin arenas diverged at index {i}"
                );
            }
            let (ops, _) = on.dense_counters();
            assert!(ops > 0, "the fuzz never exercised the dense path");
            assert_eq!(off.dense_counters(), (0, 0), "sorted twin stayed sorted");
        },
    );
}
