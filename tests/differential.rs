//! The differential test harness: every route to the transitive closure —
//! the eager powerset query (`tc_paths`), the `while` query (`tc_while`),
//! their memoised (apply-cache) and semi-naive evaluations, the
//! streaming (lazy) evaluator, and the classical `nra-graph` baselines
//! (Warshall, semi-naive, per-source BFS) — must agree on randomized graphs from
//! seven families (chains, cycles, DAGs, disconnected graphs, grids,
//! cliques, sparse random graphs) with up to ~8 nodes.
//!
//! On top of route agreement, the §3 complexity measure must *certify the
//! paper's separation*: on the chains `rₙ`, the eager powerset route costs
//! `max_object_size ≥ 2ⁿ` while the while-loop route stays polynomial
//! (Theorem 4.1 vs the §4 upper bounds).

use nra_testkit::check;
use powerset_tc::core::{queries, Value};
use powerset_tc::eval::{evaluate, evaluate_lazy, EvalConfig};
use powerset_tc::graph::{
    bfs_per_source, graph_to_value, semi_naive, value_to_graph, warshall, DiGraph,
};

/// Node-count ceiling for the randomized graphs: the powerset route
/// enumerates all `2^|nodes|` subsets, so n≈8 keeps a single case around
/// a few hundred subsets while still exercising every rule.
const MAX_N: u64 = 8;

const CASES: u64 = 24;

/// Lift one of the shared `nra_testkit::graphs` family builders (the
/// same definitions the strategy-level harness at
/// `crates/eval/tests/differential.rs` uses, so the two suites can
/// never drift apart) to a `DiGraph`.
fn lift(g: nra_testkit::graphs::FamilyGraph) -> DiGraph {
    DiGraph::from_edges(g.edges)
}

/// The heart of the harness: compute the closure along every route and
/// require bit-for-bit agreement.
fn assert_all_routes_agree(g: &DiGraph, label: &str) {
    // classical baselines agree among themselves…
    let baseline = warshall(g);
    assert_eq!(baseline, semi_naive(g), "warshall vs semi-naive on {label}");
    assert_eq!(baseline, bfs_per_source(g), "warshall vs BFS on {label}");

    let expect = graph_to_value(&baseline);
    let input = graph_to_value(g);
    let cfg = EvalConfig::default();

    // …and with the eager powerset route…
    let eager_paths = evaluate(&queries::tc_paths(), &input, &cfg)
        .result
        .unwrap_or_else(|e| panic!("tc_paths failed on {label}: {e}"));
    assert_eq!(eager_paths, expect, "tc_paths vs baselines on {label}");

    // …the while route…
    let eager_while = evaluate(&queries::tc_while(), &input, &cfg)
        .result
        .unwrap_or_else(|e| panic!("tc_while failed on {label}: {e}"));
    assert_eq!(eager_while, expect, "tc_while vs baselines on {label}");

    // …the streaming evaluator on the powerset route…
    let lazy_paths = evaluate_lazy(&queries::tc_paths(), &input, &cfg)
        .result
        .unwrap_or_else(|e| panic!("lazy tc_paths failed on {label}: {e}"));
    assert_eq!(lazy_paths, expect, "lazy tc_paths vs baselines on {label}");

    // …the memoised (apply-cache), semi-naive (delta-driven) and
    // fully-optimised evaluations of both routes, which must all be
    // bit-for-bit the default results…
    for (mode, cfg) in [
        ("memoised", EvalConfig::memoised()),
        ("semi-naive", EvalConfig::semi_naive()),
        ("optimised", EvalConfig::optimised()),
    ] {
        for (route, q) in [
            ("tc_paths", queries::tc_paths()),
            ("tc_while", queries::tc_while()),
        ] {
            let got = evaluate(&q, &input, &cfg)
                .result
                .unwrap_or_else(|e| panic!("{mode} {route} failed on {label}: {e}"));
            assert_eq!(got, expect, "{mode} {route} vs baselines on {label}");
        }
    }

    // …and the semi-naive runs iterate the exact naive trajectory.
    let naive_while = evaluate(&queries::tc_while(), &input, &cfg);
    let semi_while = evaluate(&queries::tc_while(), &input, &EvalConfig::semi_naive());
    assert_eq!(
        naive_while.stats.while_iterations, semi_while.stats.while_iterations,
        "semi-naive while_iterations must be exact on {label}"
    );

    // the encoding round-trips, so the comparison was about real graphs
    assert_eq!(
        value_to_graph(&expect).as_ref(),
        Some(&baseline),
        "closure round-trip on {label}"
    );
}

#[test]
fn differential_chains() {
    check("differential_chains", CASES, |seed, rng| {
        assert_all_routes_agree(
            &lift(nra_testkit::graphs::random_chain(rng)),
            &format!("chain (seed {seed})"),
        );
    });
}

#[test]
fn differential_cycles() {
    check("differential_cycles", CASES, |seed, rng| {
        assert_all_routes_agree(
            &lift(nra_testkit::graphs::random_cycle(rng)),
            &format!("cycle (seed {seed})"),
        );
    });
}

#[test]
fn differential_dags() {
    check("differential_dags", CASES, |seed, rng| {
        assert_all_routes_agree(
            &lift(nra_testkit::graphs::random_dag(rng)),
            &format!("dag (seed {seed})"),
        );
    });
}

#[test]
fn differential_disconnected() {
    check("differential_disconnected", CASES, |seed, rng| {
        assert_all_routes_agree(
            &lift(nra_testkit::graphs::random_disconnected(rng)),
            &format!("disconnected (seed {seed})"),
        );
    });
}

#[test]
fn differential_grids() {
    check("differential_grids", CASES, |seed, rng| {
        assert_all_routes_agree(
            &lift(nra_testkit::graphs::random_grid(rng)),
            &format!("grid (seed {seed})"),
        );
    });
}

#[test]
fn differential_cliques() {
    check("differential_cliques", CASES, |seed, rng| {
        assert_all_routes_agree(
            &lift(nra_testkit::graphs::random_clique(rng)),
            &format!("clique (seed {seed})"),
        );
    });
}

#[test]
fn differential_sparse() {
    check("differential_sparse", CASES, |seed, rng| {
        assert_all_routes_agree(
            &lift(nra_testkit::graphs::random_sparse(rng)),
            &format!("sparse (seed {seed})"),
        );
    });
}

/// Theorem 4.1, measured: on every chain `rₙ` up to n = 8 the eager
/// powerset route's §3 complexity is at least `2ⁿ`, while the while-loop
/// route stays under a small polynomial — the separation the paper is
/// about, certified case by case.
#[test]
fn chain_separation_is_certified_pointwise() {
    let cfg = EvalConfig::default();
    for n in 1..=MAX_N {
        let input = Value::chain(n);

        let eager = evaluate(&queries::tc_paths(), &input, &cfg);
        assert_eq!(eager.result.unwrap(), Value::chain_tc(n), "n={n}");
        assert!(
            eager.stats.max_object_size >= 1 << n,
            "eager powerset complexity at n={n} is {} < 2^{n}",
            eager.stats.max_object_size
        );

        let while_route = evaluate(&queries::tc_while(), &input, &cfg);
        assert_eq!(while_route.result.unwrap(), Value::chain_tc(n), "n={n}");
        // Θ(n⁴) with a small constant (§4's upper bound for the while
        // route); 8·n⁴ + 64 is a generous ceiling that an exponential
        // blow-up would smash immediately.
        let poly_ceiling = 8 * n.pow(4) + 64;
        assert!(
            while_route.stats.max_object_size <= poly_ceiling,
            "while complexity at n={n} is {} > {poly_ceiling}",
            while_route.stats.max_object_size
        );

        // the streaming strategy dodges the eager measure: its peak
        // resident set also stays under the polynomial ceiling
        let lazy = evaluate_lazy(&queries::tc_paths(), &input, &cfg);
        assert_eq!(lazy.result.unwrap(), Value::chain_tc(n), "n={n}");
        assert!(
            lazy.stats.peak_resident <= poly_ceiling,
            "lazy peak at n={n} is {} > {poly_ceiling}",
            lazy.stats.peak_resident
        );
    }
}

/// The same separation as a growth-rate fit (nra-bench's slope
/// machinery): `log₂(complexity)` grows with slope ≈ 1 per node on the
/// powerset route (i.e. `2^{Θ(n)}`) and with slope ≈ 0 on the while
/// route, whose log-log degree is that of a small polynomial.
#[test]
fn chain_separation_is_certified_by_growth_rate() {
    let ns: Vec<u64> = (3..=MAX_N).collect();
    let powerset_series = nra_bench::chain_series(&queries::tc_paths(), &ns, u64::MAX);
    let c = nra_bench::log2_slope(&powerset_series);
    assert!(
        c > 0.8 && c < 1.5,
        "powerset route: expected exponential slope ≈ 1, got {c}"
    );

    // the while route is polynomial, so it can afford much larger chains —
    // and needs them: at n ≤ 8 even n⁴ has a steep log₂ slope
    let while_series = nra_bench::chain_series(&queries::tc_while(), &[8, 16, 24, 32], u64::MAX);
    let cw = nra_bench::log2_slope(&while_series);
    assert!(
        cw < 0.5,
        "while route: log₂ slope {cw} looks exponential, not polynomial"
    );
    let degree = nra_bench::loglog_slope(&while_series);
    assert!(
        degree < 5.0,
        "while route: polynomial degree ≈ 4 expected, got {degree}"
    );
}

/// Tentpole acceptance: 4-worker batch evaluation is **bit-for-bit**
/// identical to sequential evaluation across all seven graph families —
/// workers intern straight into the parent's shared concurrent store, so
/// canonical interning hands back the *same* result handles with no
/// merge pass, and the same per-query §3 statistics — under both the
/// default and the fully optimised configuration.
#[test]
fn batch_evaluation_matches_sequential_on_all_families() {
    use powerset_tc::eval::{eval_batch, EvalSession};
    check(
        "batch_evaluation_matches_sequential_on_all_families",
        CASES / 2,
        |seed, rng| {
            let graphs: Vec<_> = nra_testkit::graphs::family_graphs(rng)
                .into_iter()
                .map(lift)
                .collect();
            for config in [EvalConfig::default(), EvalConfig::optimised()] {
                let mut session = EvalSession::new(config.clone());
                let q_while = session.intern_expr(&queries::tc_while());
                let q_paths = session.intern_expr(&queries::tc_paths());
                let jobs: Vec<_> = graphs
                    .iter()
                    .flat_map(|g| {
                        let input = session.intern_value(&graph_to_value(g));
                        [(q_while, input), (q_paths, input)]
                    })
                    .collect();
                // sequential reference through an *independent* session,
                // resolved to values so the comparison is representation-free
                let mut reference = EvalSession::new(config.clone());
                let sequential: Vec<Value> = jobs
                    .iter()
                    .map(|&(eid, input)| {
                        let expr = session.exprs().resolve(eid);
                        let value = session.resolve(input);
                        reference.eval(&expr, &value).result.unwrap()
                    })
                    .collect();
                let batched = eval_batch(&mut session, &jobs, 4);
                assert_eq!(batched.len(), jobs.len());
                for (i, (seq, par)) in sequential.iter().zip(&batched).enumerate() {
                    let par_value = session.resolve(*par.result.as_ref().unwrap());
                    assert_eq!(
                        seq, &par_value,
                        "seed {seed}: job {i} (batch vs sequential)"
                    );
                }
                // the graph referee closes the loop: every tc_while job
                // must be the classical closure
                for (g, chunk) in graphs.iter().zip(batched.chunks(2)) {
                    let expect = graph_to_value(&warshall(g));
                    assert_eq!(
                        session.resolve(*chunk[0].result.as_ref().unwrap()),
                        expect,
                        "seed {seed}: batch tc_while vs warshall"
                    );
                }
            }
        },
    );
}
