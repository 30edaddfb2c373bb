//! The optimiser's soundness contract, enforced differentially: for
//! every expression, **optimised and raw evaluation agree bit-for-bit
//! on results whenever raw evaluation succeeds**, across all seven
//! [`nra_testkit::graphs`] families and every
//! `memo`/`semi_naive` configuration mix. The only rewrites are the
//! rescues, which are *allowed* to change the iteration count:
//! replacing a powerset tower with a loop is the entire point. Every
//! other expression comes back unchanged, so its loop count cannot
//! drift.

use nra_core::generate::{random_expr, GenConfig, Rng as GenRng};
use nra_core::{builder, queries, Expr, Type, Value};
use nra_eval::{evaluate, EvalConfig};
use nra_opt::rank;
use nra_symbolic::classify_space;
use nra_testkit::{graphs, Rng};

/// Every `memo`/`semi_naive` combination, space-budgeted so the
/// powerset-route queries fail fast instead of materialising
/// exponential families on the larger graphs.
fn config_mixes() -> Vec<(&'static str, EvalConfig)> {
    [
        ("plain", false, false),
        ("memo", true, false),
        ("semi-naive", false, true),
        ("memo+semi-naive", true, true),
    ]
    .into_iter()
    .map(|(name, memo, semi_naive)| {
        let config = EvalConfig {
            memo,
            semi_naive,
            max_object_size: Some(1 << 16),
            ..EvalConfig::default()
        };
        (name, config)
    })
    .collect()
}

/// The one-sided bit-for-bit check on one (expression, input) pair.
/// Returns whether raw evaluation succeeded under any mix.
fn check(label: &str, raw: &Expr, optimised: &Expr, input: &Value) -> bool {
    let mut raw_succeeded = false;
    for (mode, config) in config_mixes() {
        if let Ok(expected) = evaluate(raw, input, &config).result {
            raw_succeeded = true;
            let got = evaluate(optimised, input, &config)
                .result
                .unwrap_or_else(|e| panic!("{label} [{mode}]: optimised failed on {input}: {e}"));
            assert_eq!(got, expected, "{label} [{mode}]: disagreement on {input}");
        }
    }
    raw_succeeded
}

/// Each powerset-route idiom with the polynomial route it is rescued to.
fn rescue_pairs() -> [(Expr, Expr); 2] {
    [
        (queries::tc_paths(), queries::tc_while()),
        (queries::siblings_powerset(), queries::siblings_direct()),
    ]
}

/// The paper's query zoo over all seven graph families: results agree
/// under every configuration, both powerset-route queries are rewritten
/// to their polynomial routes (the rescues are live, not vacuous), and
/// every other query comes back unchanged.
#[test]
fn optimised_zoo_agrees_with_raw_on_all_families() {
    let rescues = rescue_pairs();
    let zoo = [
        queries::tc_paths(),
        queries::tc_while(),
        queries::tc_step(),
        queries::siblings_powerset(),
        queries::siblings_direct(),
        queries::compose_rel(),
    ];
    let mut rescued = 0;
    for q in &zoo {
        let optimised = nra_opt::optimise_expr(q);
        if optimised != *q {
            assert!(
                rescues.contains(&(q.clone(), optimised.clone())),
                "{q} was rewritten to {optimised}, which is not a rescue"
            );
            rescued += 1;
        }
        for seed in [0x0DD5_0001, 0x5EED_0002] {
            let mut rng = Rng::new(seed);
            for (i, g) in graphs::family_graphs(&mut rng).into_iter().enumerate() {
                let input = Value::relation(g.edges.iter().copied());
                check(
                    &format!("{q} (seed {seed:#x}, family {i})"),
                    q,
                    &optimised,
                    &input,
                );
            }
        }
    }
    assert_eq!(
        rescued,
        rescues.len(),
        "both powerset routes must be rescued"
    );
}

/// Random well-typed expressions — `powerset`, `powersetₘ` and `while`
/// all enabled — in two arms. Plain: no generated expression contains
/// a powerset-route idiom, so each comes back unchanged. Wrapped: each
/// generated expression consumes an idiom's output, and the rescue
/// must fire inside that context, reach a fixpoint, keep the space
/// rank from worsening, and survive the bit-for-bit check across
/// families and configuration mixes — unless rescuing would worsen
/// the whole query's rank, in which case the query must come back
/// unchanged. The zoo exercises the rescues at the root; the generator
/// exercises the contexts nobody meant.
#[test]
fn random_expressions_survive_optimisation() {
    let gen_cfg = GenConfig {
        max_depth: 4,
        allow_while: true,
        ..GenConfig::default()
    };
    for seed in 0..60u64 {
        let mut rng = GenRng::new(seed);
        let e = random_expr(&Type::set(Type::nat_rel()), &gen_cfg, &mut rng);
        assert_eq!(nra_opt::optimise_expr(&e), e, "seed {seed}: {e}");
    }

    let rescues = rescue_pairs();
    let cases = 30usize;
    let (mut refused, mut live) = (0, 0);
    for seed in 0..cases as u64 {
        let (idiom, replacement) = &rescues[(seed % 2) as usize];
        let mut rng = GenRng::new(seed);
        let context = random_expr(&Type::nat_rel(), &gen_cfg, &mut rng);
        let e = builder::compose(context.clone(), idiom.clone());
        let rescued = builder::compose(context, replacement.clone());
        let o = nra_opt::optimise_expr(&e);
        let label = format!("seed {seed}: {e}");
        if o == e {
            assert!(
                rank(&classify_space(&rescued)) > rank(&classify_space(&e)),
                "{label}: the rescue must fire in context"
            );
            refused += 1;
            continue;
        }
        assert_eq!(o, rescued, "{label}: the rescue must fire in context");
        assert_eq!(nra_opt::optimise_expr(&o), o, "{label}: not a fixpoint");
        assert!(
            rank(&classify_space(&o)) <= rank(&classify_space(&e)),
            "{label}: the space rank worsened"
        );
        let mut grng = Rng::new(0x0DD5_0002 ^ seed);
        let graph = &graphs::family_graphs(&mut grng)[(seed % 7) as usize];
        let inputs = [
            Value::relation([]),
            Value::chain(3),
            Value::relation(graph.edges.iter().copied()),
        ];
        let mut raw_ok = false;
        for input in &inputs {
            raw_ok |= check(&label, &e, &o, input);
        }
        live += usize::from(raw_ok);
    }
    assert!(
        2 * live > cases,
        "the rescue fired on {} of {cases} wrapped cases, and raw evaluation \
         succeeded on some input for only {live}",
        cases - refused
    );
}

/// The rescue respects admission semantics end to end: under a space
/// budget only the while route can satisfy, the raw powerset route
/// fails and the optimised expression completes with the right answer.
#[test]
fn rescue_differential_holds_under_the_separating_budget() {
    let input = Value::chain(12);
    let strict = EvalConfig {
        max_object_size: Some(1 << 16),
        ..EvalConfig::optimised()
    };
    let raw = evaluate(&queries::tc_paths(), &input, &strict);
    assert!(raw.result.is_err(), "powerset route must blow the budget");
    let optimised = nra_opt::optimise_expr(&queries::tc_paths());
    assert_eq!(optimised, queries::tc_while(), "the headline rescue");
    let o = evaluate(&optimised, &input, &strict);
    assert_eq!(o.result.unwrap(), Value::chain_tc(12));
}
