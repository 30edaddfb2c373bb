//! The optimiser's soundness contract, enforced differentially: for
//! every expression, **optimised and raw evaluation agree bit-for-bit
//! on results whenever raw evaluation succeeds**, across all seven
//! [`nra_testkit::graphs`] families and every
//! `memo`/`semi_naive` configuration mix — and, whenever no
//! rescue fired (the rewrite introduced no `while` the raw expression
//! lacked), on `while_iterations` too. Rescues are *allowed* to change
//! the iteration count: replacing a powerset tower with a loop is the
//! entire point.

use nra_core::generate::{random_expr, GenConfig, Rng as GenRng};
use nra_core::{queries, Expr, Type, Value};
use nra_eval::{evaluate, EvalConfig};
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
fn check(label: &str, raw: &Expr, optimised: &Expr, input: &Value) {
    // a rescue is the only rewrite allowed to change the loop count:
    // it introduces a `while` the raw expression did not have
    let rescued = !raw.level().while_loop && optimised.level().while_loop;
    for (mode, config) in config_mixes() {
        let r = evaluate(raw, input, &config);
        if let Ok(expected) = r.result {
            let o = evaluate(optimised, input, &config);
            let got = o
                .result
                .unwrap_or_else(|e| panic!("{label} [{mode}]: optimised failed on {input}: {e}"));
            assert_eq!(got, expected, "{label} [{mode}]: disagreement on {input}");
            if !rescued {
                assert_eq!(
                    r.stats.while_iterations, o.stats.while_iterations,
                    "{label} [{mode}]: while_iterations drifted on {input}"
                );
            }
        }
    }
}

/// The paper's query zoo over all seven graph families: results agree
/// under every configuration, and the two powerset-route queries are
/// both actually rewritten (the rescue is live, not vacuous).
#[test]
fn optimised_zoo_agrees_with_raw_on_all_families() {
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
        if optimised != *q && !q.level().while_loop && optimised.level().while_loop {
            rescued += 1;
        }
        let mut rng = Rng::new(0x0DD5_0001);
        for (i, g) in graphs::family_graphs(&mut rng).into_iter().enumerate() {
            let input = Value::relation(g.edges.iter().copied());
            check(&format!("{q} (family {i})"), q, &optimised, &input);
        }
    }
    assert!(
        rescued >= 1,
        "at least one zoo query must be rescued from the powerset route"
    );
}

/// Random well-typed expressions — `powerset`, `powersetₘ` and `while`
/// all enabled — survive optimisation bit-for-bit across families and
/// configuration mixes. This is the fuzzing arm of the contract: the
/// zoo exercises the rules we *meant* to write, the generator exercises
/// the expressions nobody meant.
#[test]
fn random_expressions_survive_optimisation() {
    let dom = Type::set(Type::nat_rel());
    let gen_cfg = GenConfig {
        max_depth: 4,
        allow_while: true,
        ..GenConfig::default()
    };
    let mut optimised_count = 0usize;
    for seed in 0..60u64 {
        let mut rng = GenRng::new(seed);
        let e = random_expr(&dom, &gen_cfg, &mut rng);
        let o = nra_opt::optimise_expr(&e);
        if o != e {
            optimised_count += 1;
        }
        let mut grng = Rng::new(0x0DD5_0002 ^ seed);
        let graph = &graphs::family_graphs(&mut grng)[(seed % 7) as usize];
        let inputs = [
            Value::relation([]),
            Value::chain(3),
            Value::relation(graph.edges.iter().copied()),
        ];
        for input in &inputs {
            check(&format!("seed {seed}: {e}"), &e, &o, input);
        }
    }
    assert!(
        optimised_count >= 5,
        "the generator should produce rewriteable expressions \
         (got {optimised_count}/60) — pools too narrow?"
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
