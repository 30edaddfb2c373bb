//! Type-soundness and strategy-agreement fuzzing: evaluate randomly
//! generated *well-typed* expressions and check that
//!
//! 1. results inhabit the statically computed output type (type
//!    soundness of the §3 semantics);
//! 2. the plain, traced, streaming and memoised evaluators agree;
//! 3. budget errors are the only failures (no `Stuck`, ever, on
//!    well-typed terms).

use nra_core::generate::{random_expr, GenConfig, Rng};
use nra_core::typecheck::output_type;
use nra_core::types::Type;
use nra_core::value::Value;
use nra_eval::{evaluate, evaluate_lazy, evaluate_traced, EvalConfig, EvalError};

fn inputs_for(dom: &Type) -> Vec<Value> {
    match dom {
        t if *t == Type::nat_rel() => vec![
            Value::chain(3),
            Value::empty_set(),
            Value::relation([(0, 0), (1, 2), (2, 1)]),
        ],
        Type::Nat => vec![Value::nat(0), Value::nat(5)],
        Type::Bool => vec![Value::TRUE, Value::FALSE],
        Type::Set(elem) => {
            let mut out = vec![Value::empty_set()];
            let elems = inputs_for(elem);
            out.push(Value::set(elems.clone()));
            if let Some(first) = elems.first() {
                out.push(Value::set([first.clone()]));
            }
            out
        }
        Type::Prod(a, b) => {
            let xs = inputs_for(a);
            let ys = inputs_for(b);
            xs.iter()
                .zip(ys.iter().cycle())
                .map(|(x, y)| Value::pair(x.clone(), y.clone()))
                .take(3)
                .collect()
        }
        Type::Unit => vec![Value::Unit],
    }
}

fn fuzz_domain(dom: &Type, seeds: std::ops::Range<u64>, cfg_gen: &GenConfig) {
    // small budget: generated powerset towers explode quickly, and the
    // point is soundness, not scale
    let cfg = EvalConfig {
        max_object_size: Some(200_000),
        max_nodes: Some(500_000),
        max_while_iters: 50,
        ..EvalConfig::default()
    };
    for seed in seeds {
        let mut rng = Rng::new(seed);
        let e = random_expr(dom, cfg_gen, &mut rng);
        let out_ty = output_type(&e, dom).expect("generator produces well-typed terms");
        for input in inputs_for(dom) {
            assert!(input.has_type(dom), "test harness input at {dom}");
            let plain = evaluate(&e, &input, &cfg);
            match &plain.result {
                Ok(v) => {
                    // 1. type soundness
                    assert!(
                        v.has_type(&out_ty),
                        "seed {seed}: {e} produced {v} not of type {out_ty}"
                    );
                    // 2. the traced evaluator agrees, including statistics
                    let traced = evaluate_traced(&e, &input, &cfg);
                    let tree = traced.result.expect("traced agrees on success");
                    assert_eq!(&tree.output, v, "seed {seed}");
                    assert_eq!(traced.stats, plain.stats, "seed {seed}");
                    // 3. the streaming evaluator agrees on the value
                    let lazy = evaluate_lazy(&e, &input, &cfg);
                    if let Ok(lv) = lazy.result {
                        assert_eq!(&lv, v, "seed {seed} (lazy)");
                    }
                    // 4. the apply cache changes cost, never the value —
                    // and since hits only ever *shrink* the §3 counters,
                    // the same budgets cannot trip earlier
                    let memo_cfg = EvalConfig {
                        memo: true,
                        ..cfg.clone()
                    };
                    let memoised = evaluate(&e, &input, &memo_cfg);
                    assert_eq!(
                        memoised.result.as_ref().expect("memoised succeeds"),
                        v,
                        "seed {seed} (memoised)"
                    );
                    // 5. semi-naive (delta-driven) iteration and its
                    // fused Prop 2.1 rules change cost, never the value
                    // — and never the fixpoint trajectory; a delta skip
                    // does strictly less work, so the same budgets
                    // cannot trip earlier here either
                    for (mode, memo) in [("semi-naive", false), ("memo+semi-naive", true)] {
                        let delta_cfg = EvalConfig {
                            semi_naive: true,
                            memo,
                            ..cfg.clone()
                        };
                        let delta = evaluate(&e, &input, &delta_cfg);
                        assert_eq!(
                            delta.result.as_ref().expect("semi-naive succeeds"),
                            v,
                            "seed {seed} ({mode})"
                        );
                        assert_eq!(
                            delta.stats.while_iterations, plain.stats.while_iterations,
                            "seed {seed} ({mode}): exact trajectory"
                        );
                        assert!(
                            delta.stats.nodes <= plain.stats.nodes,
                            "seed {seed} ({mode}): counters may only shrink"
                        );
                    }
                }
                Err(
                    EvalError::SpaceBudgetExceeded { .. }
                    | EvalError::NodeBudgetExceeded { .. }
                    | EvalError::WhileDiverged { .. }
                    | EvalError::PowersetOverflow { .. },
                ) => {
                    // resource exhaustion is legitimate for random towers
                }
                Err(EvalError::Stuck { rule, detail }) => {
                    panic!("seed {seed}: well-typed {e} got stuck at {rule}: {detail}")
                }
                Err(EvalError::WorkerPanicked { detail }) => {
                    panic!(
                        "seed {seed}: sequential evaluation cannot report a worker panic: {detail}"
                    )
                }
            }
        }
    }
}

#[test]
fn fuzz_relations() {
    fuzz_domain(&Type::nat_rel(), 0..400, &GenConfig::default());
}

#[test]
fn fuzz_relations_with_while() {
    let cfg = GenConfig {
        allow_while: true,
        max_depth: 4,
        ..GenConfig::default()
    };
    fuzz_domain(&Type::nat_rel(), 0..200, &cfg);
}

#[test]
fn fuzz_nested_sets() {
    fuzz_domain(
        &Type::set(Type::set(Type::Nat)),
        0..200,
        &GenConfig::default(),
    );
}

#[test]
fn fuzz_mixed_products() {
    fuzz_domain(
        &Type::prod(Type::set(Type::Nat), Type::nat_rel()),
        0..200,
        &GenConfig::default(),
    );
}

#[test]
fn fuzz_deeper_terms() {
    let cfg = GenConfig {
        max_depth: 7,
        allow_powerset: false, // keep sizes sane at depth 7
        ..GenConfig::default()
    };
    fuzz_domain(&Type::nat_rel(), 0..150, &cfg);
}
