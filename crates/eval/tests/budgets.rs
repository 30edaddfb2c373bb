//! Memo-aware budget regression tests.
//!
//! A cache hit used to cost **0** against [`EvalConfig::max_nodes`], so
//! a budget that cut the plain derivation mid-way could let the
//! memoised run of the *same* evaluation slip through — budget
//! exhaustion depended on the strategy. Hits now charge the recorded
//! as-if-uncached cost of their cached subtree, so across the whole
//! budget range the outcome (completes vs `NodeBudgetExceeded`) is
//! identical with the cache on or off. The traced builder derives the
//! exact tree under any config, so under the same budget it must reach
//! the eager walker's outcome.
//!
//! Semi-naive (delta-driven) iteration follows a weaker, one-sided
//! contract by design: a delta skip charges the recorded cost of the
//! skipped frontier, and the fused Prop 2.1 rules do strictly *less*
//! work than the spread they replace — so a budget that admits the
//! naive run always admits the semi-naive run (never the reverse).

use nra_core::{queries, Value};
use nra_eval::{evaluate, evaluate_traced, EvalConfig, EvalError};
use nra_graph::{graph_to_value, DiGraph};

/// Workload corpus: while-route fixpoints (where the apply cache
/// actually fires) plus a small powerset route.
fn corpus() -> Vec<(nra_core::Expr, Value)> {
    vec![
        (queries::tc_while(), Value::chain(5)),
        (
            queries::tc_while(),
            graph_to_value(&DiGraph::random_dag(6, 0.4, 3)),
        ),
        (queries::tc_step(), Value::chain(4)),
        (queries::tc_paths(), Value::chain(4)),
    ]
}

/// Budget sweep points around the true (unbudgeted) node total:
/// everything interesting happens at the boundaries.
fn budget_points(total: u64) -> Vec<u64> {
    let mut pts = vec![1, 2, 3, total / 7, total / 3, total / 2];
    pts.extend([
        total.saturating_sub(2),
        total.saturating_sub(1),
        total,
        total + 1,
        total * 2,
    ]);
    pts.retain(|&b| b > 0);
    pts.dedup();
    pts
}

/// Outcome classifier: success or the error variant (partial stats and
/// `required` payloads legitimately differ between strategies).
fn outcome(r: &Result<Value, EvalError>) -> &'static str {
    match r {
        Ok(_) => "ok",
        Err(EvalError::NodeBudgetExceeded { .. }) => "node-budget",
        Err(EvalError::SpaceBudgetExceeded { .. }) => "space-budget",
        Err(e) => panic!("unexpected error class: {e}"),
    }
}

#[test]
fn node_budget_exhaustion_is_memo_independent() {
    for (q, input) in corpus() {
        let total = evaluate(&q, &input, &EvalConfig::default()).stats.nodes;
        for budget in budget_points(total) {
            let cfg = EvalConfig {
                max_nodes: Some(budget),
                ..EvalConfig::default()
            };
            let memo_cfg = EvalConfig {
                memo: true,
                ..cfg.clone()
            };
            let plain = evaluate(&q, &input, &cfg);
            let memo = evaluate(&q, &input, &memo_cfg);
            assert_eq!(
                outcome(&plain.result),
                outcome(&memo.result),
                "{q} under node budget {budget}/{total}: memo-on diverged from memo-off"
            );
            if let (Ok(a), Ok(b)) = (&plain.result, &memo.result) {
                assert_eq!(a, b, "{q} under node budget {budget}");
            }
            // the traced builder counts the exact derivation's nodes
            // under any config, so the same budget cuts it where it cuts
            // the plain eager walker
            let traced = evaluate_traced(&q, &input, &memo_cfg);
            assert_eq!(
                outcome(&plain.result),
                outcome(&traced.result.map(|n| n.output)),
                "traced {q} under node budget {budget}/{total}"
            );
        }
    }
}

#[test]
fn space_budget_exhaustion_is_memo_independent() {
    for (q, input) in corpus() {
        let peak = evaluate(&q, &input, &EvalConfig::default())
            .stats
            .max_object_size;
        for budget in budget_points(peak) {
            let cfg = EvalConfig {
                max_object_size: Some(budget),
                ..EvalConfig::default()
            };
            let memo_cfg = EvalConfig {
                memo: true,
                ..cfg.clone()
            };
            let plain = evaluate(&q, &input, &cfg);
            let memo = evaluate(&q, &input, &memo_cfg);
            assert_eq!(
                outcome(&plain.result),
                outcome(&memo.result),
                "{q} under space budget {budget}/{peak}"
            );
        }
    }
}

/// Semi-naive does strictly less budgeted work: whenever the naive run
/// fits a budget, the delta-driven run fits it too and produces the
/// identical value.
#[test]
fn seminaive_never_trips_budgets_the_naive_run_survives() {
    for (q, input) in corpus() {
        let stats = evaluate(&q, &input, &EvalConfig::default()).stats;
        for budget in budget_points(stats.nodes) {
            let cfg = EvalConfig {
                max_nodes: Some(budget),
                ..EvalConfig::default()
            };
            let plain = evaluate(&q, &input, &cfg);
            if let Ok(expect) = plain.result {
                for delta_cfg in [
                    EvalConfig {
                        semi_naive: true,
                        ..cfg.clone()
                    },
                    EvalConfig {
                        semi_naive: true,
                        memo: true,
                        ..cfg.clone()
                    },
                ] {
                    let delta = evaluate(&q, &input, &delta_cfg);
                    assert_eq!(
                        delta.result.as_ref().ok(),
                        Some(&expect),
                        "{q} under node budget {budget}: semi-naive tripped a budget \
                         the naive run survived"
                    );
                }
            }
        }
    }
}
