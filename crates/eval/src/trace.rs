//! Materialised derivation trees.
//!
//! §3 defines evaluation `f(C) ⇓ C'` as "a tree, whose nodes are labeled by
//! the rules above, and whose root contains `f(C) ⇓ C'`. The height of the
//! tree depends only on `f`, not on `C`. But the width of this tree may
//! depend on `C`." This module builds that tree explicitly (for inputs
//! small enough to inspect) so that tests and examples can check the
//! height/width claims and render derivations.
//!
//! Like [`crate::eager`], the recursion runs on interned handles — the §3
//! size observations are `O(1)` metadata reads — and each [`DerivNode`]
//! resolves its judgment back to tree [`Value`]s for inspection (the whole
//! point of tracing is to look at the objects).
//!
//! The builder always derives the exact §3 tree: [`EvalConfig::memo`] and
//! [`EvalConfig::semi_naive`] are ignored here (the apply and delta caches
//! live in the eager walker alone), so the tree and its statistics are
//! those of [`crate::eager::evaluate`] under the default configuration.
//! The budgets of [`EvalConfig`] apply as usual.

use crate::eager::{self, apply_leaf_vid, Ctx};
use crate::error::{EvalConfig, EvalError};
use crate::stats::EvalStats;
use nra_core::expr::Expr;
use nra_core::value::intern::{VId, ValueArena};
use nra_core::value::Value;
use std::fmt::Write as _;

/// One node of a derivation tree: the rule applied, the judgment
/// `input ⇓ output`, and the sub-derivations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivNode {
    /// The rule label (an `Expr::head_name`).
    pub rule: &'static str,
    /// The argument object `C`.
    pub input: Value,
    /// The result object `C'`.
    pub output: Value,
    /// Sub-derivations, in evaluation order.
    pub children: Vec<DerivNode>,
}

impl DerivNode {
    /// Total number of nodes of the tree.
    pub fn node_count(&self) -> u64 {
        1 + self.children.iter().map(|c| c.node_count()).sum::<u64>()
    }

    /// Height of the tree (a single node has height 1). §3: "the height of
    /// the tree depends only on f, not on C".
    pub fn height(&self) -> u64 {
        1 + self.children.iter().map(|c| c.height()).max().unwrap_or(0)
    }

    /// Maximum branching factor (§3: "the width of this tree may depend on
    /// C").
    pub fn max_branching(&self) -> usize {
        self.children.len().max(
            self.children
                .iter()
                .map(|c| c.max_branching())
                .max()
                .unwrap_or(0),
        )
    }

    /// The largest object size occurring in the tree — the §3 complexity,
    /// recomputed from the materialised tree (tests check it against the
    /// streaming statistics).
    pub fn max_object_size(&self) -> u64 {
        let here = self.input.size().max(self.output.size());
        self.children
            .iter()
            .map(|c| c.max_object_size())
            .fold(here, u64::max)
    }

    /// Render the tree with one judgment per line, truncating objects to
    /// `width` characters.
    pub fn render(&self, width: usize) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0, width);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, width: usize) {
        let clip = |v: &Value| {
            let s = v.to_string();
            if s.len() > width {
                let mut end = width;
                while end > 0 && !s.is_char_boundary(end) {
                    end -= 1;
                }
                format!("{}…", &s[..end])
            } else {
                s
            }
        };
        let _ = writeln!(
            out,
            "{}[{}] {} ⇓ {}",
            "  ".repeat(depth),
            self.rule,
            clip(&self.input),
            clip(&self.output),
        );
        for child in &self.children {
            child.render_into(out, depth + 1, width);
        }
    }
}

/// A traced evaluation: the derivation tree (or error) plus §3 statistics
/// identical to what the plain evaluator would report.
#[derive(Debug, Clone)]
pub struct TracedEvaluation {
    /// The derivation tree, or the error that interrupted it.
    pub result: Result<DerivNode, EvalError>,
    /// §3 statistics.
    pub stats: EvalStats,
}

/// Evaluate while materialising the full derivation tree, on a local
/// arena freed on return. Use only on small inputs — the tree holds
/// every intermediate object in resolved (tree) form. Budgets from
/// `config` apply exactly as in [`crate::eager::evaluate`]; the memo
/// and semi-naive switches do not apply (see the module docs).
pub fn evaluate_traced(expr: &Expr, input: &Value, config: &EvalConfig) -> TracedEvaluation {
    let mut va = ValueArena::new();
    let (result, stats) = eager::run(config, &mut va, |ctx, va| {
        let iv = va.intern(input);
        trace_vid(expr, iv, ctx, va)
    });
    TracedEvaluation {
        result: result.map(|(node, _)| node),
        stats,
    }
}

/// One derivation node: the rules of the exact walker
/// ([`crate::eager::evaluate`] under the default configuration),
/// returning the materialised node plus the interned handle of its
/// output (so parents keep evaluating on handles).
fn trace_vid(
    expr: &Expr,
    input: VId,
    ctx: &mut Ctx,
    va: &mut ValueArena,
) -> Result<(DerivNode, VId), EvalError> {
    ctx.node(expr.head_index())?;
    ctx.observe_vid(va, input)?;
    let (output, children) = match expr {
        Expr::Tuple(f, g) => {
            let (a, av) = trace_vid(f, input, ctx, va)?;
            let (b, bv) = trace_vid(g, input, ctx, va)?;
            (va.pair(av, bv), vec![a, b])
        }
        Expr::Map(f) => {
            let items = va.as_set(input).ok_or(EvalError::Stuck {
                rule: "map",
                detail: "input is not a set".into(),
            })?;
            let mut children = Vec::with_capacity(items.len());
            let mut out = Vec::with_capacity(items.len());
            for &item in items.iter() {
                let (child, cv) = trace_vid(f, item, ctx, va)?;
                out.push(cv);
                children.push(child);
            }
            (va.set_from_vec(out), children)
        }
        Expr::Cond(c, then, els) => {
            let (cnode, cv) = trace_vid(c, input, ctx, va)?;
            let (branch, bv) = match va.as_bool(cv) {
                Some(true) => trace_vid(then, input, ctx, va)?,
                Some(false) => trace_vid(els, input, ctx, va)?,
                None => {
                    return Err(EvalError::Stuck {
                        rule: "if",
                        detail: "condition is not boolean".into(),
                    })
                }
            };
            (bv, vec![cnode, branch])
        }
        Expr::Compose(g, f) => {
            let (fnode, fv) = trace_vid(f, input, ctx, va)?;
            let (gnode, gv) = trace_vid(g, fv, ctx, va)?;
            (gv, vec![fnode, gnode])
        }
        Expr::While(f) => {
            let mut children = Vec::new();
            let mut current = input;
            let mut iterations: u64 = 0;
            loop {
                let (child, next) = trace_vid(f, current, ctx, va)?;
                children.push(child);
                iterations += 1;
                ctx.stats.while_iterations += 1;
                if next == current {
                    break;
                }
                if iterations >= ctx.config.max_while_iters {
                    return Err(EvalError::WhileDiverged { iterations });
                }
                current = next;
            }
            (current, children)
        }
        leaf => (apply_leaf_vid(leaf, input, ctx, va)?, Vec::new()),
    };
    ctx.observe_vid(va, output)?;
    let node = DerivNode {
        rule: expr.head_name(),
        input: va.resolve(input),
        output: va.resolve(output),
        children,
    };
    Ok((node, output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eager::evaluate;
    use nra_core::builder::*;

    #[test]
    fn trace_agrees_with_plain_evaluation() {
        let cfg = EvalConfig::default();
        let optimised = EvalConfig::optimised();
        let queries = [
            compose(flatten(), map(sng())),
            nra_core::queries::tc_step(),
            nra_core::queries::tc_while(),
            compose(
                map(nra_core::derived::is_singleton(&nra_core::Type::prod(
                    nra_core::Type::Nat,
                    nra_core::Type::Nat,
                ))),
                powerset(),
            ),
        ];
        for q in &queries {
            for n in 0..4u64 {
                let input = Value::chain(n);
                let plain = evaluate(q, &input, &cfg);
                let traced = evaluate_traced(q, &input, &cfg);
                let tree = traced.result.unwrap();
                assert_eq!(tree.output, plain.result.unwrap());
                assert_eq!(traced.stats, plain.stats, "stats must coincide");
                assert_eq!(tree.node_count(), traced.stats.nodes);
                assert_eq!(tree.max_object_size(), traced.stats.max_object_size);
                // the memo and semi-naive switches leave the exact tree alone
                let exact = evaluate_traced(q, &input, &optimised);
                assert_eq!(exact.result.unwrap(), tree, "{q} n={n}");
                assert_eq!(exact.stats, traced.stats, "{q} n={n}");
            }
        }
    }

    #[test]
    fn height_depends_only_on_the_expression() {
        // §3: height is input-independent (for expressions without
        // while/compose-on-data effects — map children all have equal
        // height because the body is fixed).
        let q = compose(flatten(), map(sng()));
        let h: Vec<u64> = (1..5)
            .map(|n| {
                evaluate_traced(&q, &Value::chain(n), &EvalConfig::default())
                    .result
                    .unwrap()
                    .height()
            })
            .collect();
        assert!(h.windows(2).all(|w| w[0] == w[1]), "{h:?}");
    }

    #[test]
    fn width_depends_on_the_input() {
        let q = map(sng());
        let widths: Vec<usize> = (1..5)
            .map(|n| {
                evaluate_traced(&q, &Value::chain(n), &EvalConfig::default())
                    .result
                    .unwrap()
                    .max_branching()
            })
            .collect();
        assert_eq!(widths, vec![1, 2, 3, 4]);
    }

    #[test]
    fn renders_readably() {
        let q = compose(is_empty(), map(sng()));
        let tree = evaluate_traced(&q, &Value::chain(1), &EvalConfig::default())
            .result
            .unwrap();
        let text = tree.render(40);
        assert!(text.contains("[compose]"));
        assert!(text.contains("[isempty]"));
        assert!(text.lines().count() as u64 == tree.node_count());
    }
}
