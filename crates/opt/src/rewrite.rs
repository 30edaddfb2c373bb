//! The rescue pass: one bottom-up substitution over the hash-consed
//! [`ExprArena`] DAG.
//!
//! The rescue table holds the paper's two powerset-route idioms, each
//! paired with the polynomial route that computes the same query. Per
//! [`optimise`] invocation both sides of every pair are interned into
//! the target arena, so recognising an idiom anywhere in the DAG is a
//! single `EId` comparison. The walk visits each node once, children
//! first, memoising `EId → EId` so shared subterms are rewritten once;
//! a node rebuilt from its rewritten children whose handle equals an
//! idiom's is replaced by the replacement's handle. The check runs on
//! the *rebuilt* node because an idiom can contain a replacement
//! (`siblings_powerset` contains `siblings_direct`). No replacement
//! contains an idiom, so one walk is a fixpoint. A rescued query is
//! kept only when its space rank as a whole does not worsen (see
//! [`crate::cost`]); otherwise the query comes back unchanged.
//!
//! Unchanged nodes keep their `EId`s, so a query without an idiom comes
//! back as the *same* handle — callers (the eval session, the serving
//! door) use `rewritten != original` as the "a rescue fired" signal
//! without any extra bookkeeping.

use crate::cost::{improves, no_worse};
use nra_core::expr::intern::ENode;
use nra_core::{builder, queries, EId, Expr, ExprArena};
use std::collections::HashMap;
use std::sync::OnceLock;

/// One rescue: a powerset-route idiom and its polynomial replacement.
#[derive(Debug)]
pub struct Rescue {
    /// Human-readable name, cited in reports and test failures.
    pub name: &'static str,
    /// The powerset-route idiom, certified exponential (Theorem 4.1).
    pub idiom: Expr,
    /// The polynomial route computing the same query.
    pub replacement: Expr,
}

/// Every rescue pair, before the cost gate. Adding a rescue means
/// appending a pair here; the table test then checks it.
fn pairs() -> Vec<Rescue> {
    vec![
        Rescue {
            name: "tc_paths → tc_while",
            idiom: queries::tc_paths(),
            replacement: queries::tc_while(),
        },
        Rescue {
            name: "siblings_powerset → siblings_direct",
            idiom: queries::siblings_powerset(),
            replacement: queries::siblings_direct(),
        },
    ]
}

/// The rescue table: the pairs whose replacement strictly lowers the
/// space rank, gated once per process.
pub fn rescues() -> &'static [Rescue] {
    static TABLE: OnceLock<Vec<Rescue>> = OnceLock::new();
    TABLE.get_or_init(|| {
        pairs()
            .into_iter()
            .filter(|r| improves(&r.idiom, &r.replacement))
            .collect()
    })
}

/// Rescue every powerset-route idiom in the DAG rooted at `root`.
/// Returns `root` itself when no idiom occurs, or when rescuing would
/// worsen the space rank of the query as a whole.
pub fn optimise(ea: &mut ExprArena, root: EId) -> EId {
    let table: Vec<(EId, EId)> = rescues()
        .iter()
        .map(|r| (ea.intern(&r.idiom), ea.intern(&r.replacement)))
        .collect();
    let out = walk(ea, &table, root, &mut HashMap::new());
    if out == root || no_worse(&ea.resolve(root), &ea.resolve(out)) {
        out
    } else {
        root
    }
}

fn walk(ea: &mut ExprArena, table: &[(EId, EId)], eid: EId, memo: &mut HashMap<EId, EId>) -> EId {
    if let Some(&done) = memo.get(&eid) {
        return done;
    }
    let node = match ea.node(eid) {
        ENode::Leaf(e) => ENode::Leaf(e),
        ENode::Map(f) => ENode::Map(walk(ea, table, f, memo)),
        ENode::While(f) => ENode::While(walk(ea, table, f, memo)),
        ENode::Tuple(a, b) => {
            let a = walk(ea, table, a, memo);
            ENode::Tuple(a, walk(ea, table, b, memo))
        }
        ENode::Compose(g, f) => {
            let g = walk(ea, table, g, memo);
            ENode::Compose(g, walk(ea, table, f, memo))
        }
        ENode::Cond(c, t, e) => {
            let c = walk(ea, table, c, memo);
            let t = walk(ea, table, t, memo);
            ENode::Cond(c, t, walk(ea, table, e, memo))
        }
    };
    let rebuilt = rebuild(ea, eid, node);
    let out = table
        .iter()
        .find(|&&(idiom, _)| idiom == rebuilt)
        .map_or(rebuilt, |&(_, replacement)| replacement);
    memo.insert(eid, out);
    out
}

/// The handle of `node`: `eid` itself when the children are unchanged.
fn rebuild(ea: &mut ExprArena, eid: EId, node: ENode) -> EId {
    if ea.node(eid) == node {
        return eid;
    }
    let e = match node {
        ENode::Leaf(_) => return eid,
        ENode::Map(f) => builder::map(ea.resolve(f)),
        ENode::While(f) => builder::while_fix(ea.resolve(f)),
        ENode::Tuple(a, b) => builder::tuple(ea.resolve(a), ea.resolve(b)),
        ENode::Compose(g, f) => builder::compose(ea.resolve(g), ea.resolve(f)),
        ENode::Cond(c, t, e) => builder::cond(ea.resolve(c), ea.resolve(t), ea.resolve(e)),
    };
    ea.intern(&e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::rank;
    use nra_symbolic::classify_space;

    fn opt(e: &Expr) -> Expr {
        let mut ea = ExprArena::new();
        let root = ea.intern(e);
        let out = optimise(&mut ea, root);
        ea.resolve(out)
    }

    /// Every handle reachable from `root`.
    fn dag(ea: &ExprArena, root: EId, seen: &mut Vec<EId>) {
        if seen.contains(&root) {
            return;
        }
        seen.push(root);
        match ea.node(root) {
            ENode::Leaf(_) => {}
            ENode::Map(f) | ENode::While(f) => dag(ea, f, seen),
            ENode::Tuple(a, b) | ENode::Compose(a, b) => {
                dag(ea, a, seen);
                dag(ea, b, seen);
            }
            ENode::Cond(c, t, e) => {
                dag(ea, c, seen);
                dag(ea, t, seen);
                dag(ea, e, seen);
            }
        }
    }

    #[test]
    fn rescue_table_is_gated_closed_and_no_taller() {
        assert_eq!(
            rescues().len(),
            pairs().len(),
            "every rescue must strictly lower the space rank"
        );
        let mut ea = ExprArena::new();
        let handles: Vec<(EId, EId)> = rescues()
            .iter()
            .map(|r| (ea.intern(&r.idiom), ea.intern(&r.replacement)))
            .collect();
        for (r, &(idiom, replacement)) in rescues().iter().zip(&handles) {
            assert!(
                rank(&classify_space(&r.replacement)) < rank(&classify_space(&r.idiom)),
                "{}: no strict rank drop",
                r.name
            );
            let mut reachable = Vec::new();
            dag(&ea, replacement, &mut reachable);
            for &(other, _) in &handles {
                assert!(
                    !reachable.contains(&other),
                    "{}: the replacement contains a powerset-route idiom",
                    r.name
                );
            }
            assert!(
                ea.height(replacement) <= ea.height(idiom),
                "{}: replacement height {} exceeds the idiom's {}",
                r.name,
                ea.height(replacement),
                ea.height(idiom)
            );
        }
    }

    #[test]
    fn powerset_route_tc_is_rescued_at_the_root() {
        assert_eq!(opt(&queries::tc_paths()), queries::tc_while());
    }

    #[test]
    fn nested_powerset_route_is_rescued_inside_its_context() {
        let wrapped = builder::compose(queries::tc_paths(), builder::id());
        assert_eq!(
            opt(&wrapped),
            builder::compose(queries::tc_while(), builder::id())
        );
    }

    #[test]
    fn siblings_powerset_route_is_rescued() {
        assert_eq!(
            opt(&queries::siblings_powerset()),
            queries::siblings_direct()
        );
    }

    #[test]
    fn untouched_queries_keep_their_eid() {
        let mut ea = ExprArena::new();
        let root = ea.intern(&queries::tc_while());
        assert_eq!(
            optimise(&mut ea, root),
            root,
            "no rescue fired, same handle must come back"
        );
    }

    #[test]
    fn rescue_that_worsens_the_query_rank_is_refused() {
        // powerset over the closure: certified exponential as written,
        // unanalyzed once the closure runs through `while`
        let e = builder::compose(builder::powerset(), queries::tc_paths());
        assert_eq!(opt(&e), e);
    }

    #[test]
    fn rewrite_does_not_worsen_space_class() {
        // powerset over a `while`-route body: Unanalyzed — the pass
        // must leave it alone rather than risk a class regression
        let e = builder::compose(queries::tc_while(), builder::powerset());
        let before = classify_space(&e);
        let after = classify_space(&opt(&e));
        assert!(rank(&after) <= rank(&before), "{before:?} -> {after:?}");
    }
}
