//! Structural recognition of the Prop 2.1 self-join over interned
//! expression nodes — the one shape the semi-naive walker fuses.
//!
//! The derived product `cartprod` is monomorphic, so hash-consing gives
//! every occurrence of it the same `EId`; the selection around it is
//! type-parameterised (each element type interns differently), so
//! [`join_shape`] matches its combinator skeleton structurally: the
//! self-join `σ_p ∘ (cartprod ∘ ⟨id, id⟩)`, with `p` a `pand`
//! conjunction of projection equalities `=_N ∘ ⟨π-chain, π-chain⟩`
//! (each possibly under `¬`), at least one of which equates a
//! coordinate of the left element with one of the right, optionally
//! under a trailing projection `map(⟨π-chain, π-chain⟩)`.
//!
//! A match is exact — every leaf of the skeleton is verified. The
//! fused rule in [`crate::eager`] then checks at run time that every
//! coordinate the predicate reads is a `Nat` and that every projection
//! path resolves (its totality gate), and falls back to the ordinary
//! derivation otherwise. Verdicts are memoised per `EId` in a
//! [`JoinCache`], which the cache state clears whenever handles could
//! have been reissued.

use nra_core::expr::intern::{EId, ENode, ExprArena};
use nra_core::expr::Expr;
use nra_core::value::intern::{FxBuildHasher, VId, ValueArena};
use std::collections::HashMap;
use std::sync::Arc;

/// Memoised join-recognition verdicts: `EId` → the recognised
/// [`JoinShape`], `None` for a non-match. Owned by the walker's cache
/// state and cleared with it.
pub(crate) type JoinCache = HashMap<EId, Option<Arc<JoinShape>>, FxBuildHasher>;

/// Is `eid` the given non-recursive primitive?
fn leaf_is(exprs: &ExprArena, eid: EId, expr: &Expr) -> bool {
    matches!(exprs.node_ref(eid), ENode::Leaf(l) if **l == *expr)
}

/// `true ∘ !` / `false ∘ !` — the constant booleans at any domain.
fn is_always(exprs: &ExprArena, eid: EId, value: bool) -> bool {
    let ENode::Compose(g, f) = *exprs.node_ref(eid) else {
        return false;
    };
    let konst = if value {
        Expr::ConstTrue
    } else {
        Expr::ConstFalse
    };
    leaf_is(exprs, g, &konst) && leaf_is(exprs, f, &Expr::Bang)
}

/// `¬ = if id then false else true`.
fn is_not(exprs: &ExprArena, eid: EId) -> bool {
    let ENode::Cond(c, t, e) = *exprs.node_ref(eid) else {
        return false;
    };
    leaf_is(exprs, c, &Expr::Id) && is_always(exprs, t, false) && is_always(exprs, e, true)
}

/// `∧ = if π₁ then π₂ else false` — the strict-left conjunction `pand`
/// builds on.
fn is_and2(exprs: &ExprArena, eid: EId) -> bool {
    let ENode::Cond(c, t, e) = *exprs.node_ref(eid) else {
        return false;
    };
    leaf_is(exprs, c, &Expr::Fst) && leaf_is(exprs, t, &Expr::Snd) && is_always(exprs, e, false)
}

/// `σ_p = μ ∘ map(if p then η else ∅ˢ ∘ !)` — returns the predicate.
fn select_shape(exprs: &ExprArena, eid: EId) -> Option<EId> {
    let ENode::Compose(g, f) = *exprs.node_ref(eid) else {
        return None;
    };
    if !leaf_is(exprs, g, &Expr::Flatten) {
        return None;
    }
    let ENode::Map(b) = *exprs.node_ref(f) else {
        return None;
    };
    let ENode::Cond(p, t, e) = *exprs.node_ref(b) else {
        return None;
    };
    if !leaf_is(exprs, t, &Expr::Sng) {
        return None;
    }
    let ENode::Compose(es, bg) = *exprs.node_ref(e) else {
        return None;
    };
    let ENode::Leaf(ref el) = *exprs.node_ref(es) else {
        return None;
    };
    (matches!(**el, Expr::EmptySet(_)) && leaf_is(exprs, bg, &Expr::Bang)).then_some(p)
}

/// A chain of pair projections, innermost step first: `false` = `π₁`
/// (`fst`), `true` = `π₂` (`snd`). `compose(snd, fst)` is `[false,
/// true]` — apply `fst`, then `snd`.
pub(crate) type ProjPath = Vec<bool>;

/// Walk a candidate projection chain (`fst`/`snd`/`id` leaves glued by
/// `compose`) into its [`ProjPath`], or `None` if any other head
/// occurs.
fn proj_path(eid: EId, exprs: &ExprArena, out: &mut ProjPath) -> Option<()> {
    match exprs.node_ref(eid) {
        ENode::Leaf(leaf) => match **leaf {
            Expr::Fst => {
                out.push(false);
                Some(())
            }
            Expr::Snd => {
                out.push(true);
                Some(())
            }
            Expr::Id => Some(()),
            _ => None,
        },
        // g ∘ f applies f first
        ENode::Compose(g, f) => {
            proj_path(*f, exprs, out)?;
            proj_path(*g, exprs, out)
        }
        _ => None,
    }
}

/// Apply a [`ProjPath`] to a value by direct arena reads. `None` when a
/// non-pair shows up mid-chain (the caller falls back to the ordinary
/// derivation, which reports the proper stuck state).
pub(crate) fn apply_proj(a: &ValueArena, mut v: VId, path: &[bool]) -> Option<VId> {
    for &snd in path {
        let (x, y) = a.as_pair(v)?;
        v = if snd { y } else { x };
    }
    Some(v)
}

/// One coordinate a join predicate or projection reads off a product
/// element `(x, y)`: the element (`right = false` for `x`) and the
/// projection path inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Coord {
    pub(crate) right: bool,
    pub(crate) path: ProjPath,
}

impl Coord {
    /// Read the coordinate off the pair `(x, y)`.
    pub(crate) fn read(&self, va: &ValueArena, x: VId, y: VId) -> Option<VId> {
        apply_proj(va, if self.right { y } else { x }, &self.path)
    }

    /// Recognise a π-chain over a product element as a coordinate: its
    /// first step picks the element, the rest is the path inside it.
    fn of(eid: EId, exprs: &ExprArena) -> Option<Coord> {
        let mut path = ProjPath::new();
        proj_path(eid, exprs, &mut path)?;
        let (&right, inner) = path.split_first()?;
        Some(Coord {
            right,
            path: inner.to_vec(),
        })
    }
}

/// One conjunct of a join predicate: `=_N ∘ ⟨lhs, rhs⟩`, or its
/// negation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JoinTest {
    pub(crate) lhs: Coord,
    pub(crate) rhs: Coord,
    pub(crate) negated: bool,
}

/// A recognised Prop 2.1 self-join `σ_p ∘ (cartprod ∘ ⟨id, id⟩)`,
/// possibly under a trailing projection `map(⟨c₁, c₂⟩)`: the hash key —
/// the first un-negated conjunct equating a coordinate of the left
/// element with one of the right — the remaining conjuncts, every
/// in-element path the predicate reads, and the projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JoinShape {
    /// Path of the key coordinate inside the left element `x`.
    pub(crate) left_key: ProjPath,
    /// Path of the key coordinate inside the right element `y`.
    pub(crate) right_key: ProjPath,
    /// The other conjuncts, checked per key match.
    pub(crate) residual: Vec<JoinTest>,
    /// Every distinct path any conjunct reads inside an element. Each
    /// element of `R` meets every other on both sides of `R × R`, so
    /// the derived predicate is total on `R × R` iff each of these
    /// reaches a `Nat` on every element of `R`.
    pub(crate) reads: Vec<ProjPath>,
    /// The trailing projection `map(⟨c₁, c₂⟩)`: each match `(x, y)`
    /// yields `(c₁(x, y), c₂(x, y))` instead of itself. `None` for a
    /// bare join.
    pub(crate) project: Option<[Coord; 2]>,
}

/// Flatten a `pand` tree of projection equalities, each possibly under
/// `¬`, into `out`; `None` if any leaf has another shape.
fn conjuncts(p: EId, exprs: &ExprArena, out: &mut Vec<JoinTest>) -> Option<()> {
    let ENode::Compose(g, f) = *exprs.node_ref(p) else {
        return None;
    };
    // pand(a, b) = ∧ ∘ ⟨a, b⟩
    if is_and2(exprs, g) {
        let ENode::Tuple(a, b) = *exprs.node_ref(f) else {
            return None;
        };
        conjuncts(a, exprs, out)?;
        return conjuncts(b, exprs, out);
    }
    let (negated, eq) = if is_not(exprs, g) {
        (true, f)
    } else {
        (false, p)
    };
    let ENode::Compose(eq_nat, args) = *exprs.node_ref(eq) else {
        return None;
    };
    let ENode::Tuple(a, b) = *exprs.node_ref(args) else {
        return None;
    };
    if !leaf_is(exprs, eq_nat, &Expr::EqNat) {
        return None;
    }
    out.push(JoinTest {
        lhs: Coord::of(a, exprs)?,
        rhs: Coord::of(b, exprs)?,
        negated,
    });
    Some(())
}

/// Is `eid` the Prop 2.1 self-join `σ_p ∘ (cartprod ∘ ⟨id, id⟩)` —
/// `cartprod` being the interned handle of the derived product — with
/// a predicate [`JoinShape`] can evaluate, or such a join (itself
/// unprojected) under a trailing projection `map(⟨c₁, c₂⟩)` with each
/// `cᵢ` a π-chain into the left or the right element? This is the join
/// inside relational composition `map(⟨a, d⟩) ∘ σ_{b=c}(R × R)`,
/// `tc_step`, `tc_while`'s body and the siblings queries.
pub(crate) fn join_shape(
    eid: EId,
    cartprod: EId,
    exprs: &ExprArena,
    caches: &mut JoinCache,
) -> Option<Arc<JoinShape>> {
    if let Some(verdict) = caches.get(&eid) {
        return verdict.clone();
    }
    let verdict = (|| {
        let ENode::Compose(sel, product) = *exprs.node_ref(eid) else {
            return None;
        };
        if let ENode::Map(body) = *exprs.node_ref(sel) {
            let ENode::Tuple(c1, c2) = *exprs.node_ref(body) else {
                return None;
            };
            let project = [Coord::of(c1, exprs)?, Coord::of(c2, exprs)?];
            // the coordinates read the matched pair `(x, y)`, so the
            // inner join must be bare: over a projected join they
            // would read its projection, not the match
            let bare = join_shape(product, cartprod, exprs, caches)
                .filter(|inner| inner.project.is_none())?;
            return Some(Arc::new(JoinShape {
                project: Some(project),
                ..JoinShape::clone(&bare)
            }));
        }
        let ENode::Compose(cp, dup) = *exprs.node_ref(product) else {
            return None;
        };
        let ENode::Tuple(l, r) = *exprs.node_ref(dup) else {
            return None;
        };
        if cp != cartprod || !leaf_is(exprs, l, &Expr::Id) || !leaf_is(exprs, r, &Expr::Id) {
            return None;
        }
        let mut residual = Vec::new();
        conjuncts(select_shape(exprs, sel)?, exprs, &mut residual)?;
        let key = residual
            .iter()
            .position(|t| !t.negated && t.lhs.right != t.rhs.right)?;
        let key = residual.remove(key);
        let (left, right) = if key.lhs.right {
            (key.rhs, key.lhs)
        } else {
            (key.lhs, key.rhs)
        };
        let mut reads = vec![left.path.clone(), right.path.clone()];
        for t in &residual {
            reads.push(t.lhs.path.clone());
            reads.push(t.rhs.path.clone());
        }
        reads.sort();
        reads.dedup();
        Some(Arc::new(JoinShape {
            left_key: left.path,
            right_key: right.path,
            residual,
            reads,
            project: None,
        }))
    })();
    caches.insert(eid, verdict.clone());
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::builder::*;
    use nra_core::derived;
    use nra_core::types::Type;

    #[test]
    fn join_matches_self_joins_over_projection_equalities() {
        let edge = Type::prod(Type::Nat, Type::Nat);
        let pair_ty = Type::prod(edge.clone(), edge);
        // coordinates of an edge pair ((a,b),(c,d))
        let a = || compose(fst(), fst());
        let b = || compose(snd(), fst());
        let c = || compose(fst(), snd());
        let d = || compose(snd(), snd());
        let eq = |x: Expr, y: Expr| compose(eq_nat(), tuple(x, y));
        let join = |p: Expr| compose(derived::select(p, pair_ty.clone()), derived::self_product());
        let shape = |e: &Expr| {
            let mut arena = ExprArena::new();
            let cartprod = arena.intern(&derived::cartprod());
            let eid = arena.intern(e);
            join_shape(eid, cartprod, &arena, &mut JoinCache::default())
        };
        // composition: b = c, written either way round
        for p in [eq(b(), c()), eq(c(), b())] {
            let s = shape(&join(p)).expect("composition join");
            assert_eq!(
                (s.left_key.as_slice(), s.right_key.as_slice()),
                (&[true][..], &[false][..])
            );
            assert!(s.residual.is_empty());
            assert_eq!(s.reads, vec![vec![false], vec![true]]);
        }
        // siblings: b = d ∧ a ≠ c — the negated conjunct is residual
        let s = shape(&join(derived::pand(
            eq(b(), d()),
            derived::pnot(eq(a(), c())),
        )))
        .expect("siblings join");
        assert_eq!(
            (s.left_key.as_slice(), s.right_key.as_slice()),
            (&[true][..], &[true][..])
        );
        assert_eq!(s.residual.len(), 1);
        assert!(s.residual[0].negated);
        // composition's trailing projection map(⟨a, d⟩) rides along
        let s = shape(&compose(map(tuple(a(), d())), join(eq(b(), c())))).expect("projected");
        assert_eq!((s.left_key.as_slice(), s.residual.len()), (&[true][..], 0));
        let coord = |right, path: &[bool]| Coord {
            right,
            path: path.to_vec(),
        };
        assert_eq!(
            s.project,
            Some([coord(false, &[false]), coord(true, &[true])])
        );
        // near-misses: no cross-element key, a negated key only, a
        // non-equality predicate, a product that is not a self-product,
        // a projection that is not a pair of π-chains into the elements,
        // a projection over a join that is not recognised, a projection
        // over a projected join (the converse of composition)
        let swap = || map(tuple(snd(), fst()));
        for e in [
            join(eq(a(), b())),
            join(derived::pnot(eq(b(), c()))),
            join(always_true()),
            compose(
                derived::select(eq(b(), c()), pair_ty.clone()),
                compose(derived::cartprod(), tuple(id(), fst())),
            ),
            compose(map(tuple(id(), d())), join(eq(b(), c()))),
            compose(map(a()), join(eq(b(), c()))),
            compose(map(tuple(a(), d())), join(eq(a(), b()))),
            compose(swap(), compose(map(tuple(a(), d())), join(eq(b(), c())))),
        ] {
            assert_eq!(shape(&e), None, "{e}");
        }
    }
}
