//! Structural recognition of the *type-parameterised* Prop 2.1 derived
//! shapes over interned expression nodes.
//!
//! The monomorphic derived terms (`cartprod`, `unnest`) are recognised by
//! handle equality: hash-consing gives every occurrence the same `EId`.
//! Equality-at-a-type, membership, inclusion and `nest` cannot be — each
//! type instantiation interns to a different handle — so the semi-naive
//! walker matches their combinator skeletons structurally instead:
//!
//! * `eq_at(t)` — the type-directed grammar of [`nra_core::derived::eq_at`]
//!   (`=_N`; constantly-true at `unit`; the biconditional at `B`;
//!   componentwise at products; antisymmetric inclusion at sets);
//! * `member(t) = ¬empty ∘ σ_{=ₜ} ∘ ρ₂`;
//! * `subset(t) = empty ∘ σ_{¬∈} ∘ ρ₁`;
//! * `nest(s,t) = map(⟨π₁, image⟩) ∘ ρ₁ ∘ ⟨map(π₁), id⟩`;
//! * the self-join `σ_p ∘ (cartprod ∘ ⟨id, id⟩)`, with `p` a `pand`
//!   conjunction of projection equalities `=_N ∘ ⟨π-chain, π-chain⟩`
//!   (each possibly under `¬`), at least one of which equates a
//!   coordinate of the left element with one of the right, optionally
//!   under a trailing projection `map(⟨π-chain, π-chain⟩)` — see
//!   [`join_shape`].
//!
//! A match is exact — every leaf of the skeleton is verified — and the
//! matchers return the **type the skeleton witnesses** (`eq_at`'s
//! grammar is type-directed, so the term determines it uniquely). The
//! fused rules in [`crate::eager`] are then free to run the direct
//! arena operation (binary-search membership, merge-scan inclusion,
//! one-pass grouping) — but only after [`value_conforms`] confirms the
//! *runtime* input fits that type: on ill-typed inputs the derived
//! terms have observable behaviour of their own (`=ₜ` gets stuck on a
//! shape mismatch; `=_unit` is constantly true on *anything*), and the
//! bit-for-bit contract requires falling back to the ordinary
//! derivation there. Verdicts are memoised per `EId` (and conformance
//! per `(EId, VId)`) in [`ShapeCaches`], which the cache state
//! invalidates whenever handles could have been reissued.

use nra_core::expr::intern::{EId, ENode, ExprArena};
use nra_core::expr::Expr;
use nra_core::types::Type;
use nra_core::value::intern::{FxBuildHasher, VId, ValueArena};
use std::collections::HashMap;
use std::sync::Arc;

/// Memoised recognition verdicts (`EId` → the witnessed type, `None`
/// for a non-match) plus per-`(shape, value)` conformance verdicts.
/// Owned by the walker's cache state and cleared with it.
#[derive(Default)]
pub(crate) struct ShapeCaches {
    eq_ats: HashMap<EId, Option<Type>, FxBuildHasher>,
    members: HashMap<EId, Option<Type>, FxBuildHasher>,
    subsets: HashMap<EId, Option<Type>, FxBuildHasher>,
    nests: HashMap<EId, Option<Type>, FxBuildHasher>,
    joins: HashMap<EId, Option<Arc<JoinShape>>, FxBuildHasher>,
    /// Conformance verdicts for the fused rules' runtime gate, keyed
    /// `(shape EId, value VId)` — the type is fixed per shape, and
    /// hash-consing makes the per-element checks of a growing set
    /// amortise to its fresh elements.
    conforms: HashMap<(EId, VId), bool, FxBuildHasher>,
}

impl ShapeCaches {
    /// Forget every verdict (the handles backing them may be stale).
    pub(crate) fn clear(&mut self) {
        self.eq_ats.clear();
        self.members.clear();
        self.subsets.clear();
        self.nests.clear();
        self.joins.clear();
        self.conforms.clear();
    }
}

/// Does the interned value structurally conform to `t`? Exactly the
/// judgement under which the derived `=ₜ` is total *and* coincides with
/// structural (= handle) equality.
pub(crate) fn value_conforms(va: &ValueArena, v: VId, t: &Type) -> bool {
    match t {
        Type::Unit => va.is_unit(v),
        Type::Bool => va.as_bool(v).is_some(),
        Type::Nat => va.as_nat(v).is_some(),
        Type::Prod(a, b) => match va.as_pair(v) {
            Some((x, y)) => value_conforms(va, x, a) && value_conforms(va, y, b),
            None => false,
        },
        Type::Set(elem) => match va.as_set(v) {
            Some(items) => items.iter().all(|&item| value_conforms(va, item, elem)),
            None => false,
        },
    }
}

/// [`value_conforms`] memoised per `(shape, value)` — `eid` must be the
/// shape whose witnessed type `t` is (the cache key stands in for the
/// type).
pub(crate) fn conforms_cached(
    caches: &mut ShapeCaches,
    va: &ValueArena,
    eid: EId,
    v: VId,
    t: &Type,
) -> bool {
    if let Some(&verdict) = caches.conforms.get(&(eid, v)) {
        return verdict;
    }
    let verdict = value_conforms(va, v, t);
    caches.conforms.insert((eid, v), verdict);
    verdict
}

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

/// `nonempty = ¬ ∘ empty`.
fn is_nonempty(exprs: &ExprArena, eid: EId) -> bool {
    let ENode::Compose(g, f) = *exprs.node_ref(eid) else {
        return false;
    };
    is_not(exprs, g) && leaf_is(exprs, f, &Expr::IsEmpty)
}

/// `swap = ⟨π₂, π₁⟩`.
fn is_swap(exprs: &ExprArena, eid: EId) -> bool {
    let ENode::Tuple(a, b) = *exprs.node_ref(eid) else {
        return false;
    };
    leaf_is(exprs, a, &Expr::Snd) && leaf_is(exprs, b, &Expr::Fst)
}

/// `ρ₁ = map(swap) ∘ ρ₂ ∘ swap`.
fn is_rho1(exprs: &ExprArena, eid: EId) -> bool {
    let ENode::Compose(g, f) = *exprs.node_ref(eid) else {
        return false;
    };
    let ENode::Map(sw) = *exprs.node_ref(g) else {
        return false;
    };
    if !is_swap(exprs, sw) {
        return false;
    }
    let ENode::Compose(pw, sw2) = *exprs.node_ref(f) else {
        return false;
    };
    leaf_is(exprs, pw, &Expr::PairWith) && is_swap(exprs, sw2)
}

/// `σ_p = μ ∘ map(if p then η else ∅ˢ ∘ !)` — returns the predicate.
pub(crate) fn select_shape(exprs: &ExprArena, eid: EId) -> Option<EId> {
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
pub(crate) fn proj_path(eid: EId, exprs: &ExprArena, out: &mut ProjPath) -> Option<()> {
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
    caches: &mut ShapeCaches,
) -> Option<Arc<JoinShape>> {
    if let Some(verdict) = caches.joins.get(&eid) {
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
    caches.joins.insert(eid, verdict.clone());
    verdict
}

/// `⟨πₒ ∘ π₁, πₒ ∘ π₂⟩` with `πₒ = π₁` (`second = false`, the left
/// components of a pair of pairs) or `πₒ = π₂` (the right components) —
/// the coordinate re-wiring of componentwise equality at products.
fn is_proj_tuple(exprs: &ExprArena, eid: EId, second: bool) -> bool {
    let outer = if second { Expr::Snd } else { Expr::Fst };
    let ENode::Tuple(x, y) = *exprs.node_ref(eid) else {
        return false;
    };
    let left = matches!(*exprs.node_ref(x), ENode::Compose(g, f)
        if leaf_is(exprs, g, &outer) && leaf_is(exprs, f, &Expr::Fst));
    let right = matches!(*exprs.node_ref(y), ENode::Compose(g, f)
        if leaf_is(exprs, g, &outer) && leaf_is(exprs, f, &Expr::Snd));
    left && right
}

/// Is `eid` the Prop 2.1 equality `=ₜ`? Returns the witnessed `t` —
/// the type-directed grammar determines it uniquely, and the fused
/// rules need it for their runtime conformance gate.
pub(crate) fn eq_at_type(eid: EId, exprs: &ExprArena, caches: &mut ShapeCaches) -> Option<Type> {
    if let Some(verdict) = caches.eq_ats.get(&eid) {
        return verdict.clone();
    }
    let verdict = compute_eq_at(eid, exprs, caches);
    caches.eq_ats.insert(eid, verdict.clone());
    verdict
}

fn compute_eq_at(eid: EId, exprs: &ExprArena, caches: &mut ShapeCaches) -> Option<Type> {
    match exprs.node_ref(eid) {
        // =_N, the primitive
        ENode::Leaf(l) if **l == Expr::EqNat => Some(Type::Nat),
        // =_B = if π₁ then π₂ else ¬π₂
        ENode::Cond(c, t, e) => (leaf_is(exprs, *c, &Expr::Fst)
            && leaf_is(exprs, *t, &Expr::Snd)
            && matches!(*exprs.node_ref(*e), ENode::Compose(n, s)
                    if is_not(exprs, n) && leaf_is(exprs, s, &Expr::Snd)))
        .then_some(Type::Bool),
        ENode::Compose(g, f) => {
            // =_unit = true ∘ !
            if leaf_is(exprs, *g, &Expr::ConstTrue) && leaf_is(exprs, *f, &Expr::Bang) {
                return Some(Type::Unit);
            }
            // the two pand cases: ∧ ∘ ⟨p, q⟩
            if !is_and2(exprs, *g) {
                return None;
            }
            let ENode::Tuple(p, q) = *exprs.node_ref(*f) else {
                return None;
            };
            // =_{s×t}: componentwise
            if let (ENode::Compose(ea, pa), ENode::Compose(eb, pb)) =
                (exprs.node_ref(p), exprs.node_ref(q))
            {
                if is_proj_tuple(exprs, *pa, false) && is_proj_tuple(exprs, *pb, true) {
                    if let (Some(ta), Some(tb)) = (
                        eq_at_type(*ea, exprs, caches),
                        eq_at_type(*eb, exprs, caches),
                    ) {
                        return Some(Type::prod(ta, tb));
                    }
                }
            }
            // =_{ {t} }: ⊆ ∧ ⊇
            if let Some(elem) = subset_elem_type(p, exprs, caches) {
                if let ENode::Compose(sub, sw) = *exprs.node_ref(q) {
                    if is_swap(exprs, sw)
                        && subset_elem_type(sub, exprs, caches) == Some(elem.clone())
                    {
                        return Some(Type::set(elem));
                    }
                }
            }
            None
        }
        _ => None,
    }
}

/// Is `eid` the Prop 2.1 membership `∈ = ¬empty ∘ σ_{=ₜ} ∘ ρ₂`?
/// Returns the witnessed element type `t`.
pub(crate) fn member_elem_type(
    eid: EId,
    exprs: &ExprArena,
    caches: &mut ShapeCaches,
) -> Option<Type> {
    if let Some(verdict) = caches.members.get(&eid) {
        return verdict.clone();
    }
    let verdict = (|| {
        let ENode::Compose(g, f) = *exprs.node_ref(eid) else {
            return None;
        };
        if !is_nonempty(exprs, g) {
            return None;
        }
        let ENode::Compose(sel, pw) = *exprs.node_ref(f) else {
            return None;
        };
        if !leaf_is(exprs, pw, &Expr::PairWith) {
            return None;
        }
        eq_at_type(select_shape(exprs, sel)?, exprs, caches)
    })();
    caches.members.insert(eid, verdict.clone());
    verdict
}

/// Is `eid` the Prop 2.1 inclusion `⊆ = empty ∘ σ_{¬∈} ∘ ρ₁`? Returns
/// the witnessed element type `t`.
pub(crate) fn subset_elem_type(
    eid: EId,
    exprs: &ExprArena,
    caches: &mut ShapeCaches,
) -> Option<Type> {
    if let Some(verdict) = caches.subsets.get(&eid) {
        return verdict.clone();
    }
    let verdict = (|| {
        let ENode::Compose(g, f) = *exprs.node_ref(eid) else {
            return None;
        };
        if !leaf_is(exprs, g, &Expr::IsEmpty) {
            return None;
        }
        let ENode::Compose(sel, r1) = *exprs.node_ref(f) else {
            return None;
        };
        if !is_rho1(exprs, r1) {
            return None;
        }
        let pred = select_shape(exprs, sel)?;
        // ¬∈ = ¬ ∘ member
        let ENode::Compose(n, m) = *exprs.node_ref(pred) else {
            return None;
        };
        if !is_not(exprs, n) {
            return None;
        }
        member_elem_type(m, exprs, caches)
    })();
    caches.subsets.insert(eid, verdict.clone());
    verdict
}

/// Is `eid` the Prop 2.1 grouping
/// `nest = map(⟨π₁, image⟩) ∘ ρ₁ ∘ ⟨map(π₁), id⟩`, with
/// `image = map(π₂ ∘ π₂) ∘ σ_{same key} ∘ ρ₂` and
/// `same key = =ₛ ∘ ⟨π₁, π₁ ∘ π₂⟩`? Returns the witnessed key type `s`.
pub(crate) fn nest_key_type(eid: EId, exprs: &ExprArena, caches: &mut ShapeCaches) -> Option<Type> {
    if let Some(verdict) = caches.nests.get(&eid) {
        return verdict.clone();
    }
    let verdict = (|| {
        let ENode::Compose(g, f) = *exprs.node_ref(eid) else {
            return None;
        };
        // head: map(⟨π₁, image⟩)
        let ENode::Map(body) = *exprs.node_ref(g) else {
            return None;
        };
        let ENode::Tuple(first, image) = *exprs.node_ref(body) else {
            return None;
        };
        if !leaf_is(exprs, first, &Expr::Fst) {
            return None;
        }
        // image = map(π₂ ∘ π₂) ∘ (σ_{same key} ∘ ρ₂)
        let ENode::Compose(mp, inner) = *exprs.node_ref(image) else {
            return None;
        };
        let ENode::Map(sndsnd) = *exprs.node_ref(mp) else {
            return None;
        };
        if !matches!(*exprs.node_ref(sndsnd), ENode::Compose(a, b)
            if leaf_is(exprs, a, &Expr::Snd) && leaf_is(exprs, b, &Expr::Snd))
        {
            return None;
        }
        let ENode::Compose(sel, pw) = *exprs.node_ref(inner) else {
            return None;
        };
        if !leaf_is(exprs, pw, &Expr::PairWith) {
            return None;
        }
        let same_key = select_shape(exprs, sel)?;
        let ENode::Compose(eq, keyproj) = *exprs.node_ref(same_key) else {
            return None;
        };
        let key_type = eq_at_type(eq, exprs, caches)?;
        let ENode::Tuple(k1, k2) = *exprs.node_ref(keyproj) else {
            return None;
        };
        if !leaf_is(exprs, k1, &Expr::Fst) {
            return None;
        }
        if !matches!(*exprs.node_ref(k2), ENode::Compose(a, b)
            if leaf_is(exprs, a, &Expr::Fst) && leaf_is(exprs, b, &Expr::Snd))
        {
            return None;
        }
        // tail: ρ₁ ∘ ⟨map(π₁), id⟩
        let ENode::Compose(r1, t) = *exprs.node_ref(f) else {
            return None;
        };
        if !is_rho1(exprs, r1) {
            return None;
        }
        let ENode::Tuple(mf, idl) = *exprs.node_ref(t) else {
            return None;
        };
        let ENode::Map(ff) = *exprs.node_ref(mf) else {
            return None;
        };
        (leaf_is(exprs, ff, &Expr::Fst) && leaf_is(exprs, idl, &Expr::Id)).then_some(key_type)
    })();
    caches.nests.insert(eid, verdict.clone());
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::builder::*;
    use nra_core::derived;
    use nra_core::types::Type;

    fn recognise(e: &Expr) -> (EId, ExprArena, ShapeCaches) {
        let mut arena = ExprArena::new();
        let eid = arena.intern(e);
        (eid, arena, ShapeCaches::default())
    }

    #[test]
    fn eq_at_matches_every_type_instantiation() {
        for t in [
            Type::Nat,
            Type::Unit,
            Type::Bool,
            Type::prod(Type::Nat, Type::Bool),
            Type::nat_rel(),
            Type::set(Type::nat_rel()),
            Type::prod(Type::nat_rel(), Type::set(Type::Nat)),
        ] {
            let (eid, exprs, mut caches) = recognise(&derived::eq_at(&t));
            assert_eq!(
                eq_at_type(eid, &exprs, &mut caches),
                Some(t.clone()),
                "eq_at({t})"
            );
        }
        // near-misses must not match
        for e in [neq_nat_like(), id(), compose(eq_nat(), swap())] {
            let (eid, exprs, mut caches) = recognise(&e);
            assert_eq!(eq_at_type(eid, &exprs, &mut caches), None, "{e}");
        }
    }

    fn neq_nat_like() -> Expr {
        derived::pnot(eq_nat())
    }

    #[test]
    fn member_and_subset_match_their_skeletons() {
        for t in [Type::Nat, Type::nat_rel(), Type::set(Type::Nat)] {
            let (eid, exprs, mut caches) = recognise(&derived::member(&t));
            assert_eq!(
                member_elem_type(eid, &exprs, &mut caches),
                Some(t.clone()),
                "member at {t}"
            );
            let (eid, exprs, mut caches) = recognise(&derived::subset(&t));
            assert_eq!(
                subset_elem_type(eid, &exprs, &mut caches),
                Some(t.clone()),
                "subset at {t}"
            );
        }
        // a selection that is not a membership test must not match
        let sel = derived::select(always_true(), Type::Nat);
        let (eid, exprs, mut caches) = recognise(&sel);
        assert_eq!(member_elem_type(eid, &exprs, &mut caches), None);
        assert_eq!(subset_elem_type(eid, &exprs, &mut caches), None);
    }

    #[test]
    fn nest_matches_and_near_misses_do_not() {
        for (s, t) in [
            (Type::Nat, Type::Nat),
            (Type::Nat, Type::Bool),
            (Type::prod(Type::Nat, Type::Nat), Type::Nat),
        ] {
            let (eid, exprs, mut caches) = recognise(&derived::nest(&s, &t));
            assert_eq!(
                nest_key_type(eid, &exprs, &mut caches),
                Some(s.clone()),
                "nest({s}, {t})"
            );
        }
        let (eid, exprs, mut caches) = recognise(&derived::unnest());
        assert_eq!(nest_key_type(eid, &exprs, &mut caches), None);
    }

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
            join_shape(eid, cartprod, &arena, &mut ShapeCaches::default())
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

    #[test]
    fn verdicts_are_memoised() {
        let t = Type::set(Type::nat_rel());
        let (eid, exprs, mut caches) = recognise(&derived::eq_at(&t));
        assert_eq!(eq_at_type(eid, &exprs, &mut caches), Some(t.clone()));
        assert_eq!(caches.eq_ats.get(&eid), Some(&Some(t)));
        // the set-equality grammar recurses through ⊆, whose verdicts
        // land in the subset cache as a side effect
        assert!(caches.subsets.values().any(|v| v.is_some()));
        caches.clear();
        assert!(caches.eq_ats.is_empty() && caches.subsets.is_empty());
    }

    #[test]
    fn conformance_follows_the_type_structure() {
        use nra_core::value::intern::ValueArena;
        let mut a = ValueArena::new();
        let unit = a.unit();
        let yes = a.bool_(true);
        let three = a.nat(3);
        let pair = a.pair(three, yes);
        let rel = a.chain(2);
        assert!(value_conforms(&a, unit, &Type::Unit));
        assert!(!value_conforms(&a, three, &Type::Unit));
        assert!(value_conforms(&a, yes, &Type::Bool));
        assert!(value_conforms(&a, three, &Type::Nat));
        assert!(!value_conforms(&a, yes, &Type::Nat));
        assert!(value_conforms(&a, pair, &Type::prod(Type::Nat, Type::Bool)));
        assert!(!value_conforms(
            &a,
            pair,
            &Type::prod(Type::Bool, Type::Nat)
        ));
        assert!(value_conforms(&a, rel, &Type::nat_rel()));
        assert!(!value_conforms(&a, rel, &Type::set(Type::Nat)));
    }
}
