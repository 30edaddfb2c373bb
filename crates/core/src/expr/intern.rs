//! Hash-consed interning of expressions.
//!
//! [`crate::value::intern`] gave complex objects canonical `u32` handles;
//! this module does the same for [`Expr`]essions. Every structurally
//! distinct expression node is stored once in an [`ExprArena`] and
//! addressed by an [`EId`], so
//!
//! * equal expressions always receive equal handles — `==` on interned
//!   expressions is a `u32` comparison;
//! * each node carries cached metadata — the AST node count
//!   ([`ExprArena::ops`], the measure of [`Expr::size`]) and the tree
//!   height ([`ExprArena::height`]) — as `O(1)` lookups;
//! * the pair `(EId, VId)` is a perfect, copyable key for *apply
//!   caches* in the style of the BDD literature: `f(C) ⇓ C'` is a pure
//!   judgment, so a memo table keyed on (interned expression, interned
//!   input) can return the cached result handle instead of re-running
//!   the derivation. `nra-eval`'s memoised eager evaluator is exactly
//!   that table;
//! * [`ExprArena::node_ref`] borrows a node straight from the store
//!   without a lock, so an evaluator walks the interned expression
//!   through the arena itself, with no copy of it.
//!
//! Like a value arena, an [`ExprArena`] has one owner: the engine
//! layer (`nra-eval`'s `EvalSession`) owns one outright and threads it
//! explicitly. [`EId`] is a plain `Send` index, meaningful only in the
//! arena that issued it. Arenas grow monotonically and can be reset at
//! quiescent points with [`ExprArena::clear`].
//!
//! # Examples
//!
//! ```
//! use nra_core::expr::intern::ExprArena;
//! use nra_core::queries;
//!
//! let mut arena = ExprArena::new();
//! let a = arena.intern(&queries::tc_while());
//! let b = arena.intern(&queries::tc_while());
//! assert_eq!(a, b); // equal expressions ⇒ equal handles
//! assert_eq!(arena.ops(a), queries::tc_while().size() as u64); // cached
//! assert_eq!(arena.resolve(a), queries::tc_while()); // round-trips
//! ```

use super::{Expr, ExprRef};
use crate::store::{Keyed, View};
use crate::value::intern::FxBuildHasher;
use std::hash::BuildHasher;

/// A handle to an interned expression in an [`ExprArena`].
///
/// Within one arena, two handles are equal **iff** the expressions they
/// denote are structurally equal. Handles are only meaningful in the
/// arena that issued them (for a session, its own arena). Like the value arena's `VId`, `EId` is a plain `Send` index:
/// handle and arena must travel together, by the holder's discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EId(u32);

impl EId {
    fn new(raw: u32) -> Self {
        EId(raw)
    }

    /// The raw arena index of this handle (stable for the arena's
    /// lifetime; mainly useful for debugging and dense side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a handle from a raw index previously obtained via
    /// [`EId::index`] **from the same arena** — the inverse direction
    /// for dense side tables, with the same contract as
    /// [`crate::value::intern::VId::from_index`].
    pub fn from_index(raw: usize) -> EId {
        EId::new(u32::try_from(raw).expect("EId::from_index: index exceeds u32"))
    }
}

/// One interned expression node: the recursive constructs hold child
/// handles, everything else is a [`Leaf`](ENode::Leaf) holding the
/// (non-recursive) expression itself. Matching on the node is how the
/// memoised evaluator walks an interned expression without ever
/// materialising its tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ENode {
    /// A non-recursive head (`id`, `π₁`, `∪`, `powerset`, `const`, …),
    /// shared behind an [`ExprRef`] so cloning the node is `O(1)`.
    Leaf(ExprRef),
    /// `⟨f, g⟩` — pair formation.
    Tuple(EId, EId),
    /// `map(f)`.
    Map(EId),
    /// `if c then t else e`.
    Cond(EId, EId, EId),
    /// `g ∘ f` (`f` applied first, as in [`Expr::Compose`]).
    Compose(EId, EId),
    /// `while(f)`.
    While(EId),
}

impl ENode {
    /// The rule label of this node — identical to [`Expr::head_name`]
    /// of the expression it denotes.
    pub fn head_name(&self) -> &'static str {
        Expr::HEAD_NAMES[self.head_index()]
    }

    /// Dense rule index — identical to [`Expr::head_index`] of the
    /// expression this node denotes (a unit test holds the two in
    /// lockstep).
    pub fn head_index(&self) -> usize {
        match self {
            ENode::Leaf(e) => e.head_index(),
            ENode::Tuple(..) => 2,
            ENode::Map(_) => 5,
            ENode::Cond(..) => 15,
            ENode::Compose(..) => 16,
            ENode::While(_) => 19,
        }
    }
}

impl Keyed for ENode {
    fn key(&self) -> (u8, Option<u64>) {
        let pack = |f: EId, g: EId| ((f.0 as u64) << 32) | g.0 as u64;
        match *self {
            ENode::Leaf(_) => (0, None),
            ENode::Tuple(f, g) => (1, Some(pack(f, g))),
            ENode::Map(f) => (2, Some(f.0 as u64)),
            ENode::Cond(..) => (3, None),
            ENode::Compose(g, f) => (4, Some(pack(g, f))),
            ENode::While(f) => (5, Some(f.0 as u64)),
        }
    }
}

/// Cached per-node metadata, computed once at interning time.
#[derive(Debug, Clone, Copy)]
struct Meta {
    /// AST node count — the measure of [`Expr::size`] (saturating).
    ops: u64,
    /// Tree height: leaves are 1 (saturating).
    height: u32,
}

/// A hash-consing arena for expressions, mirroring
/// [`crate::value::intern::ValueArena`]'s dedup/canonicalisation design
/// — including its one store, shareable from birth through
/// [`ExprArena::shared_clone`].
///
/// ```
/// use nra_core::expr::intern::ExprArena;
/// use nra_core::builder;
///
/// let mut arena = ExprArena::new();
/// let f = builder::compose(builder::flatten(), builder::map(builder::sng()));
/// let id = arena.intern(&f);
/// assert_eq!(arena.intern(&f), id); // dedup
/// assert_eq!(arena.ops(id), f.size() as u64);
/// assert_eq!(arena.height(id), 3); // compose → map → sng
/// assert_eq!(arena.resolve(id), f);
/// ```
pub struct ExprArena {
    store: View<ENode, Meta>,
}

impl Default for ExprArena {
    fn default() -> Self {
        ExprArena { store: View::new() }
    }
}

impl std::fmt::Debug for ExprArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExprArena")
            .field("nodes", &self.len())
            .finish()
    }
}

impl ExprArena {
    /// An empty arena.
    pub fn new() -> Self {
        ExprArena::default()
    }

    /// Number of distinct expression nodes interned so far.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the arena holds no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`ExprArena::len`], named for symmetry with the value arena's
    /// occupancy introspection.
    pub fn node_count(&self) -> usize {
        self.len()
    }

    /// Another arena over the **same** store; handles are
    /// interchangeable between all clones. Same contract as
    /// [`crate::value::intern::ValueArena::shared_clone`].
    pub fn shared_clone(&self) -> ExprArena {
        ExprArena {
            store: self.store.share(),
        }
    }

    /// Approximate resident bytes held by the arena: its node slots in
    /// whole chunks and its dedup index, as
    /// [`crate::value::intern::ValueArena::approx_resident_bytes`]
    /// charges them (leaf expressions behind their `Arc`s are shared
    /// with the caller's trees and not charged).
    pub fn approx_resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    /// Discard every interned node. **All previously issued [`EId`]s
    /// become invalid** — same contract as
    /// [`crate::value::intern::ValueArena::clear`] (the arena moves onto
    /// a fresh store; pre-existing clones keep the old one).
    pub fn clear(&mut self) {
        self.store = View::new();
    }

    fn meta_for(&self, node: &ENode) -> Meta {
        let children: [Option<EId>; 3] = match *node {
            ENode::Leaf(_) => [None, None, None],
            ENode::Map(f) | ENode::While(f) => [Some(f), None, None],
            ENode::Tuple(f, g) | ENode::Compose(f, g) => [Some(f), Some(g), None],
            ENode::Cond(c, t, e) => [Some(c), Some(t), Some(e)],
        };
        let mut ops: u64 = 1;
        let mut child_height: u32 = 0;
        for child in children.into_iter().flatten() {
            let m = self.meta(child);
            ops = ops.saturating_add(m.ops);
            child_height = child_height.max(m.height);
        }
        Meta {
            ops,
            height: child_height.saturating_add(1),
        }
    }

    fn meta(&self, e: EId) -> Meta {
        self.store.get(e.index()).1
    }

    /// The node behind a handle, borrowed from the store: a lock-free
    /// read of a slot that was written before its handle was issued.
    /// Panics on a handle the arena never issued (stale after a clear,
    /// or foreign).
    #[inline]
    pub fn node_ref(&self, e: EId) -> &ENode {
        &self.store.get(e.index()).0
    }

    /// The intern protocol of [`crate::value::intern::ValueArena`]: a
    /// lock-free lookup, then on a miss the store's locked insert.
    fn add(&mut self, node: ENode) -> EId {
        let hash = FxBuildHasher::default().hash_one(&node);
        let index = match self.store.find(hash, &node) {
            Some(index) => index,
            None => {
                let meta = self.meta_for(&node);
                self.store.insert(hash, node, meta, None)
            }
        };
        EId::new(index as u32)
    }

    /// Intern an expression, sharing every repeated subterm.
    pub fn intern(&mut self, e: &Expr) -> EId {
        match e {
            Expr::Tuple(f, g) => {
                let f = self.intern(f);
                let g = self.intern(g);
                self.add(ENode::Tuple(f, g))
            }
            Expr::Map(f) => {
                let f = self.intern(f);
                self.add(ENode::Map(f))
            }
            Expr::Cond(c, t, els) => {
                let c = self.intern(c);
                let t = self.intern(t);
                let els = self.intern(els);
                self.add(ENode::Cond(c, t, els))
            }
            Expr::Compose(g, f) => {
                let g = self.intern(g);
                let f = self.intern(f);
                self.add(ENode::Compose(g, f))
            }
            Expr::While(f) => {
                let f = self.intern(f);
                self.add(ENode::While(f))
            }
            leaf => self.add(ENode::Leaf(leaf.clone().rc())),
        }
    }

    /// The interned node behind a handle — an `O(1)` clone ([`ENode`]
    /// children are handles; leaves are behind an [`ExprRef`]).
    pub fn node(&self, e: EId) -> ENode {
        self.node_ref(e).clone()
    }

    /// Materialise the tree form of an interned expression. `O(ops)`.
    pub fn resolve(&self, e: EId) -> Expr {
        match self.node_ref(e) {
            ENode::Leaf(leaf) => (**leaf).clone(),
            ENode::Tuple(f, g) => Expr::Tuple(self.resolve(*f).rc(), self.resolve(*g).rc()),
            ENode::Map(f) => Expr::Map(self.resolve(*f).rc()),
            ENode::Cond(c, t, els) => Expr::Cond(
                self.resolve(*c).rc(),
                self.resolve(*t).rc(),
                self.resolve(*els).rc(),
            ),
            ENode::Compose(g, f) => Expr::Compose(self.resolve(*g).rc(), self.resolve(*f).rc()),
            ENode::While(f) => Expr::While(self.resolve(*f).rc()),
        }
    }

    /// Cached AST node count — the measure of [`Expr::size`], `O(1)`,
    /// saturating at `u64::MAX`.
    pub fn ops(&self, e: EId) -> u64 {
        self.meta(e).ops
    }

    /// Cached tree height (leaves are 1) — `O(1)`, saturating.
    pub fn height(&self, e: EId) -> u32 {
        self.meta(e).height
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::queries;

    #[test]
    fn interning_is_canonical_and_round_trips() {
        let mut a = ExprArena::new();
        for e in [
            id(),
            compose(flatten(), map(sng())),
            queries::tc_while(),
            queries::tc_paths(),
            powerset_m_prim(3),
        ] {
            let i1 = a.intern(&e);
            let i2 = a.intern(&e.clone());
            assert_eq!(i1, i2, "{e}");
            assert_eq!(a.resolve(i1), e, "{e}");
        }
    }

    #[test]
    fn cached_metadata_matches_recursive_measures() {
        fn rec_height(e: &Expr) -> u32 {
            match e {
                Expr::Map(f) | Expr::While(f) => 1 + rec_height(f),
                Expr::Tuple(f, g) | Expr::Compose(f, g) => 1 + rec_height(f).max(rec_height(g)),
                Expr::Cond(c, t, els) => 1 + rec_height(c).max(rec_height(t)).max(rec_height(els)),
                _ => 1,
            }
        }
        let mut a = ExprArena::new();
        for e in [id(), queries::tc_while(), queries::tc_paths()] {
            let i = a.intern(&e);
            assert_eq!(a.ops(i), e.size() as u64, "ops of {e}");
            assert_eq!(a.height(i), rec_height(&e), "height of {e}");
        }
    }

    #[test]
    fn shared_subterms_are_stored_once() {
        let mut a = ExprArena::new();
        // ⟨f, f⟩ shares its two children
        let f = compose(flatten(), map(sng()));
        let before = a.node_count();
        a.intern(&tuple(f.clone(), f.clone()));
        let delta = a.node_count() - before;
        // f has 4 distinct nodes (compose, flatten, map, sng) + the tuple
        assert_eq!(delta, 5, "shared subterm interned twice");
    }

    #[test]
    fn node_exposes_the_structure() {
        let mut a = ExprArena::new();
        let i = a.intern(&compose(flatten(), map(sng())));
        match a.node(i) {
            ENode::Compose(g, f) => {
                assert!(matches!(a.node(g), ENode::Leaf(ref e) if **e == Expr::Flatten));
                match a.node(f) {
                    ENode::Map(b) => {
                        assert!(matches!(a.node(b), ENode::Leaf(ref e) if **e == Expr::Sng))
                    }
                    other => panic!("expected map, got {other:?}"),
                }
            }
            other => panic!("expected compose, got {other:?}"),
        }
        assert_eq!(a.node(i).head_name(), "compose");
    }

    #[test]
    fn clear_resets() {
        let mut a = ExprArena::new();
        a.intern(&queries::tc_while());
        assert!(!a.is_empty());
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.node_count(), 0);
        let i = a.intern(&id());
        assert_eq!(a.resolve(i), id());
    }

    #[test]
    fn head_indices_match_expr_level() {
        let mut a = ExprArena::new();
        for e in [
            id(),
            tuple(id(), sng()),
            map(fst()),
            cond(always_true(), id(), id()),
            compose(flatten(), map(sng())),
            queries::tc_while(),
            powerset(),
        ] {
            let eid = a.intern(&e);
            let node = a.node(eid);
            assert_eq!(node.head_index(), e.head_index(), "{e}");
            assert_eq!(node.head_name(), e.head_name(), "{e}");
            assert_eq!(Expr::HEAD_NAMES[e.head_index()], e.head_name(), "{e}");
        }
    }

    // shared arenas must be movable and shareable across threads
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExprArena>();
    };

    #[test]
    fn shared_clones_intern_canonically_across_threads() {
        let mut a = ExprArena::new();
        let expect = a.intern(&queries::tc_while());
        let paths: Vec<EId> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let mut worker = a.shared_clone();
                    scope.spawn(move || {
                        let q = worker.intern(&queries::tc_while());
                        assert_eq!(q, expect, "canonical across threads");
                        assert!(matches!(worker.node_ref(q), ENode::While(_)));
                        let p = worker.intern(&queries::tc_paths());
                        assert_eq!(worker.resolve(p), queries::tc_paths());
                        p
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(a.intern(&queries::tc_while()), expect);
        // the parent reads the nodes the clones interned in place
        let p = a.intern(&queries::tc_paths());
        assert!(paths.iter().all(|&q| q == p));
        assert_eq!(*a.node_ref(p), a.node(p));
        assert_eq!(a.resolve(p), queries::tc_paths());
    }

    #[test]
    fn shared_clear_detaches_from_the_old_store() {
        let mut a = ExprArena::new();
        let q = a.intern(&queries::tc_step());
        let b = a.shared_clone();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(b.resolve(q), queries::tc_step(), "old store unaffected");
        let fresh = a.intern(&id());
        assert_eq!(a.resolve(fresh), id());
    }
}
