//! Hash-consed interning of complex objects.
//!
//! The paper's whole argument is about *object size* — every §3 evaluation
//! rule observes `size(C)` — but the tree representation ([`Value`]) pays
//! `O(size)` for exactly the operations the theory treats as observations:
//! `size`, `==`, `clone`, `hash`. This module fixes the cost model with a
//! classic hash-consing arena:
//!
//! * every structurally distinct node is stored **once** in a
//!   [`ValueArena`] and addressed by a small copyable handle ([`VId`]);
//! * equal trees always receive equal handles, so `==` on interned values
//!   is a `u32` comparison;
//! * each node carries cached metadata — the paper's `size` (saturating at
//!   [`u64::MAX`]), the nesting `depth`, and a structural `hash` — so all
//!   three are `O(1)` lookups;
//! * "cloning" an interned value is copying a handle.
//!
//! Set nodes are canonicalised by sorting their element handles: because
//! equal elements share a handle, two set denotations that differ only in
//! element order (or duplication) intern to the same node — the §3
//! structural identities hold by construction, exactly as they do for the
//! [`BTreeSet`]-backed [`Value`].
//!
//! Every handle has an owner: the engine layer (`nra-eval`'s
//! `EvalSession`) **owns** a `ValueArena` and threads it by `&mut`
//! through every rule, and code outside a session holds an arena of its
//! own. That is what makes sessions movable across threads, lets
//! several evaluation streams run in parallel, each against its own
//! arena, and makes what an arena holds a function of what its owner
//! interned. [`VId`] is a plain copyable index and is `Send`: a handle
//! is only meaningful in the arena that issued it, and keeping handle
//! and arena together is the holder's contract (exactly as with `usize`
//! indices into a `Vec`).
//!
//! Hash-consing trades reclamation for sharing: the arena grows
//! monotonically and never frees individual nodes, so a long-running
//! process interning unboundedly many *distinct* values retains them all
//! (up to the 2³² handle-space limit). At quiescent points — when no
//! handles are retained — [`ValueArena::clear`] discards everything and
//! starts fresh, and dropping the arena frees it.
//!
//! # Examples
//!
//! Interning is canonical and metadata reads are `O(1)`:
//!
//! ```
//! use nra_core::value::intern::ValueArena;
//! use nra_core::Value;
//!
//! let mut arena = ValueArena::new();
//! let a = arena.intern(&Value::chain(3));
//! let b = arena.chain(3); // built handle-by-handle, never as a tree
//! assert_eq!(a, b); // equal trees ⇒ equal handles
//! assert_eq!(arena.size(a), Value::chain(3).size()); // cached, O(1)
//! assert_eq!(arena.resolve(a), Value::chain(3)); // round-trips
//! ```
//!
//! Structural sharing makes objects representable whose tree form could
//! never fit in memory — their cached size saturates instead of
//! overflowing:
//!
//! ```
//! use nra_core::value::intern::ValueArena;
//!
//! // vₖ₊₁ = (vₖ, vₖ): size doubles per level, the arena stores one node per level
//! let mut arena = ValueArena::new();
//! let mut v = arena.nat(0);
//! for _ in 0..70 {
//!     v = arena.pair(v, v);
//! }
//! assert_eq!(arena.size(v), u64::MAX); // 2⁷¹ − 1 in the §3 measure, saturated
//! assert_eq!(arena.depth(v), 70);
//! ```

use super::Value;
use crate::store::{Keyed, View};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::Arc;

/// A fast non-cryptographic hasher (the FxHash recipe: rotate, xor,
/// multiply) for handle-keyed maps. Interning happens on the evaluator
/// hot path, every constructed node pays one hash — DoS-resistant
/// SipHash buys nothing here because keys are internal handles, not
/// user input. Public so that consumers building side tables keyed on
/// [`VId`]s (or the expression arena's `EId`s) — such as the
/// evaluators' memo tables — can use the same cheap recipe.
#[derive(Default)]
pub struct FxHasher(u64);

/// [`BuildHasher`] for [`FxHasher`]-backed maps:
/// `HashMap<K, V, FxBuildHasher>`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A handle to an interned complex object in a [`ValueArena`].
///
/// Within one arena, two handles are equal **iff** the objects they denote
/// are structurally equal, so `==`, `hash` and `clone` are all `O(1)`.
/// The derived `Ord` is the arena's insertion order — a valid canonical
/// order for deduplication, but *not* the [`Value`] ordering.
///
/// Handles are only meaningful in the arena that issued them (for a
/// session, its own arena). `VId` is a plain `Send` index so that a
/// session owning its arena can move between threads (handles travel
/// *with* their arena); mixing handles across arenas is a logic error
/// the type system does not catch, same as indexing one `Vec` with
/// another's indices.
///
/// ```
/// use nra_core::value::intern::ValueArena;
///
/// let mut arena = ValueArena::new();
/// let e = arena.edge(1, 2);
/// assert_eq!(e, arena.edge(1, 2)); // O(1) equality
/// assert_eq!(arena.size(e), 3); // O(1) size: 1 + size(1) + size(2)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VId(u32);

impl VId {
    fn new(raw: u32) -> Self {
        VId(raw)
    }

    /// The raw arena index of this handle (stable for the arena's
    /// lifetime; mainly useful for debugging and dense side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a handle from a raw index previously obtained via
    /// [`VId::index`] **from the same arena** (dense side tables store
    /// raw indices; this is the way back). Fabricating indices that no
    /// arena issued yields a handle that panics or denotes an arbitrary
    /// object when used.
    pub fn from_index(raw: usize) -> VId {
        VId::new(u32::try_from(raw).expect("VId::from_index: index exceeds u32"))
    }
}

/// One interned node. Children are handles, so structural equality of
/// nodes (the dedup-map key) is `O(arity)`, never `O(size)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node {
    Unit,
    Bool(bool),
    Nat(u64),
    Pair(VId, VId),
    /// Element handles, sorted ascending and deduplicated — the canonical
    /// representation of a set denotation. `Arc` (not `Rc`) so a whole
    /// arena — and the `EvalSession` owning it — is `Send`.
    Set(Arc<[VId]>),
}

impl Keyed for Node {
    fn key(&self) -> (u8, Option<u64>) {
        match *self {
            Node::Unit => (0, Some(0)),
            Node::Bool(b) => (1, Some(b as u64)),
            Node::Nat(n) => (2, Some(n)),
            Node::Pair(a, b) => (3, Some(((a.0 as u64) << 32) | b.0 as u64)),
            Node::Set(_) => (4, None),
        }
    }
}

/// Cached per-node metadata, computed once at interning time.
#[derive(Debug, Clone, Copy)]
struct Meta {
    /// The paper's §3 size measure, saturating at `u64::MAX`.
    size: u64,
    /// Structural nesting depth (atoms are 0), saturating.
    depth: u32,
    /// A structural hash: equal across arenas for equal objects.
    hash: u64,
}

/// SplitMix64 finaliser — the mixing step behind the structural hashes.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Largest atom coordinate [`ValueArena::dense_domain_cap`] reports a
/// packed domain for. Beyond it the bit domain (quadratic in the
/// coordinate range for pair relations) stops paying for itself.
pub const DENSE_MAX_COORD: u64 = 8192;

/// Bytes a set's element spine costs beyond its elements: the `Arc`
/// counts and the allocator's header and rounding.
const SPINE_OVERHEAD: usize = 40;

/// A hash-consing arena for complex objects.
///
/// Each arena is an isolated handle space: handles from different
/// arenas must never be mixed.
///
/// Every arena is shareable from birth: [`ValueArena::shared_clone`]
/// hands out another arena over the *same* store, handles are
/// interchangeable between all of them, and interning is canonical
/// across threads. Lookups take no lock, an arena whose store has no
/// other clone inserts without one, reads are one vector index, and a
/// slot chunk is allocated only when a node lands in it.
///
/// ```
/// use nra_core::value::intern::ValueArena;
/// use nra_core::Value;
///
/// let mut arena = ValueArena::new();
/// let one = arena.intern(&Value::nat(1));
/// let two = arena.intern(&Value::nat(2));
/// let s = arena.set([one, two, one]); // duplicates collapse
/// assert_eq!(arena.cardinality(s), Some(2));
/// assert_eq!(arena.size(s), 3); // 1 + size(1) + size(2), cached
/// assert_eq!(arena.resolve(s), Value::set([Value::nat(1), Value::nat(2)]));
/// ```
pub struct ValueArena {
    store: View<Node, Meta>,
}

impl Default for ValueArena {
    fn default() -> Self {
        ValueArena { store: View::new() }
    }
}

impl std::fmt::Debug for ValueArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueArena")
            .field("nodes", &self.len())
            .finish()
    }
}

/// Aggregate statistics of an arena — see [`ValueArena::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Number of distinct interned nodes.
    pub nodes: usize,
    /// Sum over set nodes of their element counts (total fan-out held by
    /// the arena — a proxy for its memory footprint).
    pub set_children: usize,
    /// Approximate resident bytes — see
    /// [`ValueArena::approx_resident_bytes`].
    pub approx_bytes: usize,
}

impl ValueArena {
    /// An empty arena.
    pub fn new() -> Self {
        ValueArena::default()
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the arena holds no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Another arena over the **same** store. Handles are
    /// interchangeable between all clones. Interning through any clone
    /// is canonical for all of them (equal objects receive equal handles
    /// *across threads*), which is what lets batch workers share a
    /// parent session's store instead of re-interning results.
    pub fn shared_clone(&self) -> ValueArena {
        ValueArena {
            store: self.store.share(),
        }
    }

    /// Make every node the store holds as cheap to read through this
    /// arena as the nodes it interned itself. Reads of nodes a clone
    /// interned are correct either way; call this after a batch of
    /// clones has filled the store (the batch layer does).
    pub fn catch_up(&mut self) {
        self.store.catch_up();
    }

    /// Discard every interned node, returning the arena to its empty
    /// state. The arena moves onto a fresh store: clones made before the
    /// clear keep the *old* store and are unaffected.
    ///
    /// **All previously issued [`VId`]s become invalid**: using one
    /// afterwards panics (a stale handle) or, once new values are
    /// interned, silently denotes a different object. Call only from
    /// quiescent points where no handles are retained — e.g. between
    /// batches in a long-running process, to stop the arena's otherwise
    /// monotone growth.
    pub fn clear(&mut self) {
        self.store = View::new();
    }

    /// Number of distinct nodes interned so far — the occupancy figure
    /// the cache-effectiveness reports print (an alias of
    /// [`ValueArena::len`], named for symmetry with the expression
    /// arena's `node_count`).
    pub fn node_count(&self) -> usize {
        self.len()
    }

    /// Approximate resident bytes held by the arena: the node slots in
    /// whole chunks, the dedup index's tables (every level allocated),
    /// and each set's element spine with its allocation header. An
    /// estimate that charges at least what the layout holds; allocator
    /// slack beyond a spine's header is not modelled.
    pub fn approx_resident_bytes(&self) -> usize {
        let (set_children, sets) = self.store.weight();
        self.store.resident_bytes()
            + set_children * std::mem::size_of::<VId>()
            + sets * SPINE_OVERHEAD
    }

    /// Aggregate statistics (node count, total set fan-out, approximate
    /// resident bytes).
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            nodes: self.len(),
            set_children: self.store.weight().0,
            approx_bytes: self.approx_resident_bytes(),
        }
    }

    fn meta_for(&self, node: &Node) -> Meta {
        match node {
            Node::Unit => Meta {
                size: 1,
                depth: 0,
                hash: mix(0x75),
            },
            Node::Bool(b) => Meta {
                size: 1,
                depth: 0,
                hash: mix(0xB0 ^ (*b as u64)),
            },
            Node::Nat(n) => Meta {
                size: 1,
                depth: 0,
                hash: mix(0x4E ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            },
            Node::Pair(a, b) => {
                let (ma, mb) = (self.meta(*a), self.meta(*b));
                Meta {
                    size: 1u64.saturating_add(ma.size).saturating_add(mb.size),
                    depth: 1u32.saturating_add(ma.depth.max(mb.depth)),
                    hash: mix(0x50u64 ^ ma.hash ^ mix(mb.hash)),
                }
            }
            Node::Set(items) => {
                let mut size: u64 = 1;
                let mut depth: u32 = 0;
                // the canonical element order is handle order, which is
                // arena-*dependent* — combine element hashes commutatively
                // so the structural hash stays arena-independent
                let mut hash: u64 = 0;
                for &item in items.iter() {
                    let m = self.meta(item);
                    size = size.saturating_add(m.size);
                    depth = depth.max(m.depth);
                    hash = hash.wrapping_add(mix(m.hash));
                }
                Meta {
                    size,
                    depth: 1u32.saturating_add(depth),
                    hash: mix(0x5Eu64 ^ hash ^ ((items.len() as u64) << 32)),
                }
            }
        }
    }

    #[inline]
    fn meta(&self, v: VId) -> Meta {
        self.store.get(v.index()).1
    }

    /// The node behind a handle. Panics on a handle the arena never
    /// issued (stale after a clear, or foreign).
    #[inline]
    fn node_ref(&self, v: VId) -> &Node {
        &self.store.get(v.index()).0
    }

    /// The intern protocol: a lock-free lookup, and on a miss the
    /// metadata, then the store's locked insert (which looks again).
    fn add(&mut self, node: Node) -> VId {
        let hash = FxBuildHasher::default().hash_one(&node);
        let index = match self.store.find(hash, &node) {
            Some(index) => index,
            None => {
                let meta = self.meta_for(&node);
                let weight = match &node {
                    Node::Set(items) => Some(items.len()),
                    _ => None,
                };
                self.store.insert(hash, node, meta, weight)
            }
        };
        VId::new(index as u32)
    }
    /// Intern `()`.
    pub fn unit(&mut self) -> VId {
        self.add(Node::Unit)
    }

    /// Intern a boolean.
    pub fn bool_(&mut self, b: bool) -> VId {
        self.add(Node::Bool(b))
    }

    /// Intern a natural number.
    pub fn nat(&mut self, n: u64) -> VId {
        self.add(Node::Nat(n))
    }

    /// Intern the pair `(a, b)` of two interned values.
    pub fn pair(&mut self, a: VId, b: VId) -> VId {
        self.add(Node::Pair(a, b))
    }

    /// Intern the edge `(a, b)` of two naturals.
    pub fn edge(&mut self, a: u64, b: u64) -> VId {
        let a = self.nat(a);
        let b = self.nat(b);
        self.pair(a, b)
    }

    /// Intern a set from element handles, deduplicating and
    /// canonicalising order.
    pub fn set<I: IntoIterator<Item = VId>>(&mut self, items: I) -> VId {
        let items: Vec<VId> = items.into_iter().collect();
        self.set_from_vec(items)
    }

    /// Intern a set from an owned element vector (sorted and deduplicated
    /// in place — the cheapest entry point for hot loops).
    pub fn set_from_vec(&mut self, mut items: Vec<VId>) -> VId {
        items.sort_unstable();
        items.dedup();
        self.add(Node::Set(items.into()))
    }

    /// Intern the empty set.
    pub fn empty_set(&mut self) -> VId {
        self.add(Node::Set(Arc::from([])))
    }

    /// Intern a set from an element vector that is **already sorted and
    /// deduplicated** in the canonical handle order — the entry point
    /// the merge operations use so merged results are never re-sorted.
    fn add_canonical_set(&mut self, items: Vec<VId>) -> VId {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "add_canonical_set: elements must be strictly ascending"
        );
        self.add(Node::Set(items.into()))
    }

    /// Union of two interned sets as one linear merge over their
    /// canonical (sorted, deduplicated) element slices. `None` if
    /// either handle is not a set. `a ∪ a` short-circuits to `a`.
    ///
    /// ```
    /// use nra_core::value::intern::ValueArena;
    ///
    /// let mut a = ValueArena::new();
    /// let x = a.relation([(0, 1), (1, 2)]);
    /// let y = a.relation([(1, 2), (5, 6)]);
    /// let u = a.set_union(x, y).unwrap();
    /// assert_eq!(u, a.relation([(0, 1), (1, 2), (5, 6)]));
    /// assert_eq!(a.set_union(x, x), Some(x));
    /// ```
    pub fn set_union(&mut self, a: VId, b: VId) -> Option<VId> {
        let xs = self.as_set(a)?;
        let ys = self.as_set(b)?;
        if a == b {
            return Some(a);
        }
        Some(self.add_canonical_set(merge_sorted(&xs, &ys)))
    }

    /// Difference `a ∖ b` of two interned sets, as one linear merge.
    /// `None` if either handle is not a set.
    pub fn set_difference(&mut self, a: VId, b: VId) -> Option<VId> {
        let xs = self.as_set(a)?;
        let ys = self.as_set(b)?;
        if a == b {
            return Some(self.empty_set());
        }
        let mut out = Vec::with_capacity(xs.len());
        let mut j = 0;
        for &x in xs.iter() {
            while j < ys.len() && ys[j] < x {
                j += 1;
            }
            if j >= ys.len() || ys[j] != x {
                out.push(x);
            }
        }
        Some(self.add_canonical_set(out))
    }

    /// Subset test `a ⊆ b` as one linear merge scan — no intermediate
    /// object is interned. `None` if either handle is not a set.
    pub fn is_subset(&self, a: VId, b: VId) -> Option<bool> {
        let xs = self.as_set(a)?;
        let ys = self.as_set(b)?;
        if a == b || xs.is_empty() {
            return Some(true);
        }
        if xs.len() > ys.len() {
            return Some(false);
        }
        let mut j = 0;
        for &x in xs.iter() {
            while j < ys.len() && ys[j] < x {
                j += 1;
            }
            if j >= ys.len() || ys[j] != x {
                return Some(false);
            }
            j += 1;
        }
        Some(true)
    }

    /// N-ary union: merge the canonical element slices of the given
    /// *set* handles into one set, without ever re-sorting — the `μ`
    /// (flatten) and `∪`-chain entry point. `None` if any handle is not
    /// a set. Merging proceeds in balanced pairwise rounds, so the cost
    /// is `O(total · log k)` for `k` sets.
    ///
    /// ```
    /// use nra_core::value::intern::ValueArena;
    ///
    /// let mut a = ValueArena::new();
    /// let parts: Vec<_> = (0..4).map(|i| a.relation([(i, i + 1)])).collect();
    /// let merged = a.set_from_sorted_merge(&parts).unwrap();
    /// assert_eq!(merged, a.chain(4));
    /// ```
    pub fn set_from_sorted_merge(&mut self, sets: &[VId]) -> Option<VId> {
        let mut slices: Vec<Arc<[VId]>> = Vec::with_capacity(sets.len());
        for &s in sets {
            slices.push(self.as_set(s)?);
        }
        // drop empties up front; handle the trivial widths without a merge
        slices.retain(|s| !s.is_empty());
        match slices.len() {
            0 => return Some(self.empty_set()),
            1 => {
                let only = Vec::from(&*slices[0]);
                return Some(self.add_canonical_set(only));
            }
            _ => {}
        }
        // balanced pairwise merge rounds; the first round merges straight
        // from the borrowed arena slices (only an odd leftover is copied),
        // so no up-front O(total) copy is paid
        let mut round: Vec<Vec<VId>> = slices
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => merge_sorted(a, b),
                [a] => Vec::from(&**a),
                _ => unreachable!("chunks(2) yields 1- or 2-element windows"),
            })
            .collect();
        while round.len() > 1 {
            let mut next = Vec::with_capacity(round.len().div_ceil(2));
            let mut it = round.into_iter();
            while let Some(left) = it.next() {
                match it.next() {
                    Some(right) => next.push(merge_sorted(&left, &right)),
                    None => next.push(left),
                }
            }
            round = next;
        }
        let merged = round.pop().unwrap_or_default();
        Some(self.add_canonical_set(merged))
    }

    /// Frontier cardinality `|new ∖ old|` by a count-only merge scan —
    /// [`ValueArena::set_difference`]'s cardinality, for callers (the
    /// semi-naive `while` rule's per-iterate frontier trace) that need
    /// the size of the delta without interning it.
    /// `None` if either handle is not a set.
    ///
    /// ```
    /// use nra_core::value::intern::ValueArena;
    ///
    /// let mut a = ValueArena::new();
    /// let old = a.relation([(0, 1), (1, 2)]);
    /// let new = a.relation([(0, 1), (0, 2), (1, 2)]);
    /// assert_eq!(a.set_delta_cardinality(old, new), Some(1));
    /// assert_eq!(a.set_delta_cardinality(new, old), Some(0));
    /// ```
    pub fn set_delta_cardinality(&self, old: VId, new: VId) -> Option<u64> {
        let xs = self.as_set(old)?;
        let ys = self.as_set(new)?;
        if old == new {
            return Some(0);
        }
        let mut fresh: u64 = 0;
        let mut i = 0;
        for &y in ys.iter() {
            while i < xs.len() && xs[i] < y {
                i += 1;
            }
            if i >= xs.len() || xs[i] != y {
                fresh += 1;
            }
        }
        Some(fresh)
    }

    /// Intern a binary relation `{(a, b), …}`.
    pub fn relation<I: IntoIterator<Item = (u64, u64)>>(&mut self, edges: I) -> VId {
        let items: Vec<VId> = edges.into_iter().map(|(a, b)| self.edge(a, b)).collect();
        self.set_from_vec(items)
    }

    /// Intern the paper's chain `rₙ` (§4) — see [`Value::chain`].
    pub fn chain(&mut self, n: u64) -> VId {
        self.relation((0..n).map(|i| (i, i + 1)))
    }

    /// Intern `tc(rₙ)` — see [`Value::chain_tc`].
    pub fn chain_tc(&mut self, n: u64) -> VId {
        self.relation((0..=n).flat_map(|x| (x + 1..=n).map(move |y| (x, y))))
    }

    /// Intern a tree-represented [`Value`], sharing every subterm.
    pub fn intern(&mut self, v: &Value) -> VId {
        match v {
            Value::Unit => self.unit(),
            Value::Bool(b) => self.bool_(*b),
            Value::Nat(n) => self.nat(*n),
            Value::Pair(a, b) => {
                let a = self.intern(a);
                let b = self.intern(b);
                self.pair(a, b)
            }
            Value::Set(items) => {
                let items: Vec<VId> = items.iter().map(|item| self.intern(item)).collect();
                self.set_from_vec(items)
            }
        }
    }

    /// Materialise the tree form of an interned value. `O(size)` — the
    /// conversion layer back to the [`Value`] API.
    pub fn resolve(&self, v: VId) -> Value {
        match self.node_ref(v) {
            Node::Unit => Value::Unit,
            Node::Bool(b) => Value::Bool(*b),
            Node::Nat(n) => Value::Nat(*n),
            Node::Pair(a, b) => Value::pair(self.resolve(*a), self.resolve(*b)),
            Node::Set(items) => {
                let set: BTreeSet<Value> = items.iter().map(|&item| self.resolve(item)).collect();
                Value::Set(set)
            }
        }
    }

    /// Append the parser-readable text of `v` to `out`, byte for byte
    /// `self.resolve(v).to_string()`, without building the tree.
    ///
    /// A set's elements are written in [`Value`] order, not in the
    /// arena's handle order: each set met is sorted once per call with a
    /// comparator over arena nodes, or by its integer keys when its
    /// elements are all naturals or all pairs of naturals.
    pub fn write_text(&self, v: VId, out: &mut String) {
        TextWriter {
            arena: self,
            orders: HashMap::default(),
        }
        .write(v, out);
    }

    /// The paper's §3 size measure, cached — `O(1)`, saturating at
    /// `u64::MAX`.
    pub fn size(&self, v: VId) -> u64 {
        self.meta(v).size
    }

    /// Structural nesting depth (atoms are 0), cached — `O(1)`.
    pub fn depth(&self, v: VId) -> u32 {
        self.meta(v).depth
    }

    /// A precomputed structural hash — `O(1)`, equal across arenas for
    /// structurally equal objects. (Within one arena the handle itself is
    /// already a perfect identity.)
    pub fn structural_hash(&self, v: VId) -> u64 {
        self.meta(v).hash
    }

    /// Number of elements if `v` is a set — `O(1)`.
    pub fn cardinality(&self, v: VId) -> Option<usize> {
        match self.node_ref(v) {
            Node::Set(items) => Some(items.len()),
            _ => None,
        }
    }

    /// The component handles if `v` is a pair.
    pub fn as_pair(&self, v: VId) -> Option<(VId, VId)> {
        match self.node_ref(v) {
            Node::Pair(a, b) => Some((*a, *b)),
            _ => None,
        }
    }

    /// The canonically ordered element handles if `v` is a set. The `Arc`
    /// clone is `O(1)`, so callers can iterate without borrowing the
    /// arena.
    pub fn as_set(&self, v: VId) -> Option<Arc<[VId]>> {
        match self.node_ref(v) {
            Node::Set(items) => Some(Arc::clone(items)),
            _ => None,
        }
    }

    /// The natural number if `v` is one.
    pub fn as_nat(&self, v: VId) -> Option<u64> {
        match self.node_ref(v) {
            Node::Nat(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean if `v` is one.
    pub fn as_bool(&self, v: VId) -> Option<bool> {
        match self.node_ref(v) {
            Node::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Decode a value of type `{N × N}` into a sorted edge list.
    pub fn to_edges(&self, v: VId) -> Option<Vec<(u64, u64)>> {
        let items = self.as_set(v)?;
        let mut out = Vec::with_capacity(items.len());
        for &item in items.iter() {
            let (a, b) = self.as_pair(item)?;
            out.push((self.as_nat(a)?, self.as_nat(b)?));
        }
        out.sort_unstable();
        Some(out)
    }

    /// The packed-domain bound of `v`: `Some(max_coord + 1)` when `v`
    /// is a set of small-coordinate nat atoms or nat-pair edges (every
    /// coordinate below [`DENSE_MAX_COORD`]), `None` otherwise. The
    /// empty set reports a domain of `1`.
    ///
    /// This inspects the *domain*: it answers whether `v` lives in the
    /// territory the [`dense`](super::dense) word primitives can pack.
    /// Admission control uses it to price polynomial
    /// queries over large relations by domain words instead of by
    /// per-element §3 size (which saturates on thousands of edges).
    pub fn dense_domain_cap(&self, v: VId) -> Option<u64> {
        let items = self.as_set(v)?;
        let mut max_coord = 0u64;
        let mut is_atoms = None;
        for &item in items.iter() {
            let (a, b, atom) = if let Some(n) = self.as_nat(item) {
                (n, 0, true)
            } else if let Some((x, y)) = self.as_pair(item) {
                match (self.as_nat(x), self.as_nat(y)) {
                    (Some(a), Some(b)) => (a, b, false),
                    _ => return None,
                }
            } else {
                return None;
            };
            match is_atoms {
                None => is_atoms = Some(atom),
                Some(k) if k != atom => return None,
                _ => {}
            }
            if a.max(b) >= DENSE_MAX_COORD {
                return None;
            }
            max_coord = max_coord.max(a).max(b);
        }
        Some(if items.is_empty() { 1 } else { max_coord + 1 })
    }
}

/// One [`ValueArena::write_text`] call: the [`Value`] order of every set
/// met inside another set, so each is sorted once and compared by it.
struct TextWriter<'a> {
    arena: &'a ValueArena,
    orders: HashMap<VId, Order, FxBuildHasher>,
}

/// A set's elements in [`Value`] order.
enum Order {
    /// The elements are all naturals or all pairs of naturals.
    Keys(IntKeys),
    /// Any other set: its element handles, sorted by [`TextWriter::cmp`].
    Handles(Rc<[VId]>),
}

/// The integer keys of a set whose elements are all naturals or all
/// pairs of naturals below 2³², a pair `(a, b)` keyed `a·2³² + b`: on
/// such a set the [`Value`] order is the order of the keys, and each
/// element's text is written from its key. A pair with a larger
/// coordinate has no key, and its set is sorted by the node comparator.
struct IntKeys {
    pairs: bool,
    keys: Vec<u64>,
}

impl IntKeys {
    /// The sorted keys of `items`, read in one pass; `None` unless
    /// every element of nonempty `items` has a key of one kind.
    fn of(arena: &ValueArena, items: &[VId]) -> Option<IntKeys> {
        let key = |v: VId| match arena.node_ref(v) {
            Node::Nat(n) => Some((false, *n)),
            Node::Pair(a, b) => {
                let a = u32::try_from(arena.as_nat(*a)?).ok()?;
                let b = u32::try_from(arena.as_nat(*b)?).ok()?;
                Some((true, u64::from(a) << 32 | u64::from(b)))
            }
            _ => None,
        };
        let pairs = key(*items.first()?)?.0;
        let mut keys: Vec<u64> = items
            .iter()
            .map(|&item| match key(item)? {
                (kind, key) if kind == pairs => Some(key),
                _ => None,
            })
            .collect::<Option<_>>()?;
        keys.sort_unstable();
        Some(IntKeys { pairs, keys })
    }

    /// The set's text, each element written from its key.
    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, &key) in self.keys.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            if self.pairs {
                let (a, b) = unpack(key);
                out.push('(');
                push_nat(out, a);
                out.push_str(", ");
                push_nat(out, b);
                out.push(')');
            } else {
                push_nat(out, key);
            }
        }
        out.push('}');
    }

    /// The [`Value`] order between the element keyed `key` and `v`.
    fn cmp_element(&self, arena: &ValueArena, key: u64, v: VId) -> Ordering {
        let nat = |n: u64, v: VId| match arena.node_ref(v) {
            Node::Nat(m) => n.cmp(m),
            node => NAT_RANK.cmp(&rank(node)),
        };
        match arena.node_ref(v) {
            _ if !self.pairs => nat(key, v),
            Node::Pair(a, b) => {
                let (x, y) = unpack(key);
                nat(x, *a).then_with(|| nat(y, *b))
            }
            node => PAIR_RANK.cmp(&rank(node)),
        }
    }
}

impl TextWriter<'_> {
    fn write(&mut self, v: VId, out: &mut String) {
        let arena = self.arena;
        match arena.node_ref(v) {
            Node::Unit => out.push_str("()"),
            Node::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Node::Nat(n) => push_nat(out, *n),
            Node::Pair(a, b) => {
                out.push('(');
                self.write(*a, out);
                out.push_str(", ");
                self.write(*b, out);
                out.push(')');
            }
            Node::Set(items) => {
                let handles = match self.orders.get(&v) {
                    Some(Order::Keys(keyed)) => return keyed.write(out),
                    Some(Order::Handles(handles)) => Rc::clone(handles),
                    // not inside another set, so never compared: its
                    // order is used once and not kept
                    None => match IntKeys::of(arena, items) {
                        Some(keyed) => return keyed.write(out),
                        None => self.sorted_handles(items),
                    },
                };
                out.push('{');
                for (i, &item) in handles.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.write(item, out);
                }
                out.push('}');
            }
        }
    }

    /// Keep the [`Value`] order of the set `set`, whose canonical spine
    /// is `items`, in `orders`. Every set nested in its elements is
    /// ordered first, so [`TextWriter::cmp`] finds each there.
    fn order(&mut self, set: VId, items: &[VId]) {
        if !self.orders.contains_key(&set) {
            let order = match IntKeys::of(self.arena, items) {
                Some(keyed) => Order::Keys(keyed),
                None => Order::Handles(self.sorted_handles(items)),
            };
            self.orders.insert(set, order);
        }
    }

    /// `items` sorted by [`TextWriter::cmp`], after ordering every set
    /// nested in them.
    fn sorted_handles(&mut self, items: &[VId]) -> Rc<[VId]> {
        for &item in items {
            self.order_nested(item);
        }
        let mut sorted = items.to_vec();
        sorted.sort_unstable_by(|&a, &b| self.cmp(a, b));
        sorted.into()
    }

    /// Order every set reachable from `v` through pairs and sets.
    fn order_nested(&mut self, v: VId) {
        let arena = self.arena;
        match arena.node_ref(v) {
            Node::Pair(a, b) => {
                self.order_nested(*a);
                self.order_nested(*b);
            }
            Node::Set(items) => {
                self.order(v, items);
            }
            Node::Unit | Node::Bool(_) | Node::Nat(_) => {}
        }
    }

    /// The [`Value`] order on two handles whose nested sets are all in
    /// `orders`. Equal handles denote equal objects.
    fn cmp(&self, a: VId, b: VId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let arena = self.arena;
        match (arena.node_ref(a), arena.node_ref(b)) {
            (Node::Bool(x), Node::Bool(y)) => x.cmp(y),
            (Node::Nat(x), Node::Nat(y)) => x.cmp(y),
            (Node::Pair(a1, a2), Node::Pair(b1, b2)) => {
                self.cmp(*a1, *b1).then_with(|| self.cmp(*a2, *b2))
            }
            (Node::Set(_), Node::Set(_)) => match (&self.orders[&a], &self.orders[&b]) {
                // both nonempty: elements of different kinds order the
                // sets by their first ones
                (Order::Keys(xs), Order::Keys(ys)) => {
                    xs.pairs.cmp(&ys.pairs).then_with(|| xs.keys.cmp(&ys.keys))
                }
                (Order::Keys(xs), Order::Handles(ys)) => {
                    lexicographic(&xs.keys, ys, |&x, &y| xs.cmp_element(arena, x, y))
                }
                (Order::Handles(xs), Order::Keys(ys)) => {
                    lexicographic(xs, &ys.keys, |&x, &y| ys.cmp_element(arena, y, x).reverse())
                }
                (Order::Handles(xs), Order::Handles(ys)) => {
                    lexicographic(xs, ys, |&x, &y| self.cmp(x, y))
                }
            },
            (x, y) => rank(x).cmp(&rank(y)),
        }
    }
}

/// The position of a node's constructor in [`Value`]'s derived `Ord`.
fn rank(node: &Node) -> u8 {
    match node {
        Node::Unit => 0,
        Node::Bool(_) => 1,
        Node::Nat(_) => NAT_RANK,
        Node::Pair(..) => PAIR_RANK,
        Node::Set(_) => 4,
    }
}

/// The coordinates of a pair from its [`IntKeys`] key.
fn unpack(key: u64) -> (u64, u64) {
    (key >> 32, key & u64::from(u32::MAX))
}

/// The [`rank`] of a natural and of a pair.
const NAT_RANK: u8 = 2;
const PAIR_RANK: u8 = 3;

/// The lexicographic order of two sorted element sequences under the
/// element order `cmp`, a proper prefix first: [`BTreeSet`]'s `Ord`.
fn lexicographic<X, Y>(xs: &[X], ys: &[Y], cmp: impl Fn(&X, &Y) -> Ordering) -> Ordering {
    xs.iter()
        .zip(ys)
        .map(|(x, y)| cmp(x, y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| xs.len().cmp(&ys.len()))
}

/// Append the decimal digits of `n`.
fn push_nat(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Merge two strictly ascending handle vectors into one, deduplicating.
fn merge_sorted(xs: &[VId], ys: &[VId]) -> Vec<VId> {
    let mut out = Vec::with_capacity(xs.len() + ys.len());
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => {
                out.push(xs[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(ys[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(xs[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&xs[i..]);
    out.extend_from_slice(&ys[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_canonical() {
        let mut a = ValueArena::new();
        let v1 = a.intern(&Value::chain(3));
        let v2 = a.chain(3);
        assert_eq!(v1, v2);
        // sets dedup and canonicalise order
        let x = a.nat(1);
        let y = a.nat(2);
        let s1 = a.set([x, y, x]);
        let s2 = a.set([y, x]);
        assert_eq!(s1, s2);
        assert_eq!(a.cardinality(s1), Some(2));
    }

    #[test]
    fn metadata_matches_the_tree_measures() {
        let mut a = ValueArena::new();
        for v in [
            Value::Unit,
            Value::TRUE,
            Value::nat(7),
            Value::edge(1, 2),
            Value::chain(4),
            Value::set([Value::chain(2), Value::empty_set()]),
            Value::pair(Value::chain(1), Value::set([Value::Unit])),
        ] {
            let id = a.intern(&v);
            assert_eq!(a.size(id), v.size(), "size of {v}");
            assert_eq!(a.depth(id) as usize, v.depth(), "depth of {v}");
            assert_eq!(a.resolve(id), v, "round-trip of {v}");
        }
    }

    #[test]
    fn size_saturates_instead_of_overflowing() {
        let mut a = ValueArena::new();
        let mut v = a.nat(0);
        for _ in 0..70 {
            v = a.pair(v, v);
        }
        // the true size is 2⁷¹ − 1 > u64::MAX
        assert_eq!(a.size(v), u64::MAX);
        assert_eq!(a.depth(v), 70);
        // the arena holds only 71 nodes for it
        assert!(a.len() <= 72);
    }

    #[test]
    fn structural_hash_is_arena_independent() {
        let mut a = ValueArena::new();
        let mut b = ValueArena::new();
        // skew b's handle space so indices differ
        b.chain(5);
        let v = Value::set([Value::chain(2), Value::edge(9, 9)]);
        let ia = a.intern(&v);
        let ib = b.intern(&v);
        let ha = a.structural_hash(ia);
        let hb = b.structural_hash(ib);
        assert_eq!(ha, hb);
        let ic = a.intern(&Value::chain(2));
        let hc = a.structural_hash(ic);
        assert_ne!(ha, hc, "different objects should (very likely) differ");
    }

    #[test]
    fn accessors() {
        let mut a = ValueArena::new();
        let e = a.edge(3, 4);
        let (x, y) = a.as_pair(e).unwrap();
        assert_eq!(a.as_nat(x), Some(3));
        assert_eq!(a.as_nat(y), Some(4));
        assert_eq!(a.as_set(e), None);
        let t = a.bool_(true);
        assert_eq!(a.as_bool(t), Some(true));
        let r = a.relation([(2, 3), (0, 1)]);
        assert_eq!(a.to_edges(r), Some(vec![(0, 1), (2, 3)]));
        assert_eq!(a.as_set(r).unwrap().len(), 2);
    }

    #[test]
    fn clear_resets_the_arena() {
        let mut a = ValueArena::new();
        a.chain(3);
        assert!(!a.is_empty());
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.stats().nodes, 0);
        // the arena is fully usable afterwards
        let w = a.chain(3);
        assert_eq!(a.resolve(w), Value::chain(3));
    }

    #[test]
    fn merge_ops_match_btreeset_semantics() {
        let mut a = ValueArena::new();
        let x = a.relation([(0, 1), (1, 2), (3, 4)]);
        let y = a.relation([(1, 2), (3, 4), (7, 8)]);
        let union = a.set_union(x, y).unwrap();
        assert_eq!(
            a.resolve(union),
            Value::relation([(0, 1), (1, 2), (3, 4), (7, 8)])
        );
        let diff = a.set_difference(x, y).unwrap();
        assert_eq!(a.resolve(diff), Value::relation([(0, 1)]));
        assert_eq!(a.is_subset(diff, x), Some(true));
        assert_eq!(a.is_subset(x, y), Some(false));
        // non-sets are refused, not misinterpreted
        let e12 = a.edge(1, 2);
        assert_eq!(a.set_union(e12, x), None);
        assert_eq!(a.set_difference(e12, e12), None);
        assert_eq!(a.is_subset(e12, x), None);
    }

    #[test]
    fn merge_ops_degenerate_cases() {
        let mut a = ValueArena::new();
        let x = a.relation([(0, 1)]);
        let empty = a.empty_set();
        assert_eq!(a.set_union(x, x), Some(x));
        assert_eq!(a.set_union(x, empty), Some(x));
        assert_eq!(a.set_difference(x, x), Some(empty));
        assert_eq!(a.set_difference(empty, x), Some(empty));
        assert_eq!(a.is_subset(empty, x), Some(true));
        assert_eq!(a.is_subset(x, empty), Some(false));
        assert_eq!(a.is_subset(empty, empty), Some(true));
    }

    #[test]
    fn sorted_merge_flattens_without_resorting() {
        let mut a = ValueArena::new();
        let parts: Vec<VId> = vec![
            a.relation([(2, 3), (4, 5)]),
            a.empty_set(),
            a.relation([(0, 1)]),
            a.relation([(0, 1), (2, 3)]),
            a.relation([(6, 7)]),
        ];
        let merged = a.set_from_sorted_merge(&parts).unwrap();
        assert_eq!(
            a.resolve(merged),
            Value::relation([(0, 1), (2, 3), (4, 5), (6, 7)])
        );
        // degenerate widths
        assert_eq!(a.set_from_sorted_merge(&[]), Some(a.empty_set()));
        assert_eq!(a.set_from_sorted_merge(&[parts[0]]), Some(parts[0]));
        // any non-set refuses the whole merge
        let n = a.nat(3);
        assert_eq!(a.set_from_sorted_merge(&[parts[0], n]), None);
    }

    #[test]
    fn delta_cardinality_counts_the_difference() {
        let mut a = ValueArena::new();
        let old = a.relation([(0, 1), (2, 3)]);
        let new = a.relation([(0, 1), (1, 2), (4, 5)]);
        let grown = a.set_union(old, new).unwrap();
        let empty = a.empty_set();
        // the count-only scan agrees with the interned frontier
        for (x, y) in [
            (old, new),
            (new, old),
            (old, grown),
            (empty, new),
            (old, old),
        ] {
            let fresh = a.set_difference(y, x).unwrap();
            assert_eq!(
                a.set_delta_cardinality(x, y),
                Some(a.cardinality(fresh).unwrap() as u64)
            );
        }
        // non-sets refuse
        let n = a.nat(7);
        assert_eq!(a.set_delta_cardinality(n, new), None);
        assert_eq!(a.set_delta_cardinality(old, n), None);
    }

    #[test]
    fn occupancy_introspection() {
        let mut a = ValueArena::new();
        assert_eq!(a.node_count(), 0);
        // an empty arena is charged its store's fixed tables only
        let empty = a.approx_resident_bytes();
        assert!(empty < 64 << 10, "{empty} bytes for an empty store");
        a.chain(4);
        assert_eq!(a.node_count(), a.len());
        let stats = a.stats();
        assert_eq!(stats.nodes, a.node_count());
        assert_eq!(stats.approx_bytes, a.approx_resident_bytes());
        // the first node allocates a whole chunk of slots
        assert!(stats.approx_bytes >= empty + crate::store::CHUNK * std::mem::size_of::<u64>());
    }

    // the shared store's thread-mobility contract, checked at compile time
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ValueArena>();
    };

    #[test]
    fn shared_clones_intern_canonically() {
        let mut a = ValueArena::new();
        let before = a.chain_tc(3);
        let (size, depth, hash) = (a.size(before), a.depth(before), a.structural_hash(before));
        let mut b = a.shared_clone();
        let mut c = a.shared_clone();
        // handles, metadata and accounting are the store's, not a clone's
        assert_eq!(b.resolve(before), Value::chain_tc(3));
        assert_eq!(
            (b.size(before), b.depth(before), b.structural_hash(before)),
            (size, depth, hash)
        );
        assert_eq!(b.stats(), a.stats());
        // equal objects intern to equal handles through any clone
        assert_eq!(b.chain_tc(3), before, "a clone's lookup hits");
        let x = b.chain_tc(4);
        let y = c.chain_tc(4);
        let z = a.chain_tc(4);
        assert_eq!(x, y);
        assert_eq!(x, z);
        // and everyone observes everyone's nodes
        let fresh = b.relation([(41, 42)]);
        assert_eq!(c.resolve(fresh), Value::relation([(41, 42)]));
        assert_eq!(a.len(), b.len());
        a.catch_up();
        assert_eq!(a.resolve(fresh), Value::relation([(41, 42)]));
    }

    #[test]
    fn shared_clear_detaches_from_the_old_store() {
        let mut a = ValueArena::new();
        let v = a.chain(3);
        let b = a.shared_clone();
        a.clear();
        assert!(a.is_empty());
        // the clone still points at the old store, untouched
        assert_eq!(b.resolve(v), Value::chain(3));
        // the cleared arena is fully usable on its fresh store
        let w = a.chain(3);
        assert_eq!(a.resolve(w), Value::chain(3));
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn shared_stale_handle_panics() {
        let mut a = ValueArena::new();
        a.chain(2);
        a.clear();
        let fabricated = VId::from_index(1 << 20);
        a.size(fabricated);
    }

    #[test]
    fn shared_store_under_concurrent_interning() {
        let mut a = ValueArena::new();
        let expect_tc = a.chain_tc(6);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let mut worker = a.shared_clone();
                scope.spawn(move || {
                    for round in 0..8u64 {
                        let tc = worker.chain_tc(6);
                        assert_eq!(tc, expect_tc, "canonical across threads");
                        let r = worker.relation([(w, round), (round, w)]);
                        let u = worker.set_union(tc, r).unwrap();
                        let fresh = worker.set_difference(r, tc).unwrap();
                        assert_eq!(worker.set_union(tc, fresh), Some(u));
                    }
                });
            }
        });
        // every worker's nodes are visible here, and the store is canonical
        assert_eq!(a.chain_tc(6), expect_tc);
        assert!(!a.is_empty());
        assert_eq!(a.stats().nodes, a.len());
    }

    #[test]
    fn a_growing_store_keeps_every_handle() {
        // enough nodes to grow every index shard several times and to
        // fill many slot chunks; every node keeps its handle and value
        let mut a = ValueArena::new();
        let n = 3 * crate::store::CHUNK as u64;
        let pairs: Vec<VId> = (0..n).map(|i| a.edge(i, i / 7)).collect();
        for (i, &p) in pairs.iter().enumerate() {
            let i = i as u64;
            assert_eq!(a.edge(i, i / 7), p, "re-interning hits");
            let single = a.set([p]);
            assert_eq!(a.to_edges(single), Some(vec![(i, i / 7)]));
        }
        let before = a.approx_resident_bytes();
        a.relation([(0, 0)]);
        assert!(a.approx_resident_bytes() >= before);
    }

    #[test]
    fn empty_set_and_relations() {
        let mut a = ValueArena::new();
        let e = a.empty_set();
        assert_eq!(a.size(e), 1);
        assert_eq!(a.cardinality(e), Some(0));
        assert_eq!(a.resolve(e), Value::empty_set());
        let tc = a.chain_tc(3);
        assert_eq!(a.resolve(tc), Value::chain_tc(3));
        assert_eq!(a.to_edges(tc).unwrap().len(), 6);
    }

    #[test]
    fn dense_domain_cap_reads_the_packable_domain() {
        let mut a = ValueArena::new();
        let r = a.relation((0..100).map(|i| (i, i + 1)));
        assert_eq!(a.dense_domain_cap(r), Some(101));
        let nats: Vec<VId> = (0..200).map(|i| a.nat(i)).collect();
        let atoms = a.set(nats);
        assert_eq!(a.dense_domain_cap(atoms), Some(200));
        let empty = a.empty_set();
        assert_eq!(a.dense_domain_cap(empty), Some(1));
        // coordinates beyond the cap, mixed kinds and non-sets have none
        let wide = a.relation([(0, DENSE_MAX_COORD)]);
        assert_eq!(a.dense_domain_cap(wide), None);
        let (one, e) = (a.nat(1), a.edge(1, 2));
        let mixed = a.set([one, e]);
        assert_eq!(a.dense_domain_cap(mixed), None);
        assert_eq!(a.dense_domain_cap(one), None);
    }
}
