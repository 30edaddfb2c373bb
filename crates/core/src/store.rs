//! The append-only hash-consing store behind both arenas.
//!
//! [`crate::value::intern::ValueArena`] and
//! [`crate::expr::intern::ExprArena`] keep their nodes in one
//! [`Store`] each, reached through a [`View`]. An arena is shareable from
//! birth: [`View::share`] hands out another view of the same store, and
//! every view interns canonically into it, from any thread. A lookup
//! takes no lock, and the store's only view takes none to insert either:
//!
//! * **Node slots** live in fixed chunks of [`CHUNK`] write-once
//!   [`OnceLock`] slots. A chunk is allocated when the first node lands
//!   in it, so storage is touched only as nodes are written, and a slot
//!   never moves once published. The store finds a chunk through a
//!   lock-free directory of doubling levels; each view also keeps its own
//!   vector of the chunks it has used, so a read is one vector index and
//!   one `OnceLock::get`. Reads of nodes another view allocated in a
//!   chunk this view has not met take the directory path, until
//!   [`View::catch_up`] or the view's next intern extends its vector.
//! * **The dedup index** is [`SHARDS`] open-addressing tables of
//!   two-word atomic entries: a head (the node's kind and 29 hash bits
//!   over its index) and the node's [`Keyed::key`] word. One hash
//!   chooses shard, position and tag, all from its high bits, which
//!   FxHash mixes best. A node whose kind and key word
//!   determine it (a pair, a natural, a unary or binary expression node)
//!   is matched on the entry alone; only sets and wider nodes are
//!   compared against their slot. Each view keeps the table it last saw
//!   for every shard, so a lookup takes no lock and loads no shared
//!   pointer before it probes.
//! * **Inserting** takes the shard's mutex, brings the view's table up
//!   to the shard's current one, probes again (another view may have
//!   inserted the node meanwhile), claims a fresh index from one atomic
//!   counter, writes the slot, and only then publishes the entry and
//!   lets the mutex go. An insert therefore returns an index only once
//!   its slot is written, so every handle a caller holds, and every
//!   child handle in a node it reads, names a written slot: readers such
//!   as [`crate::expr::intern::ExprArena::node_ref`] never wait. A view
//!   that holds the store's only `Arc` reaches the shard through
//!   [`Arc::get_mut`] instead, so an unshared arena pays one
//!   compare-and-swap for the check and plain loads and stores for its
//!   counters, not the mutex's two atomic operations and the claim's
//!   third. The slot write is a [`OnceLock::set`] either way.
//! * **Growth.** A shard doubles its table under its mutex. A view that
//!   still holds the old table keeps it alive; the old table is never
//!   written again, so a lookup in it can miss a present node (the
//!   insert that follows finds it under the lock), never return a wrong
//!   one. A table leaves the store's books when its last holder drops it.
//!
//! Lock order: a shard mutex is the only lock, and nothing else is
//! acquired while it is held, except the directory's `OnceLock`
//! initialisers, which take no lock of the store. A poisoned shard
//! mutex is recovered: an insert publishes its entry before it counts
//! it, and a growth replaces the shard's table only once filled, so a
//! panic at any step leaves the shard's table valid.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Node slots per storage chunk, as a power of two.
const CHUNK_BITS: u32 = 10;

/// Node slots per storage chunk.
pub(crate) const CHUNK: usize = 1 << CHUNK_BITS;

/// Levels of the chunk directory: level `d` holds `2^d` chunks, so 23
/// levels cover the `u32` handle space.
const DIR_LEVELS: usize = 23;

/// Dedup-index shards, as a power of two.
const SHARD_BITS: u32 = 4;

/// Dedup-index shards.
const SHARDS: usize = 1 << SHARD_BITS;

/// Entries of a shard's first index table.
const FIRST_TABLE: usize = 16;

/// Hash bits an index entry keeps: their top bits place the entry in its
/// table, and all of them screen candidates before a key is compared.
const TAG_BITS: u32 = 29;

const TAG_MASK: u64 = (1 << TAG_BITS) - 1;

/// What the dedup index keeps of a node beside its index, so that a
/// lookup decides most candidates without reading their slots.
pub(crate) trait Keyed: Eq {
    /// The node's kind (below 8) and, when the kind and one word
    /// determine the node, that word: two nodes of one kind with equal
    /// words must be equal.
    fn key(&self) -> (u8, Option<u64>);
}

/// One storage chunk: a fixed run of write-once slots.
type Chunk<T> = Arc<[OnceLock<T>]>;

/// One level of the chunk directory.
type DirLevel<T> = Box<[OnceLock<Chunk<T>>]>;

/// Where chunk `chunk` sits in the directory: level `⌊log₂(chunk + 1)⌋`.
#[inline]
fn dir_pos(chunk: usize) -> (usize, usize) {
    let adjusted = chunk + 1;
    let level = (usize::BITS - 1 - adjusted.leading_zeros()) as usize;
    (level, adjusted - (1 << level))
}

/// One dedup index table: open addressing over `[head, key]` entries. A
/// head is the node's kind and tag over its index plus one (0 while the
/// entry is empty). Dropping a table takes its entries off the store's
/// books.
struct Table {
    entries: Box<[[AtomicU64; 2]]>,
    /// How far a tag's hash bits shift down to their top `log₂(len)`.
    shift: u32,
    live: Arc<AtomicUsize>,
}

impl Table {
    fn new(len: usize, live: &Arc<AtomicUsize>) -> Self {
        live.fetch_add(len, Ordering::Relaxed);
        Table {
            entries: (0..len)
                .map(|_| [AtomicU64::new(0), AtomicU64::new(0)])
                .collect(),
            shift: TAG_BITS.saturating_sub(len.trailing_zeros()),
            live: Arc::clone(live),
        }
    }

    /// Where `tag`'s probe chain starts: the top bits of its hash bits
    /// (FxHash mixes its high bits best).
    #[inline]
    fn home(&self, tag: u64) -> usize {
        ((tag & TAG_MASK) >> self.shift) as usize & (self.entries.len() - 1)
    }

    /// The first empty entry on `tag`'s probe chain.
    fn vacant(&self, tag: u64) -> usize {
        let mask = self.entries.len() - 1;
        let mut pos = self.home(tag);
        while self.entries[pos][0].load(Ordering::Relaxed) != 0 {
            pos = (pos + 1) & mask;
        }
        pos
    }

    /// A table of twice the size holding every entry of this one.
    /// Called under the shard's mutex, which ordered every write to
    /// this table before it.
    fn grown(&self) -> Table {
        let table = Table::new(self.entries.len() * 2, &self.live);
        for [head, key] in self.entries.iter() {
            let head = head.load(Ordering::Relaxed);
            if head != 0 {
                let [to_head, to_key] = &table.entries[table.vacant(head >> 32)];
                to_key.store(key.load(Ordering::Relaxed), Ordering::Relaxed);
                to_head.store(head, Ordering::Relaxed);
            }
        }
        table
    }
}

impl Drop for Table {
    fn drop(&mut self) {
        self.live.fetch_sub(self.entries.len(), Ordering::Relaxed);
    }
}

/// One dedup shard behind its insert lock: the current table (none
/// before the shard's first insert) and how many entries it holds.
#[derive(Default)]
struct Shard {
    table: Option<Arc<Table>>,
    entries: usize,
}

/// The tag of a node's index entries: its kind over the [`TAG_BITS`]
/// hash bits below the shard's.
#[inline]
fn tag_of(hash: u64, kind: u8) -> u64 {
    ((kind as u64) << TAG_BITS) | ((hash >> (64 - SHARD_BITS - TAG_BITS)) & TAG_MASK)
}

/// A node's shard: the top bits of its hash.
#[inline]
fn shard_of(hash: u64) -> usize {
    (hash >> (64 - SHARD_BITS)) as usize
}

/// The shared part of an arena: its dedup shards and its nodes.
pub(crate) struct Store<N, M> {
    shards: [Mutex<Shard>; SHARDS],
    nodes: Nodes<N, M>,
}

/// A store's node slots, their directory, and the counters every view
/// reads. Records are `(node, metadata)` pairs.
struct Nodes<N, M> {
    dir: [OnceLock<DirLevel<(N, M)>>; DIR_LEVELS],
    /// Indices claimed so far (a claimed slot is written before its
    /// claimer releases its shard).
    next: AtomicUsize,
    /// Entries of every index table some view or shard still holds.
    index_entries: Arc<AtomicUsize>,
    /// Sum of the weights passed to [`View::insert`], and the number of
    /// records that carried one.
    weight: AtomicUsize,
    weighted: AtomicUsize,
}

impl<N, M> Store<N, M> {
    fn new() -> Self {
        Store {
            shards: std::array::from_fn(|_| Mutex::default()),
            nodes: Nodes {
                dir: std::array::from_fn(|_| OnceLock::new()),
                next: AtomicUsize::new(0),
                index_entries: Arc::default(),
                weight: AtomicUsize::new(0),
                weighted: AtomicUsize::new(0),
            },
        }
    }
}

impl<N, M> Nodes<N, M> {
    /// Chunk `chunk`, if any view has allocated it.
    fn chunk(&self, chunk: usize) -> Option<&Chunk<(N, M)>> {
        let (level, offset) = dir_pos(chunk);
        self.dir.get(level)?.get()?.get(offset)?.get()
    }

    /// Chunk `chunk`, allocated (with its directory level) on first use.
    fn chunk_or_create(&self, chunk: usize) -> &Chunk<(N, M)> {
        let (level, offset) = dir_pos(chunk);
        self.dir[level].get_or_init(|| (0..1usize << level).map(|_| OnceLock::new()).collect())
            [offset]
            .get_or_init(|| (0..CHUNK).map(|_| OnceLock::new()).collect())
    }

    /// The record at `index` through the directory. Panics on an index
    /// this store never issued — the stale-handle failure mode.
    #[cold]
    #[inline(never)]
    fn get(&self, index: usize) -> &(N, M) {
        self.chunk(index >> CHUNK_BITS)
            .and_then(|chunk| chunk[index & (CHUNK - 1)].get())
            .unwrap_or_else(|| {
                panic!(
                    "stale handle: index {index} was never issued by this arena \
                     (evicted generation, or a foreign arena's handle)"
                )
            })
    }

    /// Add `n` to `counter`: an atomic add, or for the store's only
    /// view (`exclusive`) a plain load and store.
    fn bump(counter: &AtomicUsize, n: usize, exclusive: bool) {
        if exclusive {
            counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        } else {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// The record at `index`, read through `chunks` (a view's prefix of the
/// store's chunks) or else the directory; panics on an index the store
/// never issued.
#[inline]
fn read<'a, N, M>(chunks: &'a [Chunk<(N, M)>], nodes: &'a Nodes<N, M>, index: usize) -> &'a (N, M) {
    match chunks
        .get(index >> CHUNK_BITS)
        .and_then(|chunk| chunk[index & (CHUNK - 1)].get())
    {
        Some(record) => record,
        None => nodes.get(index),
    }
}

/// Probe `table` for `node`: `Ok(index)` if present, else
/// `Err(position)` of the empty entry that ends its chain.
#[inline]
fn probe<N: Keyed, M>(
    table: &Table,
    (tag, key): (u64, Option<u64>),
    node: &N,
    chunks: &[Chunk<(N, M)>],
    nodes: &Nodes<N, M>,
) -> Result<usize, usize> {
    let mask = table.entries.len() - 1;
    let mut pos = table.home(tag);
    loop {
        let [head, word] = &table.entries[pos];
        // acquire: the entry's key word and the node's slot were written
        // before its head
        let head = head.load(Ordering::Acquire);
        if head == 0 {
            return Err(pos);
        }
        if head >> 32 == tag {
            let index = (head as u32 - 1) as usize;
            let equal = match key {
                Some(key) => word.load(Ordering::Relaxed) == key,
                None => read(chunks, nodes, index).0 == *node,
            };
            if equal {
                return Ok(index);
            }
        }
        pos = (pos + 1) & mask;
    }
}

/// A node on its way into the store, with the hash it was looked up by.
struct Fresh<N, M> {
    hash: u64,
    node: N,
    meta: M,
    weight: Option<usize>,
}

/// Insert `fresh` into `shard` (its mutex held, or the store's only view
/// reaching it through `&mut`, which is `exclusive`): bring the view's
/// table `seen` up to the shard's, probe again, grow the table if it
/// would pass half load, then claim an index, write the slot and
/// publish the entry.
fn insert_into<N: Keyed, M>(
    nodes: &Nodes<N, M>,
    shard: &mut Shard,
    exclusive: bool,
    chunks: &mut Vec<Chunk<(N, M)>>,
    seen: &mut Option<Arc<Table>>,
    fresh: Fresh<N, M>,
) -> usize {
    let Fresh {
        hash,
        node,
        meta,
        weight,
    } = fresh;
    let (kind, key) = node.key();
    let tag = tag_of(hash, kind);
    let current = shard
        .table
        .get_or_insert_with(|| Arc::new(Table::new(FIRST_TABLE, &nodes.index_entries)));
    if !seen.as_ref().is_some_and(|t| Arc::ptr_eq(t, current)) {
        *seen = Some(Arc::clone(current));
    }
    let table = seen.as_deref().expect("the view's table is current");
    let mut pos = match probe(table, (tag, key), &node, chunks, nodes) {
        Ok(index) => return index,
        Err(pos) => pos,
    };
    if (shard.entries + 1) * 2 > table.entries.len() {
        let grown = Arc::new(table.grown());
        pos = grown.vacant(tag);
        shard.table = Some(Arc::clone(&grown));
        *seen = Some(grown);
    }
    // claim only a representable index, so a refused claim leaves no
    // hole below `len`
    let full = "arena: more than 2³² − 1 nodes";
    let index = if exclusive {
        let index = nodes.next.load(Ordering::Relaxed);
        assert!(index < u32::MAX as usize, "{full}");
        nodes.next.store(index + 1, Ordering::Relaxed);
        index
    } else {
        nodes
            .next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < u32::MAX as usize).then_some(n + 1)
            })
            .expect(full)
    };
    while chunks.len() <= index >> CHUNK_BITS {
        let chunk = nodes.chunk_or_create(chunks.len());
        chunks.push(Arc::clone(chunk));
    }
    if chunks[index >> CHUNK_BITS][index & (CHUNK - 1)]
        .set((node, meta))
        .is_err()
    {
        unreachable!("a claimed index is written once");
    }
    if let Some(weight) = weight {
        Nodes::<N, M>::bump(&nodes.weight, weight, exclusive);
        Nodes::<N, M>::bump(&nodes.weighted, 1, exclusive);
    }
    // publish: the slot and key word are written before the head, so a
    // lookup that finds the head finds both
    let [head, word] = &seen.as_deref().expect("set above").entries[pos];
    word.store(key.unwrap_or(0), Ordering::Relaxed);
    head.store((tag << 32) | (index as u64 + 1), Ordering::Release);
    shard.entries += 1;
    index
}

/// One handle on a [`Store`]: the store, the chunks this view has met,
/// in order (a prefix of the store's chunks), and each shard's index
/// table as this view last saw it.
pub(crate) struct View<N, M> {
    store: Arc<Store<N, M>>,
    chunks: Vec<Chunk<(N, M)>>,
    tables: [Option<Arc<Table>>; SHARDS],
}

impl<N: Keyed, M> View<N, M> {
    /// A view of a fresh, empty store.
    pub(crate) fn new() -> Self {
        View {
            store: Arc::new(Store::new()),
            chunks: Vec::new(),
            tables: Default::default(),
        }
    }

    /// Another view of the same store.
    pub(crate) fn share(&self) -> Self {
        View {
            store: Arc::clone(&self.store),
            chunks: self.chunks.clone(),
            tables: self.tables.clone(),
        }
    }

    /// Extend this view's chunk vector to every chunk the store holds,
    /// so reads of nodes other views interned take the fast path.
    pub(crate) fn catch_up(&mut self) {
        while let Some(chunk) = self.store.nodes.chunk(self.chunks.len()) {
            self.chunks.push(Arc::clone(chunk));
        }
    }

    /// Indices claimed so far. Under concurrent interning this may count
    /// an index whose record its claimer is still writing.
    pub(crate) fn len(&self) -> usize {
        self.store.nodes.next.load(Ordering::Acquire)
    }

    /// The record at `index`; panics on an index the store never issued.
    #[inline]
    pub(crate) fn get(&self, index: usize) -> &(N, M) {
        read(&self.chunks, &self.store.nodes, index)
    }

    /// The index of `node` if it is interned. Takes no lock; may miss a
    /// node another view inserted since this view last saw the shard.
    #[inline]
    pub(crate) fn find(&self, hash: u64, node: &N) -> Option<usize> {
        let table = self.tables[shard_of(hash)].as_deref()?;
        let (kind, key) = node.key();
        probe(
            table,
            (tag_of(hash, kind), key),
            node,
            &self.chunks,
            &self.store.nodes,
        )
        .ok()
    }

    /// Intern `node` with its metadata: the index of an equal node if
    /// one is present by now, else a fresh index holding `(node, meta)`.
    /// A fresh record with `weight: Some(w)` adds `w` to
    /// [`View::weight`]. The store's only view reaches the shard through
    /// `&mut` and takes no lock (`Arc::get_mut` acquires the `Release`
    /// drop of every other view, so their writes are visible to its
    /// plain loads); any other view takes the shard's mutex.
    pub(crate) fn insert(&mut self, hash: u64, node: N, meta: M, weight: Option<usize>) -> usize {
        let s = shard_of(hash);
        let fresh = Fresh {
            hash,
            node,
            meta,
            weight,
        };
        let View {
            store,
            chunks,
            tables,
        } = self;
        if let Some(Store { shards, nodes }) = Arc::get_mut(store) {
            let shard = shards[s].get_mut().unwrap_or_else(PoisonError::into_inner);
            return insert_into(nodes, shard, true, chunks, &mut tables[s], fresh);
        }
        let mut shard = store.shards[s]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        insert_into(
            &store.nodes,
            &mut shard,
            false,
            chunks,
            &mut tables[s],
            fresh,
        )
    }

    /// Sum of the weights of the weighted records, and their number.
    pub(crate) fn weight(&self) -> (usize, usize) {
        (
            self.store.nodes.weight.load(Ordering::Relaxed),
            self.store.nodes.weighted.load(Ordering::Relaxed),
        )
    }

    /// Bytes the store holds for its slots, directory and index, not
    /// counting heap data the records own: the store itself, every chunk
    /// allocated (slots and `Arc` header), twice a chunk's directory
    /// entry and view-vector entry (both grow by doubling), and every
    /// index table a shard or view still holds.
    pub(crate) fn resident_bytes(&self) -> usize {
        let chunks = self.len().div_ceil(CHUNK);
        let per_chunk = CHUNK * std::mem::size_of::<OnceLock<(N, M)>>()
            + 2 * std::mem::size_of::<usize>()
            + 2 * std::mem::size_of::<OnceLock<Chunk<(N, M)>>>()
            + 2 * std::mem::size_of::<Chunk<(N, M)>>();
        std::mem::size_of::<Store<N, M>>()
            + chunks * per_chunk
            + self.store.nodes.index_entries.load(Ordering::Relaxed)
                * std::mem::size_of::<[AtomicU64; 2]>()
    }
}
