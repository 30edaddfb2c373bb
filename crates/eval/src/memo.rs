//! The apply table: one `(EId, VId) → VId` cache for every cached
//! evaluation.
//!
//! §3's judgments `f(C) ⇓ C'` are pure, so one table of them serves
//! every caller: a session and each of its batch workers hold an
//! [`ApplyView`], and views
//! [shared](ApplyView::share) off one another probe and fill the same
//! slots, so one worker's derivation is every worker's hit. The table is
//! the classic BDD apply cache: 2¹⁶ direct-mapped, lossy slots, each
//! holding a packed `(EId, VId)` key, the result, the recorded
//! as-if-uncached cost of the judgment's derivation (what a hit charges
//! against the node budget), and the stamp of the query that wrote it.
//! A colliding store overwrites, and the judgment is re-derived at its
//! next encounter, which changes no result, only a hit counter. The
//! walker caches every rule, leaves included: a leaf hit skips the
//! per-node §3 bookkeeping (rule counting and two size observations),
//! which costs more than the probe.
//!
//! * **Stamps.** Every [`ApplyView::open`] draws a fresh stamp from
//!   the table's counter, and a hit on an entry another stamp wrote (an
//!   earlier query, or another view) is *warm*. A view sees every entry
//!   of its table: a table lives exactly as long as the arenas its
//!   handles point into, because a session that clears its arenas moves
//!   onto a fresh table in the same call. A slot keeps the low 32 bits
//!   of its writer's stamp, so stamps compare modulo 2³²: after 2³²
//!   queries on one table a hit can be classified warm or not wrongly,
//!   which moves a hit counter and never the entry returned.
//! * **No lock.** A slot is four atomic words, the first a sequence
//!   word: even while the slot is stable, odd while a writer fills it. A
//!   probe reads the sequence word, the payload and the sequence word
//!   again, and trusts the payload only if both reads agree and are
//!   even. A writer whose table has other holders claims the slot by
//!   moving its sequence word to odd (one compare-and-swap; a slot
//!   another writer holds is skipped, and the store is lost), writes the
//!   payload, and publishes the next even value. A view whose table has
//!   no other holder, which [`ApplyView::open`] checks with
//!   `Arc::get_mut`, has no reader to race and stores with plain writes.
//! * **Allocation.** Slots come in stripes of 512, each allocated by its
//!   first store (a probe of an unallocated stripe misses), so a fresh
//!   table costs nothing until it is used.

use nra_core::expr::intern::EId;
use nra_core::value::intern::VId;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Slots of an apply table, as a power of two (2¹⁶ slots of 32 bytes).
const SLOT_BITS: u32 = 16;
/// Slots per stripe, as a power of two: a `map` loop, which probes one
/// `EId` over ascending element ids, walks consecutive slots of one
/// stripe.
const STRIPE_BITS: u32 = 9;
const STRIPE: usize = 1 << STRIPE_BITS;
const STRIPES: usize = 1 << (SLOT_BITS - STRIPE_BITS);

/// The key of a never-written slot: no judgment packs to it while both
/// arenas hold fewer than 2³² nodes (they panic before that).
const EMPTY: u64 = u64::MAX;

/// One slot: the sequence word, the packed key, the writer's stamp over
/// the result's index, and the recorded cost.
struct Slot {
    seq: AtomicU64,
    key: AtomicU64,
    out: AtomicU64,
    cost: AtomicU64,
}

impl Slot {
    fn blank() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            key: AtomicU64::new(EMPTY),
            out: AtomicU64::new(0),
            cost: AtomicU64::new(0),
        }
    }
}

/// A fresh stripe, its blank slots written straight into the heap
/// allocation (`Box::new` of an array value builds the 16 KiB on the
/// stack first and copies it).
fn blank_stripe() -> Box<[Slot; STRIPE]> {
    let slots: Box<[Slot]> = std::iter::repeat_with(Slot::blank).take(STRIPE).collect();
    match slots.try_into() {
        Ok(stripe) => stripe,
        Err(_) => unreachable!("a stripe is STRIPE slots"),
    }
}

/// The slots every view of one table shares, and its stamp counter.
struct Table {
    stripes: [OnceLock<Box<[Slot; STRIPE]>>; STRIPES],
    next_stamp: AtomicU64,
}

/// The packed key of a judgment.
#[inline]
fn pack(eid: EId, input: VId) -> u64 {
    ((eid.index() as u64) << 32) | input.index() as u64
}

/// The stripe and position of a key's slot. The expression id is
/// Fibonacci-scrambled and the value id added *linearly*: two judgments
/// on one expression collide only when their value ids differ by a
/// multiple of the table length, and a `map` loop walks consecutive
/// slots, so the hardware prefetcher hides the table's memory latency.
#[inline]
fn slot_of(key: u64) -> (usize, usize) {
    let eid = key >> 32;
    let slot = (eid.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(key) as usize)
        & ((1 << SLOT_BITS) - 1);
    (slot >> STRIPE_BITS, slot & (STRIPE - 1))
}

/// One holder's view of an apply table: the table and the stamp of the
/// query this view has open — see the [module docs](self).
pub struct ApplyView {
    table: Arc<Table>,
    stamp: u32,
    /// Whether the table had no other holder when the query opened.
    exclusive: bool,
}

impl Default for ApplyView {
    fn default() -> Self {
        ApplyView::new()
    }
}

impl ApplyView {
    /// A view of a fresh, empty table.
    pub fn new() -> Self {
        ApplyView {
            table: Arc::new(Table {
                stripes: std::array::from_fn(|_| OnceLock::new()),
                next_stamp: AtomicU64::new(0),
            }),
            stamp: 0,
            exclusive: false,
        }
    }

    /// A worker view of the same table: it draws its own stamp at its
    /// first [`ApplyView::open`].
    pub fn share(&mut self) -> ApplyView {
        // this view now has a reader to race until its next open
        self.exclusive = false;
        ApplyView {
            table: Arc::clone(&self.table),
            stamp: self.stamp,
            exclusive: false,
        }
    }

    /// Open the next query under a fresh stamp. Every entry stored
    /// before it stays visible, and a hit on one is warm.
    pub fn open(&mut self) {
        let (stamp, exclusive) = match Arc::get_mut(&mut self.table) {
            Some(table) => {
                let next = table.next_stamp.get_mut();
                *next += 1;
                (*next - 1, true)
            }
            None => (self.table.next_stamp.fetch_add(1, Ordering::Relaxed), false),
        };
        self.stamp = stamp as u32;
        self.exclusive = exclusive;
    }

    /// The cached judgment `eid(input)`, if the table holds one: its
    /// result, the recorded as-if-uncached cost of its derivation, and
    /// whether it is warm (another stamp wrote it). Takes no lock.
    #[inline]
    pub fn probe(&self, eid: EId, input: VId) -> Option<(VId, u64, bool)> {
        let key = pack(eid, input);
        let (stripe, at) = slot_of(key);
        let slot = &self.table.stripes[stripe].get()?[at];
        // acquire: a stable sequence value orders the payload it covers
        // before the payload reads
        let seq = slot.seq.load(Ordering::Acquire);
        if slot.key.load(Ordering::Relaxed) != key {
            return None;
        }
        let out = slot.out.load(Ordering::Relaxed);
        let cost = slot.cost.load(Ordering::Relaxed);
        // acquire: a payload read that saw a later writer's word makes the
        // second sequence read see that writer's claim
        fence(Ordering::Acquire);
        if seq & 1 == 1 || slot.seq.load(Ordering::Relaxed) != seq {
            return None;
        }
        let stamp = (out >> 32) as u32;
        Some((
            VId::from_index(out as u32 as usize),
            cost,
            stamp != self.stamp,
        ))
    }

    /// Record `eid(input) ⇓ out` at the cost of `cost` derivation nodes,
    /// under this view's stamp, over whatever the slot held.
    #[inline]
    pub fn store(&mut self, eid: EId, input: VId, out: VId, cost: u64) {
        let key = pack(eid, input);
        let word = (u64::from(self.stamp) << 32) | out.index() as u64;
        let (stripe, at) = slot_of(key);
        let slot = &self.table.stripes[stripe].get_or_init(blank_stripe)[at];
        if self.exclusive {
            // no other holder since this query opened: `Arc::get_mut`
            // acquired every earlier holder's release of its `Arc`, and
            // a view shared off this one later reaches its thread
            // through a handoff that orders these writes before it
            slot.key.store(key, Ordering::Relaxed);
            slot.out.store(word, Ordering::Relaxed);
            slot.cost.store(cost, Ordering::Relaxed);
            return;
        }
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1
            || slot
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        // release: a reader that sees any payload word below also sees
        // the odd claim above
        fence(Ordering::Release);
        slot.key.store(key, Ordering::Relaxed);
        slot.out.store(word, Ordering::Relaxed);
        slot.cost.store(cost, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Bytes the table holds once every stripe is in use, which is what
    /// a session's resident budget charges for it.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Table>() + (1 << SLOT_BITS) * std::mem::size_of::<Slot>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_testkit::{check, Rng};
    use std::sync::Barrier;

    fn e(i: u64) -> EId {
        EId::from_index(i as usize)
    }

    fn v(i: u64) -> VId {
        VId::from_index(i as usize)
    }

    #[test]
    fn a_worker_view_shares_its_parents_entries() {
        let mut parent = ApplyView::new();
        parent.open();
        parent.store(e(1), v(1), v(10), 0);
        assert_eq!(
            parent.probe(e(1), v(1)),
            Some((v(10), 0, false)),
            "own query"
        );
        let mut worker = parent.share();
        worker.open();
        assert_eq!(worker.probe(e(1), v(1)), Some((v(10), 0, true)));
        // and what the worker stores is warm for the parent's next query
        worker.store(e(2), v(2), v(30), 5);
        parent.open();
        assert_eq!(parent.probe(e(2), v(2)), Some((v(30), 5, true)));
        assert_eq!(parent.probe(e(1), v(1)), Some((v(10), 0, true)));
    }

    #[test]
    fn a_wrapped_stamp_still_returns_the_stored_entry() {
        let mut view = ApplyView::new();
        view.open();
        view.store(e(1), v(1), v(2), 7);
        // the next stamp leaves the 32 bits a slot keeps and wraps to 0,
        // the stamp the entry above was written under
        view.table
            .next_stamp
            .store(u64::from(u32::MAX) + 1, Ordering::Relaxed);
        view.open();
        assert_eq!(view.stamp, 0);
        assert_eq!(
            view.probe(e(1), v(1)),
            Some((v(2), 7, false)),
            "the entry returns, only its warmth is misread"
        );
        view.store(e(1), v(3), v(4), 1);
        view.open();
        assert_eq!(view.probe(e(1), v(3)), Some((v(4), 1, true)));
    }

    /// Racing views and rounds per view and case.
    const THREADS: usize = 4;
    const ROUNDS: usize = 20_000;

    /// The result stored for a key, and a 32-bit check word its cost
    /// carries above the writer's stamp: pure functions of the key.
    fn result_of(key: u64) -> VId {
        v(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33)
    }

    fn check_of(key: u64) -> u64 {
        key.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 32
    }

    #[test]
    fn racing_views_return_only_whole_entries_and_classify_warmth() {
        check("racing_views_return_only_whole_entries", 8, |seed, rng| {
            let mut parent = ApplyView::new();
            let start = Barrier::new(THREADS);
            let views: Vec<(ApplyView, u64)> = (0..THREADS)
                .map(|_| (parent.share(), rng.next_u64()))
                .collect();
            let hits: usize = std::thread::scope(|scope| {
                let handles: Vec<_> = views
                    .into_iter()
                    .map(|(mut view, thread_seed)| {
                        let start = &start;
                        scope.spawn(move || {
                            let mut rng = Rng::new(thread_seed);
                            view.open();
                            start.wait();
                            let mut hits = 0;
                            for _ in 0..ROUNDS {
                                // 32 keys on four slots: value ids 2¹⁶
                                // apart share a slot
                                let (eid, input) = (e(5), v(rng.below(4) + (rng.below(8) << 16)));
                                let key = pack(eid, input);
                                match view.probe(eid, input) {
                                    Some((out, cost, warm)) => {
                                        hits += 1;
                                        assert_eq!(out, result_of(key), "seed {seed}: torn result");
                                        assert_eq!(
                                            cost >> 32,
                                            check_of(key),
                                            "seed {seed}: torn cost"
                                        );
                                        let writer = cost as u32;
                                        assert_eq!(warm, writer != view.stamp, "seed {seed}");
                                    }
                                    None => {
                                        let cost = (check_of(key) << 32) | u64::from(view.stamp);
                                        view.store(eid, input, result_of(key), cost);
                                    }
                                }
                            }
                            hits
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("racing view panicked"))
                    .sum()
            });
            assert!(hits > 0, "seed {seed}: the race never hit");
        });
    }
}
