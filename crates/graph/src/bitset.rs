//! A dense growable bitset, the substrate for the Warshall baseline.
//!
//! The word-level arithmetic is `nra_core::value::dense` — the same
//! vocabulary the arena-native transitive-closure backend computes
//! with — so every layer that ORs
//! adjacency rows agrees on semantics (zero-padded comparison, growth
//! on capacity mismatch) and there is exactly one implementation of
//! each primitive.

use nra_core::value::dense;

/// A set of small integers backed by `u64` words.
///
/// `capacity` is a *starting* size, not a ceiling: the in-place
/// operations grow the receiver as needed (a shorter operand reads as
/// zero-padded), mirroring the growing convention of
/// [`nra_core::value::dense`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// An empty bitset able to hold values `0..capacity` without
    /// reallocating.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Capacity in bits (grows when an operation needs more room).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The packed words — the view the shared
    /// [`dense`] primitives operate on.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Insert `i`; returns true if it was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bit {} out of capacity {}",
            i,
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Remove `i`; returns true if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.capacity);
        let (w, b) = (i / 64, i % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        dense::get_bit(&self.words, i)
    }

    /// In-place union; returns true if `self` changed. A larger operand
    /// grows the receiver (both word length and capacity) instead of
    /// panicking, so rows from differently-sized universes compose.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let changed = dense::union_into(&mut self.words, &other.words);
        self.capacity = self.capacity.max(other.capacity);
        changed
    }

    /// In-place intersection: `self &= other`. Bits beyond `other`'s
    /// words are cleared (a missing word is zero).
    pub fn intersect_with(&mut self, other: &BitSet) {
        dense::intersect_into(&mut self.words, &other.words);
    }

    /// In-place difference: `self &= !other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        dense::difference_into(&mut self.words, &other.words);
    }

    /// Whether every bit of `self` is also set in `other` (zero-padded,
    /// so capacities need not match).
    pub fn is_subset(&self, other: &BitSet) -> bool {
        dense::is_subset_words(&self.words, &other.words)
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        dense::popcount(&self.words) as usize
    }

    /// True iff no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate the set bits in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        dense::iter_ones(&self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
    }

    #[test]
    fn union() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        b.insert(70);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union is a no-op");
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 70]);
    }

    #[test]
    fn union_grows_on_capacity_mismatch() {
        // regression: this used to panic on the capacity assert
        let mut small = BitSet::new(10);
        let mut large = BitSet::new(200);
        small.insert(3);
        large.insert(150);
        assert!(small.union_with(&large));
        assert_eq!(small.capacity(), 200);
        assert!(small.contains(3) && small.contains(150));
        assert!(small.insert(199), "grown capacity is usable");
        // the smaller operand zero-pads: union with it changes nothing
        let mut large2 = BitSet::new(200);
        large2.insert(150);
        let mut tiny = BitSet::new(10);
        tiny.insert(150 % 10);
        assert!(large2.union_with(&tiny));
        assert_eq!(large2.capacity(), 200);
        assert_eq!(large2.iter().collect::<Vec<_>>(), vec![0, 150]);
    }

    #[test]
    fn intersect_difference_subset_words() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        for i in [1, 5, 70] {
            a.insert(i);
        }
        for i in [5, 70, 90] {
            b.insert(i);
        }
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![5, 70]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);
        assert!(i.is_subset(&a) && i.is_subset(&b));
        assert!(!a.is_subset(&b));
        // words() exposes the packed view the shared primitives use
        assert_eq!(a.words().len(), 2);
        assert_eq!(nra_core::value::dense::popcount(a.words()), 3);
        // intersection with a shorter operand clears the tail
        let mut short = BitSet::new(10);
        short.insert(1);
        let mut c = a.clone();
        c.intersect_with(&short);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn empty() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
