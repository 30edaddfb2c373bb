//! Word-parallel primitives for dense bitmap sets.
//!
//! One vocabulary of packed-`u64` operations shared by every layer that
//! manipulates dense relations: the graph crate's `BitSet` rows and the
//! arena-native transitive-closure backend (`nra_graph::tc_arena`). All
//! functions operate on plain word slices — no representation
//! assumptions beyond "bit `i` of word `i / 64` is element `i`" — so
//! callers can layer whatever domain encoding they need on top.
//!
//! Length mismatches are handled by the *growing* convention: a shorter
//! operand is treated as zero-padded, and in-place destinations grow to
//! cover the longer operand where bits could be set. This is the
//! contract `BitSet::union_with` adopts (growing instead of panicking)
//! so the two layers agree on edge cases.
//!
//! ```
//! use nra_core::value::dense;
//!
//! let mut acc = vec![0b1010u64];
//! let grew = dense::union_into(&mut acc, &[0b0101, 0b1]);
//! assert!(grew);
//! assert_eq!(acc, vec![0b1111, 0b1]);
//! assert_eq!(dense::popcount(&acc), 5);
//! ```

/// Bits per packed word.
pub const WORD_BITS: usize = 64;

/// Number of words needed to cover `bits` bit positions.
#[inline]
pub fn words_for_bits(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Whether bit `bit` is set (bits beyond the slice read as zero).
#[inline]
pub fn get_bit(words: &[u64], bit: usize) -> bool {
    words
        .get(bit / WORD_BITS)
        .is_some_and(|w| w >> (bit % WORD_BITS) & 1 == 1)
}

/// Set bit `bit`, growing `words` if it lies beyond the current length.
/// Returns `true` iff the bit was newly set.
#[inline]
pub fn set_bit(words: &mut Vec<u64>, bit: usize) -> bool {
    let word = bit / WORD_BITS;
    if word >= words.len() {
        words.resize(word + 1, 0);
    }
    let mask = 1u64 << (bit % WORD_BITS);
    let fresh = words[word] & mask == 0;
    words[word] |= mask;
    fresh
}

/// `dst |= src`, growing `dst` to `src`'s length if shorter. Returns
/// `true` iff any bit of `dst` changed.
pub fn union_into(dst: &mut Vec<u64>, src: &[u64]) -> bool {
    if src.len() > dst.len() {
        dst.resize(src.len(), 0);
    }
    let mut changed = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        let next = *d | s;
        changed |= next != *d;
        *d = next;
    }
    changed
}

/// `dst &= src` — bits of `dst` beyond `src`'s length are cleared (a
/// missing word is zero).
pub fn intersect_into(dst: &mut [u64], src: &[u64]) {
    for (i, d) in dst.iter_mut().enumerate() {
        *d &= src.get(i).copied().unwrap_or(0);
    }
}

/// `dst &= !src` — words of `src` beyond `dst`'s length are irrelevant.
pub fn difference_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d &= !s;
    }
}

/// Whether every set bit of `a` is also set in `b` (zero-padded
/// comparison, so lengths need not match).
pub fn is_subset_words(a: &[u64], b: &[u64]) -> bool {
    a.iter()
        .enumerate()
        .all(|(i, &w)| w & !b.get(i).copied().unwrap_or(0) == 0)
}

/// Zero-padded word equality: the same bit set, regardless of trailing
/// zero words.
pub fn words_equal(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    a[..n] == b[..n] && a[n..].iter().all(|&w| w == 0) && b[n..].iter().all(|&w| w == 0)
}

/// Total number of set bits.
pub fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

/// Number of bits set in `new` but not in `old` — the frontier count
/// `|new ∖ old|`, zero-padded.
pub fn delta_count(old: &[u64], new: &[u64]) -> u64 {
    new.iter()
        .enumerate()
        .map(|(i, &w)| (w & !old.get(i).copied().unwrap_or(0)).count_ones() as u64)
        .sum()
}

/// Iterate the indices of set bits in ascending order.
pub fn iter_ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut rest = w;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(i * WORD_BITS + bit)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_grows_and_reports_change() {
        let mut a = vec![1u64];
        assert!(union_into(&mut a, &[0, 0b10]));
        assert_eq!(a, vec![1, 0b10]);
        // idempotent second pass: no change
        assert!(!union_into(&mut a, &[1, 0b10]));
    }

    #[test]
    fn intersect_and_difference_respect_zero_padding() {
        let mut a = vec![0b111u64, u64::MAX];
        intersect_into(&mut a, &[0b101]);
        assert_eq!(a, vec![0b101, 0]);
        let mut b = vec![0b111u64];
        difference_into(&mut b, &[0b010, u64::MAX]);
        assert_eq!(b, vec![0b101]);
    }

    #[test]
    fn subset_equality_and_counts() {
        assert!(is_subset_words(&[0b101], &[0b111, 0]));
        assert!(!is_subset_words(&[0b101, 1], &[0b111]));
        assert!(words_equal(&[0b11, 0], &[0b11]));
        assert!(!words_equal(&[0b11, 1], &[0b11]));
        assert_eq!(popcount(&[u64::MAX, 1]), 65);
        assert_eq!(delta_count(&[0b01], &[0b11, 0b1]), 2);
    }

    #[test]
    fn bit_access_and_iteration() {
        let mut w = Vec::new();
        assert!(set_bit(&mut w, 70));
        assert!(!set_bit(&mut w, 70));
        assert!(set_bit(&mut w, 3));
        assert!(get_bit(&w, 3) && get_bit(&w, 70) && !get_bit(&w, 71));
        assert!(!get_bit(&w, 1000)); // beyond the slice reads as zero
        assert_eq!(iter_ones(&w).collect::<Vec<_>>(), vec![3, 70]);
    }
}
