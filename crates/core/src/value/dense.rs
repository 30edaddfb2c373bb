//! Word-parallel primitives for dense bitmap sets.
//!
//! The vocabulary of the one bitmap closure kernel behind
//! `nra_graph::warshall` and `nra_graph::tc_arena`: its rows are plain
//! `u64` word slices, and bit `i` of word `i / 64` is element `i` — no
//! other representation assumption, so callers layer whatever domain
//! encoding they need on top.
//!
//! Length mismatches follow the *growing* convention: a shorter operand
//! reads as zero-padded, and in-place destinations grow to cover the
//! longer operand where bits could be set.
//!
//! ```
//! use nra_core::value::dense;
//!
//! let mut acc = vec![0b1010u64];
//! let grew = dense::union_into(&mut acc, &[0b0101, 0b1]);
//! assert!(grew);
//! assert_eq!(acc, vec![0b1111, 0b1]);
//! assert_eq!(dense::iter_ones(&acc).collect::<Vec<_>>(), vec![0, 1, 2, 3, 64]);
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
