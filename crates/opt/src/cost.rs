//! The cost gate: a rescue is taken only when it provably lowers the
//! expression's *space class*.
//!
//! The model is [`nra_symbolic::classify_space`] — the paper's Lemma 5.8
//! dichotomy — folded onto a total order of ranks:
//!
//! ```text
//! Polynomial{d} < BoundedPowerset{m} < Exponential < Unanalyzed
//! ```
//!
//! with `Polynomial` ordered by degree and `BoundedPowerset` by order.
//! `Unanalyzed` ranks *worst*: an expression the analyser cannot place
//! must not be the destination of a rewrite away from one it can.
//!
//! Two checks use the order. Both sides of a rescue are ground
//! expressions, so whether the replacement strictly lowers the idiom's
//! rank cannot depend on where the idiom sits: the rescue table
//! evaluates `improves` once per pair, when the table is built. The
//! rank of the *whole query* can still worsen, because the context sees
//! the replacement's `while`: `powerset ∘ tc_paths` is certified
//! exponential, but `powerset ∘ tc_while` is unanalyzed. So a rescued
//! query is kept only when `no_worse` holds for it as a whole.

use nra_core::Expr;
use nra_symbolic::{classify_space, SpaceClass};

/// A space class collapsed to an orderable rank (smaller is better).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank(u8, u64);

/// Rank a space class; see the [module docs](self) for the order.
pub fn rank(class: &SpaceClass) -> Rank {
    match class {
        SpaceClass::Polynomial { degree } => Rank(0, *degree as u64),
        SpaceClass::BoundedPowerset { order } => Rank(1, *order),
        SpaceClass::Exponential { .. } => Rank(2, 0),
        SpaceClass::Unanalyzed { .. } => Rank(3, 0),
    }
}

/// Whether rewriting `before` into `after` strictly lowers the space
/// rank — the gate every rescue must pass.
pub(crate) fn improves(before: &Expr, after: &Expr) -> bool {
    rank(&classify_space(after)) < rank(&classify_space(before))
}

/// Whether `after`'s space rank is no worse than `before`'s — the
/// check a rescued query must pass as a whole.
pub(crate) fn no_worse(before: &Expr, after: &Expr) -> bool {
    rank(&classify_space(after)) <= rank(&classify_space(before))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::queries;

    #[test]
    fn ranks_follow_the_dichotomy() {
        assert!(
            rank(&classify_space(&queries::tc_while()))
                < rank(&classify_space(&queries::tc_paths()))
        );
        assert!(
            rank(&classify_space(&queries::siblings_direct()))
                < rank(&classify_space(&queries::siblings_powerset()))
        );
    }

    #[test]
    fn gate_admits_rescues_and_refuses_regressions() {
        let exp = queries::tc_paths();
        let poly = queries::tc_while();
        assert!(improves(&exp, &poly), "rescue must pass the gate");
        assert!(!improves(&poly, &exp), "regression must be refused");
        assert!(!improves(&poly, &poly), "no-op is not a rewrite");
    }

    #[test]
    fn equal_rank_rewrites_pass() {
        let wrapped = nra_core::builder::compose(nra_core::builder::id(), queries::tc_while());
        assert!(no_worse(&wrapped, &queries::tc_while()));
    }
}
