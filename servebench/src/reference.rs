//! Plain-Rust reference answers and the answer checker.
//!
//! Every expected answer is computed from the generated edge list at
//! generation time, outside the clock, with ordinary graph code that
//! shares nothing with the engine: breadth-first closure, hash-free
//! composition and sibling grouping over `BTreeMap`s. The one exception
//! the benchmark allows is `Value::chain_tc`, the closed form of the
//! paper's chain closure, for the rescued `tc_paths` submissions.

use nra_core::Value;
use nra_serve::Outcome;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A binary relation over naturals.
pub type Rel = BTreeSet<(u64, u64)>;

/// What a request must be answered with.
#[derive(Debug, Clone)]
pub enum Expect {
    /// An `ok` answer equal to this value.
    Value(Value),
    /// A rejection that cites Theorem 4.1.
    TheoremRejection,
}

fn successors(r: &Rel) -> BTreeMap<u64, Vec<u64>> {
    let mut succ: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(a, b) in r {
        succ.entry(a).or_default().push(b);
    }
    succ
}

/// `r ∘ r = {(a, d) | (a, b) ∈ r, (b, d) ∈ r}`.
pub fn compose(r: &Rel) -> Rel {
    let succ = successors(r);
    let mut out = Rel::new();
    for &(a, b) in r {
        for &d in succ.get(&b).map(Vec::as_slice).unwrap_or(&[]) {
            out.insert((a, d));
        }
    }
    out
}

/// One inflationary closure step, `r ∪ r ∘ r`.
pub fn tc_step(r: &Rel) -> Rel {
    let mut out = compose(r);
    out.extend(r.iter().copied());
    out
}

/// Transitive closure by breadth-first search from every source: the
/// pairs `(a, x)` with a path of one or more edges from `a` to `x`.
pub fn closure(r: &Rel) -> Rel {
    let succ = successors(r);
    let mut out = Rel::new();
    for &a in succ.keys() {
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<u64> = succ[&a].iter().copied().collect();
        while let Some(x) = queue.pop_front() {
            if seen.insert(x) {
                out.insert((a, x));
                queue.extend(succ.get(&x).map(Vec::as_slice).unwrap_or(&[]));
            }
        }
    }
    out
}

/// Distinct sources sharing a target: `{(a, c) | (a, b), (c, b) ∈ r, a ≠ c}`.
pub fn siblings(r: &Rel) -> Rel {
    let mut preds: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(a, b) in r {
        preds.entry(b).or_default().push(a);
    }
    let mut out = Rel::new();
    for sources in preds.values() {
        for &a in sources {
            for &c in sources {
                if a != c {
                    out.insert((a, c));
                }
            }
        }
    }
    out
}

/// Lift a reference relation into the engine's value form for comparison.
pub fn relation(r: &Rel) -> Value {
    Value::relation(r.iter().copied())
}

/// Running tally of answers: every answer is attempted, and a wrong
/// answer, a `failed` frame or an unexpected rejection is failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Answers checked.
    pub attempted: u64,
    /// Answers that did not match their reference.
    pub failed: u64,
}

impl Tally {
    /// Check one answer against its reference, counting it; returns the
    /// mismatch, if any, for the diagnostic log.
    pub fn record(&mut self, expect: &Expect, outcome: &Outcome) -> Result<(), String> {
        self.attempted += 1;
        let verdict = check(expect, outcome);
        if verdict.is_err() {
            self.failed += 1;
        }
        verdict
    }

    /// Fold another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn check(expect: &Expect, outcome: &Outcome) -> Result<(), String> {
    match (expect, outcome) {
        (Expect::Value(want), Outcome::Ok { value, .. }) if value == want => Ok(()),
        (Expect::Value(_), Outcome::Ok { value, .. }) => Err(format!(
            "wrong answer (cardinality {:?})",
            value.cardinality()
        )),
        (Expect::TheoremRejection, Outcome::Rejected { reason })
            if reason.contains("Theorem 4.1") =>
        {
            Ok(())
        }
        (_, Outcome::Rejected { reason }) => Err(format!("unexpected rejection: {reason}")),
        (_, Outcome::Failed { detail }) => Err(format!("failed frame: {detail}")),
        (Expect::TheoremRejection, Outcome::Ok { .. }) => {
            Err("admitted a query that must be rejected".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(edges: &[(u64, u64)]) -> Rel {
        edges.iter().copied().collect()
    }

    #[test]
    fn references_agree_with_hand_computed_answers() {
        let r = rel(&[(0, 1), (1, 2), (2, 0), (3, 1)]);
        assert_eq!(compose(&r), rel(&[(0, 2), (1, 0), (2, 1), (3, 2)]));
        assert_eq!(
            tc_step(&r),
            rel(&[
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 2),
                (2, 0),
                (2, 1),
                (3, 1),
                (3, 2)
            ])
        );
        let tc = closure(&r);
        for a in 0..3 {
            for b in 0..3 {
                assert!(tc.contains(&(a, b)), "cycle members reach each other");
            }
        }
        assert!(tc.contains(&(3, 0)) && !tc.contains(&(0, 3)));
        assert_eq!(siblings(&r), rel(&[(0, 3), (3, 0)]));
        assert_eq!(
            relation(&closure(&rel(&[(0, 1), (1, 2)]))),
            Value::chain_tc(2)
        );
    }

    #[test]
    fn a_corrupted_answer_counts_as_failed() {
        let want = relation(&rel(&[(0, 1), (0, 2), (1, 2)]));
        let mut tally = Tally::default();
        let good = Outcome::Ok {
            declared_budget: 4096,
            value: want.clone(),
        };
        assert!(tally.record(&Expect::Value(want.clone()), &good).is_ok());
        // one pair dropped from an otherwise correct answer
        let corrupted = Outcome::Ok {
            declared_budget: 4096,
            value: relation(&rel(&[(0, 1), (1, 2)])),
        };
        assert!(tally
            .record(&Expect::Value(want.clone()), &corrupted)
            .is_err());
        let failed = Outcome::Failed {
            detail: "space budget exceeded".into(),
        };
        assert!(tally.record(&Expect::Value(want), &failed).is_err());
        let uncited = Outcome::Rejected {
            reason: "admission: ceiling".into(),
        };
        assert!(tally.record(&Expect::TheoremRejection, &uncited).is_err());
        let cited = Outcome::Rejected {
            reason: "certified exponential; Theorem 4.1".into(),
        };
        assert!(tally.record(&Expect::TheoremRejection, &cited).is_ok());
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 3
            }
        );
    }
}
