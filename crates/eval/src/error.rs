//! Evaluation errors and resource budgets.
//!
//! The theorems predict that certain evaluations *need* exponential space.
//! Rather than letting those runs exhaust memory, the evaluator takes an
//! [`EvalConfig`] whose budgets turn "would need ≥ S space" into a clean
//! [`EvalError::SpaceBudgetExceeded`] carrying the offending size — for
//! `powerset` the size is *predicted combinatorially before materialising
//! anything*, so benches can measure complexities far beyond physical
//! memory.

use std::fmt;

/// Resource limits for one evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalConfig {
    /// Abort as soon as any object in the derivation tree would exceed
    /// this size (the paper's complexity measure). `None` = unlimited.
    pub max_object_size: Option<u64>,
    /// Abort after this many derivation-tree nodes. `None` = unlimited.
    pub max_nodes: Option<u64>,
    /// Iteration cap for the `while` extension (it is a genuine fixpoint
    /// loop, so divergence must be cut off).
    pub max_while_iters: u64,
    /// Enable the eager evaluator's **apply cache**: a memo table
    /// `(EId, VId) → VId` keyed on the interned expression and input.
    /// A hit returns the cached result handle in `O(1)` instead of
    /// re-running the §3 derivation — results are bit-for-bit identical
    /// to unmemoised evaluation, but the reported statistics are not
    /// the exact §3 accounting: a hit is counted in
    /// [`EvalStats::memo_hits`](crate::stats::EvalStats::memo_hits)
    /// *instead of* re-counting the skipped sub-derivation's nodes and
    /// observations. (A hit still *charges* the recorded cost of its
    /// cached subtree against [`EvalConfig::max_nodes`], so budget
    /// exhaustion is strategy-independent.) Keep this off (the default)
    /// when the statistics must be the exact eager measure.
    pub memo: bool,
    /// Enable **semi-naive (delta-driven) iteration**: the Prop 2.1
    /// self-join `σ_p ∘ (cartprod ∘ ⟨id, id⟩)` — bare, or under the
    /// trailing projection of relational composition — runs as one
    /// fused hash join instead of deriving the product, and when its
    /// input grew since the same node last fired it builds only the
    /// joins touching the frontier (`δ ⋈ R ∪ Rₚ ⋈ δ`), folding them into
    /// the previous answer with
    /// [`set_union`](nra_core::value::intern::ValueArena::set_union);
    /// `while` records each iterate's frontier. Every other node runs
    /// the exact rule. The results are **bit-for-bit** the exact
    /// results (both differential harnesses enforce this), and
    /// `while_iterations` stays exact; the fused join is one derivation
    /// node observing only its input and its answer, and the answers it
    /// folds in rather than recomputes are reported in
    /// [`EvalStats::delta_skipped`](crate::stats::EvalStats::delta_skipped)
    /// instead of inflating the §3 counters.
    pub semi_naive: bool,
    /// Route every session query through the **rewrite pass** installed
    /// with [`EvalSession::set_rewriter`](crate::EvalSession::set_rewriter)
    /// before evaluation. The evaluator itself carries no rules — the
    /// pass is an injected [`RewritePass`](crate::RewritePass) closure
    /// (the `nra-opt` crate provides the real one), so the dependency
    /// arrow stays `opt → eval`. With the flag on but no pass installed
    /// the hook is the identity. Rewritten roots key the apply cache on
    /// the *optimised* `EId`.
    pub optimise: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            max_object_size: None,
            max_nodes: None,
            max_while_iters: 100_000,
            memo: false,
            semi_naive: false,
            optimise: false,
        }
    }
}

impl EvalConfig {
    /// A config with the given space budget (in size units of §3).
    pub fn with_space_budget(budget: u64) -> Self {
        EvalConfig {
            max_object_size: Some(budget),
            ..EvalConfig::default()
        }
    }

    /// An unbudgeted config with the apply cache enabled — see
    /// [`EvalConfig::memo`].
    pub fn memoised() -> Self {
        EvalConfig {
            memo: true,
            ..EvalConfig::default()
        }
    }

    /// An unbudgeted config with semi-naive iteration enabled — the
    /// fused self-join and its delta form, see
    /// [`EvalConfig::semi_naive`]. Results are bit-for-bit the exact
    /// results; only the cost changes.
    ///
    /// ```
    /// use nra_core::{queries, Value};
    /// use nra_eval::{evaluate, EvalConfig};
    ///
    /// let input = Value::chain(6);
    /// let naive = evaluate(&queries::tc_while(), &input, &EvalConfig::default());
    /// let delta = evaluate(&queries::tc_while(), &input, &EvalConfig::semi_naive());
    /// // same closure, same fixpoint trajectory…
    /// assert_eq!(naive.result.unwrap(), delta.result.unwrap());
    /// assert_eq!(naive.stats.while_iterations, delta.stats.while_iterations);
    /// // …but the body's join ran as one fused node, on the frontier
    /// // only once its input grew: answers of earlier iterates were
    /// // folded in, not re-derived, so the §3 counters only ever shrink
    /// assert!(delta.stats.delta_skipped > 0);
    /// assert!(delta.stats.nodes < naive.stats.nodes);
    /// assert!(delta.stats.max_object_size <= naive.stats.max_object_size);
    /// ```
    pub fn semi_naive() -> Self {
        EvalConfig {
            semi_naive: true,
            ..EvalConfig::default()
        }
    }

    /// Everything on: the apply cache **and** semi-naive iteration —
    /// the configuration the benchmarks call "seminaive" (the fused
    /// join skips the product and its repeated frontiers; the apply
    /// cache catches repeated judgments everywhere else).
    pub fn optimised() -> Self {
        EvalConfig {
            memo: true,
            semi_naive: true,
            ..EvalConfig::default()
        }
    }

    /// [`EvalConfig::optimised`] with the pre-evaluation **rewrite pass**
    /// switched on ([`EvalConfig::optimise`]) — the full stack: rule
    /// rewriting, apply cache, semi-naive iteration.
    /// The pass only runs once a
    /// [`RewritePass`](crate::RewritePass) has been installed on the
    /// session (`nra_opt::install` does both).
    pub fn rewritten() -> Self {
        EvalConfig {
            optimise: true,
            ..EvalConfig::optimised()
        }
    }
}

/// Why an evaluation did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// An object of size `required` would occur in the derivation tree,
    /// exceeding the configured `budget`. For `powerset` outputs the
    /// required size is computed combinatorially without materialisation.
    SpaceBudgetExceeded {
        /// Size the evaluation would need.
        required: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The derivation tree grew beyond the configured node budget.
    NodeBudgetExceeded {
        /// The configured budget.
        budget: u64,
    },
    /// A `while` loop failed to reach a fixpoint within the iteration cap.
    WhileDiverged {
        /// Iterations performed before giving up.
        iterations: u64,
    },
    /// The input value did not match the shape a primitive requires
    /// (cannot happen for type-checked expressions; kept for defence).
    Stuck {
        /// The primitive that got stuck.
        rule: &'static str,
        /// Description of the shape mismatch.
        detail: String,
    },
    /// A `powerset` application whose result would not be addressable
    /// (more than 2⁶² subsets) was requested without a space budget.
    PowersetOverflow {
        /// Cardinality of the input set.
        input_cardinality: u64,
    },
    /// A [`crate::eval_batch`] worker panicked while evaluating this
    /// job (e.g. a stale fabricated handle). The panic is contained to
    /// the job: the other jobs of the batch still return their results.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        detail: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::SpaceBudgetExceeded { required, budget } => write!(
                f,
                "space budget exceeded: an object of size {} would occur (budget {})",
                required, budget
            ),
            EvalError::NodeBudgetExceeded { budget } => {
                write!(f, "node budget exceeded ({} rule applications)", budget)
            }
            EvalError::WhileDiverged { iterations } => {
                write!(
                    f,
                    "while loop did not converge after {} iterations",
                    iterations
                )
            }
            EvalError::Stuck { rule, detail } => {
                write!(f, "evaluation stuck at `{}`: {}", rule, detail)
            }
            EvalError::PowersetOverflow { input_cardinality } => write!(
                f,
                "powerset of a {}-element set cannot be materialised",
                input_cardinality
            ),
            EvalError::WorkerPanicked { detail } => {
                write!(f, "batch worker panicked: {}", detail)
            }
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_unbounded_except_while() {
        let c = EvalConfig::default();
        assert_eq!(c.max_object_size, None);
        assert_eq!(c.max_nodes, None);
        assert!(c.max_while_iters > 0);
    }

    #[test]
    fn display_messages() {
        let e = EvalError::SpaceBudgetExceeded {
            required: 100,
            budget: 10,
        };
        assert!(e.to_string().contains("size 100"));
        let e = EvalError::WhileDiverged { iterations: 7 };
        assert!(e.to_string().contains('7'));
    }
}
