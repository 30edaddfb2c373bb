//! # nra-opt
//!
//! A pre-evaluation **rescue pass** over the hash-consed expression
//! DAG, turning the paper's separation theorem into an automatic
//! optimisation: the *powerset routes* to transitive closure and to the
//! siblings query (certified exponential by `nra-symbolic`, Theorem
//! 4.1) are recognised structurally and rewritten to their polynomial
//! *while/direct routes* — a query the serving door would reject is
//! **rescued** into the admissible class.
//!
//! * [`cost`] — the cost gate: a rescue enters the table only when
//!   [`nra_symbolic::classify_space`] ranks its replacement strictly
//!   below its idiom, and a rescued query is kept only when its own
//!   rank does not worsen;
//! * [`mod@rewrite`] — the rescue table (two code-built pairs, gated
//!   once per process) and the one-pass bottom-up substitution over
//!   [`ExprArena`].
//!
//! The evaluator knows nothing about rescues: `nra-eval` exposes a
//! [`RewritePass`] hook on [`EvalSession`], and
//! [`install`] plugs this crate's pass into it. [`EvalConfig::rewritten`]
//! is the full stack — rewriting + apply cache + semi-naive iteration.
//!
//! ```
//! use nra_core::{queries, Value};
//! use nra_eval::EvalConfig;
//!
//! // the exponential-route query is rewritten to the while route…
//! let optimised = nra_opt::optimise_expr(&queries::tc_paths());
//! assert_eq!(optimised, queries::tc_while());
//!
//! // …and a session with the pass installed serves it in polynomial
//! // space, bit-for-bit equal to the raw evaluation
//! let mut session = nra_opt::optimising_session(EvalConfig::rewritten());
//! let input = Value::chain(6);
//! let ev = session.eval(&queries::tc_paths(), &input);
//! assert_eq!(ev.result.unwrap(), Value::chain_tc(6));
//! ```

#![deny(missing_docs)]

pub mod cost;
pub mod rewrite;

pub use cost::{rank, Rank};
pub use rewrite::{optimise, rescues, Rescue};

use nra_core::{EId, Expr, ExprArena};
use nra_eval::{EvalConfig, EvalSession, RewritePass};

/// Optimise a tree-form expression in a private arena — the convenience
/// entry point for benches and one-shot callers.
pub fn optimise_expr(e: &Expr) -> Expr {
    let mut ea = ExprArena::new();
    let root = ea.intern(e);
    let out = optimise(&mut ea, root);
    ea.resolve(out)
}

/// This crate's rewrite pass as an injectable [`RewritePass`] for
/// [`EvalSession::set_rewriter`].
pub fn pass() -> RewritePass {
    std::sync::Arc::new(|ea: &mut ExprArena, root: EId| optimise(ea, root))
}

/// Install the default pass on a session (the session still only runs
/// it when its config has [`EvalConfig::optimise`] set).
pub fn install(session: &mut EvalSession) {
    session.set_rewriter(Some(pass()));
}

/// A fresh [`EvalSession`] with the pass already installed.
pub fn optimising_session(config: EvalConfig) -> EvalSession {
    let mut session = EvalSession::new(config);
    install(&mut session);
    session
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::{queries, Value};

    #[test]
    fn session_pass_is_transparent_for_results() {
        let input = Value::chain(6);
        let mut plain = EvalSession::new(EvalConfig::optimised());
        let mut optimising = optimising_session(EvalConfig::rewritten());
        for q in [queries::tc_while(), queries::tc_paths(), queries::tc_step()] {
            let raw = plain
                .eval(&q, &input)
                .result
                .expect("raw evaluation succeeds");
            let opt = optimising
                .eval(&q, &input)
                .result
                .expect("optimised evaluation succeeds");
            assert_eq!(raw, opt, "{q}");
        }
    }

    #[test]
    fn rescued_query_escapes_the_space_budget() {
        // chain(12): the powerset route materialises the 2^12-subset
        // family (§3 size ≈ 78k units), the while route peaks at ≈ 32k
        // (the cartesian product inside tc_step) — a budget between the
        // two is satisfiable only through the rewrite
        let input = Value::chain(12);
        let budget = 1 << 16;
        let strict = EvalConfig {
            max_object_size: Some(budget),
            ..EvalConfig::optimised()
        };
        let raw = EvalSession::new(strict.clone())
            .eval(&queries::tc_paths(), &input)
            .result;
        assert!(raw.is_err(), "powerset route must blow the budget");
        let rescued = optimising_session(EvalConfig {
            optimise: true,
            ..strict
        })
        .eval(&queries::tc_paths(), &input)
        .result;
        assert_eq!(rescued.unwrap(), Value::chain_tc(12));
    }

    #[test]
    fn optimise_flag_without_installed_pass_is_identity() {
        let mut session = EvalSession::new(EvalConfig::rewritten());
        let eid = session.intern_expr(&queries::tc_paths());
        assert_eq!(session.optimise_eid(eid), eid);
    }

    #[test]
    fn pass_memoises_per_root() {
        let mut session = optimising_session(EvalConfig::rewritten());
        let eid = session.intern_expr(&queries::tc_paths());
        let first = session.optimise_eid(eid);
        let second = session.optimise_eid(eid);
        assert_eq!(first, second);
        assert_ne!(first, eid, "the rescue must have fired");
    }
}
