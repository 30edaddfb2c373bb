//! # powerset-tc
//!
//! A full reproduction of
//!
//! > Dan Suciu and Jan Paredaens, *"Any Algorithm in the Complex Object
//! > Algebra with Powerset Needs Exponential Space to Compute Transitive
//! > Closure"*, University of Pennsylvania MS-CIS-94-04, February 1994.
//!
//! The paper proves that although `NRA(powerset)` — the nested relational
//! algebra with a powerset operator — *can* express transitive closure,
//! **every** such expression needs space `Ω(2^{cn})` on the chains
//! `rₙ = {(0,1), …, (n−1,n)}` under the eager evaluation strategy of its
//! §3. This workspace makes the whole development executable:
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] (`nra-core`) | the language: types, complex objects (tree + hash-consed arena, [`core::value::intern`], with merge-based set algebra), hash-consed expressions ([`core::expr::intern`]), the §2 primitives, the Prop 2.1 derived algebra, the TC queries, `powersetₘ` |
//! | [`eval`] (`nra-eval`) | the §3 eager evaluator with the paper's complexity measure, budgets, derivation trees, a streaming (lazy) strategy, an optional BDD-style apply cache (`EvalConfig::memoised`) and semi-naive iteration with the one fused Prop 2.1 join (`EvalConfig::optimised`) — one interpreter, running on interned handles, owned per `EvalSession` |
//! | [`graph`] (`nra-graph`) | input generators (chains, cycles, deterministic graphs) and classical polynomial TC baselines, with one bitmap Warshall kernel behind `warshall` and the arena-native `tc_arena` |
//! | [`symbolic`] (`nra-symbolic`) | the §5 proof machinery: abstract expressions, the Lemma 5.1 evaluator, affine spaces, quantifier elimination, the Lemma 5.8 dichotomy, the Lemma 5.7 Ramsey bound, Corollary 5.3 |
//! | [`circuits`] (`nra-circuits`) | Prop 4.3's `AC⁰`/`TC⁰` substrate: threshold circuits and a flat-algebra compiler |
//! | [`opt`] (`nra-opt`) | the pre-evaluation rescue pass over the hash-consed DAG: the powerset-route transitive closure and siblings idioms rewritten to their polynomial routes, each pair gated by the space classifier — the separation theorem run backwards as an optimisation |
//! | [`serve`] (`nra-serve`) | an offline query-serving front: newline-delimited wire format, **cost-based admission control** (Theorem 4.1 as a safety rail — certified-exponential queries are rejected with their bound; rescuable ones are rewritten and admitted), cost-balanced batch placement, per-tenant byte budgets riding the eviction generations |
//! | `nra-bench` | measurement helpers (complexity series, slope fits) and the E1–E17 experiment suite (`report`), on a self-contained harness |
//! | `nra-testkit` | seeded RNG + property-check runner used by every randomized test suite |
//!
//! ## Building & testing
//!
//! The workspace has **no external dependencies** — a stock Rust
//! toolchain builds it offline:
//!
//! ```text
//! cargo build --release   # all nine crates + examples
//! cargo test -q           # unit, property, differential and doc tests
//! cargo bench             # E1–E9 + E11 timings, BENCH_eval.json (NRA_BENCH_SAMPLES=2: smoke run)
//! cargo run --release --example quickstart   # and eight more walkthroughs
//! ```
//!
//! The differential harness (`tests/differential.rs`) is the heart of the
//! suite: on randomized chains, cycles, DAGs and disconnected graphs it
//! requires the powerset route, the while route, the streaming evaluator
//! and the classical graph baselines to agree bit for bit, and certifies
//! the paper's separation — `max_object_size ≥ 2ⁿ` for eager powerset TC
//! on the chain `rₙ`, polynomial for the while route.
//!
//! ## Quick start
//!
//! ```
//! use powerset_tc::core::{queries, Value};
//! use powerset_tc::eval::{evaluate, EvalConfig};
//!
//! // Transitive closure of the chain r₅ through powerset…
//! let ev = evaluate(&queries::tc_paths(), &Value::chain(5), &EvalConfig::default());
//! assert_eq!(ev.result.unwrap(), Value::chain_tc(5));
//! // …costs exponential space (the §3 complexity measure):
//! assert!(ev.stats.max_object_size > 1 << 5);
//!
//! // The while-loop route gets the same answer polynomially:
//! let ev = evaluate(&queries::tc_while(), &Value::chain(5), &EvalConfig::default());
//! assert_eq!(ev.result.unwrap(), Value::chain_tc(5));
//! ```
//!
//! ## The interned hot path
//!
//! The evaluators run on the hash-consed arena of
//! [`core::value::intern`]: every §3 size observation is an `O(1)`
//! cached-metadata read, and equality — including the `while` fixpoint
//! test — is a handle comparison. Every handle belongs to the session
//! that issued it; stay on handles end-to-end with
//! [`eval::EvalSession::eval_vid`]:
//!
//! ```
//! use powerset_tc::core::queries;
//! use powerset_tc::eval::{EvalConfig, EvalSession};
//!
//! let mut session = EvalSession::new(EvalConfig::default());
//! let query = session.intern_expr(&queries::tc_while());
//! let input = session.values_mut().chain(6); // r₆, interned — never built as a tree
//! let out = session.eval_vid(query, input).result.unwrap();
//! let values = session.values_mut();
//! assert_eq!(out, values.chain_tc(6)); // O(1) equality on handles
//! assert_eq!(values.size(out), 1 + 3 * 21); // O(1) §3 size: 21 closure edges
//! ```
//!
//! ## The apply cache
//!
//! Expressions are hash-consed too ([`core::expr::intern`]), and
//! [`eval::EvalConfig::memoised`] switches the eager evaluator onto a
//! BDD-style apply cache keyed `(EId, VId) → VId`: a judgment already
//! derived returns its cached handle instead of re-running the §3
//! rules, which collapses the repeated body applications inside `while`
//! iterates. Results are bit-for-bit identical; the cache reports its
//! activity separately instead of disturbing the §3 statistics:
//!
//! ```
//! use powerset_tc::core::{queries, Value};
//! use powerset_tc::eval::{evaluate, EvalConfig};
//!
//! let input = Value::chain(6);
//! let plain = evaluate(&queries::tc_while(), &input, &EvalConfig::default());
//! let memo = evaluate(&queries::tc_while(), &input, &EvalConfig::memoised());
//! assert_eq!(plain.result.unwrap(), memo.result.unwrap()); // same closure…
//! assert!(memo.stats.memo_hits > 0); // …with repeated judgments skipped
//! assert_eq!(plain.stats.memo_hits, 0); // memo-off stats stay exact
//! ```

#![deny(missing_docs)]

pub use nra_circuits as circuits;
pub use nra_core as core;
pub use nra_eval as eval;
pub use nra_graph as graph;
pub use nra_opt as opt;
pub use nra_serve as serve;
pub use nra_symbolic as symbolic;
