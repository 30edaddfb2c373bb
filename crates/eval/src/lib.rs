//! # nra-eval
//!
//! The eager natural-semantics evaluator of §3 of Suciu & Paredaens (1994),
//! instrumented with the paper's complexity measure, plus two companions:
//!
//! * [`eager`] — the rule-per-rule evaluator; [`eager::evaluate`] returns
//!   the result together with [`stats::EvalStats`], whose
//!   `max_object_size` is *the* §3 complexity ("the size of the largest
//!   complex object occurring in the derivation tree");
//! * [`trace`] — the same semantics, materialising the derivation tree for
//!   inspection (height/width/branching, rendering);
//! * [`lazy`] — a streaming strategy for `powerset`, making the paper's §3
//!   caveat ("it is not obvious whether it still holds for a lazy
//!   evaluation strategy") measurable.
//!
//! All three strategies run on the hash-consed arena of
//! [`nra_core::value::intern`]: objects are `VId` handles, so the §3 size
//! observation performed at every rule application is an `O(1)` metadata
//! read, `clone` is a handle copy, and (de)duplication compares `u32`s.
//! The arenas are threaded **explicitly** through every rule, and every
//! handle has one owner:
//!
//! * an [`EvalSession`] ([`session`]) owns its arenas, a view of an
//!   apply table and its config outright — queries **warm-start**
//!   across `session.eval` calls (the `(EId, VId)` apply cache
//!   survives, hits reported in [`EvalStats::warm_hits`]), residency is
//!   bounded by a generation-based eviction budget, the session is
//!   `Send`, and [`batch::eval_batch`] fans query batches across worker
//!   sessions on scoped threads that intern into one **shared
//!   concurrent store** and probe one apply table
//!   ([`EvalSession::split`]);
//! * [`evaluate`] runs each call on a one-shot session, cold by
//!   construction and freed on return, so its statistics are a function
//!   of its arguments; [`evaluate_traced`] and [`evaluate_lazy`] run on
//!   a local value arena. The traced and streaming strategies build the
//!   exact §3 derivation and hold no cache state a session could own.
//!
//! The [`nra_core::Value`] tree API remains the public surface —
//! [`evaluate`] converts at the boundary — while
//! [`EvalSession::eval_vid`] and [`evaluate_lazy_vid`] (on a caller's
//! arena) expose the interned path end-to-end. The original
//! tree-walking implementation survives as [`evaluate_tree`], the
//! differential baseline the interned path is tested and benchmarked
//! against.
//!
//! On top of value interning, [`EvalConfig::memo`] switches the eager
//! strategy onto the **apply cache**: expressions are hash-consed too
//! ([`nra_core::expr::intern`]), and each judgment `f(C) ⇓ C'` is keyed
//! `(EId, VId) → VId` in a BDD-style direct-mapped table ([`memo`], the
//! one table design every session and worker uses), so a
//! judgment already derived returns its cached handle in `O(1)` — which
//! collapses the repeated body applications inside `while` iterates and
//! `map` over recurring elements. The traced and streaming strategies
//! ignore this switch and the next one: they build the exact derivation,
//! which is what their §3 claims are about. Results are bit-for-bit identical to
//! memo-off evaluation (both differential harnesses enforce this); cache
//! activity is reported separately in
//! [`EvalStats::memo_hits`]/`memo_misses` rather than inflating the §3
//! counters, which stay exact in the default memo-off mode — though a
//! hit does charge the recorded cost of its cached subtree against the
//! node budget, so budget exhaustion is strategy-independent.
//!
//! Orthogonally, [`EvalConfig::semi_naive`] turns on **semi-naive
//! (delta-driven) iteration**, one fused rule: the Prop 2.1 self-join
//! `σ_p(R × R)` — bare or projected, the join inside relational
//! composition — runs as a hash join instead of deriving the product,
//! and on a grown input builds only the joins touching the frontier
//! (`δ ⋈ R ∪ Rₚ ⋈ δ`); `while` records each iterate's frontier. Every
//! other node runs the exact rule. Results and the fixpoint trajectory
//! are bit-for-bit the naive ones; the §3 counters only ever shrink,
//! with the join's incremental applications reported in
//! [`EvalStats::delta_hits`]/`delta_skipped` and the per-iterate
//! frontier trace in [`EvalStats::while_frontiers`]. [`EvalConfig::optimised`] combines
//! both switches — the configuration the benchmarks call "seminaive" —
//! and [`EvalConfig::rewritten`] adds the pre-evaluation rewrite pass on
//! top, the serving default.
//!
//! Budgets ([`error::EvalConfig`]) turn the theorems' "needs ≥ S space"
//! into clean errors carrying the exact requirement — for `powerset` the
//! requirement is computed combinatorially *before* materialisation, so
//! complexities far beyond physical memory can be measured.

#![deny(missing_docs)]

pub mod batch;
pub mod eager;
pub mod error;
pub mod lazy;
pub mod memo;
pub mod session;
mod shapes;
pub mod stats;
pub mod trace;

pub use batch::{eval_batch, eval_batch_assigned, eval_batch_streamed, partition, BatchJob};
pub use eager::{eval, evaluate, evaluate_tree, Evaluation, VidEvaluation};
pub use error::{EvalConfig, EvalError};
pub use lazy::{evaluate_lazy, evaluate_lazy_vid, LazyEvaluation, LazyStats, LazyVidEvaluation};
pub use session::{EvalSession, RewritePass, SessionStats};
pub use stats::EvalStats;
pub use trace::{evaluate_traced, DerivNode, TracedEvaluation};
