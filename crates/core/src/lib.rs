//! # nra-core
//!
//! The nested relational algebra `NRA`, its powerset extension
//! `NRA(powerset)`, and the `while` extension — the languages studied in
//!
//! > Dan Suciu and Jan Paredaens, *"Any Algorithm in the Complex Object
//! > Algebra with Powerset Needs Exponential Space to Compute Transitive
//! > Closure"*, UPenn MS-CIS-94-04, February 1994.
//!
//! This crate provides the static side of the system:
//!
//! * [`types`] — the type grammar `t ::= unit | B | N | t × t | {t}` (§2);
//! * [`value`] — complex objects with the paper's §3 size measure, plus
//!   the hash-consed interning arena ([`value::intern`]) that gives the
//!   evaluators O(1) `size`/`==`/`clone` on their hot paths;
//! * [`expr`] — the combinator language (§2 primitives + extensions),
//!   plus its own hash-consing arena ([`expr::intern`]) whose `EId`
//!   handles key the evaluators' `(EId, VId) → VId` apply cache;
//! * [`typecheck`] — codomain inference for `f : s → t`;
//! * [`builder`] — notation-level constructors;
//! * [`derived`] — Proposition 2.1's derived operations (cartesian product,
//!   equality at all types, difference, intersection, membership,
//!   inclusion, selection, nest, unnest) and Prop 4.2's `powersetₘ`;
//! * [`queries`] — the transitive-closure queries (via `powerset`, via its
//!   approximations, via `while`) used by every experiment;
//! * [`parser`] / [`display`] — a concrete syntax.
//!
//! Evaluation (and the complexity measure instrumentation) lives in the
//! `nra-eval` crate; the §5 proof machinery in `nra-symbolic`.

#![deny(missing_docs)]

pub mod builder;
pub mod derived;
pub mod display;
pub mod expr;
pub mod generate;
pub mod parser;
pub mod queries;
mod store;
pub mod typecheck;
pub mod types;
pub mod value;

pub use expr::intern::{EId, ExprArena};
pub use expr::{Expr, ExprRef, LangLevel};
pub use typecheck::{check, fn_type, output_type, TypeError};
pub use types::{FnType, Type};
pub use value::intern::{VId, ValueArena};
pub use value::Value;
