//! `nra_serve` — an offline query-serving front for the NRA(powerset)
//! engine, with cost-based admission control.
//!
//! The paper's separation (Suciu & Paredaens, PODS'94) is usually read
//! as a complexity result; this crate reads it as an **operations
//! manual**. A long-lived server cannot afford to discover at runtime
//! that a query needs `2^Ω(n)` space — Theorem 4.1 says some do, and
//! Lemma 5.8's dichotomy says the engine can often tell *which* before
//! evaluating. So admission here is a two-layer oracle:
//!
//! * the **symbolic layer** ([`nra_symbolic::predict_space`]) classifies
//!   the query's space behaviour from its shape — polynomial queries are
//!   admitted by class (the §4 upper bound), certified-exponential
//!   queries are priced by their `2^n` lower bound;
//! * the **concrete layer** ([`admission`]) prices each powerset site
//!   exactly (`1 + 2^c + 2^(c-1)·(size-1)` for an argument of
//!   cardinality `c`, the engine's own
//!   [`powerset_output_size`](nra_eval::eager::powerset_output_size)),
//!   catching the cases the symbolic bound underestimates (e.g. a
//!   powerset of `V×V` is `2^Θ(n²)`, not `2^n`).
//!
//! Admitted queries run under their **declared budget** — the engine's
//! §3 `max_object_size` instrumentation enforces at runtime exactly the
//! bound admission promised, so an admission bug degrades into a
//! budgeted failure, never an OOM.
//!
//! The rest of the crate is the serving machinery around that oracle:
//!
//! * [`wire`] — a newline-delimited frame format over an in-repo
//!   byte-chunk transport (no async runtime), reusing
//!   [`nra_core::parser`] as the payload syntax;
//! * [`server`] — the loop: drain a window of frames, admit, place the
//!   admitted jobs with [`partition`] (the engine's one placement rule,
//!   re-exported here: heaviest job first on the least-loaded worker),
//!   evaluate on scoped threads over the shared concurrent store,
//!   charge per-tenant byte budgets that reset with the engine's
//!   eviction generations, answer every frame exactly once. An `ok`
//!   answer is written onto the wire straight from its handle in the
//!   session arena
//!   ([`ValueArena::write_text`](nra_core::value::intern::ValueArena::write_text)),
//!   never as a tree; [`encode_response`] stays the public encoder and
//!   the reference those frames are tested against byte for byte.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod server;
pub mod wire;

pub use admission::{
    admit, AdmissionDecision, AdmissionPolicy, Admitted, Rejected, DEFAULT_POWERSET_CEILING,
    PROBE_HEADROOM,
};
pub use nra_eval::batch::partition;
pub use server::{spawn, Client, ServeConfig, ServeReport, Server, StagedJob, TenantStats};
pub use wire::{
    decode_frame, decode_response, encode_request, encode_response, socketpair, Endpoint, Frame,
    LineReceiver, LineSender, Outcome, Request, Response, WireError, MAX_FRAME_BYTES,
    SHUTDOWN_FRAME,
};
