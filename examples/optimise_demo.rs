//! Optimiser demo: the separation theorem run backwards.
//!
//! The powerset-route transitive closure `tc_paths` is certified
//! exponential (Theorem 4.1), so the serving door rejects it on any
//! non-trivial input. `nra-opt` recognises the idiom structurally and
//! rewrites it to the while route (`tc_while`, polynomial) *before*
//! admission — the same query is **rescued**: admitted, evaluated in
//! polynomial space, answered correctly.
//!
//! Run with `cargo run --release --example optimise_demo`.

use powerset_tc::core::{queries, Value};
use powerset_tc::eval::EvalConfig;
use powerset_tc::opt;
use powerset_tc::serve::{spawn, Outcome, ServeConfig};
use powerset_tc::symbolic::classify_space;

fn main() {
    // ── the rewrite itself ──────────────────────────────────────────
    let raw = queries::tc_paths();
    let optimised = opt::optimise_expr(&raw);
    println!("raw query:       {raw}");
    println!("  space class:   {:?}", classify_space(&raw));
    println!("optimised query: {optimised}");
    println!("  space class:   {:?}", classify_space(&optimised));
    assert_eq!(optimised, queries::tc_while());

    // ── without the optimiser: rejected at the door ─────────────────
    let strict = ServeConfig {
        eval: EvalConfig::optimised(),
        ..ServeConfig::default()
    };
    let (mut client, handle) = spawn(strict);
    client
        .submit("alice", 0, &queries::tc_paths(), &Value::chain(24))
        .expect("submit");
    let resp = client.recv().expect("server alive").expect("decode");
    match resp.outcome {
        Outcome::Rejected { reason } => {
            println!("\nwithout optimiser: REJECTED — {reason}");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    client.shutdown().expect("shutdown frame");
    handle.join().expect("server thread");

    // ── with the optimiser (the default config): rescued ────────────
    let (mut client, handle) = spawn(ServeConfig::default());
    client
        .submit("alice", 0, &queries::tc_paths(), &Value::chain(24))
        .expect("submit");
    let resp = client.recv().expect("server alive").expect("decode");
    match resp.outcome {
        Outcome::Ok { value, .. } => {
            let edges = match &value {
                Value::Set(edges) => edges.len(),
                _ => 0,
            };
            println!("with optimiser:    OK — {edges} closure edges");
            assert_eq!(value, Value::chain_tc(24));
        }
        other => panic!("expected a rescue, got {other:?}"),
    }
    client.shutdown().expect("shutdown frame");
    let report = handle.join().expect("server thread");
    println!(
        "serving report:    admitted={} rescued={} rejected(exponential)={}",
        report.admitted, report.rescued, report.rejected_exponential
    );
    assert_eq!(report.rescued, 1, "the rescue must be counted");
}
