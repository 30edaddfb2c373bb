//! Serve demo: a multi-tenant serving loop with cost-based admission.
//!
//! Spawns the `nra-serve` server on its own thread, connects two
//! tenants over the newline-delimited wire, and submits a mixed
//! workload:
//!
//! * polynomial queries (`tc_while`, `tc_step`, `compose_rel`) — admitted
//!   by class (§4 upper bound) and answered;
//! * the powerset-route `tc_paths` on a small chain — admitted because
//!   its concretely-priced powerset site fits under the ceiling;
//! * the same `tc_paths` on a long chain — rejected as submitted, then
//!   **rescued**: the optimiser rewrites it to the polynomial while
//!   route, admission re-predicts, and the query is answered;
//! * a bare `powerset` on the same long chain — nothing to rewrite, so
//!   it is **rejected before evaluation** with a reason citing the
//!   Theorem 4.1 lower bound.
//!
//! Responses arrive in completion order: a rejection leaves as soon as
//! admission decides it, ahead of the answers still being evaluated,
//! so the client matches each response to its request by id.
//!
//! Run with `cargo run --release --example serve_demo`.

use powerset_tc::core::{builder, queries, Value};
use powerset_tc::serve::{spawn, Outcome, ServeConfig};

fn main() {
    let (mut client, handle) = spawn(ServeConfig::default());

    let workload: Vec<(&str, &str, powerset_tc::core::Expr, Value)> = vec![
        (
            "alice",
            "tc_while(chain_9)",
            queries::tc_while(),
            Value::chain(9),
        ),
        (
            "alice",
            "tc_step(chain_9)",
            queries::tc_step(),
            Value::chain(9),
        ),
        (
            "bob",
            "tc_while(chain_9)",
            queries::tc_while(),
            Value::chain(9),
        ),
        (
            "bob",
            "compose_rel(chain_7)",
            queries::compose_rel(),
            Value::chain(7),
        ),
        (
            "alice",
            "tc_paths(chain_5)",
            queries::tc_paths(),
            Value::chain(5),
        ),
        (
            "bob",
            "tc_paths(chain_24)",
            queries::tc_paths(),
            Value::chain(24),
        ),
        (
            "bob",
            "powerset(chain_24)",
            builder::powerset(),
            Value::chain(24),
        ),
    ];

    println!("── submitting {} queries from 2 tenants ──", workload.len());
    for (id, (tenant, label, query, input)) in workload.iter().enumerate() {
        client
            .submit(tenant, id as u64, query, input)
            .expect("submit");
        println!("  [{tenant}:{id}] {label}");
    }

    println!("\n── responses ──");
    for _ in 0..workload.len() {
        let resp = client.recv().expect("server alive").expect("decode");
        let label = workload[resp.id as usize].1;
        match resp.outcome {
            Outcome::Ok {
                declared_budget,
                value,
            } => println!(
                "  [{}:{}] {label}: OK — {} closure edges, within declared budget {declared_budget}",
                resp.tenant,
                resp.id,
                match &value {
                    Value::Set(edges) => edges.len(),
                    _ => 0,
                },
            ),
            Outcome::Rejected { reason } => {
                println!("  [{}:{}] {label}: REJECTED — {reason}", resp.tenant, resp.id)
            }
            Outcome::Failed { detail } => {
                println!("  [{}:{}] {label}: FAILED — {detail}", resp.tenant, resp.id)
            }
        }
    }

    client.shutdown().expect("shutdown frame");
    let report = handle.join().expect("server thread");

    println!("\n── serving report ──");
    println!(
        "  batches={} frames={} admitted={} completed={} rejected(exponential)={} rescued={}",
        report.batches,
        report.frames,
        report.admitted,
        report.completed,
        report.rejected_exponential,
        report.rescued
    );
    for (tenant, stats) in &report.tenants {
        println!(
            "  tenant {tenant}: submitted={} admitted={} completed={} warm_hits={} bytes={}",
            stats.submitted, stats.admitted, stats.completed, stats.warm_hits, stats.total_bytes
        );
    }
    assert!(
        report.rejected_exponential >= 1,
        "demo must show a rejection"
    );
    assert!(
        report.rescued >= 1,
        "demo must show a powerset-route rescue"
    );
    assert!(report.completed >= 5, "demo must show completions");
}
