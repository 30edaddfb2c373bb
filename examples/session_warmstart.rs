//! Sessions, warm starts, and batch evaluation: the owned engine layer.
//!
//! The free function `evaluate` runs each call on a one-shot session,
//! cold by construction. An `EvalSession` held across calls owns the
//! arenas, a view of an `(EId, VId)` apply table, and the config — so
//! repeated queries **warm-start**, residency can be bounded with
//! generation-based eviction, and batches fan out across worker
//! sessions on scoped threads.
//!
//! ```sh
//! cargo run --release --example session_warmstart
//! ```

use powerset_tc::core::{queries, Value};
use powerset_tc::eval::{eval_batch, EvalConfig, EvalSession};
use std::time::Instant;

fn main() {
    // --- cross-query warm starts --------------------------------------
    let mut session = EvalSession::new(EvalConfig::optimised());
    let input = Value::chain(12);

    let t = Instant::now();
    let cold = session.eval(&queries::tc_while(), &input);
    let cold_wall = t.elapsed();
    let closure = cold.result.unwrap();
    println!(
        "cold  tc_while(r₁₂): {} edges in {:?}  ({} derivation nodes)",
        closure.cardinality().unwrap(),
        cold_wall,
        cold.stats.nodes
    );

    let t = Instant::now();
    let warm = session.eval(&queries::tc_while(), &input);
    let warm_wall = t.elapsed();
    assert_eq!(warm.result.unwrap(), closure);
    println!(
        "warm  tc_while(r₁₂): same closure in {:?}  ({} memo hits, {} warm, {} nodes)",
        warm_wall, warm.stats.memo_hits, warm.stats.warm_hits, warm.stats.nodes
    );
    println!(
        "      the arenas and the (EId, VId) apply cache survived the query boundary:\n      \
         session holds ~{} KiB across {} queries ({} warm hits total)",
        session.approx_resident_bytes() / 1024,
        session.stats().queries,
        session.stats().warm_hits
    );

    // --- parallel batch evaluation ------------------------------------
    let q = session.intern_expr(&queries::tc_while());
    let jobs: Vec<_> = (4..12u64)
        .map(|n| (q, session.values_mut().chain(n)))
        .collect();
    let t = Instant::now();
    let results = eval_batch(&mut session, &jobs, 4);
    println!(
        "\nbatch: {} closure queries on up to 4 worker sessions in {:?}",
        results.len(),
        t.elapsed()
    );
    for (n, ev) in (4..12u64).zip(&results) {
        let expect = session.values_mut().chain_tc(n);
        assert_eq!(*ev.result.as_ref().unwrap(), expect);
    }
    println!("       every result re-interned canonically — bit-for-bit the sequential answers");

    // --- bounded residency: generation-based eviction ------------------
    let mut bounded = EvalSession::with_resident_budget(EvalConfig::optimised(), 64 * 1024);
    for round in 0..3 {
        let ev = bounded.eval(&queries::tc_while(), &Value::chain(10));
        assert!(ev.result.is_ok());
        println!(
            "bounded session, round {round}: generation {}, ~{} KiB resident, {} evictions",
            bounded.generation(),
            bounded.approx_resident_bytes() / 1024,
            bounded.stats().evictions
        );
    }
    println!("eviction trades warmth for memory — results never change, only cache hits do");
}
