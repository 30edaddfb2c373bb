//! Serving-loop stress: four tenants, mixed seeded workloads, one
//! shared server — the books must balance and nothing may bleed.
//!
//! Modelled on the shared-store stress test in `nra-core`: concurrency
//! is real (submitter threads race over one cloned [`LineSender`]) but
//! every assertion is about *deterministic* accounting — per-tenant
//! stats fold coherently with the global report, rejections match the
//! workload's locally-computed expectations, tenant byte budgets bind
//! their own tenant and nobody else, and a panicking job surfaces as a
//! structured failure without poisoning the loop for the jobs around
//! it.

use nra_core::value::intern::VId;
use nra_core::{queries, Value};
use nra_serve::{encode_request, spawn, Outcome, Request, ServeConfig, Server, StagedJob};
use nra_testkit::{graphs, Rng};
use std::collections::BTreeMap;
use std::thread;

const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const PER_TENANT: u64 = 24;

/// The mixed workload, deterministic per (tenant, index): both
/// dichotomy classes, rescuable powerset-route TC (rewritten to the
/// while route at the door), and bare powersets large enough to be
/// rejected with their bound. Returns the request plus whether
/// admission must turn it away.
fn workload_item(tenant: &str, t: usize, i: u64) -> (Request, bool) {
    let mut rng = Rng::new(0x5EED_0000 ^ ((t as u64) << 32) ^ i);
    let (query, input, rejected) = if i == 0 {
        // every tenant leads with the common warm-up pair, so
        // cross-tenant warm hits are guaranteed load-bearing
        (queries::tc_while(), Value::chain(9), false)
    } else {
        match rng.below(6) {
            0 => (queries::tc_while(), Value::chain(9), false),
            1 => {
                let g = graphs::random_dag(&mut rng);
                (
                    queries::tc_step(),
                    Value::relation(g.edges.iter().copied()),
                    false,
                )
            }
            2 => {
                let g = graphs::random_cycle(&mut rng);
                (
                    queries::compose_rel(),
                    Value::relation(g.edges.iter().copied()),
                    false,
                )
            }
            3 => (queries::tc_paths(), Value::chain(3 + rng.below(3)), false),
            4 => {
                let g = graphs::random_sparse(&mut rng);
                (
                    queries::siblings_powerset(),
                    Value::relation(g.edges.iter().copied()),
                    false,
                )
            }
            // certified exponential at serving scale with nothing the
            // optimiser can rewrite (tc_paths would be rescued to the
            // while route): rejected with the Theorem 4.1 citation
            _ => (
                nra_core::builder::powerset(),
                Value::chain(20 + rng.below(8)),
                true,
            ),
        }
    };
    (
        Request {
            tenant: tenant.to_string(),
            id: (t as u64) * 1_000 + i,
            query,
            input,
        },
        rejected,
    )
}

#[test]
fn four_tenants_hammer_one_server_and_the_books_balance() {
    let (mut client, handle) = spawn(ServeConfig::default());

    // expected rejections, computed locally from the same seeds
    let mut expect_rejected: BTreeMap<&str, u64> = BTreeMap::new();
    for (t, tenant) in TENANTS.iter().enumerate() {
        for i in 0..PER_TENANT {
            let (_, rejected) = workload_item(tenant, t, i);
            *expect_rejected.entry(tenant).or_default() += u64::from(rejected);
        }
    }

    // four racing submitters over one cloned sender
    thread::scope(|scope| {
        for (t, tenant) in TENANTS.iter().enumerate() {
            let tx = client.tx.clone();
            scope.spawn(move || {
                for i in 0..PER_TENANT {
                    let (request, _) = workload_item(tenant, t, i);
                    let line = encode_request(&request).expect("encodable request");
                    tx.send_line(&line).expect("server inbox open");
                }
            });
        }
    });

    // collect every response; tally per tenant
    let mut ok: BTreeMap<String, u64> = BTreeMap::new();
    let mut rejected: BTreeMap<String, u64> = BTreeMap::new();
    for _ in 0..(TENANTS.len() as u64 * PER_TENANT) {
        let resp = client
            .recv()
            .expect("server alive until shutdown")
            .expect("decodable response");
        match resp.outcome {
            Outcome::Ok { .. } => *ok.entry(resp.tenant).or_default() += 1,
            Outcome::Rejected { reason } => {
                assert!(
                    reason.contains("Theorem 4.1"),
                    "only certified-exponential rejections exist in this workload: \
                     {reason}"
                );
                *rejected.entry(resp.tenant).or_default() += 1;
            }
            Outcome::Failed { detail } => panic!("no job of this workload may fail: {detail}"),
        }
    }
    client.shutdown().expect("shutdown frame");
    let report = handle.join().expect("server thread");

    // per-tenant books: responses == stats == local expectations
    for tenant in TENANTS {
        let stats = &report.tenants[tenant];
        let expect_r = expect_rejected[tenant];
        assert_eq!(stats.submitted, PER_TENANT, "{tenant}: submitted");
        assert_eq!(stats.rejected, expect_r, "{tenant}: rejected");
        assert_eq!(stats.admitted, PER_TENANT - expect_r, "{tenant}: admitted");
        assert_eq!(stats.completed, stats.admitted, "{tenant}: completed");
        assert_eq!(stats.errors, 0, "{tenant}: errors");
        assert_eq!(ok[tenant], stats.completed, "{tenant}: ok responses");
        assert_eq!(
            rejected.get(tenant).copied().unwrap_or(0),
            stats.rejected,
            "{tenant}: rejected responses"
        );
        assert!(stats.total_bytes > 0, "{tenant}: results were charged");
    }

    // global books fold from the tenant books
    let fold =
        |f: fn(&nra_serve::TenantStats) -> u64| -> u64 { report.tenants.values().map(f).sum() };
    assert_eq!(report.frames, TENANTS.len() as u64 * PER_TENANT);
    assert_eq!(report.admitted, fold(|t| t.admitted));
    assert_eq!(report.completed, fold(|t| t.completed));
    assert_eq!(report.rejected_exponential, fold(|t| t.rejected));
    assert_eq!(report.errors, 0);
    assert_eq!(report.decode_errors, 0);
    assert!(
        report.rejected_exponential > 0,
        "the workload must include certified-exponential submissions"
    );

    // the shared concurrent store pays across tenants: the common
    // warm-up pair makes later tenants' evaluations warm-hit judgments
    // derived for earlier ones
    let warmed = report.tenants.values().filter(|t| t.warm_hits > 0).count();
    assert!(
        warmed >= 2,
        "cross-tenant warm hits must reach at least two tenants: {:?}",
        report
            .tenants
            .iter()
            .map(|(t, s)| (t.clone(), s.warm_hits))
            .collect::<Vec<_>>()
    );
}

#[test]
fn tenant_byte_budgets_bind_their_tenant_and_nobody_else() {
    let mut server = Server::new(ServeConfig::default());
    server.set_tenant_budget("capped", 64); // one chain_tc(6) result exceeds this

    let request = |tenant: &str, id: u64| Request {
        tenant: tenant.to_string(),
        id,
        query: queries::tc_while(),
        input: Value::chain(6),
    };

    for round in 0..6u64 {
        let responses = server.process_batch(&[request("capped", round), request("free", round)]);
        // "free" must never feel "capped"'s ledger
        assert!(
            matches!(responses[1].outcome, Outcome::Ok { .. }),
            "round {round}: free tenant blocked: {:?}",
            responses[1]
        );
        if round == 0 {
            // the first capped request passes (nothing charged yet)…
            assert!(matches!(responses[0].outcome, Outcome::Ok { .. }));
        } else {
            // …and pays for it from then on
            assert!(
                matches!(
                    &responses[0].outcome,
                    Outcome::Rejected { reason } if reason.contains("byte budget exhausted")
                ),
                "round {round}: {:?}",
                responses[0]
            );
        }
    }
    let report = server.report();
    assert_eq!(report.tenants["free"].completed, 6);
    assert_eq!(report.tenants["free"].rejected, 0);
    assert_eq!(report.tenants["capped"].completed, 1);
    assert_eq!(report.tenants["capped"].rejected, 5);
    assert_eq!(report.rejected_tenant_budget, 5);

    // the ledger rides the eviction generations: an eviction voids the
    // old generation's charges and the capped tenant serves again
    server.session().evict();
    let responses = server.process_batch(&[request("capped", 99)]);
    assert!(
        matches!(responses[0].outcome, Outcome::Ok { .. }),
        "post-eviction: {:?}",
        responses[0]
    );
}

#[test]
fn a_panicking_job_is_contained_without_poisoning_the_loop() {
    let mut server = Server::new(ServeConfig::default());
    let (good_q, good_v, next_v) = {
        let session = server.session();
        let q = session.intern_expr(&queries::tc_while());
        let v = session.intern_value(&Value::chain(5));
        let w = session.intern_value(&Value::chain(4));
        (q, v, w)
    };
    // a fabricated stale handle: panics inside the per-job guard, under
    // a budget its unbudgeted neighbours must never inherit (the job
    // after it closes a fresh input, so no cached answer hides a leak)
    let poison = VId::from_index((u16::MAX as usize) << 8);
    let job = |tenant: &str, id: u64, input: VId, budget: u64| StagedJob {
        tenant: tenant.to_string(),
        id,
        query: good_q,
        input,
        budget,
    };
    let responses = server.run_staged(&[
        job("steady", 0, good_v, u64::MAX),
        job("chaos", 1, poison, 1),
        job("steady", 2, next_v, u64::MAX),
    ]);
    for (id, n) in [(0usize, 5), (2, 4)] {
        match &responses[id].outcome {
            Outcome::Ok { value, .. } => assert_eq!(*value, Value::chain_tc(n)),
            other => panic!("neighbour job {id} of the panicking one: {other:?}"),
        }
    }
    assert!(
        matches!(
            &responses[1].outcome,
            Outcome::Failed { detail } if detail.contains("panicked")
        ),
        "{:?}",
        responses[1]
    );

    // the loop is not poisoned: the very next batch serves normally
    let responses = server.process_batch(&[Request {
        tenant: "steady".to_string(),
        id: 3,
        query: queries::tc_while(),
        input: Value::chain(6),
    }]);
    assert!(matches!(responses[0].outcome, Outcome::Ok { .. }));

    let report = server.report();
    assert_eq!(report.errors, 1);
    assert_eq!(report.tenants["chaos"].errors, 1);
    assert_eq!(report.tenants["steady"].completed, 3);
}
