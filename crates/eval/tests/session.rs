//! Session-layer property tests: arena occupancy accounting,
//! generation-based eviction, and cross-query warm starts.
//!
//! The contracts under test (see `nra_eval::session`):
//!
//! * eviction never changes results — only cache hit counters;
//! * `approx_resident_bytes` is monotone over queries *within* one
//!   generation, and drops at an eviction;
//! * warm starts report `memo_hits > 0` (and `warm_hits > 0`) on
//!   re-evaluation, and never survive an eviction;
//! * `evaluate`, which runs on a one-shot session, reports statistics
//!   that depend only on its arguments.

use nra_core::{queries, Value};
use nra_eval::{evaluate, EvalConfig, EvalSession};
use nra_testkit::{check, Rng};

const CASES: u64 = 16;

fn family_inputs(rng: &mut Rng) -> Vec<(&'static str, Value)> {
    nra_testkit::graphs::family_graphs(rng)
        .into_iter()
        .map(|g| (g.family, Value::relation(g.edges)))
        .collect()
}

/// Generation-based eviction must be invisible in the results: a
/// session evicting after every query (1-byte budget), a never-evicting
/// session, and one-shot `evaluate` all produce bit-for-bit the
/// same values on every family and route — only `memo_hits`/`warm_hits`
/// differ.
#[test]
fn eviction_never_changes_results() {
    check("eviction_never_changes_results", CASES, |_, rng| {
        let config = EvalConfig::optimised();
        let mut warm = EvalSession::new(config.clone());
        let mut evicting = EvalSession::with_resident_budget(config.clone(), 1);
        for (family, input) in family_inputs(rng) {
            for q in [queries::tc_while(), queries::tc_step(), queries::tc_paths()] {
                let reference = evaluate(&q, &input, &config);
                let from_warm = warm.eval(&q, &input);
                let from_evicting = evicting.eval(&q, &input);
                let expect = reference.result.unwrap();
                assert_eq!(from_warm.result.unwrap(), expect, "{family}: {q} (warm)");
                assert_eq!(
                    from_evicting.result.unwrap(),
                    expect,
                    "{family}: {q} (evicting)"
                );
                // an evicted cache is cold by construction
                assert_eq!(
                    from_evicting.stats.warm_hits, 0,
                    "{family}: {q} — warm hit across an eviction"
                );
                // cache hits never *re-observe* skipped derivations, so
                // the §3 counters of a warm run only ever shrink (down
                // to 0 when the whole judgment is cached); the evicting
                // session restarts cold every query, so its measure is
                // exactly the reference one
                assert!(
                    from_warm.stats.max_object_size <= reference.stats.max_object_size,
                    "{family}: {q}"
                );
                assert_eq!(
                    from_evicting.stats.max_object_size, reference.stats.max_object_size,
                    "{family}: {q} (cold restart must report the exact measure)"
                );
            }
        }
        // the 1-byte budget evicted at every query boundary
        assert_eq!(evicting.stats().evictions, evicting.stats().queries);
        assert_eq!(evicting.generation(), evicting.stats().queries);
        assert_eq!(warm.stats().evictions, 0);
        assert_eq!(warm.generation(), 0);
    });
}

/// Within one generation the resident-byte estimate is monotone (arenas
/// and cache state only grow); an eviction drops it back.
#[test]
fn resident_bytes_are_monotone_within_a_generation() {
    check(
        "resident_bytes_are_monotone_within_a_generation",
        CASES,
        |_, rng| {
            let mut session = EvalSession::new(EvalConfig::optimised());
            let mut last = session.approx_resident_bytes();
            let baseline = last;
            for (family, input) in family_inputs(rng) {
                for q in [queries::tc_while(), queries::tc_step()] {
                    session.eval(&q, &input).result.unwrap();
                    let now = session.approx_resident_bytes();
                    assert!(
                        now >= last,
                        "{family}: resident bytes shrank {last} → {now} without an eviction"
                    );
                    last = now;
                }
            }
            assert!(last > baseline, "evaluations must grow the session");
            let before_eviction = session.generation();
            session.evict();
            assert_eq!(session.generation(), before_eviction + 1);
            assert!(
                session.approx_resident_bytes() < last,
                "eviction must drop the resident estimate"
            );
        },
    );
}

/// The acceptance workload: warm-start re-evaluation of `tc_while` on
/// the chain n = 12 hits the surviving apply cache on the second call.
#[test]
fn warm_start_on_chain_12_hits_the_cache() {
    let mut session = EvalSession::new(EvalConfig::optimised());
    let input = Value::chain(12);
    let cold = session.eval(&queries::tc_while(), &input);
    assert_eq!(cold.result.unwrap(), Value::chain_tc(12));
    assert_eq!(cold.stats.warm_hits, 0);
    let second = session.eval(&queries::tc_while(), &input);
    assert_eq!(second.result.unwrap(), Value::chain_tc(12));
    assert!(
        second.stats.memo_hits > 0,
        "second call must hit the surviving cache: {:?}",
        second.stats
    );
    assert!(second.stats.warm_hits > 0, "{:?}", second.stats);
    // the warm start collapses the whole derivation: the root judgment
    // itself is cached, so the §3 node count drops to (almost) nothing
    assert!(
        second.stats.nodes < cold.stats.nodes / 10,
        "warm re-evaluation should skip the bulk of the derivation: \
         cold {} vs warm {} nodes",
        cold.stats.nodes,
        second.stats.nodes
    );
}

/// Warm starts also fire across *related* (not identical) queries: a
/// closure reuses the judgment it shares with an earlier query — its
/// first iterate is exactly the `tc_step` judgment on the same input.
#[test]
fn warm_starts_cross_related_queries() {
    let mut session = EvalSession::new(EvalConfig::optimised());
    let input = Value::chain(8);
    session.eval(&queries::tc_step(), &input).result.unwrap();
    let closure = session.eval(&queries::tc_while(), &input);
    assert_eq!(closure.result.unwrap(), Value::chain_tc(8));
    assert!(closure.stats.warm_hits > 0, "{:?}", closure.stats);
}

/// A session's jobs, interned fresh: `tc_while` and `tc_step` over the
/// chains `2..8`.
fn chain_jobs(
    session: &mut EvalSession,
) -> Vec<(nra_core::expr::intern::EId, nra_core::value::intern::VId)> {
    let q_while = session.intern_expr(&queries::tc_while());
    let q_step = session.intern_expr(&queries::tc_step());
    (2..8u64)
        .flat_map(|n| {
            let input = session.values_mut().chain(n);
            [(q_while, input), (q_step, input)]
        })
        .collect()
}

/// Regression (batch bug 2): `eval_batch` used to bypass
/// [`SessionStats`](nra_eval::SessionStats) entirely — after a batch,
/// `session.stats().queries` still read 0. A batch must count against
/// the parent's books exactly like the equivalent sequential
/// `eval_vid` loop. Under the default configuration (apply cache off)
/// the whole `SessionStats` is a pure function of the job list, so
/// batch and sequential sessions must agree field for field.
#[test]
fn batch_folds_into_session_stats_like_a_sequential_loop() {
    let mut sequential = EvalSession::new(EvalConfig::default());
    let jobs = chain_jobs(&mut sequential);
    for &(eid, input) in &jobs {
        sequential.eval_vid(eid, input);
    }

    let mut batched = EvalSession::new(EvalConfig::default());
    let jobs = chain_jobs(&mut batched);
    nra_eval::eval_batch(&mut batched, &jobs, 3);

    assert_eq!(
        sequential.stats(),
        batched.stats(),
        "batch and sequential SessionStats must agree"
    );
    assert_eq!(batched.stats().queries, jobs.len() as u64);
}

/// The same accounting under the optimised configuration: per-query
/// cache counters depend on the (shared vs local) table layout, so
/// only the layout-independent fields are pinned exactly — but the
/// cache activity itself must be *visible* in the parent's stats,
/// which is precisely what the bug lost.
#[test]
fn batch_cache_activity_is_visible_in_session_stats() {
    let mut session = EvalSession::new(EvalConfig::optimised());
    let jobs = chain_jobs(&mut session);
    nra_eval::eval_batch(&mut session, &jobs, 3);
    let first = *session.stats();
    assert_eq!(first.queries, jobs.len() as u64);
    assert!(
        first.memo_hits > 0,
        "batch memo activity must reach SessionStats: {first:?}"
    );
    // a second identical batch runs fully warm against the shared
    // apply table the first one filled
    nra_eval::eval_batch(&mut session, &jobs, 3);
    let second = *session.stats();
    assert_eq!(second.queries, 2 * jobs.len() as u64);
    assert!(
        second.warm_hits > first.warm_hits,
        "second batch must report warm hits: {second:?}"
    );
}

/// Satellite (stale handles): `evict` bumps the generation and the
/// docs demand handle-level callers re-intern — in debug builds,
/// `eval_vid` now *detects* a pre-eviction `VId` instead of silently
/// denoting an arbitrary object.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "stale handle")]
fn stale_value_handle_after_eviction_is_detected() {
    let mut session = EvalSession::new(EvalConfig::default());
    let eid = session.intern_expr(&queries::tc_while());
    let input = session.values_mut().chain(5);
    session.evict();
    // `eid` happens to be re-issued by the post-eviction re-interning,
    // but the input handle points past the cleared value arena
    let _ = session.eval_vid(eid, input);
}

/// A fabricated expression handle no arena ever issued is detected the
/// same way.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "stale handle")]
fn fabricated_expr_handle_is_detected() {
    let mut session = EvalSession::new(EvalConfig::default());
    let input = session.values_mut().chain(3);
    let stale = nra_core::expr::intern::EId::from_index(1 << 20);
    let _ = session.eval_vid(stale, input);
}

/// The documented remedy works: re-interning through the current
/// arenas after an eviction yields valid handles and the same result.
#[test]
fn reinterning_after_eviction_recovers() {
    let mut session = EvalSession::new(EvalConfig::default());
    let eid = session.intern_expr(&queries::tc_while());
    let input = session.values_mut().chain(5);
    let before = session.eval_vid(eid, input);
    session.evict();
    let eid = session.intern_expr(&queries::tc_while());
    let input = session.values_mut().chain(5);
    let after = session.eval_vid(eid, input);
    assert_eq!(
        session.resolve(*after.result.as_ref().unwrap()),
        Value::chain_tc(5)
    );
    assert_eq!(before.stats, after.stats, "cold restart, same measure");
}

/// `evaluate` is a function of its arguments: the statistics it reports
/// for a query do not depend on what the calling thread evaluated
/// before. Each case runs once on a fresh thread and once on a thread
/// that first evaluated twenty unrelated queries; earlier handles in a
/// shared arena would reorder sets and move apply-table collisions.
#[test]
fn evaluate_stats_depend_only_on_the_arguments() {
    let budgeted = EvalConfig {
        max_nodes: Some(50),
        ..EvalConfig::default()
    };
    let cases = [
        (
            queries::tc_while(),
            Value::chain(12),
            EvalConfig::memoised(),
        ),
        (queries::tc_paths(), Value::chain(1), budgeted),
    ];
    for (q, input, config) in cases {
        let on_a_thread = |warm_up: bool| {
            let (q, input, config) = (q.clone(), input.clone(), config.clone());
            std::thread::spawn(move || {
                if warm_up {
                    let default = EvalConfig::default();
                    for n in 0..10u64 {
                        evaluate(&queries::tc_paths(), &Value::chain(n % 6), &default);
                        evaluate(&queries::tc_step(), &Value::chain(n + 20), &default);
                    }
                }
                evaluate(&q, &input, &config).stats
            })
            .join()
            .expect("evaluation thread panicked")
        };
        assert_eq!(
            on_a_thread(false),
            on_a_thread(true),
            "{q} under {config:?}"
        );
    }
}
