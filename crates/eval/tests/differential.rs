//! Evaluator-strategy differential tests: the plain eager evaluator, the
//! derivation-tree-materialising traced evaluator, the streaming (lazy)
//! evaluator, and the memoised (apply-cache) and semi-naive eager
//! variants must agree — on results *and* on the statistics they share
//! — across randomized graphs from seven families (chains, cycles, DAGs,
//! disconnected graphs, grids, cliques, sparse random graphs), with the
//! `nra-graph` closure as the external referee.
//!
//! The workspace-level `tests/differential.rs` checks agreement between
//! *routes* (powerset vs while vs classical algorithms); this file checks
//! agreement between *strategies* evaluating the same route.

use nra_core::builder::*;
use nra_core::types::Type;
use nra_core::{derived, queries, Value};
use nra_eval::{evaluate, evaluate_lazy, evaluate_traced, evaluate_tree, EvalConfig, EvalSession};
use nra_graph::{graph_to_value, tc, DiGraph};
use nra_testkit::{check, Rng};

const CASES: u64 = 24;

/// The edge type `N × N`.
fn edge_ty() -> Type {
    Type::prod(Type::Nat, Type::Nat)
}

/// Queries over the Prop 2.1 derived shapes — `nest`/`unnest`,
/// membership and inclusion predicates (via `∩`, `∖`, `⊆`, `=` at set
/// types), the self-join `σ_p(R × R)` — each of type `{N × N} → t` so
/// the family graphs feed them directly, and most wrapping a growing
/// `tc_step` so the semi-naive walker sees the fused self-join re-fire
/// on grown inputs inside the exact derivations of the other shapes.
fn fused_shape_queries() -> Vec<(&'static str, nra_core::Expr)> {
    let rel = Type::set(edge_ty());
    vec![
        // nest ∘ unnest round-trips inside the fixpoint: the body is
        // exactly tc_step followed by an identity detour through the
        // grouping operators, so the trajectory is tc_while's
        (
            "while(unnest ∘ nest ∘ tc_step)",
            while_fix(pipeline([
                queries::tc_step(),
                derived::nest(&Type::Nat, &Type::Nat),
                derived::unnest(),
            ])),
        ),
        ("nest", derived::nest(&Type::Nat, &Type::Nat)),
        (
            "unnest ∘ nest",
            pipeline([derived::nest(&Type::Nat, &Type::Nat), derived::unnest()]),
        ),
        // tc_step(r) ∩ r = r (membership predicate inside ∩)
        (
            "tc_step ∩ id",
            compose(
                derived::intersect(&edge_ty()),
                tuple(queries::tc_step(), id()),
            ),
        ),
        // tc_step(r) ∖ r — the freshly derived edges (¬∈ inside ∖)
        (
            "tc_step ∖ id",
            compose(
                derived::difference(&edge_ty()),
                tuple(queries::tc_step(), id()),
            ),
        ),
        // r ⊆ tc_step(r) — the inclusion predicate itself
        (
            "id ⊆ tc_step",
            compose(derived::subset(&edge_ty()), tuple(id(), queries::tc_step())),
        ),
        // =_{ {N×N} } — set equality, i.e. antisymmetric inclusion
        (
            "tc_step = tc_while",
            compose(
                derived::eq_at(&rel),
                tuple(queries::tc_step(), queries::tc_while()),
            ),
        ),
        // the self-join σ_p(R × R), keyed on b = c
        ("compose_rel", queries::compose_rel()),
        // the self-join keyed on b = d, with a residual a ≠ c
        ("siblings_direct", queries::siblings_direct()),
        // a map over the projected join reads its answer, not the
        // match: the converse of R ∘ R, and its left endpoints
        (
            "map(⟨π₂, π₁⟩) ∘ compose_rel",
            compose(map(tuple(snd(), fst())), queries::compose_rel()),
        ),
        (
            "map(⟨π₁, π₁⟩) ∘ compose_rel",
            compose(map(tuple(fst(), fst())), queries::compose_rel()),
        ),
    ]
}

/// One random graph from each of the seven shared families per seed,
/// lifted to `DiGraph` — the family definitions live in
/// `nra_testkit::graphs` so this harness and the route-level
/// `tests/differential.rs` can never drift apart.
fn family_graphs(rng: &mut Rng) -> Vec<(&'static str, DiGraph)> {
    nra_testkit::graphs::family_graphs(rng)
        .into_iter()
        .map(|g| (g.family, DiGraph::from_edges(g.edges)))
        .collect()
}

/// Eager and traced are the same semantics with different bookkeeping:
/// identical results, node counts, and §3 complexities.
#[test]
fn traced_agrees_with_eager_on_all_families() {
    check(
        "traced_agrees_with_eager_on_all_families",
        CASES,
        |_, rng| {
            let cfg = EvalConfig::default();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                for q in [queries::tc_step(), queries::tc_while()] {
                    let plain = evaluate(&q, &input, &cfg);
                    let traced = evaluate_traced(&q, &input, &cfg);
                    let tree = traced.result.unwrap();
                    assert_eq!(tree.output, plain.result.unwrap(), "{family}: {q}");
                    assert_eq!(tree.node_count(), plain.stats.nodes, "{family}: {q}");
                    assert_eq!(
                        tree.max_object_size(),
                        plain.stats.max_object_size,
                        "{family}: {q}"
                    );
                }
            }
        },
    );
}

/// The interned (hash-consed) evaluation path must be indistinguishable
/// from the original tree-walking implementation: same results **and**
/// byte-for-byte the same §3 statistics, across all four graph families
/// and both TC routes. This is the differential gate for the arena.
#[test]
fn interned_path_agrees_with_tree_evaluator_on_all_families() {
    check(
        "interned_path_agrees_with_tree_evaluator_on_all_families",
        CASES,
        |_, rng| {
            let cfg = EvalConfig::default();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                for q in [queries::tc_paths(), queries::tc_while(), queries::tc_step()] {
                    let tree = evaluate_tree(&q, &input, &cfg);
                    let interned = evaluate(&q, &input, &cfg);
                    assert_eq!(
                        tree.result.as_ref().unwrap(),
                        interned.result.as_ref().unwrap(),
                        "{family}: {q}"
                    );
                    assert_eq!(tree.stats, interned.stats, "{family}: {q}");
                }
                // the handle-to-handle entry point and the arena's
                // relation encoding of the graph, on the cheap query only
                // — evaluate() runs the same session path, so this
                // checks the boundary, not the (identical) evaluation
                let q = queries::tc_step();
                let interned = evaluate(&q, &input, &cfg);
                let mut session = EvalSession::new(cfg.clone());
                let eid = session.intern_expr(&q);
                let iv = session.values_mut().relation(g.edges());
                let vid_ev = session.eval_vid(eid, iv);
                assert_eq!(
                    session.resolve(vid_ev.result.unwrap()),
                    interned.result.unwrap(),
                    "{family}: {q} (vid path)"
                );
                assert_eq!(vid_ev.stats, interned.stats, "{family}: {q} (vid stats)");
            }
        },
    );
}

/// The apply cache must change the cost, never the answer: memoised
/// eager evaluation is bit-for-bit the non-memoised interned result on
/// every family and route, and the default (memo-off) statistics are
/// untouched — the §3 counters of a memoised run never exceed the exact
/// ones, with the skipped work reported in `memo_hits` instead.
#[test]
fn memoised_agrees_with_unmemoised_on_all_families() {
    check(
        "memoised_agrees_with_unmemoised_on_all_families",
        CASES,
        |_, rng| {
            let cfg = EvalConfig::default();
            let memo_cfg = EvalConfig::memoised();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                for q in [queries::tc_paths(), queries::tc_while(), queries::tc_step()] {
                    let plain = evaluate(&q, &input, &cfg);
                    let memoised = evaluate(&q, &input, &memo_cfg);
                    assert_eq!(
                        plain.result.as_ref().unwrap(),
                        memoised.result.as_ref().unwrap(),
                        "{family}: {q}"
                    );
                    assert_eq!(
                        plain.stats.memo_hits + plain.stats.memo_misses,
                        0,
                        "{family}: {q} — memo-off stats must not count the cache"
                    );
                    assert!(
                        memoised.stats.nodes <= plain.stats.nodes,
                        "{family}: {q} — hits may only shrink the node count"
                    );
                    assert_eq!(
                        memoised.stats.max_object_size, plain.stats.max_object_size,
                        "{family}: {q} — the §3 complexity is a max over the same judgments"
                    );
                }
            }
        },
    );
}

/// The streaming strategy must change the cost *model*, never the answer
/// — and it streams the exact derivation whatever the memo and
/// semi-naive switches say: under `EvalConfig::optimised()` it returns
/// the default run's value and statistics. Both strategies also agree
/// with the classical closure as an external referee (not just with
/// each other): lazy `tc_paths` and eager `tc_while` equal
/// `nra_graph::tc` on every family.
#[test]
fn lazy_agrees_with_eager_on_all_families() {
    check(
        "lazy_agrees_with_eager_on_all_families",
        CASES,
        |seed, rng| {
            let cfg = EvalConfig::default();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                let closure = graph_to_value(&tc(&g));
                for (q, pin_optimised) in [
                    // tc_paths streams 2^|R| subsets through the tree-path
                    // evaluator, so its optimised run covers a third of the
                    // seeds
                    (queries::tc_paths(), seed < CASES / 3),
                    (queries::tc_while(), true),
                    (queries::siblings_powerset(), true),
                ] {
                    let eager_out = evaluate(&q, &input, &cfg).result.unwrap();
                    let lazy = evaluate_lazy(&q, &input, &cfg);
                    assert_eq!(&eager_out, lazy.result.as_ref().unwrap(), "{family}: {q}");
                    if q == queries::tc_paths() {
                        assert_eq!(
                            lazy.result.as_ref().unwrap(),
                            &closure,
                            "{family}: lazy tc_paths vs graph closure"
                        );
                    }
                    if q == queries::tc_while() {
                        assert_eq!(
                            eager_out, closure,
                            "{family}: eager tc_while vs graph closure"
                        );
                    }
                    if pin_optimised {
                        let optimised = evaluate_lazy(&q, &input, &EvalConfig::optimised());
                        assert_eq!(optimised.result, lazy.result, "{family}: optimised {q}");
                        assert_eq!(optimised.stats, lazy.stats, "{family}: optimised {q}");
                    }
                }
            }
        },
    );
}

/// The configuration servers run (memo + semi-naive, fused join) must
/// agree with the classical closure as an external referee too; the
/// default eager and lazy runs are refereed in
/// `lazy_agrees_with_eager_on_all_families`.
#[test]
fn strategies_agree_with_the_graph_referee() {
    check(
        "strategies_agree_with_the_graph_referee",
        CASES,
        |_, rng| {
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                let expect = graph_to_value(&tc(&g));
                assert_eq!(
                    evaluate(&queries::tc_while(), &input, &EvalConfig::optimised())
                        .result
                        .unwrap(),
                    expect,
                    "{family}: optimised tc_while vs graph closure"
                );
            }
        },
    );
}

/// Semi-naive (delta-driven) iteration must change the cost, never the
/// answer — or the trajectory: on every family and route, semi-naive-on
/// results are bit-for-bit the semi-naive-off results, `while_iterations`
/// is exactly the naive count (the fixpoint sequence is threaded, not
/// approximated), and the §3 counters only ever shrink, with the skipped
/// work reported in `delta_hits`/`delta_skipped` instead.
#[test]
fn seminaive_agrees_with_naive_on_all_families() {
    check(
        "seminaive_agrees_with_naive_on_all_families",
        CASES,
        |_, rng| {
            let cfg = EvalConfig::default();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                for q in [queries::tc_paths(), queries::tc_while(), queries::tc_step()] {
                    let naive = evaluate(&q, &input, &cfg);
                    for (mode, delta_cfg) in [
                        ("semi-naive", EvalConfig::semi_naive()),
                        ("memo+semi-naive", EvalConfig::optimised()),
                    ] {
                        let delta = evaluate(&q, &input, &delta_cfg);
                        assert_eq!(
                            naive.result.as_ref().unwrap(),
                            delta.result.as_ref().unwrap(),
                            "{family}: {mode} {q}"
                        );
                        assert_eq!(
                            naive.stats.while_iterations, delta.stats.while_iterations,
                            "{family}: {mode} {q} — the fixpoint trajectory must be exact"
                        );
                        assert!(
                            delta.stats.nodes <= naive.stats.nodes,
                            "{family}: {mode} {q} — delta skips may only shrink the node count"
                        );
                        assert!(
                            delta.stats.max_object_size <= naive.stats.max_object_size,
                            "{family}: {mode} {q} — the fused join observes a subset of the objects"
                        );
                    }
                    // the default mode never counts delta activity
                    assert_eq!(
                        naive.stats.delta_hits + naive.stats.delta_skipped,
                        0,
                        "{family}: {q} — semi-naive-off stats must not count the delta cache"
                    );
                    assert!(naive.stats.while_frontiers.is_empty(), "{family}: {q}");
                }
            }
        },
    );
}

/// On set-valued inflationary fixpoints, the threaded `(total, delta)`
/// pair is internally consistent: the frontier cardinalities sum to
/// `|final| − |input|` and the last frontier is empty (the fixpoint
/// test).
#[test]
fn seminaive_frontiers_reconstruct_the_closure() {
    check(
        "seminaive_frontiers_reconstruct_the_closure",
        CASES,
        |_, rng| {
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                let ev = evaluate(&queries::tc_while(), &input, &EvalConfig::semi_naive());
                let out = ev.result.unwrap();
                let frontiers = &ev.stats.while_frontiers;
                assert_eq!(
                    frontiers.len() as u64,
                    ev.stats.while_iterations,
                    "{family}: one frontier per iterate"
                );
                assert_eq!(frontiers.last().copied(), Some(0), "{family}: fixpoint");
                let grown: u64 = frontiers.iter().sum();
                let (n_in, n_out) = (
                    input.cardinality().unwrap() as u64,
                    out.cardinality().unwrap() as u64,
                );
                assert_eq!(grown, n_out - n_in, "{family}: frontiers sum to the growth");
            }
        },
    );
}

/// The §3 caveat, quantified: on chains the lazy strategy's peak resident
/// size must undercut the eager complexity once `2ⁿ` dominates — while
/// the *streamed subset count* stays exponential (time is not saved).
#[test]
fn lazy_space_undercuts_eager_on_chains() {
    let cfg = EvalConfig::default();
    for n in 5..=8u64 {
        let input = Value::chain(n);
        let eager = evaluate(&queries::tc_paths(), &input, &cfg);
        let lazy = evaluate_lazy(&queries::tc_paths(), &input, &cfg);
        assert_eq!(eager.result.unwrap(), lazy.result.clone().unwrap());
        assert!(
            lazy.stats.peak_resident < eager.stats.max_object_size,
            "n={n}: lazy peak {} should undercut eager complexity {}",
            lazy.stats.peak_resident,
            eager.stats.max_object_size
        );
        assert!(
            lazy.stats.streamed_subsets >= 1 << n,
            "n={n}: streamed {} subsets, expected ≥ 2^{n}",
            lazy.stats.streamed_subsets
        );
    }
}

/// The fused self-join, wherever it sits among the other derived
/// shapes, must change the cost, never the answer: on every family,
/// semi-naive evaluation of the shape-bearing queries is bit-for-bit
/// the naive (and tree-path) result, with the §3 counters only ever
/// shrinking.
#[test]
fn fused_derived_shapes_agree_with_naive_on_all_families() {
    check(
        "fused_derived_shapes_agree_with_naive_on_all_families",
        CASES,
        |_, rng| {
            let cfg = EvalConfig::default();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                for (label, q) in fused_shape_queries() {
                    let tree = evaluate_tree(&q, &input, &cfg);
                    let naive = evaluate(&q, &input, &cfg);
                    assert_eq!(
                        tree.result.as_ref().unwrap(),
                        naive.result.as_ref().unwrap(),
                        "{family}: {label} (tree vs interned)"
                    );
                    for (mode, delta_cfg) in [
                        ("semi-naive", EvalConfig::semi_naive()),
                        ("memo+semi-naive", EvalConfig::optimised()),
                    ] {
                        let delta = evaluate(&q, &input, &delta_cfg);
                        assert_eq!(
                            naive.result.as_ref().unwrap(),
                            delta.result.as_ref().unwrap(),
                            "{family}: {mode} {label}"
                        );
                        assert!(
                            delta.stats.nodes <= naive.stats.nodes,
                            "{family}: {mode} {label} — fusion may only shrink the node count"
                        );
                        assert!(
                            delta.stats.max_object_size <= naive.stats.max_object_size,
                            "{family}: {mode} {label} — the fused join observes a subset of the objects"
                        );
                        assert_eq!(
                            naive.stats.while_iterations, delta.stats.while_iterations,
                            "{family}: {mode} {label} — the fixpoint trajectory must be exact"
                        );
                    }
                }
            }
        },
    );
}

/// The fused rule of the semi-naive walker, pinned by its exact §3 node
/// count on a fixed small input. A fused rule that stops firing leaves
/// every result bit-for-bit unchanged — only the derivation grows back
/// to the combinator spread — so these counts are what notices it. One
/// entry per form of the self-join: bare and projected.
#[test]
fn every_fused_rule_is_pinned() {
    let entries: Vec<(&str, nra_core::Expr, Value, u64)> = vec![
        ("join", bare_compose_join(), Value::chain(4), 1),
        ("project-join", queries::compose_rel(), Value::chain(4), 1),
    ];
    for (rule, q, input, nodes) in entries {
        let exact = evaluate(&q, &input, &EvalConfig::default());
        let fused = evaluate(&q, &input, &EvalConfig::semi_naive());
        assert_eq!(exact.result, fused.result, "{rule}");
        assert_eq!(
            fused.stats.nodes, nodes,
            "{rule}: fused node count drifted (the exact derivation has {})",
            exact.stats.nodes
        );
    }
}

/// The self-join is the only fused shape: the other Prop 2.1 derived
/// shapes run their exact derivation under semi-naive too, so each one
/// reports the same result, node count, §3 peak and per-rule counts as
/// under the default config.
#[test]
fn only_the_join_is_fused() {
    let nat = Type::Nat;
    let nats = |xs: &[u64]| Value::set(xs.iter().map(|&x| Value::nat(x)));
    let entries: Vec<(&str, nra_core::Expr, Value)> = vec![
        (
            "cartprod",
            derived::cartprod(),
            Value::pair(nats(&[1, 2, 3]), nats(&[4, 5])),
        ),
        (
            "unnest",
            derived::unnest(),
            Value::set([
                Value::pair(Value::nat(1), nats(&[2, 3])),
                Value::pair(Value::nat(4), nats(&[5])),
            ]),
        ),
        (
            "select",
            derived::select(derived::nonempty(), Type::set(nat.clone())),
            Value::set([nats(&[]), nats(&[1]), nats(&[2, 3])]),
        ),
        (
            "projeq",
            compose(eq_nat(), tuple(compose(fst(), fst()), snd())),
            Value::pair(Value::edge(1, 2), Value::nat(1)),
        ),
        (
            "projpair",
            tuple(snd(), compose(fst(), fst())),
            Value::pair(Value::edge(1, 2), Value::nat(3)),
        ),
        (
            "subset",
            derived::subset(&nat),
            Value::pair(nats(&[1, 2]), nats(&[1, 2, 3])),
        ),
        (
            "member",
            derived::member(&nat),
            Value::pair(Value::nat(2), nats(&[1, 2, 3])),
        ),
        (
            "nest",
            derived::nest(&nat, &nat),
            Value::set([Value::edge(1, 2), Value::edge(1, 3), Value::edge(2, 4)]),
        ),
    ];
    for (shape, q, input) in entries {
        let exact = evaluate(&q, &input, &EvalConfig::default());
        let semi = evaluate(&q, &input, &EvalConfig::semi_naive());
        assert_eq!(exact.result, semi.result, "{shape}");
        assert_eq!(
            (
                semi.stats.nodes,
                semi.stats.max_object_size,
                &semi.stats.rule_counts
            ),
            (
                exact.stats.nodes,
                exact.stats.max_object_size,
                &exact.stats.rule_counts
            ),
            "{shape}: semi-naive must run the exact derivation"
        );
    }
}

/// The self-join inside relational composition without its trailing
/// projection: `σ_{b=c}(R × R)` over edge pairs `((a, b), (c, d))`.
fn bare_compose_join() -> nra_core::Expr {
    let pair_ty = Type::prod(edge_ty(), edge_ty());
    let b_eq_c = compose(
        eq_nat(),
        tuple(compose(snd(), fst()), compose(fst(), snd())),
    );
    compose(derived::select(b_eq_c, pair_ty), derived::self_product())
}

/// The projected join's gate: a projection path that reads past a
/// `Nat` (`π₁∘π₁∘π₁` on `((a, b), (c, d))` takes `π₁` of `a`) keeps the
/// join from fusing its projection. The bare join and the ordinary
/// `map` then run, so the query gets stuck exactly when some pair
/// matches, and answers `{}` when none does — under every config.
#[test]
fn projected_join_falls_back_when_a_projection_path_gets_stuck() {
    use nra_eval::EvalError;
    let q = compose(
        map(tuple(
            compose(fst(), compose(fst(), fst())),
            compose(snd(), snd()),
        )),
        bare_compose_join(),
    );
    let matched = Value::chain(2);
    let unmatched = Value::relation([(0, 1), (2, 3)]);
    for (input, stuck) in [(&matched, true), (&unmatched, false)] {
        let exact = evaluate(&q, input, &EvalConfig::default());
        if stuck {
            assert!(
                matches!(exact.result, Err(EvalError::Stuck { .. })),
                "{:?}",
                exact.result
            );
        } else {
            assert_eq!(exact.result.as_ref().unwrap(), &Value::empty_set());
        }
        for cfg in [EvalConfig::semi_naive(), EvalConfig::optimised()] {
            assert_eq!(evaluate(&q, input, &cfg).result, exact.result, "{input}");
        }
    }
}

/// Bounded-witness transitive closure: each iterate joins the ≤2-edge
/// subsets of the current relation, so the body is `powersetₘ` applied
/// to a *growing* base inside a `while`.
fn tc_bounded_witness() -> nra_core::Expr {
    let step = compose(
        union(),
        tuple(
            id(),
            pipeline([powerset_m_prim(2), map(queries::compose_rel()), flatten()]),
        ),
    );
    while_fix(step)
}

/// A `powersetₘ` chain inside a `while`, on the streaming route: the
/// lazy bounded-witness TC must compute the graph closure on every
/// family, with the eager strategy as a second referee.
#[test]
fn lazy_bounded_witness_tc_agrees_on_all_families() {
    check(
        "lazy_bounded_witness_tc_agrees_on_all_families",
        CASES / 2,
        |_, rng| {
            let q = tc_bounded_witness();
            for (family, g) in family_graphs(rng) {
                let input = graph_to_value(&g);
                let expect = graph_to_value(&tc(&g));
                let lazy = evaluate_lazy(&q, &input, &EvalConfig::default());
                assert_eq!(
                    lazy.result.unwrap(),
                    expect,
                    "{family}: lazy bounded-witness TC vs graph closure"
                );
                let eager_ev = evaluate(&q, &input, &EvalConfig::default());
                assert_eq!(eager_ev.result.unwrap(), expect, "{family}: eager referee");
            }
        },
    );
}

/// On *ill-typed* inputs the derived terms have observable behaviour of
/// their own (stuck states; `=_unit` constantly true): semi-naive stays
/// bit-for-bit the exact derivation even off the well-typed path, and
/// the self-join's totality gate falls back to the derivation rather
/// than answer from handle comparisons.
#[test]
fn fused_predicates_preserve_ill_typed_semantics() {
    use nra_eval::EvalError;
    let configs = [
        EvalConfig::default(),
        EvalConfig::semi_naive(),
        EvalConfig::optimised(),
    ];
    // member(N) on (true, {1, 2}): eq_nat gets stuck comparing a boolean
    let q = derived::member(&Type::Nat);
    let input = Value::pair(Value::TRUE, Value::set([Value::nat(1), Value::nat(2)]));
    for cfg in &configs {
        let ev = evaluate(&q, &input, cfg);
        assert!(
            matches!(ev.result, Err(EvalError::Stuck { .. })),
            "member(N) on an ill-typed pair must stay stuck: {:?}",
            ev.result
        );
    }
    // member(unit) on ((), {1}): =_unit is constantly true on ANY
    // elements, so the derived term says "yes" even though no element
    // is structurally () — a handle search would say "no"
    let q = derived::member(&Type::Unit);
    let input = Value::pair(Value::Unit, Value::set([Value::nat(1)]));
    for cfg in &configs {
        let ev = evaluate(&q, &input, cfg);
        assert_eq!(
            ev.result.unwrap(),
            Value::TRUE,
            "member(unit) ignores element structure — every config must agree"
        );
    }
    // subset(N) with a boolean hiding in the left set: stuck preserved
    let q = derived::subset(&Type::Nat);
    let input = Value::pair(
        Value::set([Value::TRUE]),
        Value::set([Value::nat(1), Value::nat(2)]),
    );
    for cfg in &configs {
        let ev = evaluate(&q, &input, cfg);
        assert!(
            matches!(ev.result, Err(EvalError::Stuck { .. })),
            "subset(N) over ill-typed elements must stay stuck: {:?}",
            ev.result
        );
    }
    // nest(N, N) with a boolean key: the same-key eq_nat gets stuck
    let q = derived::nest(&Type::Nat, &Type::Nat);
    let input = Value::set([Value::pair(Value::TRUE, Value::nat(1))]);
    for cfg in &configs {
        let ev = evaluate(&q, &input, cfg);
        assert!(
            matches!(ev.result, Err(EvalError::Stuck { .. })),
            "nest(N, N) on an ill-typed key must stay stuck: {:?}",
            ev.result
        );
    }
    // the self-joins over a relation with a boolean coordinate: the
    // join's totality gate fails, and the derivation's eq_nat gets stuck
    let input = Value::set([Value::edge(1, 2), Value::pair(Value::TRUE, Value::nat(3))]);
    for (name, q) in [
        ("compose_rel", queries::compose_rel()),
        ("tc_step", queries::tc_step()),
        ("siblings_direct", queries::siblings_direct()),
    ] {
        for cfg in &configs {
            let ev = evaluate(&q, &input, cfg);
            assert!(
                matches!(ev.result, Err(EvalError::Stuck { .. })),
                "{name} on an ill-typed relation must stay stuck: {:?}",
                ev.result
            );
        }
    }
}
