//! Stress smoke for the **shared concurrent store**: seeded threads
//! hammering one value/expression store at once (the workload
//! `nra_eval::eval_batch` workers put on it), offline and
//! dependency-free — a loom-style schedule-shaking smoke rather than a
//! model check.
//!
//! The invariants under fire:
//!
//! * **canonical interning across threads** — whichever thread interns
//!   a structure first, every thread (and the parent) gets the *same*
//!   handle for it, so handles are meaningful across sessions;
//! * **resolve round-trips** — every handle issued mid-contention
//!   resolves to exactly the tree it was interned from;
//! * **metadata coherence** — sizes, cardinalities, and the merge
//!   algebra read through concurrently-issued handles agree with the
//!   sequential reference;
//! * **one handle per node while the index grows** — threads racing to
//!   intern the *same* fresh nodes into an empty store, whose lock-free
//!   lookups miss while another thread inserts and whose dedup tables
//!   double mid-race, each get the one handle the store issued;
//! * **every handle reads back at once** — threads interning *distinct*
//!   fresh expression trees claim indices in different shards at once,
//!   and each thread reads every node of its tree back through its own
//!   view right after the intern, with no wait, as the evaluators that
//!   walk an expression through its arena require.

use nra_core::builder::{compose, cond, konst, map, tuple};
use nra_core::expr::intern::{EId, ENode, ExprArena};
use nra_core::value::intern::{VId, ValueArena};
use nra_core::value::Value;
use nra_core::{queries, Expr, Type};
use nra_testkit::{check, Rng};
use std::sync::Barrier;

/// Threads per case — enough to contend on 16 value shards without
/// swamping small CI runners.
const THREADS: u64 = 4;
/// Interning rounds per thread per case.
const ROUNDS: u64 = 12;

/// One thread's deterministic workload: build a random tree value from
/// the seed, intern it, exercise the merge algebra on shared sets, and
/// report `(tree, handle)` pairs for the post-join canonicality audit.
fn hammer_values(arena: &mut ValueArena, seed: u64) -> Vec<(Value, VId)> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    for round in 0..ROUNDS {
        // a tree no other thread is likely to build…
        let private = Value::relation(rng.relation(24, 12));
        let private_id = arena.intern(&private);
        out.push((private, private_id));
        // …and trees every thread builds, racing the dedup shards
        let common_n = 2 + round % 5;
        let chain = arena.chain(common_n);
        let tc = arena.chain_tc(common_n);
        out.push((Value::chain(common_n), chain));
        out.push((Value::chain_tc(common_n), tc));
        // merge algebra on handles issued by *any* thread
        let union = arena.set_union(chain, tc).expect("sets union");
        assert_eq!(
            union, tc,
            "chain ⊆ chain_tc, so their union must intern back to chain_tc"
        );
        assert_eq!(arena.is_subset(chain, tc), Some(true));
        let diff = arena.set_difference(tc, chain).expect("sets difference");
        assert_eq!(
            arena.set_union(chain, diff),
            Some(tc),
            "chain ∪ (chain_tc ∖ chain) must intern back to chain_tc"
        );
        out.push((arena.resolve(diff), diff));
    }
    out
}

#[test]
fn concurrent_value_interning_is_canonical() {
    check("concurrent_value_interning_is_canonical", 8, |seed, rng| {
        let mut parent = ValueArena::new();
        let thread_seeds: Vec<u64> = (0..THREADS).map(|_| rng.next_u64()).collect();
        let gathered: Vec<Vec<(Value, VId)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = thread_seeds
                .iter()
                .map(|&ts| {
                    let mut worker = parent.shared_clone();
                    scope.spawn(move || hammer_values(&mut worker, ts))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stress worker panicked"))
                .collect()
        });
        // every handle issued under contention is canonical: the parent
        // re-interns the tree and gets the same handle back, and the
        // handle resolves to the tree it came from
        for pairs in gathered {
            for (tree, id) in pairs {
                assert_eq!(
                    parent.intern(&tree),
                    id,
                    "seed {seed}: canonical re-intern diverged"
                );
                assert_eq!(
                    parent.resolve(id),
                    tree,
                    "seed {seed}: resolve round-trip diverged"
                );
            }
        }
        // the dedup audit above interned nothing new, and the arena's
        // occupancy books stayed coherent under the races
        let stats = parent.stats();
        assert!(stats.nodes > 0);
        assert_eq!(stats.nodes, parent.len());
    });
}

#[test]
fn concurrent_expr_interning_is_canonical() {
    check("concurrent_expr_interning_is_canonical", 8, |seed, rng| {
        let mut parent = ExprArena::new();
        let queries: Vec<Expr> = vec![
            queries::tc_while(),
            queries::tc_step(),
            queries::tc_paths(),
            nra_core::derived::cartprod(),
            nra_core::derived::unnest(),
        ];
        let thread_seeds: Vec<u64> = (0..THREADS).map(|_| rng.next_u64()).collect();
        let gathered: Vec<Vec<(usize, EId)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = thread_seeds
                .iter()
                .map(|&ts| {
                    let mut worker = parent.shared_clone();
                    let queries = &queries;
                    scope.spawn(move || {
                        let mut rng = Rng::new(ts);
                        (0..ROUNDS * 2)
                            .map(|_| {
                                let pick = rng.usize_below(queries.len());
                                (pick, worker.intern(&queries[pick]))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stress worker panicked"))
                .collect()
        });
        for pairs in gathered {
            for (pick, eid) in pairs {
                assert_eq!(
                    parent.intern(&queries[pick]),
                    eid,
                    "seed {seed}: expression interning must be canonical across threads"
                );
                assert_eq!(parent.resolve(eid), queries[pick], "seed {seed}");
            }
        }
        // every published node reads back through the parent's view
        for i in 0..parent.node_count() {
            let e = EId::from_index(i);
            let tree = parent.resolve(e);
            assert_eq!(parent.intern(&tree), e, "seed {seed}: node {i}");
        }
    });
}

/// Side of the grid of fresh pairs the racing threads intern: `SIDE`
/// naturals, `SIDE²` pairs and one set per row — enough to double every
/// dedup shard's table several times during the race.
const SIDE: u64 = 48;

/// Intern the whole grid in a seeded order, once every racer is at the
/// start line: the naturals, each pair `(a, b)`, and each row
/// `{(a, b) : b < SIDE}`. Returns every handle keyed by what it denotes.
fn race_grid(arena: &mut ValueArena, seed: u64, start: &Barrier) -> Vec<(Value, VId)> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<u64> = (0..SIDE * SIDE).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.usize_below(i + 1));
    }
    start.wait();
    let mut out = Vec::new();
    for &cell in &order {
        let (a, b) = (cell / SIDE, cell % SIDE);
        let edge = arena.edge(a, b);
        out.push((Value::edge(a, b), edge));
        if b == SIDE - 1 {
            let row = arena.relation((0..SIDE).map(|b| (a, b)));
            out.push((Value::relation((0..SIDE).map(|b| (a, b))), row));
        }
    }
    out
}

#[test]
fn racing_interns_of_fresh_nodes_get_one_handle() {
    check(
        "racing_interns_of_fresh_nodes_get_one_handle",
        8,
        |seed, rng| {
            let parent = ValueArena::new();
            let thread_seeds: Vec<u64> = (0..THREADS).map(|_| rng.next_u64()).collect();
            let start = Barrier::new(THREADS as usize);
            let gathered: Vec<Vec<(Value, VId)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = thread_seeds
                    .iter()
                    .map(|&ts| {
                        let mut worker = parent.shared_clone();
                        let start = &start;
                        scope.spawn(move || race_grid(&mut worker, ts, start))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("racing worker panicked"))
                    .collect()
            });
            // every thread got the same handle for the same node
            let mut issued: std::collections::BTreeMap<Value, VId> = Default::default();
            for pairs in &gathered {
                for (tree, id) in pairs {
                    let first = *issued.entry(tree.clone()).or_insert(*id);
                    assert_eq!(first, *id, "seed {seed}: two handles for {tree}");
                    assert_eq!(parent.resolve(*id), *tree, "seed {seed}: resolve diverged");
                }
            }
            // exactly one node per distinct object: SIDE naturals, SIDE²
            // pairs, SIDE rows
            let expect_nodes = (SIDE + SIDE * SIDE + SIDE) as usize;
            assert_eq!(parent.len(), expect_nodes, "seed {seed}: duplicate nodes");
            let stats = parent.stats();
            assert_eq!(stats.nodes, parent.len(), "seed {seed}");
            let fan_out: usize = (0..parent.len())
                .filter_map(|i| parent.cardinality(VId::from_index(i)))
                .sum();
            assert_eq!(stats.set_children, fan_out, "seed {seed}: set_children");
            assert_eq!(fan_out, (SIDE * SIDE) as usize, "seed {seed}");
        },
    );
}

/// A nine-node expression no other call builds: its constants carry
/// `tag`, and it has keyed nodes (tuple, map, compose) and unkeyed ones
/// (constants, a conditional).
fn fresh_tree(tag: u64) -> Expr {
    let k = |i: u64| konst(Value::nat(tag * 8 + i), Type::Nat);
    compose(tuple(k(0), k(1)), map(cond(k(2), k(3), k(4))))
}

#[test]
fn fresh_trees_read_back_under_concurrent_interning() {
    check(
        "fresh_trees_read_back_under_concurrent_interning",
        8,
        |seed, _rng| {
            let parent = ExprArena::new();
            let start = Barrier::new(THREADS as usize);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let mut worker = parent.shared_clone();
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        for round in 0..ROUNDS * 20 {
                            let tree = fresh_tree((seed * THREADS + t) << 16 | round);
                            let root = worker.intern(&tree);
                            // resolve reads every node through the
                            // borrowing accessor
                            assert!(matches!(worker.node_ref(root), ENode::Compose(..)));
                            assert_eq!(worker.resolve(root), tree, "seed {seed}");
                        }
                    });
                }
            });
            let nodes = (THREADS * ROUNDS * 20) as usize * fresh_tree(0).size();
            assert_eq!(
                parent.node_count(),
                nodes,
                "seed {seed}: every tree is fresh"
            );
            // and the parent reads every node the workers interned
            let roots = (0..nodes)
                .filter(|&i| matches!(parent.node_ref(EId::from_index(i)), ENode::Compose(..)))
                .count();
            assert_eq!(roots, nodes / fresh_tree(0).size(), "seed {seed}");
        },
    );
}
