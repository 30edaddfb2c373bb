//! Property tests for the expression-interning arena
//! (`nra_core::expr::intern`), mirroring the value-arena suite in
//! `intern_props.rs`: on randomized well-typed expressions, interning
//! must round-trip, equal expressions must receive equal `EId`s (and
//! only equal expressions), and the cached metadata must match the
//! recursive measures.

use nra_core::expr::intern::ExprArena;
use nra_core::generate::{random_expr, GenConfig, Rng as GenRng};
use nra_core::{Expr, Type};
use nra_testkit::{check, Rng};

/// A random well-typed expression over `{N × N}` inputs, covering every
/// construct (including `while` and `powerset`).
fn random_expression(rng: &mut Rng) -> Expr {
    let cfg = GenConfig {
        allow_while: true,
        ..GenConfig::default()
    };
    random_expr(&Type::nat_rel(), &cfg, &mut GenRng::new(rng.next_u64()))
}

/// The tree height the arena caches, recomputed recursively.
fn recursive_height(e: &Expr) -> u32 {
    match e {
        Expr::Map(f) | Expr::While(f) => 1 + recursive_height(f),
        Expr::Tuple(f, g) | Expr::Compose(g, f) => 1 + recursive_height(f).max(recursive_height(g)),
        Expr::Cond(c, t, els) => {
            1 + recursive_height(c)
                .max(recursive_height(t))
                .max(recursive_height(els))
        }
        _ => 1,
    }
}

#[test]
fn intern_round_trips() {
    check("expr_intern_round_trips", 200, |_, rng| {
        let mut arena = ExprArena::new();
        let e = random_expression(rng);
        let id = arena.intern(&e);
        assert_eq!(arena.resolve(id), e, "resolve ∘ intern = id on {e}");
    });
}

#[test]
fn equal_expressions_get_equal_handles() {
    check("equal_expressions_get_equal_handles", 200, |_, rng| {
        let mut arena = ExprArena::new();
        let e = random_expression(rng);
        assert_eq!(arena.intern(&e), arena.intern(&e.clone()), "{e}");
    });
}

#[test]
fn distinct_expressions_get_distinct_handles() {
    check(
        "distinct_expressions_get_distinct_handles",
        150,
        |_, rng| {
            let mut arena = ExprArena::new();
            let a = random_expression(rng);
            let b = random_expression(rng);
            assert_eq!(a == b, arena.intern(&a) == arena.intern(&b), "{a} vs {b}");
        },
    );
}

#[test]
fn cached_metadata_matches_the_recursive_measures() {
    check("expr_cached_metadata_matches", 200, |_, rng| {
        let mut arena = ExprArena::new();
        let e = random_expression(rng);
        let id = arena.intern(&e);
        assert_eq!(arena.ops(id), e.size() as u64, "ops of {e}");
        assert_eq!(arena.height(id), recursive_height(&e), "height of {e}");
    });
}

#[test]
fn interning_never_stores_a_subterm_twice() {
    check(
        "interning_never_stores_a_subterm_twice",
        100,
        |seed, rng| {
            // a fresh arena so occupancy is exactly the distinct-subterm count
            let mut arena = ExprArena::new();
            let e = random_expression(rng);
            arena.intern(&e);
            let after_first = arena.node_count();
            assert!(
                after_first <= e.size(),
                "seed {seed}: {after_first} nodes for a size-{} expression",
                e.size()
            );
            // re-interning (alone or under new parents) adds only the parents
            arena.intern(&e);
            assert_eq!(
                arena.node_count(),
                after_first,
                "re-interning grew the arena"
            );
            arena.intern(&Expr::Tuple(e.clone().rc(), e.clone().rc()));
            assert_eq!(
                arena.node_count(),
                after_first + 1,
                "⟨e, e⟩ must add exactly the tuple node"
            );
        },
    );
}
