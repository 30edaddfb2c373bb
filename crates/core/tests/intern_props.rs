//! Property tests for the hash-consing arena (`nra_core::value::intern`):
//! on randomized complex objects of every shape, interning must
//! round-trip, equal trees must receive equal handles (and only equal
//! trees), and the cached metadata must match the recursive paper
//! measures.

use nra_core::value::intern::{VId, ValueArena};
use nra_core::Value;
use nra_testkit::{check, Rng};

/// A random complex object with bounded depth and fan-out, covering all
/// five constructors.
fn random_value(rng: &mut Rng, depth: u32) -> Value {
    let kind = if depth == 0 {
        rng.below(3)
    } else {
        rng.below(5)
    };
    match kind {
        0 => Value::nat(rng.below(6)),
        1 => Value::Bool(rng.bool()),
        2 => Value::Unit,
        3 => Value::pair(random_value(rng, depth - 1), random_value(rng, depth - 1)),
        _ => {
            let len = rng.usize_below(4);
            Value::set((0..len).map(|_| random_value(rng, depth - 1)))
        }
    }
}

#[test]
fn intern_round_trips() {
    check("intern_round_trips", 200, |_, rng| {
        let mut arena = ValueArena::new();
        let v = random_value(rng, 4);
        let id = arena.intern(&v);
        assert_eq!(arena.resolve(id), v, "resolve ∘ intern = id on {v}");
    });
}

#[test]
fn equal_trees_get_equal_handles() {
    check("equal_trees_get_equal_handles", 200, |_, rng| {
        let mut arena = ValueArena::new();
        let v = random_value(rng, 4);
        // a structurally equal clone interns to the same handle
        assert_eq!(arena.intern(&v), arena.intern(&v.clone()), "{v}");
        // and inserting set elements in a different order changes nothing:
        // rebuild every set from a reversed element iteration
        fn rebuild_reversed(v: &Value) -> Value {
            match v {
                Value::Pair(a, b) => Value::pair(rebuild_reversed(a), rebuild_reversed(b)),
                Value::Set(items) => Value::set(items.iter().rev().map(rebuild_reversed)),
                other => other.clone(),
            }
        }
        assert_eq!(arena.intern(&v), arena.intern(&rebuild_reversed(&v)));
    });
}

#[test]
fn distinct_trees_get_distinct_handles() {
    check("distinct_trees_get_distinct_handles", 100, |_, rng| {
        let mut arena = ValueArena::new();
        let a = random_value(rng, 3);
        let b = random_value(rng, 3);
        assert_eq!(a == b, arena.intern(&a) == arena.intern(&b), "{a} vs {b}");
    });
}

#[test]
fn cached_size_matches_the_recursive_paper_measure() {
    check("cached_size_matches_recursive_measure", 200, |_, rng| {
        let mut arena = ValueArena::new();
        let v = random_value(rng, 4);
        let id = arena.intern(&v);
        // the §3 measure, recomputed recursively on the tree
        fn paper_size(v: &Value) -> u64 {
            match v {
                Value::Unit | Value::Bool(_) | Value::Nat(_) => 1,
                Value::Pair(a, b) => 1 + paper_size(a) + paper_size(b),
                Value::Set(items) => 1 + items.iter().map(paper_size).sum::<u64>(),
            }
        }
        assert_eq!(arena.size(id), paper_size(&v), "size of {v}");
        assert_eq!(arena.depth(id) as usize, v.depth(), "depth of {v}");
        assert_eq!(arena.cardinality(id), v.cardinality(), "cardinality of {v}");
    });
}

#[test]
fn structural_hash_is_stable_across_arenas() {
    check(
        "structural_hash_is_stable_across_arenas",
        100,
        |seed, rng| {
            let mut arena = ValueArena::new();
            let v = random_value(rng, 3);
            // a fresh arena whose handle space is skewed by unrelated noise
            let mut other = ValueArena::new();
            other.chain(seed % 7);
            let id = arena.intern(&v);
            let oid = other.intern(&v);
            assert_eq!(arena.structural_hash(id), other.structural_hash(oid), "{v}");
        },
    );
}

#[test]
fn set_construction_from_handles_matches_tree_sets() {
    check("set_construction_from_handles", 200, |_, rng| {
        let mut arena = ValueArena::new();
        let len = rng.usize_below(6);
        let elems: Vec<Value> = (0..len).map(|_| random_value(rng, 2)).collect();
        // build the set both ways: as a tree, and handle-by-handle with
        // duplicates appended
        let tree = Value::set(elems.iter().cloned());
        let mut handles: Vec<_> = elems.iter().map(|x| arena.intern(x)).collect();
        let dupes = handles.to_vec();
        handles.extend(dupes);
        let built = arena.set(handles);
        assert_eq!(built, arena.intern(&tree));
        assert_eq!(arena.resolve(built), tree);
    });
}

/// Intern `v` into `arena` visiting every set's elements in reverse
/// `Value` order, so in a fresh arena a set's later elements get the
/// smaller handles and its canonical handle order is not `Value` order.
fn intern_reversed(arena: &mut ValueArena, v: &Value) -> VId {
    match v {
        Value::Pair(a, b) => {
            let a = intern_reversed(arena, a);
            let b = intern_reversed(arena, b);
            arena.pair(a, b)
        }
        Value::Set(items) => {
            let items: Vec<VId> = items
                .iter()
                .rev()
                .map(|item| intern_reversed(arena, item))
                .collect();
            arena.set(items)
        }
        atom => arena.intern(atom),
    }
}

/// `write_text` on a reverse-interned `v` is `resolve(v).to_string()`.
fn assert_arena_text_is_tree_text(v: &Value) {
    let mut arena = ValueArena::new();
    let id = intern_reversed(&mut arena, v);
    let mut text = String::new();
    arena.write_text(id, &mut text);
    assert_eq!(text, arena.resolve(id).to_string());
    assert_eq!(text, v.to_string());
}

#[test]
fn arena_text_is_the_resolved_tree_text() {
    check("arena_text_is_the_resolved_tree_text", 300, |_, rng| {
        assert_arena_text_is_tree_text(&random_value(rng, 4));
    });
}

#[test]
fn arena_text_pins_empty_mixed_prefixed_and_deep_sets() {
    use nra_core::parser::{parse_value, MAX_NESTING};
    let set = |text: &str| parse_value(text).unwrap();
    // the empty set, and one element of every constructor
    assert_arena_text_is_tree_text(&set("{}"));
    assert_arena_text_is_tree_text(&set("{(), false, 3, (0, 1), {}}"));
    // sets of sets equal up to a common prefix: by their integer keys,
    // by the node comparator, and nested a level further
    assert_arena_text_is_tree_text(&set("{{0, 1, 2, 5}, {0, 1, 2, 4}, {0, 1, 2}, {0, 1, 3}}"));
    assert_arena_text_is_tree_text(&set("{{(0, 1), (1, 3)}, {(0, 1), (1, 2)}, {(0, 1)}}"));
    assert_arena_text_is_tree_text(&set("{{true, {2}}, {true, {1, 2}}, {true}, {false, {1}}}"));
    assert_arena_text_is_tree_text(&set("{({1}, {{3}, {2}}), ({1}, {{3}, {2, 4}}), ({0}, {})}"));
    // naturals and pair coordinates at 2³² − 1, the last a pair's integer
    // key holds, at 2³², and at u64::MAX
    let (below, at, max) = (u64::from(u32::MAX), 1u64 << 32, u64::MAX);
    assert_arena_text_is_tree_text(&set(&format!("{{{max}, {at}, {below}, 0}}")));
    assert_arena_text_is_tree_text(&set(&format!(
        "{{({below}, {below}), ({below}, 0), (0, {below}), (1, 2)}}"
    )));
    assert_arena_text_is_tree_text(&set(&format!(
        "{{({at}, 0), (0, {at}), ({below}, {max}), ({max}, {below}), (1, 2)}}"
    )));
    // naturals mixed with pairs, and pairs with a set coordinate
    assert_arena_text_is_tree_text(&set("{(2, 0), 7, (0, 3), 1, (0, 2)}"));
    assert_arena_text_is_tree_text(&set("{(1, {2, 3}), (1, {2}), ({0}, 5), (0, 1)}"));
    // sets with integer keys among sets without: by their keys, and each
    // against the others element by element
    assert_arena_text_is_tree_text(&set(&format!(
        "{{{{(0, 1), (1, 2)}}, {{(0, 1), ({at}, 0)}}, {{(0, 1)}}, {{3, 1}}, {{1, (0, 1)}}, \
         {{1, {{2}}}}, {{1}}, {{(), 1}}, {{}}}}"
    )));
    // one set with integer keys reached twice through sharing, outside
    // every other set and inside one
    let shared = set("{(3, 4), (1, 2)}");
    assert_arena_text_is_tree_text(&Value::pair(shared.clone(), shared.clone()));
    assert_arena_text_is_tree_text(&Value::set([
        Value::pair(shared.clone(), Value::nat(1)),
        Value::pair(Value::nat(0), shared.clone()),
        shared,
    ]));
    // 128 levels, the wire's nesting cap, alternating sets and pairs
    let mut deep = Value::nat(0);
    for level in 1..MAX_NESTING as u64 {
        deep = if level % 2 == 1 {
            Value::set([deep, Value::nat(level)])
        } else {
            Value::pair(Value::nat(level), deep)
        };
    }
    assert_eq!(parse_value(&deep.to_string()).unwrap(), deep);
    assert_arena_text_is_tree_text(&deep);
}
