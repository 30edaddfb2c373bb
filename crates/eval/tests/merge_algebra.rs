//! Differential tests for the arena-native set algebra: the sorted-merge
//! operations on `ValueArena` (`set_union` / `set_difference` /
//! `is_subset` / `set_delta_cardinality` / `set_from_sorted_merge`)
//! must agree with the *tree-side* semantics — the Prop 2.1 `derived`
//! terms run through the evaluator, and the `BTreeSet` algebra on
//! resolved values — on randomized relations.

use nra_core::value::intern::{VId, ValueArena};
use nra_core::{builder, derived, Type, Value};
use nra_eval::eval;
use nra_testkit::{check, Rng};
use std::collections::BTreeSet;

const CASES: u64 = 150;

fn edge_ty() -> Type {
    Type::prod(Type::Nat, Type::Nat)
}

/// Two random relations as tree values plus their handles in `arena`.
fn random_pair(arena: &mut ValueArena, rng: &mut Rng) -> (Value, Value, VId, VId) {
    let a = Value::relation(rng.relation(6, 7));
    let b = Value::relation(rng.relation(6, 7));
    let (ia, ib) = (arena.intern(&a), arena.intern(&b));
    (a, b, ia, ib)
}

#[test]
fn merge_union_agrees_with_the_primitive_and_btreeset() {
    check("merge_union_agrees", CASES, |_, rng| {
        let mut arena = ValueArena::new();
        let (a, b, ia, ib) = random_pair(&mut arena, rng);
        let merged = arena.set_union(ia, ib).expect("sets");
        // the ∪ primitive through the evaluator…
        let via_eval = eval(&builder::union(), &Value::pair(a.clone(), b.clone())).unwrap();
        assert_eq!(arena.resolve(merged), via_eval, "{a} ∪ {b}");
        // …and the BTreeSet union on the tree side
        let tree: BTreeSet<Value> = a
            .as_set()
            .unwrap()
            .iter()
            .chain(b.as_set().unwrap().iter())
            .cloned()
            .collect();
        assert_eq!(arena.resolve(merged), Value::Set(tree));
    });
}

/// `a ∩ b` by two merge differences, `a ∖ (a ∖ b)`, against the
/// derived `∩` (a selection on `∈`) through the evaluator.
#[test]
fn merge_intersection_agrees_with_derived() {
    check("merge_intersection_agrees", CASES, |_, rng| {
        let mut arena = ValueArena::new();
        let (a, b, ia, ib) = random_pair(&mut arena, rng);
        let a_only = arena.set_difference(ia, ib).expect("sets");
        let merged = arena.set_difference(ia, a_only).expect("sets");
        let via_derived = eval(
            &derived::intersect(&edge_ty()),
            &Value::pair(a.clone(), b.clone()),
        )
        .unwrap();
        assert_eq!(arena.resolve(merged), via_derived, "{a} ∩ {b}");
    });
}

#[test]
fn merge_difference_agrees_with_derived() {
    check("merge_difference_agrees", CASES, |_, rng| {
        let mut arena = ValueArena::new();
        let (a, b, ia, ib) = random_pair(&mut arena, rng);
        let merged = arena.set_difference(ia, ib).expect("sets");
        let via_derived = eval(
            &derived::difference(&edge_ty()),
            &Value::pair(a.clone(), b.clone()),
        )
        .unwrap();
        assert_eq!(arena.resolve(merged), via_derived, "{a} ∖ {b}");
    });
}

#[test]
fn merge_subset_and_membership_agree_with_derived() {
    check("merge_subset_membership_agree", CASES, |_, rng| {
        let mut arena = ValueArena::new();
        let (a, b, ia, ib) = random_pair(&mut arena, rng);
        let subset = arena.is_subset(ia, ib).expect("sets");
        let via_derived = eval(
            &derived::subset(&edge_ty()),
            &Value::pair(a.clone(), b.clone()),
        )
        .unwrap();
        assert_eq!(Value::Bool(subset), via_derived, "{a} ⊆ {b}");

        // membership of each element of a ∪ b as the inclusion of its
        // singleton, against ∈ at the edge type
        for edge in a.as_set().unwrap().iter().chain(b.as_set().unwrap()) {
            let singleton = arena.intern(&Value::set([edge.clone()]));
            let contains = arena.is_subset(singleton, ib).expect("sets");
            let via_member = eval(
                &derived::member(&edge_ty()),
                &Value::pair(edge.clone(), b.clone()),
            )
            .unwrap();
            assert_eq!(Value::Bool(contains), via_member, "{edge} ∈ {b}");
        }
    });
}

#[test]
fn nary_merge_agrees_with_flatten() {
    check("nary_merge_agrees_with_flatten", CASES, |_, rng| {
        // k relations; flatten their set-of-sets through μ and compare
        // with the n-ary merge over the same handles
        let k = rng.usize_below(5);
        let parts: Vec<Value> = (0..k)
            .map(|_| Value::relation(rng.relation(5, 5)))
            .collect();
        let mut arena = ValueArena::new();
        let handles: Vec<_> = parts.iter().map(|p| arena.intern(p)).collect();
        let merged = arena.set_from_sorted_merge(&handles).expect("sets");
        let via_flatten = eval(&builder::flatten(), &Value::set(parts.clone())).unwrap();
        assert_eq!(arena.resolve(merged), via_flatten, "μ over {k} parts");
    });
}

/// The frontier algebra the fused join's delta form and the `while`
/// frontier trace read: `b ∖ a` by merge against the derived `∖`, its
/// count-only cardinality, and the superset test `a ⊆ b ⇔ a ∪ b = b`.
#[test]
fn frontier_algebra_agrees_with_derived_on_random_sets() {
    check("frontier_algebra_agrees_with_derived", CASES, |_, rng| {
        let mut arena = ValueArena::new();
        let (a, b, ia, ib) = random_pair(&mut arena, rng);
        let fresh = arena.set_difference(ib, ia).expect("sets");
        let via_diff = eval(
            &derived::difference(&edge_ty()),
            &Value::pair(b.clone(), a.clone()),
        )
        .unwrap();
        assert_eq!(arena.resolve(fresh), via_diff, "{b} ∖ {a}");
        assert_eq!(
            arena.set_delta_cardinality(ia, ib),
            arena.cardinality(fresh).map(|n| n as u64),
            "|{b} ∖ {a}|"
        );
        let union = arena.set_union(ia, ib).unwrap();
        assert_eq!(union == ib, arena.is_subset(ia, ib).unwrap(), "{a} ⊆ {b}");
    });
}

#[test]
fn merge_ops_refuse_non_sets() {
    let mut arena = ValueArena::new();
    let n = arena.nat(3);
    let s = arena.chain(2);
    assert_eq!(arena.set_union(n, s), None);
    assert_eq!(arena.set_difference(n, n), None);
    assert_eq!(arena.is_subset(n, s), None);
    assert_eq!(arena.set_from_sorted_merge(&[s, n]), None);
    assert_eq!(arena.set_delta_cardinality(n, s), None);
    assert_eq!(arena.set_delta_cardinality(s, n), None);
}
