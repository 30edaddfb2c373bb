//! Complex objects (§3 of the paper).
//!
//! A complex object is denoted by the grammar
//!
//! ```text
//! C ::= x | false | true | () | (C, C) | {C, ..., C}
//! ```
//!
//! with `x ∈ N`, no duplicates inside set denotations, and sets compared up
//! to element order. The **size** measure is the paper's:
//!
//! ```text
//! size(x) = size(false) = size(true) = size(()) = 1
//! size((C1, C2))       = 1 + size(C1) + size(C2)
//! size({C1, ..., Ck})  = 1 + size(C1) + ... + size(Ck)
//! ```
//!
//! [`Value`] is the *tree* representation — convenient for construction,
//! display and the parser, but `O(size)` for `clone`/`==`/`size`. The
//! [`intern`] submodule provides the hash-consed arena representation
//! ([`intern::VId`] handles with cached metadata) that the evaluators use
//! on their hot paths; the two convert freely via
//! [`intern::ValueArena::intern`] and [`intern::ValueArena::resolve`].

pub mod dense;
pub mod intern;

use crate::types::Type;
use std::collections::BTreeSet;
use std::fmt;

/// A complex object.
///
/// Sets are represented by [`BTreeSet`], which guarantees the paper's two
/// structural requirements for free: duplicate freedom, and identification
/// of set denotations that differ only in element order (the `Ord`-derived
/// equality is order-canonical).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// `()`, the unique value of type `unit`.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A natural number.
    Nat(u64),
    /// A pair `(C1, C2)`.
    Pair(Box<Value>, Box<Value>),
    /// A finite duplicate-free set `{C1, ..., Ck}`.
    Set(BTreeSet<Value>),
}

impl Value {
    /// The true boolean.
    pub const TRUE: Value = Value::Bool(true);
    /// The false boolean.
    pub const FALSE: Value = Value::Bool(false);

    /// Construct a pair.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(Box::new(a), Box::new(b))
    }

    /// Construct a natural number.
    pub fn nat(n: u64) -> Value {
        Value::Nat(n)
    }

    /// Construct a set from an iterator, deduplicating.
    pub fn set<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Set(items.into_iter().collect())
    }

    /// The empty set.
    pub fn empty_set() -> Value {
        Value::Set(BTreeSet::new())
    }

    /// A pair of naturals `(a, b)` — an edge of a binary relation.
    pub fn edge(a: u64, b: u64) -> Value {
        Value::pair(Value::nat(a), Value::nat(b))
    }

    /// A relation `{(a, b), ...}` of type `{N × N}`.
    pub fn relation<I: IntoIterator<Item = (u64, u64)>>(edges: I) -> Value {
        Value::set(edges.into_iter().map(|(a, b)| Value::edge(a, b)))
    }

    /// The paper's chain `rₙ = {(0,1), (1,2), ..., (n−1,n)}` (§4).
    pub fn chain(n: u64) -> Value {
        Value::relation((0..n).map(|i| (i, i + 1)))
    }

    /// The transitive closure of the chain,
    /// `qₙ = tc(rₙ) = {(x,y) | 0 ≤ x < y ≤ n}` (§4).
    pub fn chain_tc(n: u64) -> Value {
        Value::relation((0..=n).flat_map(|x| (x + 1..=n).map(move |y| (x, y))))
    }

    /// The paper's size measure (§3). Computed in one pass, saturating at
    /// [`u64::MAX`] (matching the cached size of [`intern::ValueArena`],
    /// where structural sharing makes such sizes actually reachable).
    pub fn size(&self) -> u64 {
        match self {
            Value::Unit | Value::Bool(_) | Value::Nat(_) => 1,
            Value::Pair(a, b) => 1u64.saturating_add(a.size()).saturating_add(b.size()),
            Value::Set(items) => items
                .iter()
                .fold(1u64, |acc, item| acc.saturating_add(item.size())),
        }
    }

    /// Structural nesting depth (atoms have depth 0).
    pub fn depth(&self) -> usize {
        match self {
            Value::Unit | Value::Bool(_) | Value::Nat(_) => 0,
            Value::Pair(a, b) => 1 + a.depth().max(b.depth()),
            Value::Set(items) => 1 + items.iter().map(Value::depth).max().unwrap_or(0),
        }
    }

    /// Number of elements if this is a set.
    pub fn cardinality(&self) -> Option<usize> {
        match self {
            Value::Set(items) => Some(items.len()),
            _ => None,
        }
    }

    /// Borrow the underlying set.
    pub fn as_set(&self) -> Option<&BTreeSet<Value>> {
        match self {
            Value::Set(items) => Some(items),
            _ => None,
        }
    }

    /// Take ownership of the underlying set.
    pub fn into_set(self) -> Option<BTreeSet<Value>> {
        match self {
            Value::Set(items) => Some(items),
            _ => None,
        }
    }

    /// Borrow the components if this is a pair.
    pub fn as_pair(&self) -> Option<(&Value, &Value)> {
        match self {
            Value::Pair(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// The natural number, if this is one.
    pub fn as_nat(&self) -> Option<u64> {
        match self {
            Value::Nat(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Decode a value of type `{N × N}` into an edge list.
    pub fn to_edges(&self) -> Option<Vec<(u64, u64)>> {
        let set = self.as_set()?;
        let mut out = Vec::with_capacity(set.len());
        for item in set {
            let (a, b) = item.as_pair()?;
            out.push((a.as_nat()?, b.as_nat()?));
        }
        Some(out)
    }

    /// Check whether the object is a well-typed inhabitant of `ty`.
    pub fn has_type(&self, ty: &Type) -> bool {
        match (self, ty) {
            (Value::Unit, Type::Unit) => true,
            (Value::Bool(_), Type::Bool) => true,
            (Value::Nat(_), Type::Nat) => true,
            (Value::Pair(a, b), Type::Prod(s, t)) => a.has_type(s) && b.has_type(t),
            (Value::Set(items), Type::Set(t)) => items.iter().all(|v| v.has_type(t)),
            _ => false,
        }
    }

    /// Infer the (least annotated) type of the object, when unambiguous.
    ///
    /// The empty set is polymorphic; we report it at the requested element
    /// type only through [`Value::has_type`], and return `None` here when an
    /// empty set makes the type ambiguous.
    ///
    /// A set's element type is inferred from its first element once; every
    /// other element is checked against it in place, so typing a relation
    /// builds one element type, not one per pair.
    pub fn infer_type(&self) -> Option<Type> {
        match self {
            Value::Unit => Some(Type::Unit),
            Value::Bool(_) => Some(Type::Bool),
            Value::Nat(_) => Some(Type::Nat),
            Value::Pair(a, b) => Some(Type::prod(a.infer_type()?, b.infer_type()?)),
            Value::Set(items) => {
                let mut items = items.iter();
                let elem = items.next()?.infer_type()?;
                items
                    .all(|item| item.infers_as(&elem))
                    .then(|| Type::set(elem))
            }
        }
    }

    /// Whether [`Value::infer_type`] gives exactly `ty`: [`Value::has_type`]
    /// with every set non-empty, decided without building a type.
    fn infers_as(&self, ty: &Type) -> bool {
        match (self, ty) {
            (Value::Unit, Type::Unit)
            | (Value::Bool(_), Type::Bool)
            | (Value::Nat(_), Type::Nat) => true,
            (Value::Pair(a, b), Type::Prod(s, t)) => a.infers_as(s) && b.infers_as(t),
            (Value::Set(items), Type::Set(t)) => {
                !items.is_empty() && items.iter().all(|v| v.infers_as(t))
            }
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{}", b),
            Value::Nat(n) => write!(f, "{}", n),
            Value::Pair(a, b) => write!(f, "({}, {})", a, b),
            Value::Set(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", item)?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_matches_paper_definition() {
        assert_eq!(Value::Unit.size(), 1);
        assert_eq!(Value::TRUE.size(), 1);
        assert_eq!(Value::nat(42).size(), 1);
        // (1, 2) has size 1 + 1 + 1 = 3
        assert_eq!(Value::edge(1, 2).size(), 3);
        // {} has size 1
        assert_eq!(Value::empty_set().size(), 1);
        // {(0,1),(1,2)} has size 1 + 3 + 3 = 7
        assert_eq!(Value::chain(2).size(), 7);
    }

    #[test]
    fn chain_and_closure() {
        let r3 = Value::chain(3);
        assert_eq!(r3.to_edges().unwrap(), vec![(0, 1), (1, 2), (2, 3)]);
        let q3 = Value::chain_tc(3);
        assert_eq!(
            q3.to_edges().unwrap(),
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        );
        // |tc(rₙ)| = n(n+1)/2
        assert_eq!(Value::chain_tc(10).cardinality().unwrap(), 55);
    }

    #[test]
    fn sets_deduplicate_and_canonicalise_order() {
        let a = Value::set([Value::nat(2), Value::nat(1), Value::nat(1)]);
        let b = Value::set([Value::nat(1), Value::nat(2)]);
        assert_eq!(a, b);
        assert_eq!(a.cardinality(), Some(2));
        // size counts the deduplicated denotation
        assert_eq!(a.size(), 3);
    }

    #[test]
    fn typing() {
        let r = Value::chain(2);
        assert!(r.has_type(&Type::nat_rel()));
        assert!(!r.has_type(&Type::set(Type::Nat)));
        assert_eq!(r.infer_type(), Some(Type::nat_rel()));
        // empty set is type-ambiguous for inference but checks at any set
        let e = Value::empty_set();
        assert!(e.has_type(&Type::nat_rel()));
        assert!(e.has_type(&Type::set(Type::Bool)));
        assert_eq!(e.infer_type(), None);
        // heterogeneous sets are ill-typed
        let h = Value::set([Value::nat(1), Value::TRUE]);
        assert_eq!(h.infer_type(), None);
        // an empty set past a set's first element is ambiguous too
        let later = Value::set([
            Value::pair(Value::nat(0), Value::set([Value::nat(1)])),
            Value::pair(Value::nat(1), Value::empty_set()),
        ]);
        assert_eq!(later.infer_type(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Value::chain(2).to_string(), "{(0, 1), (1, 2)}");
        assert_eq!(
            Value::pair(Value::Unit, Value::Bool(false)).to_string(),
            "((), false)"
        );
    }

    #[test]
    fn depth() {
        assert_eq!(Value::nat(0).depth(), 0);
        assert_eq!(Value::edge(0, 1).depth(), 1);
        assert_eq!(Value::chain(2).depth(), 2);
        assert_eq!(Value::set([Value::chain(1)]).depth(), 3);
    }
}
