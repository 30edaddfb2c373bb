//! Property tests for `core::parser`: the concrete syntax round-trips
//! through `Display` for *arbitrary* well-typed expressions (not just the
//! hand-picked queries), and the typechecker cannot tell a parsed
//! expression from the built one. Types and complex-object literals
//! round-trip too.

use nra_core::generate::{random_expr, GenConfig, Rng as GenRng};
use nra_core::parser::{parse_expr, parse_type, parse_value};
use nra_core::typecheck::output_type;
use nra_core::types::Type;
use nra_core::value::Value;
use nra_testkit::{check, Rng};

fn domains() -> Vec<Type> {
    vec![
        Type::nat_rel(),
        Type::Nat,
        Type::Bool,
        Type::prod(Type::Nat, Type::set(Type::Nat)),
        Type::set(Type::set(Type::Nat)),
        Type::set(Type::prod(Type::Bool, Type::Nat)),
    ]
}

#[test]
fn parse_display_roundtrip_on_generated_expressions() {
    let cfg = GenConfig {
        allow_while: true,
        ..GenConfig::default()
    };
    let domains = domains();
    check(
        "parse_display_roundtrip_on_generated_expressions",
        300,
        |seed, rng| {
            let dom = rng.choose(&domains);
            let e = random_expr(dom, &cfg, &mut GenRng::new(seed));
            let text = e.to_string();
            let parsed =
                parse_expr(&text).unwrap_or_else(|err| panic!("`{text}` failed to parse: {err}"));
            assert_eq!(parsed, e, "round-trip through `{text}`");
        },
    );
}

#[test]
fn typechecker_agrees_on_parsed_and_built_expressions() {
    let cfg = GenConfig::default();
    let domains = domains();
    check(
        "typechecker_agrees_on_parsed_and_built_expressions",
        300,
        |seed, rng| {
            let dom = rng.choose(&domains);
            let e = random_expr(dom, &cfg, &mut GenRng::new(seed));
            let parsed = parse_expr(&e.to_string()).unwrap();
            let built_ty = output_type(&e, dom).expect("generated expressions type-check");
            let parsed_ty =
                output_type(&parsed, dom).expect("parsed expressions type-check equally");
            assert_eq!(parsed_ty, built_ty, "{e} at {dom}");
        },
    );
}

fn random_type(rng: &mut Rng, depth: u32) -> Type {
    if depth == 0 {
        return rng.choose(&[Type::Unit, Type::Bool, Type::Nat]).clone();
    }
    match rng.below(5) {
        0 => Type::Unit,
        1 => Type::Bool,
        2 => Type::Nat,
        3 => Type::prod(random_type(rng, depth - 1), random_type(rng, depth - 1)),
        _ => Type::set(random_type(rng, depth - 1)),
    }
}

fn random_value(rng: &mut Rng, depth: u32) -> Value {
    if depth == 0 {
        return Value::nat(rng.below(10));
    }
    match rng.below(5) {
        0 => Value::Unit,
        1 => Value::Bool(rng.bool()),
        2 => Value::nat(rng.below(100)),
        3 => Value::pair(random_value(rng, depth - 1), random_value(rng, depth - 1)),
        _ => {
            let len = rng.usize_below(4);
            Value::set((0..len).map(|_| random_value(rng, depth - 1)))
        }
    }
}

#[test]
fn type_syntax_roundtrips() {
    check("type_syntax_roundtrips", 200, |_, rng| {
        let t = random_type(rng, 3);
        let text = t.to_string();
        let back = parse_type(&text).unwrap_or_else(|err| panic!("`{text}`: {err}"));
        assert_eq!(back, t, "`{text}`");
    });
}

#[test]
fn value_syntax_roundtrips() {
    check("value_syntax_roundtrips", 200, |_, rng| {
        let v = random_value(rng, 3);
        let text = v.to_string();
        let back = parse_value(&text).unwrap_or_else(|err| panic!("`{text}`: {err}"));
        assert_eq!(back, v, "`{text}`");
    });
}

/// `Value::infer_type` as it was defined before it checked a set's other
/// elements in place: every element's type built, then compared.
fn infer_type_by_building(v: &Value) -> Option<Type> {
    match v {
        Value::Unit => Some(Type::Unit),
        Value::Bool(_) => Some(Type::Bool),
        Value::Nat(_) => Some(Type::Nat),
        Value::Pair(a, b) => Some(Type::prod(
            infer_type_by_building(a)?,
            infer_type_by_building(b)?,
        )),
        Value::Set(items) => {
            let mut elem: Option<Type> = None;
            for item in items {
                let t = infer_type_by_building(item)?;
                match &elem {
                    None => elem = Some(t),
                    Some(prev) if *prev == t => {}
                    Some(_) => return None,
                }
            }
            elem.map(Type::set)
        }
    }
}

/// A random inhabitant of `ty`, whose sets hold zero to three elements.
fn random_value_of(rng: &mut Rng, ty: &Type) -> Value {
    match ty {
        Type::Unit => Value::Unit,
        Type::Bool => Value::Bool(rng.bool()),
        Type::Nat => Value::nat(rng.below(4)),
        Type::Prod(s, t) => Value::pair(random_value_of(rng, s), random_value_of(rng, t)),
        Type::Set(t) => {
            let len = rng.usize_below(4);
            Value::set((0..len).map(|_| random_value_of(rng, t)))
        }
    }
}

#[test]
fn infer_type_agrees_with_building_every_element_type() {
    check("infer_type_agrees_with_building", 1000, |_, rng| {
        // well-typed, empty sets included: typed or ambiguous; a set of
        // inhabitants can type its first element and hold an empty set
        // further on
        let ty = random_type(rng, 3);
        let v = Value::set((0..3).map(|_| random_value_of(rng, &ty)));
        let inferred = v.infer_type();
        assert_eq!(inferred, infer_type_by_building(&v), "{v} of {{{ty}}}");
        assert!(inferred.is_none_or(|t| t == Type::set(ty.clone())), "{v}");
        // mixed: mismatched elements, empty sets, any shape
        let v = random_value(rng, 4);
        assert_eq!(v.infer_type(), infer_type_by_building(&v), "{v}");
    });
}
