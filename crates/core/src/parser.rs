//! A recursive-descent parser for the concrete expression syntax printed by
//! [`crate::display`], plus parsers for types and complex-object literals.
//!
//! The grammar (whitespace-insensitive):
//!
//! ```text
//! expr  := NAME                                   -- nullary primitive
//!        | "tuple" "(" expr "," expr ")"
//!        | "map" "(" expr ")" | "while" "(" expr ")"
//!        | "if" "(" expr "," expr "," expr ")"
//!        | "compose" "(" expr "," expr ")"
//!        | "emptyset" "[" type "]"
//!        | "powerset_m" "(" NUM ")"
//!        | "const" "(" value ":" type ")"
//! type  := prim ("*" prim)*                       -- right-associative
//! prim  := "unit" | "bool" | "nat" | "{" type "}" | "(" type ")"
//! value := "(" ")" | "true" | "false" | NUM
//!        | "(" value "," value ")" | "{" [value ("," value)*] "}"
//! ```
//!
//! Nesting is capped at [`MAX_NESTING`] levels: deeper input is a
//! [`ParseError`], never a stack overflow.

use crate::expr::Expr;
use crate::types::Type;
use crate::value::Value;
use std::fmt;

/// A parse error with byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which the error was detected.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting the parser accepts, counted in nested
/// expressions, values and types together: `id` is depth 1,
/// `map(id)` depth 2, `{{1}}` depth 3. The standard queries nest at
/// most 29 deep (`tc_naive`). The cap keeps a hostile input from
/// exhausting the stack of the thread that parses it, and of every
/// layer that later recurses over the parsed term (typechecking,
/// interning, evaluation) — within a default 2 MiB thread stack even
/// in an unoptimised build, which spends about 8 KB per parser level.
pub const MAX_NESTING: usize = 128;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Current nesting depth, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Run one nesting level of the grammar, refusing to go deeper
    /// than [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        level: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            return self.error(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let out = level(self);
        self.depth -= 1;
        out
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            position: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.input.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(format!("expected `{}`", c as char))
        }
    }

    fn try_eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.input.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len()
            && (self.input[self.pos].is_ascii_alphanumeric() || self.input[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return self.error("expected an identifier");
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos]).expect("ascii"))
    }

    /// A decimal natural, its digits accumulated as they are read. An
    /// overflowing one is consumed whole and refused at its end.
    fn number(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut n = Some(0u64);
        while let Some(&digit) = self.input.get(self.pos).filter(|b| b.is_ascii_digit()) {
            n = n.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(digit - b'0')));
            self.pos += 1;
        }
        if start == self.pos {
            return self.error("expected a number");
        }
        n.map_or_else(|| self.error("number out of range"), Ok)
    }

    // -- types ------------------------------------------------------------

    fn ty(&mut self) -> Result<Type, ParseError> {
        self.nested(Self::ty_level)
    }

    fn ty_level(&mut self) -> Result<Type, ParseError> {
        let first = self.ty_prim()?;
        if self.try_eat(b'*') {
            let rest = self.ty()?;
            Ok(Type::prod(first, rest))
        } else {
            Ok(first)
        }
    }

    fn ty_prim(&mut self) -> Result<Type, ParseError> {
        match self.peek() {
            Some(b'{') => {
                self.eat(b'{')?;
                let inner = self.ty()?;
                self.eat(b'}')?;
                Ok(Type::set(inner))
            }
            Some(b'(') => {
                self.eat(b'(')?;
                let inner = self.ty()?;
                self.eat(b')')?;
                Ok(inner)
            }
            _ => match self.ident()? {
                "unit" => Ok(Type::Unit),
                "bool" => Ok(Type::Bool),
                "nat" => Ok(Type::Nat),
                other => self.error(format!("unknown type `{}`", other)),
            },
        }
    }

    // -- values -----------------------------------------------------------

    fn value(&mut self) -> Result<Value, ParseError> {
        self.nested(Self::value_level)
    }

    fn value_level(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'(') => {
                self.eat(b'(')?;
                if self.try_eat(b')') {
                    return Ok(Value::Unit);
                }
                let a = self.value()?;
                self.eat(b',')?;
                let b = self.value()?;
                self.eat(b')')?;
                Ok(Value::pair(a, b))
            }
            Some(b'{') => {
                self.eat(b'{')?;
                let mut items = Vec::new();
                if !self.try_eat(b'}') {
                    loop {
                        items.push(self.value()?);
                        if self.try_eat(b'}') {
                            break;
                        }
                        self.eat(b',')?;
                    }
                }
                Ok(Value::set(items))
            }
            Some(c) if c.is_ascii_digit() => Ok(Value::Nat(self.number()?)),
            _ => match self.ident()? {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                other => self.error(format!("unknown value `{}`", other)),
            },
        }
    }

    // -- expressions --------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::expr_level)
    }

    fn expr_level(&mut self) -> Result<Expr, ParseError> {
        let name = self.ident()?;
        match name {
            "id" => Ok(Expr::Id),
            "bang" => Ok(Expr::Bang),
            "fst" => Ok(Expr::Fst),
            "snd" => Ok(Expr::Snd),
            "sng" => Ok(Expr::Sng),
            "flatten" => Ok(Expr::Flatten),
            "pairwith" => Ok(Expr::PairWith),
            "union" => Ok(Expr::Union),
            "eq" => Ok(Expr::EqNat),
            "isempty" => Ok(Expr::IsEmpty),
            "true" => Ok(Expr::ConstTrue),
            "false" => Ok(Expr::ConstFalse),
            "powerset" => Ok(Expr::Powerset),
            "tuple" => {
                self.eat(b'(')?;
                let a = self.expr()?;
                self.eat(b',')?;
                let b = self.expr()?;
                self.eat(b')')?;
                Ok(Expr::Tuple(a.rc(), b.rc()))
            }
            "map" => {
                self.eat(b'(')?;
                let f = self.expr()?;
                self.eat(b')')?;
                Ok(Expr::Map(f.rc()))
            }
            "while" => {
                self.eat(b'(')?;
                let f = self.expr()?;
                self.eat(b')')?;
                Ok(Expr::While(f.rc()))
            }
            "if" => {
                self.eat(b'(')?;
                let c = self.expr()?;
                self.eat(b',')?;
                let t = self.expr()?;
                self.eat(b',')?;
                let e = self.expr()?;
                self.eat(b')')?;
                Ok(Expr::Cond(c.rc(), t.rc(), e.rc()))
            }
            "compose" => {
                self.eat(b'(')?;
                let g = self.expr()?;
                self.eat(b',')?;
                let f = self.expr()?;
                self.eat(b')')?;
                Ok(Expr::Compose(g.rc(), f.rc()))
            }
            "emptyset" => {
                self.eat(b'[')?;
                let t = self.ty()?;
                self.eat(b']')?;
                Ok(Expr::EmptySet(t))
            }
            "powerset_m" => {
                self.eat(b'(')?;
                let m = self.number()?;
                self.eat(b')')?;
                Ok(Expr::PowersetM(m))
            }
            "const" => {
                self.eat(b'(')?;
                let v = self.value()?;
                self.eat(b':')?;
                let t = self.ty()?;
                self.eat(b')')?;
                Ok(Expr::Const(v, t))
            }
            other => self.error(format!("unknown expression head `{}`", other)),
        }
    }

    fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.input.len() {
            Ok(())
        } else {
            self.error("trailing input")
        }
    }
}

/// Parse an expression from its concrete syntax.
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(input);
    let e = p.expr()?;
    p.finish()?;
    Ok(e)
}

/// Parse a type.
pub fn parse_type(input: &str) -> Result<Type, ParseError> {
    let mut p = Parser::new(input);
    let t = p.ty()?;
    p.finish()?;
    Ok(t)
}

/// Parse a complex-object literal.
pub fn parse_value(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser::new(input);
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn parses_primitives() {
        assert_eq!(parse_expr("id").unwrap(), Expr::Id);
        assert_eq!(parse_expr(" powerset ").unwrap(), Expr::Powerset);
        assert_eq!(parse_expr("powerset_m(4)").unwrap(), Expr::PowersetM(4));
    }

    #[test]
    fn parses_nested() {
        let e = parse_expr("compose(map(fst), powerset)").unwrap();
        assert_eq!(e, compose(map(fst()), powerset()));
        let e = parse_expr("if(isempty, compose(true, bang), compose(false, bang))").unwrap();
        assert_eq!(e, cond(is_empty(), always_true(), always_false()));
    }

    #[test]
    fn parses_types() {
        assert_eq!(parse_type("{nat * nat}").unwrap(), Type::nat_rel());
        assert_eq!(
            parse_type("(nat * bool) * unit").unwrap(),
            Type::prod(Type::prod(Type::Nat, Type::Bool), Type::Unit)
        );
        // right-associativity
        assert_eq!(
            parse_type("nat * bool * unit").unwrap(),
            Type::prod(Type::Nat, Type::prod(Type::Bool, Type::Unit))
        );
    }

    #[test]
    fn parses_values() {
        assert_eq!(parse_value("()").unwrap(), Value::Unit);
        assert_eq!(parse_value("{(0, 1), (1, 2)}").unwrap(), Value::chain(2));
        assert_eq!(parse_value("{}").unwrap(), Value::empty_set());
        assert_eq!(
            parse_value("(true, 3)").unwrap(),
            Value::pair(Value::TRUE, Value::nat(3))
        );
    }

    #[test]
    fn numbers_span_u64_and_refuse_past_it_at_their_end() {
        let max = u64::MAX.to_string();
        assert_eq!(parse_value(&max).unwrap(), Value::nat(u64::MAX));
        assert_eq!(
            parse_value(&format!("{{(0, {max}), ({max}, 0)}}")).unwrap(),
            Value::relation([(0, u64::MAX), (u64::MAX, 0)])
        );
        // leading zeros and whitespace between tokens, as before
        assert_eq!(parse_value("007").unwrap(), Value::nat(7));
        assert_eq!(
            parse_value(&format!("0000000{max}")).unwrap(),
            Value::nat(u64::MAX)
        );
        assert_eq!(
            parse_value(" { 01 ,\t( 0002 ,\n3 ) } ").unwrap(),
            Value::set([Value::nat(1), Value::pair(Value::nat(2), Value::nat(3))])
        );
        // one past u64::MAX, and far past it: refused at the end of the
        // digits, as `str::parse` refused them
        let refused = |err: ParseError, position: usize, message: &str| {
            let expected = ParseError {
                position,
                message: message.into(),
            };
            assert_eq!(err, expected);
        };
        let out_of_range = "number out of range";
        refused(
            parse_value("18446744073709551616").unwrap_err(),
            20,
            out_of_range,
        );
        refused(
            parse_value(" 18446744073709551616 ").unwrap_err(),
            21,
            out_of_range,
        );
        refused(
            parse_value("{1, 99999999999999999999999}").unwrap_err(),
            27,
            out_of_range,
        );
        // `powerset_m(N)` reads its bound through the same path
        assert_eq!(
            parse_expr(&format!("powerset_m( {max} )")).unwrap(),
            Expr::PowersetM(u64::MAX)
        );
        let err = parse_expr("powerset_m(18446744073709551616)").unwrap_err();
        refused(err, 31, out_of_range);
        refused(
            parse_expr("powerset_m( x)").unwrap_err(),
            12,
            "expected a number",
        );
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_expr("compose(map(fst)").unwrap_err();
        assert!(err.position > 0);
        assert!(parse_expr("frobnicate").is_err());
        assert!(parse_expr("id id").is_err(), "trailing input rejected");
    }

    #[test]
    fn nesting_is_capped() {
        let maps =
            |depth: usize| format!("{}id{}", "map(".repeat(depth - 1), ")".repeat(depth - 1));
        assert!(parse_expr(&maps(MAX_NESTING)).is_ok());
        let err = parse_expr(&maps(MAX_NESTING + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // far past the cap: an error, not a stack overflow
        assert!(parse_expr(&maps(100_000)).is_err());
        let sets = |depth: usize| format!("{}1{}", "{".repeat(depth - 1), "}".repeat(depth - 1));
        assert!(parse_value(&sets(MAX_NESTING)).is_ok());
        assert!(parse_value(&sets(MAX_NESTING + 1)).is_err());
        let prods = |depth: usize| vec!["nat"; depth].join(" * ");
        assert!(parse_type(&prods(MAX_NESTING)).is_ok());
        assert!(parse_type(&prods(MAX_NESTING + 1)).is_err());
        // the cap counts expressions, values and types together
        let konst = format!(
            "{}const(1 : nat){}",
            "map(".repeat(MAX_NESTING - 1),
            ")".repeat(MAX_NESTING - 1)
        );
        assert!(parse_expr(&konst).is_err());
        // every standard query fits with a wide margin
        for q in [crate::queries::tc_naive(), crate::queries::tc_paths()] {
            assert_eq!(parse_expr(&q.to_string()).unwrap(), q);
        }
    }

    #[test]
    fn round_trips_displayed_expressions() {
        for e in [
            compose(map(fst()), powerset()),
            cond(is_empty(), always_true(), always_false()),
            empty_set(Type::nat_rel()),
            while_fix(compose(union(), tuple(id(), id()))),
            konst(Value::chain(2), Type::nat_rel()),
            crate::queries::tc_while(),
        ] {
            let text = e.to_string();
            let back = parse_expr(&text).unwrap_or_else(|err| panic!("{text}: {err}"));
            assert_eq!(back, e, "{text}");
        }
    }
}
