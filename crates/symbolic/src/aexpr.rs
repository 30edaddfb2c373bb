//! Abstract expressions (§5.1).
//!
//! > "An **abstract expression** is: `()`, `e` (where e is a simple
//! > expression), `true`, `false`, `(A₁, A₂)`, `{A | x₁ = 0,n; … xₖ = 0,n}`
//! > (when k = 0 this becomes the singleton set {A}), `A₁ ∪ A₂` and
//! > `(A₁ when C₁; …; Aₗ when Cₗ)` where the Cᵢ are pairwise disjoint
//! > conditions (**guarded expression**)."
//!
//! Think of an abstract expression `A` of type `s` as denoting a complex
//! object `[A]ρ` of type `s` *for every* `n > 0` — e.g.
//! `{(x, x+1) when x ≠ n | x = 0,n}` denotes the paper's chain `rₙ` at
//! every `n` ([`chain_aexpr`]).
//!
//! Set-typed expressions are kept in a normal form: a finite union of
//! guarded comprehension **blocks** `{A when C | x⃗ = 0,n}` — the paper's
//! `∪` concatenates block lists, its `{A | x⃗}` is a single block, and a
//! guard over a set distributes into the blocks. This normal form is what
//! makes the Lemma 5.1 evaluator ([`crate::evalem`]) compositional.

use crate::condition::Condition;
use crate::simple::SimpleExpr;
use crate::vars::{Env, VarGen, VarId};
use nra_core::types::Type;
use nra_core::value::intern::{VId, ValueArena};
use nra_core::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// One comprehension block `{body when guard | vars = 0,n}` of a set-typed
/// abstract expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The bound variables `x⃗`, each ranging over `[n]`.
    pub vars: Vec<VarId>,
    /// The guard condition (may mention `vars` and free variables).
    pub guard: Condition,
    /// The element expression.
    pub body: Box<AExpr>,
}

impl Block {
    /// A block with the given binder list, guard and body.
    pub fn new(vars: Vec<VarId>, guard: Condition, body: AExpr) -> Self {
        Block {
            vars,
            guard,
            body: Box::new(body),
        }
    }
}

/// An abstract expression (§5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AExpr {
    /// `()`.
    Unit,
    /// `true` / `false`.
    Bool(bool),
    /// A simple expression denoting a natural number.
    Num(SimpleExpr),
    /// `(A₁, A₂)`.
    Pair(Box<AExpr>, Box<AExpr>),
    /// A set in block normal form: `∪` of guarded comprehensions.
    Set(Vec<Block>),
    /// A guarded expression `(A₁ when C₁; …; Aₗ when Cₗ)` with pairwise
    /// disjoint guards. Kept only at non-set types (set-typed guards are
    /// pushed into blocks).
    Guarded(Vec<(AExpr, Condition)>),
}

impl AExpr {
    /// The numeral `c`.
    pub fn num(c: i64) -> AExpr {
        AExpr::Num(SimpleExpr::Const(c))
    }

    /// The variable `x`.
    pub fn var(x: VarId) -> AExpr {
        AExpr::Num(SimpleExpr::var(x))
    }

    /// `(a, b)`.
    pub fn pair(a: AExpr, b: AExpr) -> AExpr {
        AExpr::Pair(Box::new(a), Box::new(b))
    }

    /// The singleton `{a}` — a comprehension with zero binders (§5.1).
    pub fn singleton(a: AExpr) -> AExpr {
        AExpr::Set(vec![Block::new(vec![], Condition::tru(), a)])
    }

    /// The empty set.
    pub fn empty_set() -> AExpr {
        AExpr::Set(vec![])
    }

    /// `{body | vars = 0,n}`.
    pub fn comprehension(vars: Vec<VarId>, body: AExpr) -> AExpr {
        AExpr::Set(vec![Block::new(vars, Condition::tru(), body)])
    }

    /// `{body when guard | vars = 0,n}`.
    pub fn guarded_comprehension(vars: Vec<VarId>, guard: Condition, body: AExpr) -> AExpr {
        AExpr::Set(vec![Block::new(vars, guard, body)])
    }

    /// `A₁ ∪ A₂` of two set-typed expressions (block concatenation).
    /// Panics if either side is not in set normal form.
    pub fn union(a: AExpr, b: AExpr) -> AExpr {
        match (a, b) {
            (AExpr::Set(mut x), AExpr::Set(y)) => {
                x.extend(y);
                AExpr::Set(x)
            }
            _ => panic!("union of non-set abstract expressions"),
        }
    }

    /// The denotation `[A]ρ` at a given `n` (§5.1). `None` means the
    /// expression is undefined there (no guard true, or a negative
    /// number). Undefined *elements* of a comprehension are skipped — the
    /// guards and definedness conditions of well-formed expressions make
    /// this unobservable, and it keeps set denotations total.
    pub fn eval(&self, n: u64, env: &Env) -> Option<Value> {
        match self {
            AExpr::Unit => Some(Value::Unit),
            AExpr::Bool(b) => Some(Value::Bool(*b)),
            AExpr::Num(e) => e.eval(n, env).map(Value::Nat),
            AExpr::Pair(a, b) => Some(Value::pair(a.eval(n, env)?, b.eval(n, env)?)),
            AExpr::Set(blocks) => {
                let mut out = BTreeSet::new();
                for block in blocks {
                    let mut env = env.clone();
                    eval_block(block, n, &mut env, &mut out);
                }
                Some(Value::Set(out))
            }
            AExpr::Guarded(arms) => {
                for (arm, cond) in arms {
                    if cond.eval(n, env)? {
                        return arm.eval(n, env);
                    }
                }
                None
            }
        }
    }

    /// The denotation `[A]ρ` as a hash-consed handle in `va` — the
    /// hot-path twin of [`AExpr::eval`], used by the Lemma 5.1
    /// verification loops ([`crate::evalem::lemma_holds_at`]) where the
    /// same denotations are built and compared for many `n` and `ρ`:
    /// repeated subterms intern to the same node, and the final equality
    /// check against the evaluator's output is `O(1)`.
    pub fn eval_interned(&self, n: u64, env: &Env, va: &mut ValueArena) -> Option<VId> {
        match self {
            AExpr::Unit => Some(va.unit()),
            AExpr::Bool(b) => Some(va.bool_(*b)),
            AExpr::Num(e) => e.eval(n, env).map(|k| va.nat(k)),
            AExpr::Pair(a, b) => {
                let a = a.eval_interned(n, env, va)?;
                let b = b.eval_interned(n, env, va)?;
                Some(va.pair(a, b))
            }
            AExpr::Set(blocks) => {
                let mut out = Vec::new();
                for block in blocks {
                    let mut env = env.clone();
                    eval_block_interned(block, n, &mut env, va, &mut out);
                }
                Some(va.set(out))
            }
            AExpr::Guarded(arms) => {
                for (arm, cond) in arms {
                    if cond.eval(n, env)? {
                        return arm.eval_interned(n, env, va);
                    }
                }
                None
            }
        }
    }

    /// Check the expression against a type.
    pub fn check_type(&self, ty: &Type) -> bool {
        match (self, ty) {
            (AExpr::Unit, Type::Unit) => true,
            (AExpr::Bool(_), Type::Bool) => true,
            (AExpr::Num(_), Type::Nat) => true,
            (AExpr::Pair(a, b), Type::Prod(s, t)) => a.check_type(s) && b.check_type(t),
            (AExpr::Set(blocks), Type::Set(elem)) => blocks.iter().all(|b| b.body.check_type(elem)),
            (AExpr::Guarded(arms), _) => arms.iter().all(|(a, _)| a.check_type(ty)),
            _ => false,
        }
    }

    /// Free variables (bound comprehension variables excluded).
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut out, &mut BTreeSet::new());
        out
    }

    fn collect_free(&self, out: &mut BTreeSet<VarId>, bound: &mut BTreeSet<VarId>) {
        match self {
            AExpr::Unit | AExpr::Bool(_) => {}
            AExpr::Num(e) => {
                if let Some(v) = e.var_of() {
                    if !bound.contains(&v) {
                        out.insert(v);
                    }
                }
            }
            AExpr::Pair(a, b) => {
                a.collect_free(out, bound);
                b.collect_free(out, bound);
            }
            AExpr::Set(blocks) => {
                for block in blocks {
                    let fresh: Vec<VarId> = block
                        .vars
                        .iter()
                        .copied()
                        .filter(|v| bound.insert(*v))
                        .collect();
                    for v in block.guard.vars() {
                        if !bound.contains(&v) {
                            out.insert(v);
                        }
                    }
                    block.body.collect_free(out, bound);
                    for v in fresh {
                        bound.remove(&v);
                    }
                }
            }
            AExpr::Guarded(arms) => {
                for (arm, cond) in arms {
                    for v in cond.vars() {
                        if !bound.contains(&v) {
                            out.insert(v);
                        }
                    }
                    arm.collect_free(out, bound);
                }
            }
        }
    }

    /// Substitute a *free* variable by a simple expression (bound
    /// occurrences are left alone).
    pub fn subst(&self, x: VarId, e: &SimpleExpr) -> AExpr {
        match self {
            AExpr::Unit | AExpr::Bool(_) => self.clone(),
            AExpr::Num(s) => AExpr::Num(s.subst(x, e)),
            AExpr::Pair(a, b) => AExpr::pair(a.subst(x, e), b.subst(x, e)),
            AExpr::Set(blocks) => AExpr::Set(
                blocks
                    .iter()
                    .map(|blk| {
                        if blk.vars.contains(&x) {
                            blk.clone()
                        } else {
                            Block {
                                vars: blk.vars.clone(),
                                guard: blk.guard.subst(x, e),
                                body: Box::new(blk.body.subst(x, e)),
                            }
                        }
                    })
                    .collect(),
            ),
            AExpr::Guarded(arms) => AExpr::Guarded(
                arms.iter()
                    .map(|(a, c)| (a.subst(x, e), c.subst(x, e)))
                    .collect(),
            ),
        }
    }

    /// Rename every *bound* variable to a fresh one — scope hygiene for
    /// the Lemma 5.1 evaluator when blocks are merged or duplicated.
    pub fn freshen(&self, gen: &mut VarGen) -> AExpr {
        match self {
            AExpr::Unit | AExpr::Bool(_) | AExpr::Num(_) => self.clone(),
            AExpr::Pair(a, b) => AExpr::pair(a.freshen(gen), b.freshen(gen)),
            AExpr::Set(blocks) => AExpr::Set(
                blocks
                    .iter()
                    .map(|blk| {
                        let mut guard = blk.guard.clone();
                        let mut body = blk.body.freshen(gen);
                        let mut vars = Vec::with_capacity(blk.vars.len());
                        for &v in &blk.vars {
                            let fresh = gen.fresh();
                            guard = guard.rename(v, fresh);
                            body = body.rename_free(v, fresh);
                            vars.push(fresh);
                        }
                        Block {
                            vars,
                            guard,
                            body: Box::new(body),
                        }
                    })
                    .collect(),
            ),
            AExpr::Guarded(arms) => AExpr::Guarded(
                arms.iter()
                    .map(|(a, c)| (a.freshen(gen), c.clone()))
                    .collect(),
            ),
        }
    }

    /// Rename free occurrences of `x` to `y`.
    pub fn rename_free(&self, x: VarId, y: VarId) -> AExpr {
        self.subst(x, &SimpleExpr::var(y))
    }

    /// The definedness condition `C_A` (§5.2, case `empty`): a condition
    /// on the free variables expressing that `[A]ρ` is defined. Negative
    /// numbers are the only source of undefinedness at base type;
    /// guarded expressions are defined iff some guard is true (and its arm
    /// is); sets are always defined.
    pub fn definedness(&self) -> Condition {
        match self {
            AExpr::Unit | AExpr::Bool(_) => Condition::tru(),
            AExpr::Num(e) => match *e {
                SimpleExpr::Const(c) => {
                    if c >= 0 {
                        Condition::tru()
                    } else {
                        Condition::fls()
                    }
                }
                // n − c ≥ 0 for large n (c may be any constant)
                SimpleExpr::NMinus(_) => Condition::tru(),
                SimpleExpr::Var(x, c) => {
                    if c >= 0 {
                        Condition::tru()
                    } else {
                        // x + c ≥ 0 ⟺ x ∉ {0, …, −c−1}
                        let mut cond = Condition::tru();
                        for k in 0..(-c) {
                            cond =
                                cond.and(&Condition::neq(SimpleExpr::var(x), SimpleExpr::Const(k)));
                        }
                        cond
                    }
                }
            },
            AExpr::Pair(a, b) => a.definedness().and(&b.definedness()),
            AExpr::Set(_) => Condition::tru(),
            AExpr::Guarded(arms) => {
                let mut cond = Condition::fls();
                for (arm, c) in arms {
                    cond = cond.or(&c.and(&arm.definedness()));
                }
                cond
            }
        }
    }

    /// An upper bound on the degree of the polynomial `P(n)` with
    /// `size([A]ρ) ≤ P(n)` (§5.1: "for any abstract expression A,
    /// `size([A]ρ)` is bounded by some polynomial P(n)").
    pub fn polynomial_degree(&self) -> u32 {
        match self {
            AExpr::Unit | AExpr::Bool(_) | AExpr::Num(_) => 0,
            AExpr::Pair(a, b) => a.polynomial_degree().max(b.polynomial_degree()),
            AExpr::Set(blocks) => blocks
                .iter()
                .map(|b| b.vars.len() as u32 + b.body.polynomial_degree())
                .max()
                .unwrap_or(0),
            AExpr::Guarded(arms) => arms
                .iter()
                .map(|(a, _)| a.polynomial_degree())
                .max()
                .unwrap_or(0),
        }
    }
}

/// Enumerate the binder assignments of `block` at a given `n`: bind each
/// variable over `0..=n` (saving and restoring shadowed bindings) and call
/// `emit` once per assignment whose guard holds. The single source of the
/// comprehension semantics, shared by the tree and interned denotations —
/// only the body evaluation and the element sink differ between them.
fn for_each_block_assignment(
    block: &Block,
    n: u64,
    env: &mut Env,
    depth: usize,
    emit: &mut impl FnMut(&mut Env),
) {
    if depth == block.vars.len() {
        if block.guard.eval(n, env) == Some(true) {
            emit(env);
        }
        return;
    }
    let var = block.vars[depth];
    let saved = env.get(&var).copied();
    for value in 0..=n {
        env.insert(var, value);
        for_each_block_assignment(block, n, env, depth + 1, emit);
    }
    match saved {
        Some(v) => {
            env.insert(var, v);
        }
        None => {
            env.remove(&var);
        }
    }
}

fn eval_block(block: &Block, n: u64, env: &mut Env, out: &mut BTreeSet<Value>) {
    for_each_block_assignment(block, n, env, 0, &mut |env| {
        if let Some(v) = block.body.eval(n, env) {
            out.insert(v);
        }
    });
}

fn eval_block_interned(
    block: &Block,
    n: u64,
    env: &mut Env,
    va: &mut ValueArena,
    out: &mut Vec<VId>,
) {
    for_each_block_assignment(block, n, env, 0, &mut |env| {
        if let Some(v) = block.body.eval_interned(n, env, va) {
            out.push(v);
        }
    });
}

/// The paper's running example: `{(x, x+1) when x ≠ n | x = 0,n}`,
/// denoting the chain `rₙ` for every `n` (§5, introduction).
pub fn chain_aexpr(gen: &mut VarGen) -> AExpr {
    let x = gen.fresh();
    AExpr::guarded_comprehension(
        vec![x],
        Condition::neq(SimpleExpr::var(x), SimpleExpr::n()),
        AExpr::pair(
            AExpr::Num(SimpleExpr::var(x)),
            AExpr::Num(SimpleExpr::Var(x, 1)),
        ),
    )
}

/// The §5.1 example `{(2, x, y) | x = 0,n; y = 0,n}` (with the constant
/// specialised to 2), used in tests and docs.
pub fn grid_aexpr(gen: &mut VarGen) -> AExpr {
    let x = gen.fresh();
    let y = gen.fresh();
    AExpr::comprehension(
        vec![x, y],
        AExpr::pair(AExpr::num(2), AExpr::pair(AExpr::var(x), AExpr::var(y))),
    )
}

impl fmt::Display for AExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AExpr::Unit => write!(f, "()"),
            AExpr::Bool(b) => write!(f, "{}", b),
            AExpr::Num(e) => write!(f, "{}", e),
            AExpr::Pair(a, b) => write!(f, "({}, {})", a, b),
            AExpr::Set(blocks) => {
                if blocks.is_empty() {
                    return write!(f, "{{}}");
                }
                for (i, b) in blocks.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∪ ")?;
                    }
                    write!(f, "{{{}", b.body)?;
                    if !b.guard.is_true() {
                        write!(f, " when {}", b.guard)?;
                    }
                    if !b.vars.is_empty() {
                        write!(f, " | ")?;
                        for (j, v) in b.vars.iter().enumerate() {
                            if j > 0 {
                                write!(f, "; ")?;
                            }
                            write!(f, "{} = 0,n", v)?;
                        }
                    }
                    write!(f, "}}")?;
                }
                Ok(())
            }
            AExpr::Guarded(arms) => {
                write!(f, "(")?;
                for (i, (a, c)) in arms.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{} when {}", a, c)?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;

    #[test]
    fn chain_denotes_r_n() {
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        for n in 0..8u64 {
            assert_eq!(a.eval(n, &Env::new()), Some(Value::chain(n)), "n={n}");
        }
        assert!(a.check_type(&Type::nat_rel()));
        assert_eq!(a.polynomial_degree(), 1);
    }

    #[test]
    fn paper_guarded_example() {
        // [{(x, y) when x ≠ y | y = 0,n}]ρ with ρ(x)=1 =
        //   {(1,0), (1,2), …, (1,n)}   (§5.1)
        let mut gen = VarGen::new();
        let x = gen.fresh();
        let y = gen.fresh();
        let a = AExpr::guarded_comprehension(
            vec![y],
            Condition::neq(SimpleExpr::var(x), SimpleExpr::var(y)),
            AExpr::pair(AExpr::var(x), AExpr::var(y)),
        );
        let env: Env = [(x, 1u64)].into_iter().collect();
        let n = 4;
        let expect = Value::relation([(1, 0), (1, 2), (1, 3), (1, 4)]);
        assert_eq!(a.eval(n, &env), Some(expect));
        assert_eq!(a.free_vars().into_iter().collect::<Vec<_>>(), vec![x]);
    }

    #[test]
    fn zero_when_false_denotes_empty() {
        // [{0 when false}] = ∅   (§5.1)
        let a = AExpr::guarded_comprehension(vec![], Condition::fls(), AExpr::num(0));
        assert_eq!(a.eval(5, &Env::new()), Some(Value::empty_set()));
    }

    #[test]
    fn guarded_expression_selects_the_true_arm() {
        let mut gen = VarGen::new();
        let x = gen.fresh();
        let cond = Condition::eq(SimpleExpr::var(x), SimpleExpr::Const(3));
        let a = AExpr::Guarded(vec![
            (AExpr::Bool(true), cond.clone()),
            (AExpr::Bool(false), cond.not()),
        ]);
        let env3: Env = [(x, 3u64)].into_iter().collect();
        let env4: Env = [(x, 4u64)].into_iter().collect();
        assert_eq!(a.eval(9, &env3), Some(Value::TRUE));
        assert_eq!(a.eval(9, &env4), Some(Value::FALSE));
    }

    #[test]
    fn guarded_with_no_true_arm_is_undefined() {
        let a = AExpr::Guarded(vec![(AExpr::num(0), Condition::fls())]);
        assert_eq!(a.eval(3, &Env::new()), None);
    }

    #[test]
    fn negative_numbers_are_undefined() {
        let a = AExpr::Num(SimpleExpr::Const(-1));
        assert_eq!(a.eval(3, &Env::new()), None);
        // and are skipped inside comprehensions: {x − 2 | x = 0,n}
        let mut gen = VarGen::new();
        let x = gen.fresh();
        let s = AExpr::comprehension(vec![x], AExpr::Num(SimpleExpr::Var(x, -2)));
        let out = s.eval(4, &Env::new()).unwrap();
        assert_eq!(out, Value::set((0..=2).map(Value::nat)));
    }

    #[test]
    fn definedness_condition_matches_evaluation() {
        let mut gen = VarGen::new();
        let x = gen.fresh();
        let a = AExpr::pair(AExpr::Num(SimpleExpr::Var(x, -2)), AExpr::num(1));
        let c = a.definedness();
        let n = 6;
        for xv in 0..=n {
            let env: Env = [(x, xv)].into_iter().collect();
            assert_eq!(
                c.eval(n, &env).unwrap(),
                a.eval(n, &env).is_some(),
                "x={xv}"
            );
        }
    }

    #[test]
    fn union_concatenates_blocks() {
        let a = AExpr::singleton(AExpr::num(1));
        let b = AExpr::singleton(AExpr::num(2));
        let u = AExpr::union(a, b);
        assert_eq!(
            u.eval(0, &Env::new()),
            Some(Value::set([Value::nat(1), Value::nat(2)]))
        );
    }

    #[test]
    fn grid_has_degree_two() {
        let mut gen = VarGen::new();
        let g = grid_aexpr(&mut gen);
        assert_eq!(g.polynomial_degree(), 2);
        let v = g.eval(3, &Env::new()).unwrap();
        assert_eq!(v.cardinality(), Some(16));
    }

    #[test]
    fn freshen_preserves_denotation() {
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        let fresh = a.freshen(&mut gen);
        assert_ne!(a, fresh, "binders were renamed");
        for n in 0..5 {
            assert_eq!(a.eval(n, &Env::new()), fresh.eval(n, &Env::new()));
        }
    }

    #[test]
    fn subst_respects_binders() {
        let mut gen = VarGen::new();
        let x = gen.fresh();
        // {x | x = 0,n} has no free x — substitution must not touch it
        let closed = AExpr::comprehension(vec![x], AExpr::var(x));
        let subbed = closed.subst(x, &SimpleExpr::Const(7));
        assert_eq!(closed, subbed);
        // but a genuinely free x is replaced
        let open = AExpr::pair(AExpr::var(x), AExpr::num(0));
        let subbed = open.subst(x, &SimpleExpr::Const(7));
        assert_eq!(subbed, AExpr::pair(AExpr::num(7), AExpr::num(0)));
    }

    #[test]
    fn interned_denotation_agrees_with_tree_denotation() {
        let mut gen = VarGen::new();
        let x = gen.fresh();
        let suite = vec![
            chain_aexpr(&mut gen),
            grid_aexpr(&mut gen),
            AExpr::empty_set(),
            AExpr::pair(AExpr::num(3), AExpr::Num(SimpleExpr::NMinus(1))),
            AExpr::comprehension(vec![x], AExpr::Num(SimpleExpr::Var(x, -2))),
            AExpr::Guarded(vec![(AExpr::num(0), Condition::fls())]),
        ];
        let mut va = ValueArena::new();
        for a in &suite {
            for n in 0..5u64 {
                let tree = a.eval(n, &Env::new());
                let interned = a.eval_interned(n, &Env::new(), &mut va);
                assert_eq!(tree, interned.map(|i| va.resolve(i)), "A={a}, n={n}");
                // and the handles match a direct interning of the tree
                if let (Some(t), Some(i)) = (&tree, interned) {
                    assert_eq!(va.intern(t), i, "A={a}, n={n}");
                }
            }
        }
    }

    #[test]
    fn display_forms() {
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        assert_eq!(a.to_string(), "{(x0, x0+1) when x0 ≠ n | x0 = 0,n}");
        assert_eq!(AExpr::empty_set().to_string(), "{}");
    }

    #[test]
    fn type_checking() {
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        assert!(a.check_type(&Type::nat_rel()));
        assert!(!a.check_type(&Type::set(Type::Nat)));
        assert!(AExpr::empty_set().check_type(&Type::nat_rel()));
        assert!(AExpr::empty_set().check_type(&Type::set(Type::Bool)));
    }
}
