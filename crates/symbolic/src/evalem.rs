//! The Evaluation Lemma (Lemma 5.1), executable.
//!
//! > "Let A be some (not necessarily closed) abstract expression of type
//! > s, and f ∈ NRA. Then there is some abstract expression A' such that
//! > f(A) ⇓ A', meaning that ∀n, ∀ρ, `f([A]ρ) ⇓ [A']ρ`."
//!
//! [`apply`] computes that `A'` by structural recursion on `f`, exactly
//! following the paper's proof: `map` pushes into comprehension blocks,
//! `=` introduces guarded expressions, `empty` uses quantifier elimination
//! on the definedness condition, `μ` merges binder scopes (with
//! freshening), and so on.
//!
//! `powerset` — the Lemma 5.8 extension — is handled when the context
//! enables it ([`PowersetMode::Dichotomy`]): the set is analysed by
//! [`crate::dichotomy`]; either it has boundedly many elements and the
//! powerset stays an abstract expression (case 1 of the lemma), or an
//! `Ω(n)`-elements certificate is produced and the evaluation is reported
//! as exponential ([`SymbolicError::ExponentialPowerset`]).

use crate::aexpr::{AExpr, Block};
use crate::condition::Condition;
use crate::dichotomy::{self, LinearCertificate};
use crate::vars::VarGen;
use nra_core::expr::Expr;
use std::fmt;

/// How the symbolic evaluator treats `powerset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowersetMode {
    /// Reject it — pure Lemma 5.1 (`f ∈ NRA`).
    Reject,
    /// Apply the Lemma 5.8 dichotomy, enumerating at most this many
    /// witness elements in the bounded case.
    Dichotomy {
        /// Upper bound on the witness count (the result has `2^m` blocks).
        max_witnesses: usize,
    },
}

/// Evaluation context: fresh-variable supply and powerset mode.
#[derive(Debug)]
pub struct SymCtx {
    /// Fresh-variable supply (must dominate all variables of the input).
    pub gen: VarGen,
    /// Powerset handling.
    pub mode: PowersetMode,
    /// Witness counts of every *bounded* powerset application encountered
    /// (Lemma 5.8 case 1). Their maximum is the approximation order of
    /// Prop 4.2 — see [`approximation_order`].
    pub observed_bounds: Vec<usize>,
}

impl SymCtx {
    /// A context whose variable supply starts above the free and bound
    /// variables of `a`, with `powerset` rejected (pure Lemma 5.1).
    pub fn for_expr(a: &AExpr) -> Self {
        // free_vars misses bound ones; over-approximate by scanning both:
        // freshen against a large bound by walking the display string is
        // fragile — instead collect bound ids structurally.
        let mut max = 0u32;
        collect_max_var(a, &mut max);
        SymCtx {
            gen: VarGen::above([crate::vars::VarId(max)]),
            mode: PowersetMode::Reject,
            observed_bounds: Vec::new(),
        }
    }

    /// Same, but with the Lemma 5.8 dichotomy enabled.
    pub fn with_dichotomy(a: &AExpr, max_witnesses: usize) -> Self {
        let mut ctx = SymCtx::for_expr(a);
        ctx.mode = PowersetMode::Dichotomy { max_witnesses };
        ctx
    }
}

fn collect_max_var(a: &AExpr, max: &mut u32) {
    match a {
        AExpr::Unit | AExpr::Bool(_) => {}
        AExpr::Num(e) => {
            if let Some(v) = e.var_of() {
                *max = (*max).max(v.0);
            }
        }
        AExpr::Pair(x, y) => {
            collect_max_var(x, max);
            collect_max_var(y, max);
        }
        AExpr::Set(blocks) => {
            for b in blocks {
                for v in &b.vars {
                    *max = (*max).max(v.0);
                }
                for v in b.guard.vars() {
                    *max = (*max).max(v.0);
                }
                collect_max_var(&b.body, max);
            }
        }
        AExpr::Guarded(arms) => {
            for (arm, c) in arms {
                for v in c.vars() {
                    *max = (*max).max(v.0);
                }
                collect_max_var(arm, max);
            }
        }
    }
}

/// Why symbolic evaluation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolicError {
    /// A projection hit a non-pair expression.
    NotAPair,
    /// A set operation hit a non-set expression.
    NotASet,
    /// A conditional hit a non-boolean expression.
    NotABool,
    /// `=` hit a non-numeric component.
    NotANum,
    /// The construct is outside `NRA` (`while`, `const`).
    Unsupported(&'static str),
    /// `powerset` was encountered in [`PowersetMode::Reject`].
    PowersetRejected,
    /// Lemma 5.8 case 2: the abstract set has `Ω(n)` elements, so the
    /// evaluation needs space `Ω(2^{cn})`. Carries the certificate.
    ExponentialPowerset(LinearCertificate),
    /// The bounded case found more witnesses than the configured cap.
    TooManyWitnesses {
        /// Number of witnesses found.
        found: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The dichotomy analysis could not classify the set (conservative
    /// fallback — ARCHITECTURE.md's paper → crate map places Lemmas
    /// 5.6–5.8 in `ramsey` and `dichotomy`).
    Inconclusive,
}

impl fmt::Display for SymbolicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolicError::NotAPair => write!(f, "expected a pair abstract expression"),
            SymbolicError::NotASet => write!(f, "expected a set abstract expression"),
            SymbolicError::NotABool => write!(f, "expected a boolean abstract expression"),
            SymbolicError::NotANum => write!(f, "expected numeric components"),
            SymbolicError::Unsupported(what) => write!(f, "`{}` is outside NRA", what),
            SymbolicError::PowersetRejected => {
                write!(f, "powerset not allowed in pure Lemma 5.1 mode")
            }
            SymbolicError::ExponentialPowerset(cert) => write!(
                f,
                "powerset of a set with Ω(n) elements (certificate: {}) — complexity Ω(2^cn)",
                cert
            ),
            SymbolicError::TooManyWitnesses { found, cap } => {
                write!(f, "bounded set has {} witnesses, cap is {}", found, cap)
            }
            SymbolicError::Inconclusive => write!(f, "dichotomy analysis inconclusive"),
        }
    }
}

impl std::error::Error for SymbolicError {}

/// Normalise a set-typed abstract expression into its blocks, pushing any
/// top-level guards into the block guards.
pub fn to_blocks(a: &AExpr) -> Result<Vec<Block>, SymbolicError> {
    match a {
        AExpr::Set(blocks) => Ok(blocks.clone()),
        AExpr::Guarded(arms) => {
            let mut out = Vec::new();
            for (arm, cond) in arms {
                for block in to_blocks(arm)? {
                    let guard = block.guard.and(cond);
                    out.push(Block {
                        vars: block.vars,
                        guard,
                        body: block.body,
                    });
                }
            }
            Ok(out)
        }
        _ => Err(SymbolicError::NotASet),
    }
}

/// Explode an expression into guard-free shapes with path conditions,
/// pushing guards out of pair components. Sets are treated as atoms.
fn explode(a: &AExpr) -> Vec<(AExpr, Condition)> {
    match a {
        AExpr::Guarded(arms) => arms
            .iter()
            .flat_map(|(arm, c)| {
                explode(arm)
                    .into_iter()
                    .map(move |(shape, inner)| (shape, inner.and(c)))
            })
            .filter(|(_, c)| !c.is_false())
            .collect(),
        AExpr::Pair(x, y) => {
            let xs = explode(x);
            let ys = explode(y);
            let mut out = Vec::with_capacity(xs.len() * ys.len());
            for (sx, cx) in &xs {
                for (sy, cy) in &ys {
                    let c = cx.and(cy);
                    if !c.is_false() {
                        out.push((AExpr::pair(sx.clone(), sy.clone()), c));
                    }
                }
            }
            out
        }
        other => vec![(other.clone(), Condition::tru())],
    }
}

/// Reassemble exploded arms into a single expression, pushing conditions
/// into set blocks where possible.
fn merge_arms(arms: Vec<(AExpr, Condition)>) -> AExpr {
    let arms: Vec<(AExpr, Condition)> = arms.into_iter().filter(|(_, c)| !c.is_false()).collect();
    if arms.len() == 1 && arms[0].1.is_true() {
        return arms.into_iter().next().unwrap().0;
    }
    // all-set arms: a guarded set is the union of the guard-pushed blocks
    if !arms.is_empty() && arms.iter().all(|(a, _)| matches!(a, AExpr::Set(_))) {
        let mut blocks = Vec::new();
        for (a, c) in &arms {
            if let AExpr::Set(bs) = a {
                for b in bs {
                    blocks.push(Block {
                        vars: b.vars.clone(),
                        guard: b.guard.and(c),
                        body: b.body.clone(),
                    });
                }
            }
        }
        return AExpr::Set(blocks);
    }
    AExpr::Guarded(arms)
}

/// Attach a new block body, distributing guarded bodies into separate
/// blocks (an undefined element — all guards false — contributes nothing,
/// matching the skip semantics of `AExpr::eval`).
fn blocks_with_body(vars: Vec<crate::vars::VarId>, guard: Condition, body: AExpr) -> Vec<Block> {
    match body {
        AExpr::Guarded(arms) => arms
            .into_iter()
            .map(|(arm, c)| Block {
                vars: vars.clone(),
                guard: guard.and(&c),
                body: Box::new(arm),
            })
            .filter(|b| !b.guard.is_false())
            .collect(),
        other => vec![Block {
            vars,
            guard,
            body: Box::new(other),
        }],
    }
}

/// Lemma 5.1 (and, in dichotomy mode, Lemma 5.8): compute `A'` with
/// `f(A) ⇓ A'`, i.e. `∀n ∀ρ. f([A]ρ) ⇓ [A']ρ`.
///
/// ```
/// use nra_core::builder;
/// use nra_symbolic::{apply, chain_aexpr, Env, SymCtx, VarGen};
///
/// let mut gen = VarGen::new();
/// let chain = chain_aexpr(&mut gen);           // denotes rₙ for every n
/// let mut ctx = SymCtx::for_expr(&chain);
/// let image = apply(&builder::map(builder::snd()), &chain, &mut ctx).unwrap();
/// // [map(π₂)(A)] at n = 4 is {1, 2, 3, 4}
/// let v = image.eval(4, &Env::new()).unwrap();
/// assert_eq!(v.cardinality(), Some(4));
/// ```
pub fn apply(f: &Expr, a: &AExpr, ctx: &mut SymCtx) -> Result<AExpr, SymbolicError> {
    match f {
        Expr::Id => Ok(a.clone()),
        Expr::Bang => Ok(AExpr::Unit),
        Expr::Tuple(g, h) => Ok(AExpr::pair(apply(g, a, ctx)?, apply(h, a, ctx)?)),
        Expr::Fst => project(a, true),
        Expr::Snd => project(a, false),
        Expr::Sng => Ok(AExpr::singleton(a.clone())),
        Expr::Map(g) => {
            let blocks = to_blocks(a)?;
            let mut out = Vec::new();
            for b in blocks {
                let image = apply(g, &b.body, ctx)?;
                out.extend(blocks_with_body(b.vars, b.guard, image));
            }
            Ok(AExpr::Set(out))
        }
        Expr::Flatten => {
            let outer = to_blocks(a)?;
            let mut out = Vec::new();
            for ob in outer {
                // freshen the inner scope before merging binders
                let inner_expr = AExpr::Set(to_blocks(&ob.body)?).freshen(&mut ctx.gen);
                let inner = to_blocks(&inner_expr)?;
                for ib in inner {
                    let mut vars = ob.vars.clone();
                    vars.extend(ib.vars);
                    out.push(Block {
                        vars,
                        guard: ob.guard.and(&ib.guard),
                        body: ib.body,
                    });
                }
            }
            Ok(AExpr::Set(out))
        }
        Expr::PairWith => {
            let mut arms = Vec::new();
            for (shape, cond) in explode(a) {
                let AExpr::Pair(x, s) = shape else {
                    return Err(SymbolicError::NotAPair);
                };
                let blocks = to_blocks(&AExpr::Set(to_blocks(&s)?).freshen(&mut ctx.gen))?;
                let mut paired = Vec::new();
                for b in blocks {
                    paired.extend(blocks_with_body(
                        b.vars,
                        b.guard,
                        AExpr::pair((*x).clone(), (*b.body).clone()),
                    ));
                }
                arms.push((AExpr::Set(paired), cond));
            }
            Ok(merge_arms(arms))
        }
        Expr::EmptySet(_) => Ok(AExpr::empty_set()),
        Expr::Union => {
            let mut arms = Vec::new();
            for (shape, cond) in explode(a) {
                let AExpr::Pair(s1, s2) = shape else {
                    return Err(SymbolicError::NotAPair);
                };
                let mut blocks = to_blocks(&s1)?;
                blocks.extend(to_blocks(&s2)?);
                arms.push((AExpr::Set(blocks), cond));
            }
            Ok(merge_arms(arms))
        }
        Expr::EqNat => {
            // the case that "forces us to introduce guarded expressions"
            let mut arms = Vec::new();
            for (shape, cond) in explode(a) {
                let AExpr::Pair(x, y) = shape else {
                    return Err(SymbolicError::NotAPair);
                };
                let (AExpr::Num(e1), AExpr::Num(e2)) = (&*x, &*y) else {
                    return Err(SymbolicError::NotANum);
                };
                let eq = cond.and(&Condition::eq(*e1, *e2));
                let ne = cond.and(&Condition::neq(*e1, *e2));
                if !eq.is_false() {
                    arms.push((AExpr::Bool(true), eq));
                }
                if !ne.is_false() {
                    arms.push((AExpr::Bool(false), ne));
                }
            }
            Ok(merge_arms(arms))
        }
        Expr::IsEmpty => {
            let blocks = to_blocks(a)?;
            let mut nonempty = Condition::fls();
            for b in &blocks {
                // ∃x⃗. guard ∧ def(body) — quantifier elimination (§5.2)
                let defined = b.guard.and(&b.body.definedness());
                nonempty = nonempty.or(&defined.exists_elim(&b.vars));
            }
            let empty = nonempty.not();
            Ok(merge_arms(vec![
                (AExpr::Bool(false), nonempty),
                (AExpr::Bool(true), empty),
            ]))
        }
        Expr::ConstTrue => Ok(AExpr::Bool(true)),
        Expr::ConstFalse => Ok(AExpr::Bool(false)),
        Expr::Cond(c, then, els) => {
            let b = apply(c, a, ctx)?;
            let mut c_true = Condition::fls();
            let mut c_false = Condition::fls();
            for (shape, cond) in explode(&b) {
                match shape {
                    AExpr::Bool(true) => c_true = c_true.or(&cond),
                    AExpr::Bool(false) => c_false = c_false.or(&cond),
                    _ => return Err(SymbolicError::NotABool),
                }
            }
            if c_true.is_true() {
                return apply(then, a, ctx);
            }
            if c_false.is_true() {
                return apply(els, a, ctx);
            }
            let mut arms = Vec::new();
            if !c_true.is_false() {
                arms.push((apply(then, a, ctx)?, c_true));
            }
            if !c_false.is_false() {
                arms.push((apply(els, a, ctx)?, c_false));
            }
            Ok(merge_arms(arms))
        }
        Expr::Compose(g, h) => {
            let mid = apply(h, a, ctx)?;
            apply(g, &mid, ctx)
        }
        Expr::Powerset => apply_powerset_in(a, None, ctx),
        Expr::PowersetM(m) => apply_powerset_in(a, Some(*m), ctx),
        Expr::While(_) => Err(SymbolicError::Unsupported("while")),
        Expr::Const(_, _) => Err(SymbolicError::Unsupported("const")),
    }
}

fn apply_powerset_in(
    a: &AExpr,
    approximation: Option<u64>,
    ctx: &mut SymCtx,
) -> Result<AExpr, SymbolicError> {
    let PowersetMode::Dichotomy { max_witnesses } = ctx.mode else {
        return Err(SymbolicError::PowersetRejected);
    };
    match dichotomy::analyze_cardinality(a)? {
        dichotomy::SetCardinality::LinearlyMany(cert) => {
            Err(SymbolicError::ExponentialPowerset(cert))
        }
        dichotomy::SetCardinality::Bounded { witnesses } => {
            ctx.observed_bounds.push(witnesses.len());
            dichotomy::powerset_of_witnesses(&witnesses, approximation, max_witnesses)
        }
    }
}

/// One pointwise instance of the Lemma 5.1 conclusion, checked on the
/// interned hot path: does `f([A]ρ) ⇓ [A']ρ` hold at this `n` and `ρ`?
///
/// Both denotations are built as hash-consed handles
/// ([`AExpr::eval_interned`]) in the arena of a one-shot
/// [`nra_eval::EvalSession`], the concrete evaluation runs end-to-end on
/// handles ([`nra_eval::EvalSession::eval_vid`]), and the final
/// comparison is an `O(1)` handle equality. Returns `None` when either
/// denotation is undefined at `(n, ρ)` or the concrete evaluation fails.
///
/// ```
/// use nra_core::builder;
/// use nra_symbolic::{apply, chain_aexpr, lemma_holds_at, Env, SymCtx, VarGen};
///
/// let mut gen = VarGen::new();
/// let chain = chain_aexpr(&mut gen);
/// let f = builder::map(builder::snd());
/// let mut ctx = SymCtx::for_expr(&chain);
/// let image = apply(&f, &chain, &mut ctx).unwrap();
/// for n in 1..8 {
///     assert_eq!(lemma_holds_at(&f, &chain, &image, n, &Env::new()), Some(true));
/// }
/// ```
pub fn lemma_holds_at(
    f: &Expr,
    a: &AExpr,
    a2: &AExpr,
    n: u64,
    env: &crate::vars::Env,
) -> Option<bool> {
    let mut session = nra_eval::EvalSession::new(nra_eval::EvalConfig::default());
    let input = a.eval_interned(n, env, session.values_mut())?;
    let f = session.intern_expr(f);
    let concrete = session.eval_vid(f, input).result.ok()?;
    let symbolic = a2.eval_interned(n, env, session.values_mut())?;
    Some(concrete == symbolic)
}

/// Proposition 4.2, constructively: symbolically evaluate `f` on the input
/// family `a`; if every `powerset` application along the way is *bounded*
/// (Lemma 5.8 case 1), return the order `m*` — the largest witness count —
/// for which `f` is equivalent to its approximation `f_{m*}` on every
/// input `[a]ρ`. An `Ω(n)` application yields the exponential certificate
/// instead.
pub fn approximation_order(
    f: &Expr,
    a: &AExpr,
    max_witnesses: usize,
) -> Result<u64, SymbolicError> {
    let mut ctx = SymCtx::with_dichotomy(a, max_witnesses);
    apply(f, a, &mut ctx)?;
    Ok(ctx.observed_bounds.iter().copied().max().unwrap_or(0) as u64)
}

/// The paper's closing conjecture, on the fragment this library can decide:
/// when [`approximation_order`] succeeds, `f` is equivalent (on the inputs
/// denoted by `a`) to the plain-`NRA` term `f.approximate(m*)` — powerset
/// eliminated.
pub fn eliminate_powerset(
    f: &Expr,
    a: &AExpr,
    max_witnesses: usize,
) -> Result<Expr, SymbolicError> {
    let order = approximation_order(f, a, max_witnesses)?;
    Ok(f.approximate(order))
}

fn project(a: &AExpr, first: bool) -> Result<AExpr, SymbolicError> {
    let arms = explode(a)
        .into_iter()
        .map(|(shape, cond)| match shape {
            AExpr::Pair(x, y) => Ok(((if first { *x } else { *y }), cond)),
            _ => Err(SymbolicError::NotAPair),
        })
        .collect::<Result<Vec<_>, _>>()?;
    if arms.is_empty() {
        return Err(SymbolicError::NotAPair);
    }
    Ok(merge_arms(arms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aexpr::{chain_aexpr, grid_aexpr};
    use crate::vars::{Env, VarGen};
    use nra_core::builder as b;
    use nra_core::value::Value;
    use nra_eval::eval as eval_concrete;

    /// The Lemma 5.1 statement, checked pointwise: for every n (in range)
    /// and every ρ (here: closed expressions), `f([A]ρ) ⇓ [A']ρ` — on the
    /// interned hot path ([`lemma_holds_at`]), cross-checked against the
    /// tree denotations at the first n.
    fn check_lemma(f: &nra_core::Expr, a: &AExpr, ns: std::ops::Range<u64>) {
        let mut ctx = SymCtx::for_expr(a);
        let a2 =
            apply(f, a, &mut ctx).unwrap_or_else(|e| panic!("symbolic evaluation failed: {e}"));
        let first = ns.start;
        for n in ns {
            assert_eq!(
                lemma_holds_at(f, a, &a2, n, &Env::new()),
                Some(true),
                "n={n}, f={f}, A'={a2}"
            );
        }
        // tree-path referee: the interned verdict is about the same objects
        let input = a.eval(first, &Env::new()).expect("input defined");
        let concrete = eval_concrete(f, &input).expect("concrete evaluation");
        let symbolic = a2.eval(first, &Env::new()).expect("symbolic denotation");
        assert_eq!(concrete, symbolic, "n={first}, f={f}, A'={a2}");
    }

    #[test]
    fn identity_and_projections() {
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        check_lemma(&b::id(), &a, 1..6);
        check_lemma(&b::map(b::fst()), &a, 1..6);
        check_lemma(&b::map(b::snd()), &a, 1..6);
        check_lemma(&b::map(b::swap()), &a, 1..6);
    }

    #[test]
    fn sng_flatten_roundtrip() {
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        // μ ∘ map(η) = id
        check_lemma(&b::compose(b::flatten(), b::map(b::sng())), &a, 1..6);
    }

    #[test]
    fn eq_produces_guards() {
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        // map(eq) : {N×N} → {B}; on the chain all pairs are (i, i+1) → false
        check_lemma(&b::map(b::eq_nat()), &a, 1..6);
    }

    #[test]
    fn isempty_via_quantifier_elimination() {
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        check_lemma(&b::is_empty(), &a, 1..6);
        // and on the empty set
        let empty = AExpr::empty_set();
        let mut ctx = SymCtx::for_expr(&empty);
        let out = apply(&b::is_empty(), &empty, &mut ctx).unwrap();
        assert_eq!(out.eval(3, &Env::new()), Some(Value::TRUE));
    }

    #[test]
    fn derived_select_cartprod_and_friends() {
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        let e = nra_core::Type::prod(nra_core::Type::Nat, nra_core::Type::Nat);
        // select(π₁ = π₂)(chain) = ∅; select(π₁ ≠ π₂) = chain
        check_lemma(&nra_core::derived::select(b::eq_nat(), e.clone()), &a, 1..5);
        // cartesian product chain × chain via ⟨id,id⟩
        check_lemma(&nra_core::derived::self_product(), &a, 1..4);
        // node set
        check_lemma(&nra_core::derived::rel_nodes(), &a, 1..5);
    }

    #[test]
    fn one_tc_round_symbolically() {
        // the inflationary step r ∪ r∘r on the chain, fully symbolic:
        // exercises cartprod, select over a product, map over pairs, union
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        check_lemma(&nra_core::queries::tc_step(), &a, 1..4);
    }

    #[test]
    fn grid_expressions_evaluate() {
        let mut gen = VarGen::new();
        let g = grid_aexpr(&mut gen);
        check_lemma(&b::map(b::snd()), &g, 1..4);
        check_lemma(&b::is_empty(), &g, 1..4);
    }

    #[test]
    fn member_and_subset_symbolically() {
        // pair the chain with itself and test r ⊆ r — true for all n
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        let paired = AExpr::pair(a.clone(), a.clone());
        let e = nra_core::Type::prod(nra_core::Type::Nat, nra_core::Type::Nat);
        let mut ctx = SymCtx::for_expr(&paired);
        let out = apply(&nra_core::derived::subset(&e), &paired, &mut ctx).unwrap();
        for n in 1..5 {
            assert_eq!(out.eval(n, &Env::new()), Some(Value::TRUE), "n={n}");
        }
    }

    #[test]
    fn powerset_rejected_in_pure_mode() {
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        let mut ctx = SymCtx::for_expr(&a);
        assert_eq!(
            apply(&b::powerset(), &a, &mut ctx),
            Err(SymbolicError::PowersetRejected)
        );
    }

    #[test]
    fn while_is_outside_nra() {
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        let mut ctx = SymCtx::for_expr(&a);
        assert!(matches!(
            apply(&nra_core::queries::tc_while(), &a, &mut ctx),
            Err(SymbolicError::Unsupported("while"))
        ));
    }

    #[test]
    fn approximation_order_on_bounded_powerset_queries() {
        // f = μ ∘ powerset ∘ sources: the powerset argument is
        // sources(rₙ) = {0} — bounded, so Prop 4.2's constructive side
        // applies and f ≡ f₁ with powerset eliminated.
        let f = b::pipeline([nra_core::queries::sources(), b::powerset(), b::flatten()]);
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        let order = approximation_order(&f, &a, 8).unwrap();
        assert!(order >= 1, "at least the witness {{0}}");
        let g = eliminate_powerset(&f, &a, 8).unwrap();
        assert!(g.level().is_nra(), "powerset eliminated: {}", g.level());
        for n in 1..7u64 {
            let input = Value::chain(n);
            assert_eq!(
                eval_concrete(&f, &input).unwrap(),
                eval_concrete(&g, &input).unwrap(),
                "n={n}"
            );
        }
    }

    #[test]
    fn approximation_order_rejects_tc() {
        let mut gen = VarGen::new();
        let a = chain_aexpr(&mut gen);
        let err = approximation_order(&nra_core::queries::tc_paths(), &a, 8).unwrap_err();
        assert!(
            matches!(err, SymbolicError::ExponentialPowerset(_)),
            "{err}"
        );
    }

    #[test]
    fn open_expressions_respect_environments() {
        // A(y) = {(y, x) when x ≠ y | x = 0,n}; f = map(swap) — check at
        // several environments
        let mut gen = VarGen::new();
        let y = gen.fresh();
        let x = gen.fresh();
        let a = AExpr::guarded_comprehension(
            vec![x],
            Condition::neq(
                crate::simple::SimpleExpr::var(x),
                crate::simple::SimpleExpr::var(y),
            ),
            AExpr::pair(AExpr::var(y), AExpr::var(x)),
        );
        let mut ctx = SymCtx::for_expr(&a);
        let out = apply(&b::map(b::swap()), &a, &mut ctx).unwrap();
        for n in 2..6u64 {
            for yv in 0..=n {
                let env: Env = [(y, yv)].into_iter().collect();
                let input = a.eval(n, &env).unwrap();
                let expect = eval_concrete(&b::map(b::swap()), &input).unwrap();
                assert_eq!(out.eval(n, &env), Some(expect), "n={n} y={yv}");
            }
        }
    }
}
