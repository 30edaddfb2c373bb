//! Ruler-style rule synthesis: enumerate, fingerprint, verify, admit.
//!
//! The workflow is the enumo loop from `ruler`, specialised to NRA
//! combinators over the relation domain `{nat * nat}`:
//!
//! 1. **Enumerate** every combinator term up to [`SynthConfig::max_size`]
//!    AST nodes (loop-free: `while` is excluded, so every candidate
//!    terminates and the admitted rules are trivially loop-preserving),
//!    keeping only terms that type-check against the relation domain.
//! 2. **Fingerprint** each term on a fixed battery of seeded inputs —
//!    hand-picked edge cases plus [`nra_testkit`]-seeded random relations
//!    — under a budgeted evaluator; the fingerprint is the vector of
//!    `Ok` results (`None` where evaluation failed).
//! 3. **Conjecture**: terms sharing a fingerprint are conjectured equal;
//!    each bucket pairs every term with its smallest member.
//! 4. **Verify** each conjecture with the differential oracle on inputs
//!    the fingerprints never saw — all 7 [`nra_testkit::graphs`]
//!    families across several seeds and every evaluator configuration.
//!    The check is one-sided, matching the optimiser's contract: whenever
//!    the *left* (rewritten-away) term succeeds, the right term must
//!    produce the identical value.
//! 5. **Admit** survivors as ground [`RuleKind::Synthesised`] rules,
//!    subject to the same [`validate_rule`] gate as hand-written ones.
//!
//! `examples/synthesise.rs` (facade crate) runs this and prints the
//! `RULES.json` document; the shipped file's `synthesised` section is its
//! output, and CI re-verifies every shipped rule against the same oracle
//! (`tests/rules.rs`), so a drive-by edit of `RULES.json` cannot smuggle
//! in an unverified equivalence.
//!
//! Caveat, documented deliberately: fingerprints are taken at *one*
//! domain (`{nat * nat}`), so the harness can only conjecture laws
//! observable there. That is the same trade `ruler` makes; the oracle
//! pass and the load-time validator are what keep it sound.

use crate::pattern::{Guard, Pat};
use crate::rules::{validate_rule, Rule, RuleKind, RuleSet};
use nra_core::{builder, output_type, Expr, ExprArena, Type, Value};
use nra_eval::{evaluate, EvalConfig};
use nra_testkit::{graphs, Rng};

/// Synthesis parameters.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Maximum AST size ([`Expr::size`]) of enumerated terms.
    pub max_size: usize,
    /// Seed for the random fingerprint inputs.
    pub seed: u64,
    /// How many random relations join the hand-picked fingerprint inputs.
    pub random_inputs: usize,
    /// How many seeds of the 7-family graph battery the oracle replays.
    pub oracle_rounds: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            max_size: 5,
            seed: 0x5EED_CAFE,
            random_inputs: 4,
            oracle_rounds: 3,
        }
    }
}

/// The atoms the enumerator composes. `while` is deliberately absent —
/// see the [module docs](self); `powerset` is present so rules that
/// *remove* one (`flatten ∘ powerset = id`) can be discovered.
fn atoms() -> Vec<Expr> {
    vec![
        builder::id(),
        builder::bang(),
        builder::fst(),
        builder::snd(),
        builder::sng(),
        builder::flatten(),
        builder::union(),
        builder::powerset(),
        builder::is_empty(),
    ]
}

/// Enumerate all terms of exactly `size` AST nodes, smallest first.
/// `by_size[s]` caches the terms of size `s` (`by_size[0]` unused).
fn terms_of_size(size: usize, by_size: &mut Vec<Vec<Expr>>) {
    while by_size.len() <= size {
        let s = by_size.len();
        let mut out = Vec::new();
        if s == 1 {
            out.extend(atoms());
        } else if s >= 2 {
            for f in &by_size[s - 1] {
                out.push(builder::map(f.clone()));
            }
            for left in 1..(s - 1) {
                let right = s - 1 - left;
                for g in by_size[left].clone() {
                    for f in &by_size[right] {
                        out.push(builder::compose(g.clone(), f.clone()));
                        out.push(builder::tuple(g.clone(), f.clone()));
                    }
                }
            }
        }
        by_size.push(out);
    }
}

/// The fingerprint input battery: edge cases plus seeded random
/// relations. All are values of type `{nat * nat}`.
fn fingerprint_inputs(cfg: &SynthConfig) -> Vec<Value> {
    let mut inputs = vec![
        Value::relation([]),
        Value::relation([(0, 1)]),
        Value::relation([(0, 0)]),
        Value::relation([(0, 1), (1, 0)]),
        Value::chain(3),
        Value::relation([(0, 1), (0, 2), (1, 2)]),
    ];
    let mut rng = Rng::new(cfg.seed);
    for _ in 0..cfg.random_inputs {
        let n = 2 + rng.below(3);
        let mut edges = Vec::new();
        for _ in 0..(1 + rng.below(4)) {
            edges.push((rng.below(n), rng.below(n)));
        }
        inputs.push(Value::relation(edges));
    }
    inputs
}

/// The budgeted config fingerprinting runs under: large enough for every
/// law-abiding small term, small enough that `powerset` towers fail fast
/// instead of materialising.
fn fingerprint_config() -> EvalConfig {
    EvalConfig {
        max_nodes: Some(200_000),
        ..EvalConfig::with_space_budget(1 << 12)
    }
}

/// Evaluate `e` on every fingerprint input; `None` where it fails.
fn fingerprint(e: &Expr, inputs: &[Value], config: &EvalConfig) -> Vec<Option<Value>> {
    inputs
        .iter()
        .map(|input| evaluate(e, input, config).result.ok())
        .collect()
}

/// Strip every metavariable guard. Shrink-step only: a guard can keep a
/// seed from firing on (say) a powerset-carrying binding, and the
/// congruence instance the seed would have discharged then gets
/// re-admitted as a fresh ground rule. Relaxing guards while shrinking
/// can only make the harness *skip* candidates (under-admit) — admission
/// soundness still rests entirely on the oracle.
fn relax(p: &Pat) -> Pat {
    match p {
        Pat::Var(i, _) => Pat::Var(*i, Guard::Any),
        Pat::Ground(e) => Pat::Ground(e.clone()),
        Pat::Tuple(a, b) => Pat::Tuple(Box::new(relax(a)), Box::new(relax(b))),
        Pat::Map(f) => Pat::Map(Box::new(relax(f))),
        Pat::Cond(c, t, e) => Pat::Cond(Box::new(relax(c)), Box::new(relax(t)), Box::new(relax(e))),
        Pat::Compose(g, f) => Pat::Compose(Box::new(relax(g)), Box::new(relax(f))),
        Pat::While(f) => Pat::While(Box::new(relax(f))),
    }
}

/// The guard-relaxed shrink rule set for the current `known` list.
fn shrink_rules(known: &[Rule]) -> RuleSet {
    RuleSet::from_rules_unchecked(
        known
            .iter()
            .map(|r| Rule {
                name: r.name.clone(),
                kind: r.kind,
                lhs: relax(&r.lhs),
                rhs: relax(&r.rhs),
            })
            .collect(),
    )
}

/// One-sided differential check on one input: whenever `lhs` succeeds,
/// `rhs` must produce the identical value (under every config mix).
fn agrees_on(lhs: &Expr, rhs: &Expr, input: &Value) -> bool {
    let configs = [
        EvalConfig::with_space_budget(1 << 16),
        EvalConfig {
            max_object_size: Some(1 << 16),
            ..EvalConfig::optimised()
        },
    ];
    for config in &configs {
        let l = evaluate(lhs, input, config).result;
        if let Ok(expected) = l {
            match evaluate(rhs, input, config).result {
                Ok(got) if got == expected => {}
                _ => return false,
            }
        }
    }
    true
}

/// The oracle: replay the conjecture over every graph family for
/// several seeds, plus the fingerprint battery itself.
fn oracle_verifies(lhs: &Expr, rhs: &Expr, cfg: &SynthConfig) -> bool {
    for input in fingerprint_inputs(cfg) {
        if !agrees_on(lhs, rhs, &input) {
            return false;
        }
    }
    for round in 0..cfg.oracle_rounds {
        let mut rng = Rng::new(cfg.seed ^ (0xA11CE << 8) ^ round);
        for g in graphs::family_graphs(&mut rng) {
            let input = Value::relation(g.edges.iter().copied());
            if !agrees_on(lhs, rhs, &input) {
                return false;
            }
        }
    }
    true
}

/// Run the full enumerate → fingerprint → verify → admit loop.
pub fn synthesise(cfg: &SynthConfig) -> Vec<Rule> {
    let dom = Type::set(Type::nat_rel());
    let inputs = fingerprint_inputs(cfg);
    let fp_config = fingerprint_config();

    let mut by_size: Vec<Vec<Expr>> = vec![Vec::new()];
    terms_of_size(cfg.max_size, &mut by_size);

    // bucket by fingerprint; enumeration order is smallest-first, so the
    // first member of a bucket is its canonical (smallest) form
    let mut buckets: Vec<(Vec<Option<Value>>, Vec<Expr>)> = Vec::new();
    for bucket in by_size.iter().take(cfg.max_size + 1).skip(1) {
        for e in bucket {
            if output_type(e, &dom).is_err() {
                continue;
            }
            let fp = fingerprint(e, &inputs, &fp_config);
            // Demand evidence on a *majority* of the battery. A term
            // that only succeeds on degenerate inputs (e.g. `map(powerset)`
            // succeeds solely on the empty relation) would otherwise be
            // conjectured equal to anything sharing that sliver of
            // behaviour — vacuously "verified", semantically garbage.
            if fp.iter().filter(|v| v.is_some()).count() * 2 < inputs.len() {
                continue;
            }
            match buckets.iter_mut().find(|(key, _)| *key == fp) {
                Some((_, members)) => members.push(e.clone()),
                None => buckets.push((fp, vec![e.clone()])),
            }
        }
    }

    // ruler's shrink step: a candidate the *current* rule set (the
    // hand-written seeds plus everything admitted so far) already
    // rewrites is derivable — admitting it would only bloat RULES.json
    // with congruence instances of known rules
    let seeds: Vec<Rule> = RuleSet::from_json(crate::rules::EMBEDDED_RULES)
        .map(|rs| {
            rs.rules()
                .iter()
                .filter(|r| r.kind == RuleKind::Seed)
                .cloned()
                .collect()
        })
        .unwrap_or_default();
    let mut known = seeds;
    let mut ruleset = shrink_rules(&known);

    let mut rules = Vec::new();
    for (_, members) in &buckets {
        let canonical = &members[0];
        for candidate in &members[1..] {
            if candidate.size() <= canonical.size() {
                continue; // only shrink
            }
            let mut ea = ExprArena::new();
            let root = ea.intern(candidate);
            if crate::rewrite::rewrite(&mut ea, root, &ruleset).0 != root {
                continue; // already derivable — see above
            }
            if !oracle_verifies(candidate, canonical, cfg) {
                continue;
            }
            let rule = Rule {
                name: format!("synth-{:04}", rules.len()),
                kind: RuleKind::Synthesised,
                lhs: crate::pattern::Pat::Ground(candidate.clone()),
                rhs: crate::pattern::Pat::Ground(canonical.clone()),
            };
            if validate_rule(&rule).is_ok() {
                known.push(rule.clone());
                ruleset = shrink_rules(&known);
                rules.push(rule);
            }
        }
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full loop at a reduced size, so it stays test-suite fast; the
    /// shipped `RULES.json` was produced by `examples/synthesise.rs` at
    /// the default size.
    #[test]
    fn small_synthesis_finds_the_flatten_laws() {
        let cfg = SynthConfig {
            max_size: 3,
            ..SynthConfig::default()
        };
        let rules = synthesise(&cfg);
        assert!(!rules.is_empty(), "size-3 synthesis found nothing");
        let descriptions: Vec<String> = rules
            .iter()
            .map(|r| format!("{} => {}", r.lhs, r.rhs))
            .collect();
        assert!(
            descriptions
                .iter()
                .any(|d| d == "compose(flatten, sng) => id"),
            "missing flatten∘sng law in {descriptions:?}"
        );
        assert!(
            descriptions
                .iter()
                .any(|d| d == "compose(flatten, powerset) => id"),
            "missing flatten∘powerset law in {descriptions:?}"
        );
    }

    #[test]
    fn enumeration_is_smallest_first_and_typed_filtering_works() {
        let mut by_size = vec![Vec::new()];
        terms_of_size(3, &mut by_size);
        assert_eq!(by_size[1].len(), atoms().len());
        assert!(!by_size[2].is_empty());
        let dom = Type::set(Type::nat_rel());
        // `fst` alone does not type against a set domain
        assert!(output_type(&builder::fst(), &dom).is_err());
        assert!(output_type(&builder::id(), &dom).is_ok());
    }
}
