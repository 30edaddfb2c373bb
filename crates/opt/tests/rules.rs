//! Re-verification of the shipped `RULES.json` against the
//! differential oracle — the gate that makes the rule file *data* the
//! repository can still trust: a drive-by edit cannot smuggle in an
//! unverified equivalence, because CI replays every rule here.
//!
//! Every data-borne rule is instantiated with **guard-respecting**
//! substitutions (`:nra` variables get `powerset`/`while`-free terms,
//! `:empty` variables get typed empty-set constants, unguarded ones
//! additionally get a `while`-carrying term so loop preservation is
//! exercised, not just asserted), type-checked, and replayed one-sided:
//! whenever the left-hand (rewritten-away) instance evaluates
//! successfully, the right-hand instance must produce the identical
//! value — and, since no shipped rule is a rescue, the identical
//! `while_iterations` — under interpreted and memo+semi-naive
//! configurations alike.

use nra_core::{builder, output_type, queries, Expr, Type, Value};
use nra_eval::{evaluate, EvalConfig};
use nra_opt::{Guard, Pat, Rule, RuleKind, RuleSet, VarUse, EMBEDDED_RULES, MAX_VARS};
use nra_testkit::{graphs, Rng};

/// Build the concrete expression a pattern denotes under `subst`.
fn instantiate(p: &Pat, subst: &[Expr; MAX_VARS]) -> Expr {
    match p {
        Pat::Var(i, _) => subst[*i as usize].clone(),
        Pat::Ground(e) => e.clone(),
        Pat::Tuple(a, b) => builder::tuple(instantiate(a, subst), instantiate(b, subst)),
        Pat::Map(f) => builder::map(instantiate(f, subst)),
        Pat::Cond(c, t, e) => builder::cond(
            instantiate(c, subst),
            instantiate(t, subst),
            instantiate(e, subst),
        ),
        Pat::Compose(g, f) => builder::compose(instantiate(g, subst), instantiate(f, subst)),
        Pat::While(f) => builder::while_fix(instantiate(f, subst)),
    }
}

/// Candidate substitutions honouring a guard. The `Any` pool extends
/// the `nra` pool with a literal `while` loop, so unguarded variables
/// exercise the loop-preservation side of the contract.
fn pool(guard: Guard) -> Vec<Expr> {
    let nra = vec![
        builder::id(),
        builder::sng(),
        builder::map(builder::sng()),
        builder::compose(
            builder::union(),
            builder::tuple(builder::id(), builder::id()),
        ),
        builder::is_empty(),
        builder::eq_nat(),
        builder::fst(),
    ];
    match guard {
        Guard::Nra => nra,
        Guard::Any => {
            let mut any = nra;
            any.push(queries::tc_while());
            any
        }
        Guard::Empty => vec![
            builder::compose(builder::empty_set(Type::nat_rel()), builder::bang()),
            builder::compose(
                builder::empty_set(Type::set(Type::nat_rel())),
                builder::bang(),
            ),
        ],
    }
}

/// Inputs for a rule instance whose domain is `dom`.
fn inputs_for(dom: &Type) -> Vec<Value> {
    if *dom == Type::nat_rel() {
        return vec![
            Value::pair(Value::nat(0), Value::nat(1)),
            Value::pair(Value::nat(2), Value::nat(2)),
        ];
    }
    if *dom == Type::set(Type::set(Type::nat_rel())) {
        return vec![
            Value::empty_set(),
            Value::set([Value::relation([(0, 1)]), Value::chain(3)]),
            Value::set([Value::empty_set(), Value::relation([(1, 1), (0, 2)])]),
        ];
    }
    let mut inputs = vec![
        Value::relation([]),
        Value::relation([(0, 1)]),
        Value::relation([(0, 0), (0, 1), (1, 2)]),
        Value::chain(4),
    ];
    let mut rng = Rng::new(0x5EED_0001);
    for g in graphs::family_graphs(&mut rng) {
        inputs.push(Value::relation(g.edges.iter().copied()));
    }
    inputs
}

/// One-sided differential on one instance: whenever the left succeeds,
/// the right must produce the identical value and (no shipped rule is a
/// rescue) the identical `while_iterations`, under every config mix.
fn oracle_ok(rule: &str, lhs: &Expr, rhs: &Expr, dom: &Type) {
    let configs = [
        EvalConfig::with_space_budget(1 << 16),
        EvalConfig {
            max_object_size: Some(1 << 16),
            ..EvalConfig::optimised()
        },
    ];
    for input in inputs_for(dom) {
        for config in &configs {
            let l = evaluate(lhs, &input, config);
            if let Ok(expected) = l.result {
                let r = evaluate(rhs, &input, config);
                let got = r.result.unwrap_or_else(|e| {
                    panic!("{rule}: rhs failed where lhs succeeded on {input}: {e}")
                });
                assert_eq!(got, expected, "{rule}: disagreement on {input}");
                assert_eq!(
                    l.stats.while_iterations, r.stats.while_iterations,
                    "{rule}: while_iterations drifted on {input}"
                );
            }
        }
    }
}

/// All guard-respecting substitution assignments over the variables the
/// rule actually uses, capped per rule so the suite stays fast.
fn assignments(uses: &[VarUse; MAX_VARS]) -> Vec<[Expr; MAX_VARS]> {
    let vars: Vec<(usize, Guard)> = (0..MAX_VARS)
        .filter(|&i| uses[i].count > 0)
        .map(|i| (i, uses[i].guard.unwrap_or(Guard::Any)))
        .collect();
    let mut out: Vec<[Expr; MAX_VARS]> = vec![std::array::from_fn(|_| builder::id())];
    for (i, guard) in vars {
        let mut next = Vec::new();
        for base in &out {
            for candidate in pool(guard) {
                let mut subst = base.clone();
                subst[i] = candidate;
                next.push(subst);
            }
        }
        out = next;
    }
    out
}

#[test]
fn every_shipped_rule_survives_the_differential_oracle() {
    let shipped = RuleSet::from_json(EMBEDDED_RULES).expect("RULES.json validates");
    let domains = [
        Type::set(Type::nat_rel()),
        Type::nat_rel(),
        Type::set(Type::set(Type::nat_rel())),
    ];
    for rule in shipped.rules() {
        assert_ne!(rule.kind, RuleKind::Rescue, "rescues are code, not data");
        let mut uses = [VarUse::default(); MAX_VARS];
        rule.lhs.collect_vars(&mut uses);
        let mut verified = 0usize;
        for subst in assignments(&uses) {
            let lhs = instantiate(&rule.lhs, &subst);
            let rhs = instantiate(&rule.rhs, &subst);
            for dom in &domains {
                // both sides must type at the same output type for the
                // instance to be a meaningful equivalence claim
                let (Ok(lt), Ok(rt)) = (output_type(&lhs, dom), output_type(&rhs, dom)) else {
                    continue;
                };
                assert_eq!(lt, rt, "{}: instance types diverge at {dom}", rule.name);
                oracle_ok(&rule.name, &lhs, &rhs, dom);
                verified += 1;
            }
            if verified >= 6 {
                break; // enough independent instances for this rule
            }
        }
        assert!(
            verified > 0,
            "{}: no guard-respecting instantiation type-checked — the rule is dead \
             or the test pools are too poor",
            rule.name
        );
    }
}

/// The code-built rescues are verified too — against the paper's own
/// query pairs, where `while_iterations` is *expected* to change (the
/// whole point is replacing a powerset tower with a loop).
#[test]
fn rescue_rules_agree_on_results_across_families() {
    let pairs = [
        (queries::tc_paths(), queries::tc_while()),
        (queries::siblings_powerset(), queries::siblings_direct()),
    ];
    let config = EvalConfig::with_space_budget(1 << 16);
    let mut rng = Rng::new(0x5EED_0002);
    for g in graphs::family_graphs(&mut rng) {
        let input = Value::relation(g.edges.iter().copied());
        for (lhs, rhs) in &pairs {
            if let Ok(expected) = evaluate(lhs, &input, &config).result {
                assert_eq!(
                    evaluate(rhs, &input, &config).result.expect("while route"),
                    expected,
                    "{lhs} vs {rhs} on {input}"
                );
            }
        }
    }
}

/// Corruption fuzz over every shipped entry: each mutation must be
/// rejected by [`RuleSet::from_json`] — the loader, not the optimiser,
/// is the trust boundary for data-borne rules.
#[test]
fn every_corrupted_rule_entry_is_rejected_at_load() {
    let shipped = RuleSet::from_json(EMBEDDED_RULES).expect("RULES.json validates");
    let rules: Vec<Rule> = shipped.rules().to_vec();
    type Corruption = (&'static str, Box<dyn Fn(&Rule) -> Rule>);
    let corruptions: Vec<Corruption> = vec![
        (
            "unbound rhs variable",
            Box::new(|r: &Rule| Rule {
                rhs: Pat::parse("?7").unwrap(),
                ..r.clone()
            }),
        ),
        (
            "bare-variable lhs",
            Box::new(|r: &Rule| Rule {
                lhs: Pat::parse("?0").unwrap(),
                rhs: Pat::parse("id").unwrap(),
                ..r.clone()
            }),
        ),
        (
            "rhs introduces a while",
            Box::new(|r: &Rule| Rule {
                rhs: Pat::While(Box::new(r.lhs.clone())),
                ..r.clone()
            }),
        ),
        (
            "rhs introduces a powerset",
            Box::new(|r: &Rule| Rule {
                rhs: Pat::Compose(
                    Box::new(Pat::Ground(builder::powerset())),
                    Box::new(r.lhs.clone()),
                ),
                ..r.clone()
            }),
        ),
        (
            "identical sides",
            Box::new(|r: &Rule| Rule {
                rhs: r.lhs.clone(),
                ..r.clone()
            }),
        ),
    ];
    for i in 0..rules.len() {
        for (what, corrupt) in &corruptions {
            let mut mutated = rules.clone();
            mutated[i] = corrupt(&rules[i]);
            if mutated[i].rhs.literal_level().0 && mutated[i].lhs.literal_level().0 {
                // a powerset-carrying lhs legitimises a powerset rhs;
                // this mutation is not a corruption for such a rule
                continue;
            }
            let text = nra_opt::rules_to_json(&mutated);
            assert!(
                RuleSet::from_json(&text).is_err(),
                "corrupting \"{}\" with {what} must fail the load",
                rules[i].name
            );
        }
    }

    // document-level corruptions
    let good = nra_opt::rules_to_json(&rules);
    for (what, bad) in [
        (
            "wrong version",
            good.replace("\"version\": 1", "\"version\": 2"),
        ),
        ("duplicated name", {
            let mut twice = rules.clone();
            twice.push(rules[0].clone());
            nra_opt::rules_to_json(&twice)
        }),
        (
            "smuggled rescue kind",
            good.replace("\"kind\": \"seed\"", "\"kind\": \"rescue\""),
        ),
        ("truncated document", good[..good.len() / 2].to_string()),
        (
            "no rules at all",
            "{\n  \"version\": 1,\n  \"rules\": []\n}".to_string(),
        ),
    ] {
        assert!(
            RuleSet::from_json(&bad).is_err(),
            "document corruption {what} must fail the load"
        );
    }
}
