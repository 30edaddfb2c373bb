//! Cost-based admission control: the paper's theorem as a production
//! safety rail.
//!
//! Before a query touches a worker, admission predicts the space its
//! eager evaluation needs and either **admits it with a declared budget**
//! (enforced by the engine via
//! [`EvalSession::eval_vid_budgeted`](nra_eval::EvalSession::eval_vid_budgeted),
//! so an overrun surfaces as a structured
//! [`SpaceBudgetExceeded`](nra_eval::EvalError::SpaceBudgetExceeded)
//! rather than an OOM) or **rejects it at the door with the certified
//! bound**. Prediction layers two sources:
//!
//! 1. **The symbolic verdict** ([`nra_symbolic::predict_space`]) — the
//!    Lemma 5.8 dichotomy run on the §5 chain abstraction. A query
//!    certified exponential carries a [`LinearCertificate`] and the
//!    Theorem 4.1 lower bound `2^c` for an input of cardinality `c`;
//!    a powerset-free query carries a structural polynomial degree.
//! 2. **A concrete argument probe** — for powerset-bearing queries the
//!    symbolic lower bound can be a wild *under*-estimate (`tc_naive`
//!    powersets `V × V`, costing `2^Θ(n²)` on an input of cardinality
//!    `n`), so admission walks the composition spine, evaluates the
//!    powerset-free prefix feeding each `powerset` site on the *actual*
//!    input (budgeted, inside the serving session — the probe warms the
//!    shared apply cache for the real run), and computes the **exact**
//!    §3 size of the powerset object combinatorially, without
//!    materialising it. The declared budget is the dominant site cost
//!    times a downstream headroom factor.
//!
//! Powerset-free (Polynomial-class) queries are admitted **by class** —
//! that is the point of the dichotomy: `NRA` without `powerset` cannot
//! express the exponential blow-up, and §4's upper bound for the while
//! route is a small polynomial. Their declared budget is the structural
//! envelope, clamped to degree 6 (`POLY_BUDGET_DEGREE`) because
//! the structural degree of a `while` body is capped pessimistically
//! (iterating a degree-`d` body has no finite structural degree — the
//! clamp is where §4's semantic bound takes over from syntax).
//!
//! [`LinearCertificate`]: nra_symbolic::LinearCertificate

use nra_core::expr::intern::EId;
use nra_core::value::intern::VId;
use nra_core::Expr;
use nra_eval::eager::powerset_output_size;
use nra_eval::EvalSession;
use nra_symbolic::{predict_space, SpaceVerdict};

/// Default ceiling (§3 space units) on the *predicted* requirement of
/// powerset-bearing queries. `2²⁴` ≈ sixteen million units keeps every
/// eager powerset evaluation that clears admission comfortably inside
/// test-scale time and memory, admits the whole ≤ 10-edge differential
/// family sweep, and turns chains away once `2^{n−1}` headroom-adjusted
/// passes it.
pub const DEFAULT_POWERSET_CEILING: u64 = 1 << 24;

/// Multiplier applied to the dominant concrete powerset-site size to
/// cover the stages downstream of the site (a `map` over `2^c` subsets
/// can multiply the object by a per-subset polynomial factor). The
/// admission-soundness differential test holds this headroom honest on
/// every graph family.
pub const PROBE_HEADROOM: u64 = 64;

/// Degree clamp for the declared budget of Polynomial-class queries
/// whose structural envelope saturated (deep `while` bodies).
const POLY_BUDGET_DEGREE: u32 = 6;

/// How admission decides and what it charges.
#[derive(Debug, Clone)]
pub struct AdmissionPolicy {
    /// Reject a powerset-bearing query whose predicted requirement
    /// (symbolic lower bound ∨ concrete probe) exceeds this many §3
    /// units.
    pub powerset_ceiling: u64,
    /// Admit queries the symbolic layer cannot analyze (`powerset`
    /// under `while`), with the ceiling itself as the declared budget.
    /// Off by default: unanalyzable means uncertifiable.
    pub admit_unanalyzed: bool,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            powerset_ceiling: DEFAULT_POWERSET_CEILING,
            admit_unanalyzed: false,
        }
    }
}

/// An admitted query: its declared budget and the verdict that priced
/// it.
#[derive(Debug, Clone)]
pub struct Admitted {
    /// §3 space budget the evaluation will run under
    /// (`eval_vid_budgeted`).
    pub budget: u64,
    /// The predicted requirement (≤ `budget`).
    pub predicted: u64,
    /// The symbolic verdict.
    pub verdict: SpaceVerdict,
}

/// A rejected query: the reason cites the certified bound where one
/// exists.
#[derive(Debug, Clone)]
pub struct Rejected {
    /// Human-readable rejection, embedding the verdict rendering (for
    /// exponential queries: the Theorem 4.1 bound and the Lemma 5.8
    /// certificate).
    pub reason: String,
    /// The structured verdict, for callers that want the bound itself.
    pub verdict: SpaceVerdict,
}

/// The outcome of [`admit`].
#[derive(Debug, Clone)]
pub enum AdmissionDecision {
    /// Run it, under the declared budget.
    Admitted(Admitted),
    /// Turn it away, citing the bound.
    Rejected(Rejected),
}

/// Walk the composition spine of a powerset-bearing expression,
/// evaluating powerset-free prefixes on the live input, and return the
/// dominant **exact** powerset-object size among the sites reached.
/// `Err` carries the reason the query cannot be certified concretely
/// (a site argument that is not a set, a prefix whose probe evaluation
/// failed, a `powerset` nested under `map`/`while`/`if`, or a second
/// `powerset` downstream of the first).
fn probe_sites(
    session: &mut EvalSession,
    expr: &Expr,
    input: VId,
    probe_budget: u64,
) -> Result<u64, String> {
    match expr {
        Expr::Powerset | Expr::PowersetM(_) => {
            let values = session.values();
            let card = values.cardinality(input).ok_or_else(|| {
                "admission probe: powerset applied to a non-set argument".to_string()
            })?;
            // the engine's own prediction: the size its budget check sees
            let elements = values.size(input).saturating_sub(1);
            let size = powerset_output_size(card as u64, elements.into());
            Ok(u64::try_from(size).unwrap_or(u64::MAX))
        }
        Expr::Compose(g, f) => {
            if f.powerset_occurrences() > 0 {
                let site = probe_sites(session, f, input, probe_budget)?;
                if g.powerset_occurrences() > 0 {
                    return Err(
                        "admission probe: a second powerset downstream of the first \
                         cannot be certified concretely"
                            .to_string(),
                    );
                }
                return Ok(site);
            }
            // the prefix is powerset-free: run it (budgeted) to reach
            // the site's actual argument — this also warms the shared
            // apply cache for the admitted run
            let feid = session.intern_expr(f);
            let ev = session.eval_vid_budgeted(feid, input, Some(probe_budget));
            match ev.result {
                Ok(out) => probe_sites(session, g, out, probe_budget),
                Err(e) => Err(format!("admission probe: prefix evaluation failed ({e})")),
            }
        }
        Expr::Tuple(f, g) => {
            // (f, g) applies both sides to the same argument — price
            // each powerset-bearing side on the live input and take the
            // dominant site
            let mut site = 0u64;
            for side in [f, g] {
                if side.powerset_occurrences() > 0 {
                    site = site.max(probe_sites(session, side, input, probe_budget)?);
                }
            }
            Ok(site)
        }
        _ if expr.powerset_occurrences() == 0 => Ok(0),
        _ => Err(
            "admission probe: powerset nested under map/while/if cannot be certified \
             concretely"
                .to_string(),
        ),
    }
}

/// Decide whether the query behind `eid` may run on `input`, and at
/// what declared budget. Probing may evaluate powerset-free prefixes
/// inside `session` (warming its cache for the admitted run).
pub fn admit(
    session: &mut EvalSession,
    eid: EId,
    input: VId,
    policy: &AdmissionPolicy,
) -> AdmissionDecision {
    let size = session.values().size(input);
    let card = session.values().cardinality(input).map_or(0, |c| c as u64);
    let verdict = predict_space(eid, session.exprs(), size, card);

    match &verdict {
        SpaceVerdict::Unanalyzed { reason } => {
            if policy.admit_unanalyzed {
                AdmissionDecision::Admitted(Admitted {
                    budget: policy.powerset_ceiling,
                    predicted: policy.powerset_ceiling,
                    verdict,
                })
            } else {
                AdmissionDecision::Rejected(Rejected {
                    reason: format!(
                        "admission: cannot certify space for this query ({reason}); \
                         rewrite without powerset-under-while or ask the operator to \
                         enable admit_unanalyzed"
                    ),
                    verdict,
                })
            }
        }
        SpaceVerdict::Polynomial {
            degree,
            upper_bound,
        } => {
            // powerset-free: admitted by class (the Lemma 5.8 dichotomy —
            // no exponential blow-up is expressible); budget = structural
            // envelope, clamped where the while rule saturated
            let mut clamp = size
                .max(2)
                .saturating_pow((*degree).min(POLY_BUDGET_DEGREE))
                .saturating_mul(64)
                .saturating_add(4096);
            // Inputs living in a bounded packed domain (sets of
            // small-coordinate atoms or edges — the dense layer's
            // territory) are priced by domain words instead: a relation
            // over `d` nodes has at most `d²` edges, and a polynomial
            // route's intermediates (joins of two such relations) stay
            // within `d⁴` elements, so `d⁴·64` §3 units cover them with
            // the same ×64 headroom the structural clamp carries. The
            // per-element clamp saturates on large graphs (thousands of
            // edges raised to the structural degree overflows), which
            // would declare a meaningless budget exactly where serving
            // large-graph TC matters.
            if let Some(d) = session.values().dense_domain_cap(input) {
                let by_domain_words = d
                    .max(2)
                    .saturating_pow(4)
                    .saturating_mul(64)
                    .saturating_add(4096);
                clamp = clamp.min(by_domain_words);
            }
            AdmissionDecision::Admitted(Admitted {
                budget: (*upper_bound).min(clamp),
                predicted: (*upper_bound).min(clamp),
                verdict,
            })
        }
        SpaceVerdict::Exponential { lower_bound, .. }
        | SpaceVerdict::BoundedPowerset {
            upper_bound: lower_bound,
            ..
        } => {
            // powerset-bearing: the symbolic figure alone is not enough
            // (a lower bound can under-estimate; the bounded-order
            // envelope prices the powerset_m *rewrite*, not the eager
            // run) — probe the actual powerset arguments
            let symbolic = *lower_bound;
            let expr = session.exprs().resolve(eid);
            let concrete = match probe_sites(session, &expr, input, policy.powerset_ceiling) {
                Ok(site) => site.saturating_mul(PROBE_HEADROOM),
                Err(reason) => {
                    return AdmissionDecision::Rejected(Rejected {
                        reason: format!("{reason}; verdict: {verdict}"),
                        verdict,
                    });
                }
            };
            let required = symbolic.max(concrete);
            if required > policy.powerset_ceiling {
                AdmissionDecision::Rejected(Rejected {
                    reason: format!(
                        "admission: predicted eager space requirement {required} units \
                         exceeds the serving ceiling {}; {verdict}",
                        policy.powerset_ceiling
                    ),
                    verdict,
                })
            } else {
                AdmissionDecision::Admitted(Admitted {
                    budget: required.max(4096),
                    predicted: required,
                    verdict,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::{queries, Value};
    use nra_eval::{EvalConfig, EvalSession};
    use nra_symbolic::SpaceVerdict;

    fn decide(query: &Expr, input: &Value, policy: &AdmissionPolicy) -> AdmissionDecision {
        let mut session = EvalSession::new(EvalConfig::optimised());
        let eid = session.intern_expr(query);
        let vid = session.intern_value(input);
        admit(&mut session, eid, vid, policy)
    }

    #[test]
    fn polynomial_queries_are_admitted_by_class() {
        let policy = AdmissionPolicy::default();
        for q in [
            queries::tc_while(),
            queries::tc_step(),
            queries::compose_rel(),
            queries::siblings_direct(),
        ] {
            match decide(&q, &Value::chain(10), &policy) {
                AdmissionDecision::Admitted(a) => {
                    assert!(
                        matches!(a.verdict, SpaceVerdict::Polynomial { .. }),
                        "{q}: {:?}",
                        a.verdict
                    );
                    assert!(a.budget < u64::MAX, "{q}: clamp failed, budget saturated");
                }
                AdmissionDecision::Rejected(r) => panic!("{q} rejected: {}", r.reason),
            }
        }
    }

    #[test]
    fn exponential_tc_flips_from_admitted_to_rejected_as_chains_grow() {
        let policy = AdmissionPolicy::default();
        let mut flipped_at = None;
        for n in 1..=40u64 {
            match decide(&queries::tc_paths(), &Value::chain(n), &policy) {
                AdmissionDecision::Admitted(_) => {
                    assert!(flipped_at.is_none(), "admission must be monotone in n");
                }
                AdmissionDecision::Rejected(r) => {
                    flipped_at.get_or_insert(n);
                    // the rejection cites the Theorem 4.1 bound for THIS n
                    match r.verdict {
                        SpaceVerdict::Exponential {
                            log2_lower_bound, ..
                        } => assert_eq!(u64::from(log2_lower_bound), n),
                        ref v => panic!("chain({n}): wrong verdict {v:?}"),
                    }
                    assert!(r.reason.contains("Theorem 4.1"), "{}", r.reason);
                }
            }
        }
        let t = flipped_at.expect("some chain length must be rejected");
        assert!(
            t > 8,
            "the differential-suite range (n ≤ 8) must be admitted, got {t}"
        );
    }

    #[test]
    fn tc_naive_is_rejected_on_inputs_its_square_powerset_cannot_afford() {
        // tc_naive powersets V×V: 2^Θ(n²), far beyond the symbolic 2^n
        // lower bound — only the concrete probe catches it
        let policy = AdmissionPolicy::default();
        match decide(&queries::tc_naive(), &Value::chain(4), &policy) {
            AdmissionDecision::Rejected(r) => {
                assert!(
                    r.reason.contains("exceeds the serving ceiling"),
                    "{}",
                    r.reason
                );
            }
            AdmissionDecision::Admitted(a) => {
                panic!("tc_naive on chain(4) admitted at budget {}", a.budget)
            }
        }
    }

    #[test]
    fn unanalyzed_queries_are_rejected_unless_the_policy_waives() {
        use nra_core::builder::*;
        let q = while_fix(powerset());
        let strict = AdmissionPolicy::default();
        assert!(matches!(
            decide(&q, &Value::chain(2), &strict),
            AdmissionDecision::Rejected(_)
        ));
        let waived = AdmissionPolicy {
            admit_unanalyzed: true,
            ..AdmissionPolicy::default()
        };
        assert!(matches!(
            decide(&q, &Value::chain(2), &waived),
            AdmissionDecision::Admitted(_)
        ));
    }

    #[test]
    fn powerset_object_size_is_exact() {
        // a powerset site is priced at the size of the object the
        // evaluation materialises
        let mut session = EvalSession::new(EvalConfig::default());
        let v = session.values_mut().chain(3); // card 3, size 10
        let powerset = nra_core::builder::powerset();
        let priced = probe_sites(&mut session, &powerset, v, u64::MAX).unwrap();
        assert_eq!(priced, 1 + 8 + 4 * (10 - 1));
        let p = session.intern_expr(&powerset);
        let out = session.eval_vid(p, v).result.unwrap();
        assert_eq!(priced, session.values().size(out));
    }
}
