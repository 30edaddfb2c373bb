//! Seeded request generation for the three workloads.
//!
//! The benchmark generates every input from the seed and hands the server
//! nothing but encoded frames. Each frame carries the reference answer
//! it must be answered with, computed here, before any clock starts.

use crate::reference::{self, Expect, Rel};
use nra_core::{builder, queries, Expr, Value};
use nra_serve::{encode_request, Request};
use nra_testkit::graphs::{self, FamilyGraph};
use nra_testkit::Rng;

/// Nodes in every serving-scale graph.
pub const LARGE_NODES: u64 = 512;

/// Shortest chain on which admission rejects the powerset-route
/// `tc_paths` as submitted, so the optimiser's while-route rewrite is
/// what admits it. Rescue requests use chains of this length and the two
/// above it.
pub const RESCUE_CHAIN: u64 = 14;

/// Chains from this length on are rejected under any rewrite when the
/// query is a bare `powerset`: Theorem 4.1's `2^n` bound exceeds the
/// serving ceiling.
pub const REJECT_CHAIN: u64 = 20;

/// The request classes the latency breakdown distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A polynomial query over a graph of at most eight nodes.
    Small,
    /// A powerset-route `tc_paths` the optimiser rewrites into admission.
    Rescue,
    /// A bare `powerset`, rejected at the door.
    Reject,
    /// A join over a 512-node graph.
    Large,
}

impl Class {
    /// Stable lower-case name for logs.
    pub fn name(self) -> &'static str {
        match self {
            Class::Small => "small",
            Class::Rescue => "rescue",
            Class::Reject => "reject",
            Class::Large => "large",
        }
    }
}

/// One generated request: its encoded frame and the answer it must get.
#[derive(Debug, Clone)]
pub struct Job {
    /// Correlation id carried by the frame.
    pub id: u64,
    /// Latency class.
    pub class: Class,
    /// The encoded request frame, without its newline.
    pub line: String,
    /// The reference answer.
    pub expect: Expect,
}

impl Job {
    fn new(tenant: &str, id: u64, class: Class, query: Expr, input: Value, expect: Expect) -> Job {
        let line = encode_request(&Request {
            tenant: tenant.to_string(),
            id,
            query,
            input,
        })
        .expect("generated requests are encodable");
        Job {
            id,
            class,
            line,
            expect,
        }
    }

    /// The frame without its tenant and id: equal keys are repeated
    /// (query, input) pairs.
    pub fn key(&self) -> &str {
        let mut fields = self.line.splitn(3, ';');
        fields
            .nth(2)
            .expect("encoded requests have three separators")
    }
}

type SmallFamily = fn(&mut Rng) -> FamilyGraph;

/// The seven graph families of at most eight nodes.
const SMALL_FAMILIES: [SmallFamily; 7] = [
    graphs::random_chain,
    graphs::random_cycle,
    graphs::random_dag,
    graphs::random_disconnected,
    graphs::random_grid,
    graphs::random_clique,
    graphs::random_sparse,
];

type LargeFamily = fn(&mut Rng, u64) -> FamilyGraph;

/// The three serving-scale families.
pub const LARGE_FAMILIES: [(&str, LargeFamily); 3] = [
    ("road_grid", graphs::road_grid),
    ("power_law", graphs::power_law),
    ("two_community", graphs::two_community),
];

/// The three polynomial joins served over the large families.
pub const LARGE_QUERIES: [&str; 3] = ["tc_step", "compose_rel", "siblings_direct"];

/// Independent stream for item `index` of stream `tag` under `seed`, so
/// a request's inputs do not depend on how many were generated before.
fn stream(seed: u64, tag: u64, index: u64) -> Rng {
    let mut mix = Rng::new(seed ^ tag.rotate_left(32));
    Rng::new(mix.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `cycles` door cycles: each holds the seven small families × `tc_while`
/// / `tc_step` / `siblings_powerset`, one rescued `tc_paths` and one
/// rejected `powerset` — 23 requests. Ids count from `first_id`.
pub fn door_pool(seed: u64, cycles: u64, tenant: &str, first_id: u64) -> Vec<Job> {
    let mut rng = stream(seed, 0xD00D, 0);
    let mut jobs = Vec::new();
    let mut next_id = first_id;
    let mut push = |jobs: &mut Vec<Job>, class, query, input, expect| {
        jobs.push(Job::new(tenant, next_id, class, query, input, expect));
        next_id += 1;
    };
    for _ in 0..cycles {
        for family in SMALL_FAMILIES {
            let edges = family(&mut rng).edges;
            let input = reference::relation(&edges);
            let answers: [(Expr, Rel); 3] = [
                (queries::tc_while(), reference::closure(&edges)),
                (queries::tc_step(), reference::tc_step(&edges)),
                (queries::siblings_powerset(), reference::siblings(&edges)),
            ];
            for (query, answer) in answers {
                let expect = Expect::Value(reference::relation(&answer));
                push(&mut jobs, Class::Small, query, input.clone(), expect);
            }
        }
        let n = RESCUE_CHAIN + rng.below(3);
        let expect = Expect::Value(Value::chain_tc(n));
        push(
            &mut jobs,
            Class::Rescue,
            queries::tc_paths(),
            Value::chain(n),
            expect,
        );
        let n = REJECT_CHAIN + rng.below(5);
        let reject = Expect::TheoremRejection;
        push(
            &mut jobs,
            Class::Reject,
            builder::powerset(),
            Value::chain(n),
            reject,
        );
    }
    jobs
}

/// The join `query` (an index into [`LARGE_QUERIES`]) over a fresh
/// 512-node graph of `family` (an index into [`LARGE_FAMILIES`]), drawn
/// from the `index`-th large stream of `seed`.
pub fn large_job(seed: u64, index: u64, family: usize, query: usize, tenant: &str, id: u64) -> Job {
    let mut rng = stream(seed, 0x5120 + family as u64, index);
    let edges = (LARGE_FAMILIES[family].1)(&mut rng, LARGE_NODES).edges;
    let (expr, answer) = match LARGE_QUERIES[query] {
        "tc_step" => (queries::tc_step(), reference::tc_step(&edges)),
        "compose_rel" => (queries::compose_rel(), reference::compose(&edges)),
        _ => (queries::siblings_direct(), reference::siblings(&edges)),
    };
    let expect = Expect::Value(reference::relation(&answer));
    Job::new(
        tenant,
        id,
        Class::Large,
        expr,
        reference::relation(&edges),
        expect,
    )
}
