//! The differential suite's randomized graph families, in one place.
//!
//! Both differential harnesses — the route-level one at
//! `tests/differential.rs` and the strategy-level one at
//! `crates/eval/tests/differential.rs` — exercise the same seven graph
//! families. The builders used to be copy-pasted between the two files;
//! they live here instead, as plain edge lists (this crate depends on
//! nothing), so a new family lands in both harnesses automatically.
//! Harnesses lift an edge list into whatever graph/value representation
//! they test (`DiGraph::from_edges`, `Value::relation`, …).
//!
//! Every family in [`family_graphs`] is edge-count-bounded (≤ 8): the
//! powerset route costs `2^|edges|`, so an unbounded tail would make
//! unlucky seeds pathologically slow. The *large* families
//! ([`road_grid`], [`power_law`], [`two_community`], swept by
//! [`large_family_graphs`] at the [`LARGE_SIZES`]) deliberately break
//! that bound — thousands of edges, to exercise the arena's dense
//! bitmap representation — and must only ever meet polynomial routes.

use crate::Rng;
use std::collections::BTreeSet;

/// One randomized graph: its family tag (for diagnostics) plus the edge
/// list.
#[derive(Debug, Clone)]
pub struct FamilyGraph {
    /// Family name, e.g. `"chain"` — prepend it to assertion messages so
    /// failures identify the family along with the seed.
    pub family: &'static str,
    /// The edges, deduplicated and ordered.
    pub edges: BTreeSet<(u64, u64)>,
}

impl FamilyGraph {
    fn new<I: IntoIterator<Item = (u64, u64)>>(family: &'static str, edges: I) -> Self {
        FamilyGraph {
            family,
            edges: edges.into_iter().collect(),
        }
    }
}

/// A chain `o → o+1 → … → o+n` of random length (possibly empty) at a
/// random label offset, so closure code cannot rely on 0-based ids.
pub fn random_chain(rng: &mut Rng) -> FamilyGraph {
    let n = rng.below(8);
    let o = rng.below(5);
    FamilyGraph::new("chain", (0..n).map(|i| (o + i, o + i + 1)))
}

/// A directed cycle on 1..=7 nodes at a random label offset.
pub fn random_cycle(rng: &mut Rng) -> FamilyGraph {
    let n = rng.range_u64(1, 8);
    let o = rng.below(5);
    FamilyGraph::new("cycle", (0..n).map(|i| (o + i, o + (i + 1) % n)))
}

/// A random DAG: edges only from smaller to larger ids, each present
/// with probability 1/3.
pub fn random_dag(rng: &mut Rng) -> FamilyGraph {
    let n = rng.below(8);
    let mut edges = BTreeSet::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.below(3) == 0 {
                edges.insert((a, b));
            }
        }
    }
    FamilyGraph {
        family: "dag",
        edges,
    }
}

/// A disconnected graph: two independent random components on disjoint
/// label ranges (0..4 and 100..104), so the closure must not invent
/// cross-component paths. Components are edge-count-bounded (≤ 5 each).
pub fn random_disconnected(rng: &mut Rng) -> FamilyGraph {
    let left = rng.relation(4, 5);
    let right = rng.relation(4, 5);
    FamilyGraph::new(
        "disconnected",
        left.into_iter()
            .chain(right.into_iter().map(|(a, b)| (a + 100, b + 100))),
    )
}

/// A small directed grid (2×2 or 2×3 — at most 7 edges, powerset-safe)
/// at a random label offset: node `(i, j)` has id `i·cols + j` and edges
/// to its right and down neighbours.
pub fn random_grid(rng: &mut Rng) -> FamilyGraph {
    let (rows, cols) = (2, rng.range_u64(2, 4));
    let o = rng.below(5);
    let mut edges = BTreeSet::new();
    for i in 0..rows {
        for j in 0..cols {
            if j + 1 < cols {
                edges.insert((o + i * cols + j, o + i * cols + j + 1));
            }
            if i + 1 < rows {
                edges.insert((o + i * cols + j, o + (i + 1) * cols + j));
            }
        }
    }
    FamilyGraph {
        family: "grid",
        edges,
    }
}

/// A complete digraph on 1–3 nodes (≤ 6 edges) at a random label offset
/// — already transitively closed except for the self-loops, which the
/// closure must add.
pub fn random_clique(rng: &mut Rng) -> FamilyGraph {
    let n = rng.range_u64(1, 4);
    let o = rng.below(5);
    let mut edges = BTreeSet::new();
    for a in 0..n {
        for b in 0..n {
            if a != b {
                edges.insert((o + a, o + b));
            }
        }
    }
    FamilyGraph {
        family: "clique",
        edges,
    }
}

/// A sparse random relation: ≤ 6 edges over ≤ 5 nodes (self-loops and
/// all), the least structured family in the suite.
pub fn random_sparse(rng: &mut Rng) -> FamilyGraph {
    FamilyGraph::new("sparse", rng.relation(5, 6))
}

/// The node counts the large-graph suites sweep. Chosen so the largest
/// still fits the arena's dense-coordinate bound (node ids stay below
/// `nra_core::value::intern::DENSE_MAX_COORD = 8192`).
pub const LARGE_SIZES: [u64; 3] = [512, 2048, 8192];

/// A road-grid on ~`n` nodes: node `(i, j)` has id `i·cols + j`, with
/// directed edges to its right and down neighbours, and roughly one edge
/// in sixteen removed at random ("potholes") so different seeds give
/// different reachability structure. `rows` is the largest power of two
/// whose square fits `n`, so the standard sizes give 16×32, 32×64 and
/// 64×128 grids.
///
/// **Not powerset-safe**: thousands of edges. Only run polynomial
/// routes (while/semi-naive) on the large families.
pub fn road_grid(rng: &mut Rng, n: u64) -> FamilyGraph {
    let mut rows = 1u64;
    while (rows * 2) * (rows * 2) <= n {
        rows *= 2;
    }
    let cols = n / rows;
    let mut edges = BTreeSet::new();
    for i in 0..rows {
        for j in 0..cols {
            if j + 1 < cols && rng.below(16) != 0 {
                edges.insert((i * cols + j, i * cols + j + 1));
            }
            if i + 1 < rows && rng.below(16) != 0 {
                edges.insert((i * cols + j, (i + 1) * cols + j));
            }
        }
    }
    FamilyGraph {
        family: "road_grid",
        edges,
    }
}

/// A power-law graph on `n` nodes via preferential attachment: each new
/// node `v` points two edges at targets drawn proportionally to degree
/// (the classic repeated-endpoints trick), so a few early hubs collect
/// most of the in-degree.
///
/// **Not powerset-safe** at the standard sizes — see [`road_grid`].
pub fn power_law(rng: &mut Rng, n: u64) -> FamilyGraph {
    let mut edges = BTreeSet::new();
    let mut endpoints: Vec<u64> = vec![0];
    for v in 1..n {
        for _ in 0..2 {
            let target = *rng.choose(&endpoints);
            if target != v {
                edges.insert((v, target));
                endpoints.push(target);
            }
        }
        endpoints.push(v);
    }
    FamilyGraph {
        family: "power_law",
        edges,
    }
}

/// A two-community social graph on `n` nodes: nodes `0..n/2` and
/// `n/2..n` each form a sparse random community (three out-edges per
/// node, within the community), bridged by a thin band of `n/64 + 2`
/// random cross-community edges — so the closure is dense inside each
/// community but crossings all funnel through the bridge.
///
/// **Not powerset-safe** at the standard sizes — see [`road_grid`].
pub fn two_community(rng: &mut Rng, n: u64) -> FamilyGraph {
    let half = (n / 2).max(1);
    let mut edges = BTreeSet::new();
    for v in 0..n {
        let base = if v < half { 0 } else { half };
        let span = if v < half { half } else { n - half };
        for _ in 0..3 {
            let w = base + rng.below(span.max(1));
            if w != v {
                edges.insert((v, w));
            }
        }
    }
    for _ in 0..(n / 64 + 2) {
        let a = rng.below(half);
        let b = half + rng.below((n - half).max(1));
        if rng.bool() {
            edges.insert((a, b));
        } else {
            edges.insert((b, a));
        }
    }
    FamilyGraph {
        family: "two_community",
        edges,
    }
}

/// One graph from **each** of the three large families at node count
/// `n` — the sweep the dense-vs-sorted differentials and both benches
/// run at the [`LARGE_SIZES`]. Unlike [`family_graphs`], these are
/// thousands of edges: polynomial routes only, never the powerset
/// route.
pub fn large_family_graphs(rng: &mut Rng, n: u64) -> Vec<FamilyGraph> {
    vec![road_grid(rng, n), power_law(rng, n), two_community(rng, n)]
}

/// One graph from **each** of the seven families — the canonical
/// per-seed sweep both differential harnesses run.
pub fn family_graphs(rng: &mut Rng) -> Vec<FamilyGraph> {
    vec![
        random_chain(rng),
        random_cycle(rng),
        random_dag(rng),
        random_disconnected(rng),
        random_grid(rng),
        random_clique(rng),
        random_sparse(rng),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_families_with_bounded_edge_counts() {
        for seed in 0..50 {
            let mut rng = Rng::new(seed);
            let graphs = family_graphs(&mut rng);
            assert_eq!(graphs.len(), 7);
            let names: Vec<&str> = graphs.iter().map(|g| g.family).collect();
            assert_eq!(
                names,
                [
                    "chain",
                    "cycle",
                    "dag",
                    "disconnected",
                    "grid",
                    "clique",
                    "sparse"
                ]
            );
            for g in &graphs {
                assert!(
                    g.edges.len() <= 10,
                    "{} grew to {} edges (powerset-unsafe)",
                    g.family,
                    g.edges.len()
                );
            }
        }
    }

    #[test]
    fn families_are_deterministic_in_the_seed() {
        let a: Vec<_> = family_graphs(&mut Rng::new(42))
            .into_iter()
            .map(|g| g.edges)
            .collect();
        let b: Vec<_> = family_graphs(&mut Rng::new(42))
            .into_iter()
            .map(|g| g.edges)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn large_families_fit_the_dense_domain() {
        for seed in 0..3 {
            let mut rng = Rng::new(seed);
            let graphs = large_family_graphs(&mut rng, 512);
            let names: Vec<&str> = graphs.iter().map(|g| g.family).collect();
            assert_eq!(names, ["road_grid", "power_law", "two_community"]);
            for g in &graphs {
                assert!(
                    g.edges.iter().all(|&(a, b)| a < 512 && b < 512),
                    "{}: node ids must stay below n",
                    g.family
                );
                assert!(
                    g.edges.len() >= 512,
                    "{}: expected a large edge set, got {}",
                    g.family,
                    g.edges.len()
                );
                assert!(g.edges.iter().all(|&(a, b)| a != b), "no self-loops");
            }
        }
    }

    #[test]
    fn large_families_are_deterministic_in_the_seed() {
        let a: Vec<_> = large_family_graphs(&mut Rng::new(9), 512)
            .into_iter()
            .map(|g| g.edges)
            .collect();
        let b: Vec<_> = large_family_graphs(&mut Rng::new(9), 512)
            .into_iter()
            .map(|g| g.edges)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn two_community_bridges_are_thin() {
        let mut rng = Rng::new(11);
        let g = two_community(&mut rng, 512);
        let cross = g
            .edges
            .iter()
            .filter(|&&(a, b)| (a < 256) != (b < 256))
            .count();
        assert!(cross > 0, "communities must be bridged");
        assert!(cross <= 10, "bridge band stays thin, got {cross}");
    }

    #[test]
    fn power_law_grows_hubs() {
        let mut rng = Rng::new(3);
        let g = power_law(&mut rng, 512);
        // in-degree concentrates: some hub collects far more than the
        // mean in-degree of ~2
        let mut indeg = vec![0u64; 512];
        for &(_, b) in &g.edges {
            indeg[b as usize] += 1;
        }
        let max = indeg.iter().max().copied().unwrap();
        assert!(max >= 10, "expected a hub, max in-degree {max}");
    }

    #[test]
    fn structural_sanity() {
        let mut rng = Rng::new(7);
        for _ in 0..30 {
            let dag = random_dag(&mut rng);
            assert!(dag.edges.iter().all(|&(a, b)| a < b), "dag edges ascend");
            let clique = random_clique(&mut rng);
            assert!(clique.edges.iter().all(|&(a, b)| a != b), "no self-loops");
            let disc = random_disconnected(&mut rng);
            assert!(
                disc.edges.iter().all(|&(a, b)| (a < 100) == (b < 100)),
                "components stay disjoint: {:?}",
                disc.edges
            );
        }
    }
}
