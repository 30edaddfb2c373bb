//! # nra-graph
//!
//! Graph substrate for the reproduction of Suciu & Paredaens (1994):
//! generators for the paper's input families (the chain `rₙ`, cycles,
//! deterministic/functional graphs, layered DAGs, grids, cliques, seeded
//! random graphs), classical polynomial transitive-closure algorithms
//! (the ground truth and E3 baselines), a dense bitset, and conversions
//! to/from complex objects of type `{N × N}`.

#![deny(missing_docs)]

pub mod bitset;
pub mod digraph;
pub mod encode;
pub mod tc;

/// The arena-native word-parallel primitives ([`nra_core::value::dense`])
/// re-exported as this crate's bit-twiddling vocabulary: [`BitSet`] and
/// the closure algorithms in [`mod@tc`] delegate to these, so the graph layer
/// carries no private duplicate of the word ops.
pub use nra_core::value::dense;

pub use bitset::BitSet;
pub use digraph::DiGraph;
pub use encode::{graph_to_value, value_to_graph};
pub use tc::{bfs_per_source, semi_naive, tc, tc_arena, warshall};
