//! # nra-graph
//!
//! Graph substrate for the reproduction of Suciu & Paredaens (1994):
//! generators for the paper's input families (the chain `rₙ`, cycles,
//! deterministic/functional graphs, layered DAGs, grids, cliques, seeded
//! random graphs), classical polynomial transitive-closure algorithms
//! (the ground truth and E3 baselines, with one bitmap Warshall kernel
//! behind both [`warshall`] and the arena-native [`tc_arena`]), and
//! conversions to/from complex objects of type `{N × N}`.

#![deny(missing_docs)]

pub mod digraph;
pub mod encode;
pub mod tc;

pub use digraph::DiGraph;
pub use encode::{graph_to_value, value_to_graph};
pub use tc::{bfs_per_source, semi_naive, tc, tc_arena, warshall};
