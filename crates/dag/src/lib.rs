//! # rbp-dag — computational DAG substrate for red-blue pebbling
//!
//! The pebbling games of the paper *Red-Blue Pebbling with Multiple
//! Processors* operate on arbitrary computational DAGs: nodes are single
//! operations, edges are data dependencies. This crate provides
//!
//! - [`Dag`], an immutable compressed-sparse-row DAG with fast
//!   predecessor/successor iteration, built via [`DagBuilder`];
//! - [`NodeSet`], the dense bitset the game states are made of;
//! - topological utilities ([`TopoInfo`], [`longest_path`]);
//! - reachability/closure queries ([`traversal`]);
//! - structural analyses used by lower bounds ([`analysis`], including the
//!   exact minimum peak-memory DP that powers the Theorem 2 machinery);
//! - generators for every DAG family the paper references
//!   ([`generators`]: chains, trees, grids, 2-layer DAGs, FFT, matrix
//!   multiplication, random DAGs);
//! - DOT export ([`dot`]) and a plain-text fixture format ([`io`]).
//!
//! ```
//! use rbp_dag::{generators, DagStats};
//! let dag = generators::fft(4); // 16-point FFT butterfly
//! let stats = DagStats::compute(&dag);
//! assert_eq!(stats.max_in_degree, 2);
//! ```

#![deny(missing_docs)]

pub mod analysis;
pub mod dot;
pub mod generators;
mod graph;
pub mod io;
mod nodeset;
mod topo;
pub mod traversal;

pub use analysis::{anchor_nodes, min_peak_memory, min_peak_order, DagStats};
pub use graph::{dag_from_edges, Dag, DagBuilder, DagError, NodeId};
pub use nodeset::{HybridNodeSet, HybridNodeSetIter, NodeSet, NodeSetIter};
pub use topo::{longest_path, TopoInfo};
