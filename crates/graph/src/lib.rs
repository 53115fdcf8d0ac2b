//! Graphs, synthetic generators, and the OGB dataset catalog.
//!
//! This crate supplies every input graph the reproduction needs:
//!
//! * [`Graph`] — an adjacency-CSR wrapper with GCN-normalization helpers,
//! * [`rmat`] — the R-MAT recursive generator (the paper uses SNAP's RMAT for
//!   its Figure 2 scale/density sweeps and the `power-16`/`power-22` graphs
//!   of Figure 9),
//! * [`generators`] — the Erdős–Rényi `G(n, m)` generator,
//! * [`datasets`] — the Open Graph Benchmark catalog of Table I, with exact
//!   published `|V|`/`|E|` for the analytical models and *scaled* synthetic
//!   materialization for functional/simulated runs,
//! * [`reorder`] — locality-aware vertex orderings (degree / BFS / RCM)
//!   and the [`ReorderedGraph`] wrapper that keeps GCN results consistent
//!   across the relabeling,
//! * [`io`] — edge-list reading and Matrix Market reading / writing.
//!
//! # Examples
//!
//! ```
//! use graph::{Graph, rmat::RmatConfig};
//!
//! let g = Graph::rmat(&RmatConfig::power_law(10, 8), 42);
//! assert_eq!(g.vertices(), 1024);
//! assert!(g.edges() > 0);
//! let a_hat = g.normalized_adjacency().unwrap();
//! assert_eq!(a_hat.nrows(), 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Synthetic stand-ins for the OGB datasets used in the paper.
pub mod datasets;
/// The seeded Erdős–Rényi `G(n, m)` generator.
pub mod generators;
/// The core CSR-adjacency [`Graph`] type.
pub mod graph_type;
/// Edge-list and Matrix Market serialization.
pub mod io;
/// Locality-aware vertex reordering (degree sort, BFS, RCM).
pub mod reorder;
/// R-MAT scale-free graph generation.
pub mod rmat;

pub use datasets::{DatasetStats, OgbDataset};
pub use graph_type::Graph;
pub use io::GraphError;
pub use reorder::{ReorderKind, ReorderedGraph};
pub use rmat::RmatConfig;
