//! Graph Convolutional Networks (Kipf & Welling) over the workspace kernels.
//!
//! A GCN stacks layers of the form `H_{t+1} = sigma(A_hat * H_t * W_t)`.
//! The paper characterizes a **three-layer** model whose hidden embedding
//! dimension `K` is swept from 8 to 256; [`GcnConfig`] captures exactly
//! those architecture knobs and [`GcnModel`] executes inference.
//!
//! There is one layer loop, behind [`GcnModel::infer_planned_with`]. *How*
//! it aggregates is the [`kernels::SpmmPlan`] in the caller's
//! [`InferenceWorkspace`] — resolved by the plan's own rule or pinned to an
//! explicit [`kernels::SpmmStrategy`], and carrying width, precision and
//! SIMD backend. A run guard and a retry policy are operands of the same
//! loop ([`GcnModel::infer_resilient_with`]); every other entry point is a
//! thin caller of it. How a run falls back is data too — rungs on the
//! plan, that loop's policy arm as the only retry-then-degrade walk, one
//! flat [`InferenceRun`] report: see [`resilient`].
//!
//! # Examples
//!
//! ```
//! use gcn::{GcnConfig, GcnModel};
//! use graph::Graph;
//! use kernels::SpmmStrategy;
//!
//! let g = Graph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let config = GcnConfig::paper_model(8, 16, 4);
//! let model = GcnModel::new(&config, 42);
//! let features = g.random_features(8, 7);
//! let out = model.infer(&g, &features, SpmmStrategy::Sequential).unwrap();
//! assert_eq!(out.shape(), (4, 4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// End-to-end accuracy harness for narrow-precision inference.
pub mod accuracy;
/// Model hyperparameters ([`GcnConfig`]) and their validation.
pub mod config;
/// Error type unifying graph, matrix, and kernel failures.
pub mod error;
/// The GCN layer stack, the workspace, and the one layer loop.
pub mod model;
/// Guarded, fault-tolerant and precision-guarded entry points; their one report.
pub mod resilient;
/// Batched per-vertex inference over gathered k-hop neighbourhoods.
pub mod rows;
/// Neighborhood-sampled mini-batch inference (GraphSAGE-style).
pub mod sampled;

pub use accuracy::{accuracy_bound, AccuracyReport};
pub use config::GcnConfig;
pub use error::GcnError;
pub use model::{GcnLayer, GcnModel, InferenceWorkspace};
pub use resilient::{Degradation, InferenceRun};
pub use rows::{RowsBatchStats, RowsWorkspace};
pub use sampled::{SampledBatch, SamplingScheme};
