//! Sharded multi-node GCN execution.
//!
//! PIUMA's headline claim is *scalability*: a GCN sharded across nodes of
//! a distributed global address space, where a node reads a remote feature
//! row where it lives. A [`ShardPlan`] cuts the normalized adjacency into
//! NNZ-balanced row blocks (the single-node planner's merge-path split),
//! one per worker, each a row range of the adjacency plus a **halo map** —
//! the remote rows whose activations it reads each layer. In one process a
//! shard therefore has nothing to copy or schedule: [`ShardedGcn`] is the
//! whole-graph layer loop plus the plan's ledger, and its output is
//! **bitwise identical** to single-node
//! [`gcn::GcnModel::infer_planned_with`] on a width-1 plan.
//!
//! [`sim`] mirrors the same partition inside the `piuma-sim` machine model
//! (HyperX hop latencies, DMA engines, per-node bandwidth) to project what
//! the partition would cost on real PIUMA nodes — that projection
//! regenerates `results/ext_multinode_scaling.csv` from first principles.

/// Partitioning: NNZ/row-balanced row blocks, halo maps, exchange ledger.
pub mod partition;
/// The sharded GCN runner: the layer loop plus the partition's ledger.
pub mod runner;
/// PIUMA projection of a shard plan (regenerates the scaling CSV).
pub mod sim;

pub use partition::{LayerExchange, PartitionKind, ShardBlock, ShardPlan};
pub use runner::{ShardReport, ShardedGcn};
pub use sim::{simulate_model, ShardSimResult};

/// Errors from partitioning or sharded execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// The adjacency is not square, so the row/column ownership map is
    /// undefined.
    NotSquare {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
    /// A plan for zero workers was requested.
    ZeroWorkers,
    /// A sharded layer failed on every attempt of every rung: a kernel's
    /// typed error, or [`matrix::MatrixError::Fault`] naming the
    /// `gcn.layer` site for an injected fault or an unrecovered panic.
    Matrix(matrix::MatrixError),
    /// Feature matrix width does not match the model's input dimension.
    FeatureDimMismatch {
        /// Width the model expects.
        expected: usize,
        /// Width the caller supplied.
        actual: usize,
    },
    /// Feature matrix row count does not match the partitioned graph.
    VertexCountMismatch {
        /// Vertices in the partitioned adjacency.
        graph: usize,
        /// Rows in the feature matrix.
        features: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NotSquare { rows, cols } => {
                write!(f, "adjacency must be square to shard, got {rows}x{cols}")
            }
            ShardError::ZeroWorkers => write!(f, "cannot shard across zero workers"),
            ShardError::Matrix(e) => write!(f, "kernel error in a sharded layer: {e}"),
            ShardError::FeatureDimMismatch { expected, actual } => {
                write!(
                    f,
                    "feature dim mismatch: model expects {expected}, got {actual}"
                )
            }
            ShardError::VertexCountMismatch { graph, features } => {
                write!(
                    f,
                    "vertex count mismatch: graph has {graph}, features {features}"
                )
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<gcn::GcnError> for ShardError {
    fn from(e: gcn::GcnError) -> Self {
        use gcn::GcnError as G;
        match e {
            G::FeatureDimMismatch { expected, actual } => {
                Self::FeatureDimMismatch { expected, actual }
            }
            G::VertexCountMismatch { graph, features } => {
                Self::VertexCountMismatch { graph, features }
            }
            G::Kernel(e) => Self::Matrix(e),
            // The whole-graph loop targets no vertex and normalizes nothing.
            G::VertexOutOfRange { .. } | G::Normalize(_) => {
                Self::Matrix(matrix::MatrixError::Fault {
                    site: "sharded inference",
                })
            }
        }
    }
}

impl From<matrix::MatrixError> for ShardError {
    fn from(e: matrix::MatrixError) -> Self {
        ShardError::Matrix(e)
    }
}
