//! Sharded multi-node GCN execution.
//!
//! PIUMA's headline claim is *scalability*: a GCN sharded across nodes of
//! a distributed global address space, with remote feature rows fetched
//! over the HyperX network. This crate reproduces that execution model in
//! process. A [`ShardPlan`] cuts the normalized adjacency into NNZ-balanced
//! row blocks (reusing the single-node planner's merge-path split), one per
//! worker, each a row range of the adjacency plus a **halo map** — the
//! remote rows whose activations it reads each layer. [`ShardedGcn`] then
//! runs each layer as the planned single-node layer with only its SpMM
//! sharded: the dense update is one pool-width GEMM over all rows, and
//! the aggregation is a task graph of `exchange(b) → aggregate(b)` nodes
//! executed by [`exec::TaskGraph`] over the shared [`pool`]. As on PIUMA's
//! distributed global address space, a block reads remote rows where they
//! live: the exchange copies nothing, it books the block's halo bytes, so
//! the communication volume is counted from the reads the blocks make.
//! Every exchange passes a `fault_point!` site, making the protocol
//! chaos-testable. Recovery is the executor's done flags plus a per-task
//! attempt budget: a task that panics is not done, its dependents are
//! withheld, and the layer re-runs what is not done.
//!
//! The numeric contract is strict: sharded inference is **bitwise
//! identical** to single-node [`gcn::GcnModel::infer_planned_with`] running a
//! width-1 (sequential) plan. Each block walks its rows' non-zeros in the
//! same ascending column order as the single-node row loop, and the
//! packed GEMM's per-row FP sequence is row-partition-invariant — so
//! splitting work across shards never reassociates a single addition.
//!
//! [`sim`] mirrors the same partition inside the `piuma-sim` machine model
//! (HyperX hop latencies, DMA engines, per-node bandwidth) to project what
//! the partition would cost on real PIUMA nodes — that projection
//! regenerates `results/ext_multinode_scaling.csv` from first principles.

/// Task-graph executor draining shard tasks through the process pool.
pub mod exec;
/// Partitioning: NNZ/row-balanced row blocks, halo maps, exchange ledger.
pub mod partition;
/// The sharded GCN runner: planned layers with a block-sharded SpMM.
pub mod runner;
/// PIUMA projection of a shard plan (regenerates the scaling CSV).
pub mod sim;

pub use exec::{RunTrace, TaskFailure, TaskGraph};
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
    /// A dense kernel of a sharded layer failed (the update GEMM, or the
    /// narrow encode of the aggregated operand).
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
    /// The task-graph executor gave up on a layer: a dependency cycle, or
    /// a task (or the pool, outside any task) that panicked on every one
    /// of its [`resilience::retry::ATTEMPTS`] runs. Carries the panic text.
    Executor(String),
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
            ShardError::Executor(e) => write!(f, "shard executor gave up: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<matrix::MatrixError> for ShardError {
    fn from(e: matrix::MatrixError) -> Self {
        ShardError::Matrix(e)
    }
}
