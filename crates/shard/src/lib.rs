//! Sharded multi-node GCN execution.
//!
//! PIUMA's headline claim is *scalability*: a GCN sharded across nodes of
//! a distributed global address space, with remote feature rows fetched
//! over the HyperX network. This crate reproduces that execution model in
//! process. A [`ShardPlan`] cuts the normalized adjacency into NNZ-balanced
//! row blocks (reusing the single-node planner's merge-path split), one per
//! worker, giving each a local CSR plus a **halo map** — the remote rows
//! whose activations it must fetch each layer. [`ShardedGcn`] then runs
//! each layer as a task graph: "gather this block's referenced rows into
//! its stage buffer" and "aggregate and finish this block" are schedulable
//! nodes executed by [`exec::TaskGraph`] over the shared [`pool`], with all
//! cross-shard traffic flowing through explicit copy buffers so the
//! communication volume is measured, not inferred. Every exchange passes a
//! `fault_point!` site and is retried idempotently, making the protocol
//! chaos-testable.
//!
//! The numeric contract is strict: sharded inference is **bitwise
//! identical** to single-node [`gcn::GcnModel::infer_planned_with`] running a
//! width-1 (sequential) plan. Per-shard SpMM walks each row's non-zeros in
//! the same ascending column order as the single-node row loop, and the
//! packed GEMM's per-row FP sequence is row-partition-invariant — so
//! splitting work across shards never reassociates a single addition.
//!
//! [`sim`] mirrors the same partition inside the `piuma-sim` machine model
//! (HyperX hop latencies, DMA engines, per-node bandwidth) to project what
//! the partition would cost on real PIUMA nodes — that projection
//! regenerates `results/ext_multinode_scaling.csv` from first principles.

/// Task-graph executor draining shard tasks through the process pool.
pub mod exec;
/// Shard health supervision: a bounded log of typed shard-down events.
pub mod health;
/// Partitioning: NNZ/row-balanced row blocks, halo maps, exchange ledger.
pub mod partition;
/// The sharded GCN runner: per-layer task graphs with halo exchange.
pub mod runner;
/// PIUMA projection of a shard plan (regenerates the scaling CSV).
pub mod sim;

pub use exec::{RunTrace, TaskFailure, TaskGraph};
pub use health::{HealthRegistry, ShardDownCause, ShardEvent};
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
    /// Building a shard-local CSR failed (carries the sparse error text).
    Partition(String),
    /// A dense kernel inside a shard task failed.
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
    /// A halo exchange failed after exhausting its retry budget.
    Exchange(String),
    /// The task-graph executor stalled (dependency cycle or a task panic
    /// that left dependents unreleased).
    Executor(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NotSquare { rows, cols } => {
                write!(f, "adjacency must be square to shard, got {rows}x{cols}")
            }
            ShardError::ZeroWorkers => write!(f, "cannot shard across zero workers"),
            ShardError::Partition(e) => write!(f, "building shard-local CSR failed: {e}"),
            ShardError::Matrix(e) => write!(f, "kernel error inside shard task: {e}"),
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
            ShardError::Exchange(e) => write!(f, "halo exchange failed: {e}"),
            ShardError::Executor(e) => write!(f, "shard executor stalled: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<matrix::MatrixError> for ShardError {
    fn from(e: matrix::MatrixError) -> Self {
        ShardError::Matrix(e)
    }
}
