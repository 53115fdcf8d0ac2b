//! The sharded GCN inference runner: [`ShardedGcn`] is the whole-graph
//! layer loop ([`gcn::GcnModel::infer_recovering_with`] on the plan's
//! adjacency, in a workspace on the pool-width NNZ partition at the
//! runner's precision) plus the partition's ledger, which books the halo
//! bytes every completed layer's blocks read
//! ([`ShardPlan::layer_exchange`]). Its recovery is the loop's one walk —
//! retry, then a strategy rung down — and the report counts what the walk
//! did. Every kernel of the layer is row-local, so the output is bitwise
//! single-node [`gcn::GcnModel::infer_planned_with`] on a width-1 plan.

use gcn::{GcnModel, InferenceRun, InferenceWorkspace};
use matrix::{DenseMatrix, Precision};
use resilience::guard::RunGuard;
use sparse::Csr;

use crate::partition::{LayerExchange, PartitionKind, ShardPlan};
use crate::ShardError;

/// Partition statistics plus the communication ledger and the measured
/// counters of the most recent [`ShardedGcn::infer`] call.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Worker (shard) count.
    pub workers: usize,
    /// Non-zeros per shard, block order.
    pub shard_nnz: Vec<usize>,
    /// `max_shard_nnz / mean_shard_nnz` (1.0 = perfect balance).
    pub imbalance: f64,
    /// Remote rows referenced across all shards.
    pub halo_rows: usize,
    /// Total referenced rows across all shards.
    pub referenced_rows: usize,
    /// `halo_rows / referenced_rows` — fraction of referenced feature
    /// rows that cross worker boundaries.
    pub halo_fraction: f64,
    /// Static per-layer exchange ledger for the model this report was
    /// built against.
    pub layers: Vec<LayerExchange>,
    /// Ledger total: bytes the partition says must cross workers for one
    /// inference pass.
    pub ledger_bytes: u64,
    /// Bytes copied into stage buffers: always 0 (blocks read in place).
    pub staged_bytes: u64,
    /// Bytes of remote feature rows the blocks read during the last
    /// inference: the ledger of every layer it completed.
    pub halo_bytes: u64,
    /// Failed layer attempts that a retry on the same rung answered during
    /// the last inference (0 on a fault-free run).
    pub recovered_exchanges: u64,
    /// Layer attempts beyond each completed layer's first during the last
    /// inference, on any rung (0 on a fault-free run).
    pub replayed_tasks: u64,
    /// Layers that completed only after a retry or a rung down during the
    /// last inference.
    pub recovered_layers: u64,
}

/// Sharded multi-node GCN executor over a fixed partition.
#[derive(Debug)]
pub struct ShardedGcn {
    plan: ShardPlan,
    /// The requested storage precision of the SpMM feature operand.
    precision: Precision,
    ws: InferenceWorkspace,
    run: InferenceRun,
}

impl ShardedGcn {
    /// Partitions `a` across `workers` row blocks and prepares the runner
    /// at full `f32` precision (`_kind` names the one partition there is).
    ///
    /// # Errors
    ///
    /// Propagates [`ShardPlan::new`] errors.
    pub fn new(a: &Csr, workers: usize, _kind: PartitionKind) -> Result<ShardedGcn, ShardError> {
        Self::with_precision(a, workers, Precision::F32)
    }

    /// [`ShardedGcn::new`] at a narrow storage precision for the SpMM
    /// feature operand (the update stays the one `f32` GEMM), exactly like
    /// single-node [`gcn::GcnModel::infer_planned_with`] under a plan
    /// [`kernels::SpmmPlan::at_precision`]: the request is probed once, by
    /// the first call, and any ISA downgrade is kept for every call.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardPlan::new`] errors.
    pub fn with_precision(
        a: &Csr,
        workers: usize,
        precision: Precision,
    ) -> Result<ShardedGcn, ShardError> {
        Ok(ShardedGcn {
            plan: ShardPlan::new(a, workers, PartitionKind::Rows1D)?,
            precision,
            ws: InferenceWorkspace::new(),
            run: InferenceRun::default(),
        })
    }

    /// The partition this runner executes over.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Runs sharded inference, returning the output activations.
    ///
    /// # Errors
    ///
    /// Input validation mirrors the single-node entry points
    /// ([`ShardError::FeatureDimMismatch`] /
    /// [`ShardError::VertexCountMismatch`]); a layer that fails on every
    /// attempt of every rung surfaces its [`ShardError::Matrix`] (an
    /// injected fault as [`matrix::MatrixError::Fault`] naming `gcn.layer`).
    pub fn infer(
        &mut self,
        model: &GcnModel,
        features: &DenseMatrix,
    ) -> Result<DenseMatrix, ShardError> {
        self.run = InferenceRun::default();
        let guard = RunGuard::unbounded();
        let a = self.plan.adjacency();
        // Built by the first call, at pool width, and kept: an `O(1)`
        // fingerprint check after that.
        self.ws.plan_for(a, features.cols(), self.precision);
        self.run = model.infer_recovering_with(a, features, &guard, &mut self.ws)?;
        Ok(self.ws.output().clone())
    }

    /// The partition/ledger/measured-bytes report for `model`, reflecting
    /// the most recent [`ShardedGcn::infer`] call's counters.
    pub fn report(&self, model: &GcnModel) -> ShardReport {
        let layers: Vec<LayerExchange> = model
            .layers()
            .iter()
            .map(|l| self.plan.layer_exchange(l.in_dim(), l.out_dim()))
            .collect();
        let ledger_bytes = layers.iter().map(|l| l.gather_bytes).sum();
        let run = &self.run;
        let done = &layers[..run.layers_done.min(layers.len())];
        ShardReport {
            workers: self.plan.workers(),
            shard_nnz: self.plan.shard_nnz(),
            imbalance: self.plan.imbalance(),
            halo_rows: self.plan.halo_rows(),
            referenced_rows: self.plan.referenced_rows(),
            halo_fraction: self.plan.halo_fraction(),
            ledger_bytes,
            staged_bytes: 0,
            halo_bytes: done.iter().map(|l| l.gather_bytes).sum(),
            recovered_exchanges: u64::from(run.recovered_panics + run.recovered_errors),
            replayed_tasks: u64::from(run.attempts).saturating_sub(run.layers_done as u64),
            recovered_layers: run.recovered_layers as u64,
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcn::GcnConfig;
    use graph::rmat::RmatConfig;
    use graph::Graph;
    use matrix::Activation;

    #[test]
    fn a_zero_layer_model_returns_the_features() {
        // No layer runs, so the output is the input itself: the loop copies
        // the features out only in that case.
        let a = Graph::rmat(&RmatConfig::power_law(6, 4), 3)
            .normalized_adjacency()
            .unwrap();
        let config = GcnConfig {
            dims: vec![8],
            hidden_activation: Activation::Relu,
            bias: true,
        };
        let model = GcnModel::new(&config, 1);
        assert!(model.layers().is_empty());
        // A model without layers expects `input_dim() == 0` columns.
        let x = DenseMatrix::zeros(a.nrows(), model.input_dim());
        let mut sharded = ShardedGcn::new(&a, 4, PartitionKind::Rows1D).unwrap();
        assert_eq!(sharded.infer(&model, &x).unwrap(), x);
        let report = sharded.report(&model);
        assert_eq!((report.halo_bytes, report.replayed_tasks), (0, 0));
    }
}
