//! The sharded GCN inference runner.
//!
//! [`ShardedGcn`] executes a [`gcn::GcnModel`] over a [`ShardPlan`] the
//! way a PIUMA cluster would: a sharded layer is the planned layer
//! ([`kernels::fused::gcn_layer_planned_into`]) with only its SpMM
//! sharded. The dense update is node-local, so it runs as one GEMM at pool
//! width over the whole activation matrix; the aggregation is one task
//! graph of `exchange(b) → aggregate(b)` per row block — "gather this
//! block's referenced rows into its stage buffer", then "aggregate them
//! straight into the block's own output rows" — drained by
//! [`crate::exec::TaskGraph`] over the shared pool. The exchange is the
//! only copy: it passes a fault point, and the runner counts its
//! staged/halo bytes so communication volume is a measured quantity.
//!
//! Recovery is one rule: a task that panics is not done, the executor
//! withholds its dependents, and the layer re-runs every task that is not
//! done, each at most [`resilience::retry::ATTEMPTS`] times.
//!
//! The output is **bitwise identical** to single-node
//! [`gcn::GcnModel::infer_planned_with`] running a width-1 plan: each block
//! walks its rows' non-zeros in the same ascending column order as the
//! unsharded row loop, and the packed GEMM is row-partition-invariant, so
//! a pool-width update equals a width-1 one.

use std::sync::Mutex;

use gcn::{GcnLayer, GcnModel};
use kernels::fused::FusedOrder;
use kernels::spmm::FeatureOperand;
use matrix::microkernel::{dense_update_with, resolve_precision, KernelDispatch};
use matrix::{Activation, DenseMatrix, MatrixError, Precision, QuantMatrix};
use resilience::retry;
use sparse::Csr;

use crate::exec::{self, TaskGraph};
use crate::partition::{LayerExchange, PartitionKind, ShardPlan};
use crate::ShardError;

/// Per-block state: the staged feature rows (the halo landing buffer) and
/// their narrow-storage encoding (written only at a narrow precision).
#[derive(Debug, Default)]
struct BlockBuf {
    feat: DenseMatrix,
    quant: QuantMatrix,
}

/// The planned layer's three n-row activation buffers: the layer input
/// `h` (unused by layer 0, which reads the features in place), the
/// intermediate `mid` and the layer output `next`.
#[derive(Debug, Default)]
struct LayerBufs {
    h: DenseMatrix,
    mid: DenseMatrix,
    next: DenseMatrix,
}

/// Communication observed during the most recent inference call.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    staged_bytes: u64,
    halo_bytes: u64,
    recovered_exchanges: u64,
    replayed_tasks: u64,
    recovered_layers: u64,
}

/// Partition statistics plus the communication ledger and the measured
/// byte counters of the most recent [`ShardedGcn::infer`] call.
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
    /// Total referenced (staged) rows across all shards.
    pub referenced_rows: usize,
    /// `halo_rows / referenced_rows` — fraction of staged feature rows
    /// that cross worker boundaries.
    pub halo_fraction: f64,
    /// Static per-layer exchange ledger for the model this report was
    /// built against.
    pub layers: Vec<LayerExchange>,
    /// Ledger total: bytes the partition says must cross workers for one
    /// inference pass.
    pub ledger_bytes: u64,
    /// Measured bytes copied through the explicit stage buffers during
    /// the last inference (local + halo rows of every exchange).
    pub staged_bytes: u64,
    /// Measured halo subset of `staged_bytes` — rows fetched from other
    /// workers.
    pub halo_bytes: u64,
    /// Exchange runs that failed and that the replay answered (the layer
    /// completed) during the last inference (0 on a fault-free run).
    pub recovered_exchanges: u64,
    /// Tasks re-executed by the replay during the last inference (0 on a
    /// fault-free run).
    pub replayed_tasks: u64,
    /// Layers whose task graph needed at least one recovery replay during
    /// the last inference.
    pub recovered_layers: u64,
}

/// Sharded multi-node GCN executor over a fixed partition.
#[derive(Debug)]
pub struct ShardedGcn {
    plan: ShardPlan,
    graph: TaskGraph,
    precision: Precision,
    kd: KernelDispatch,
    blocks: Vec<Mutex<BlockBuf>>,
    bufs: LayerBufs,
    counters: Mutex<Counters>,
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
    /// [`kernels::SpmmPlan::at_precision`]: the request is probed once
    /// here and any ISA downgrade is kept for every call.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardPlan::new`] errors.
    pub fn with_precision(
        a: &Csr,
        workers: usize,
        precision: Precision,
    ) -> Result<ShardedGcn, ShardError> {
        let plan = ShardPlan::new(a, workers, PartitionKind::Rows1D)?;
        let r = plan.workers();
        // Task `b` is block b's exchange, task `r + b` its aggregate.
        let mut graph = TaskGraph::new(2 * r);
        for b in 0..r {
            graph.add_dep(r + b, b);
        }
        let blocks = (0..r).map(|_| Mutex::new(BlockBuf::default())).collect();
        let kd = KernelDispatch::get();
        Ok(ShardedGcn {
            plan,
            graph,
            precision: resolve_precision(kd, precision).0,
            kd,
            blocks,
            bufs: LayerBufs::default(),
            counters: Mutex::new(Counters::default()),
        })
    }

    /// The partition this runner executes over.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Storage precision the shards run at (the requested one, or its ISA
    /// downgrade).
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Runs sharded inference, returning the output activations.
    ///
    /// # Errors
    ///
    /// Input validation mirrors the single-node entry points
    /// ([`ShardError::FeatureDimMismatch`] /
    /// [`ShardError::VertexCountMismatch`]); execution errors surface as
    /// the first typed error any task returned, or as
    /// [`ShardError::Executor`] once a layer's replay runs out of attempts.
    pub fn infer(
        &mut self,
        model: &GcnModel,
        features: &DenseMatrix,
    ) -> Result<DenseMatrix, ShardError> {
        if features.cols() != model.input_dim() {
            return Err(ShardError::FeatureDimMismatch {
                expected: model.input_dim(),
                actual: features.cols(),
            });
        }
        if features.rows() != self.plan.nrows() {
            return Err(ShardError::VertexCountMismatch {
                graph: self.plan.nrows(),
                features: features.rows(),
            });
        }
        *lock(&self.counters) = Counters::default();
        // The buffers leave `self` for the run, so the layer graphs can
        // borrow the runner shared while they write the buffers.
        let mut bufs = std::mem::take(&mut self.bufs);
        let run = self.run_layers(model, features, &mut bufs);
        self.bufs = bufs;
        run?;
        Ok(if model.layers().is_empty() {
            features.clone()
        } else {
            self.bufs.h.clone()
        })
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
        let c = *lock(&self.counters);
        ShardReport {
            workers: self.plan.workers(),
            shard_nnz: self.plan.shard_nnz(),
            imbalance: self.plan.imbalance(),
            halo_rows: self.plan.halo_rows(),
            referenced_rows: self.plan.referenced_rows(),
            halo_fraction: self.plan.halo_fraction(),
            layers,
            ledger_bytes,
            staged_bytes: c.staged_bytes,
            halo_bytes: c.halo_bytes,
            recovered_exchanges: c.recovered_exchanges,
            replayed_tasks: c.replayed_tasks,
            recovered_layers: c.recovered_layers,
        }
    }

    /// Every layer of `model`, layer 0 reading `features` in place; the
    /// output ends in `bufs.h`.
    fn run_layers(
        &self,
        model: &GcnModel,
        features: &DenseMatrix,
        bufs: &mut LayerBufs,
    ) -> Result<(), ShardError> {
        let LayerBufs { h, mid, next } = bufs;
        for (layer_idx, layer) in model.layers().iter().enumerate() {
            let input = if layer_idx == 0 { features } else { &*h };
            self.run_layer(layer, input, mid, next)?;
            std::mem::swap(h, next);
        }
        Ok(())
    }

    /// One layer in the fused layer's association order
    /// ([`ShardPlan::layer_exchange`]), writing `next`. Aggregate-first:
    /// the block graph aggregates `h` into `mid`, then one pool-width
    /// dense update with bias + activation writes `next`. Update-first
    /// (`k_in > k_out`): one pool-width GEMM writes `mid = h · W`, then the
    /// block graph aggregates `mid` into `next`, each block finishing its
    /// own rows with bias + activation.
    fn run_layer(
        &self,
        layer: &GcnLayer,
        h: &DenseMatrix,
        mid: &mut DenseMatrix,
        next: &mut DenseMatrix,
    ) -> Result<(), ShardError> {
        let threads = pool::global().width();
        let (w, bias) = (&layer.weight, layer.bias.as_deref());
        let ex = self.plan.layer_exchange(layer.in_dim(), layer.out_dim());
        match ex.order {
            FusedOrder::AggregateFirst => {
                self.aggregate(h, mid, None)?;
                dense_update_with(self.kd, mid, w, bias, layer.activation, threads, next)?;
            }
            FusedOrder::UpdateFirst => {
                if let Some(b) = bias.filter(|b| b.len() != w.cols()) {
                    return Err(MatrixError::DimensionMismatch {
                        op: "add_row_bias",
                        lhs: (h.rows(), w.cols()),
                        rhs: (1, b.len()),
                    }
                    .into());
                }
                dense_update_with(self.kd, h, w, None, Activation::Identity, threads, mid)?;
                self.aggregate(mid, next, Some(layer))?;
            }
        }
        Ok(())
    }

    /// The sharded SpMM `out = A · src` through the `exchange(b) →
    /// aggregate(b)` graph: each block's aggregate writes its own rows
    /// `[r0, r1)` of `out` in place, finished with `tail`'s bias +
    /// activation when given.
    fn aggregate(
        &self,
        src: &DenseMatrix,
        out: &mut DenseMatrix,
        tail: Option<&GcnLayer>,
    ) -> Result<(), ShardError> {
        let width = src.cols();
        out.resize_for_overwrite(self.plan.nrows(), width);
        // Each block owns a disjoint row range of `out`; the mutexes never
        // contend, they only hand `&mut` slices through `Fn`.
        let mut rest = out.as_mut_slice();
        let rows: Vec<Mutex<&mut [f32]>> = self
            .plan
            .row_bounds()
            .windows(2)
            .map(|w| {
                let (chunk, after) = std::mem::take(&mut rest).split_at_mut((w[1] - w[0]) * width);
                rest = after;
                Mutex::new(chunk)
            })
            .collect();
        let r = self.plan.workers();
        self.run_recovering(|t| {
            if t < r {
                self.exchange_task(t, src);
                Ok(())
            } else {
                self.aggregate_task(t - r, &rows[t - r], width, tail)
            }
        })
    }

    /// Drains the layer graph until every task is done. The first round
    /// runs every task. A task that panics (an injected kill, a failed
    /// exchange) is not done and the executor withholds its dependents, so
    /// no aggregate reads a stage buffer its exchange did not finish; the
    /// next round re-runs exactly the tasks that are not done. Every task
    /// overwrites its outputs, so a recovered layer is bitwise identical to
    /// a fault-free run.
    ///
    /// Each task gets at most [`retry::ATTEMPTS`] runs, and panics with no
    /// task attached (a pool share re-raised on the caller) spend one
    /// budget of the same size for the layer; running out ends the layer
    /// in [`ShardError::Executor`] with the layer's last panic text. A
    /// typed task error is deterministic and returns at once.
    fn run_recovering<F>(&self, run_task: F) -> Result<(), ShardError>
    where
        F: Fn(usize) -> Result<(), ShardError> + Sync,
    {
        let tasks = self.graph.tasks();
        // Runs per task, and the first typed error a task returned.
        let tally = Mutex::new((vec![0u32; tasks], None));
        let mut done = vec![false; tasks];
        let mut unattributed = 0;
        let mut replayed = 0u64;
        loop {
            let done_ro = &done;
            let trace = self.graph.run_tracked(self.plan.workers(), |t| {
                if done_ro[t] {
                    return;
                }
                lock(&tally).0[t] += 1;
                // The chaos harness' worker-kill site. It fires before the
                // task body, so an injected kill never leaves a partial
                // in-place mutation.
                resilience::fault_point!("shard.task");
                if let Err(e) = run_task(t) {
                    lock(&tally).1.get_or_insert(e);
                }
            });
            let mut book = lock(&tally);
            let (runs, error) = &mut *book;
            if let Some(e) = error.take() {
                return Err(e);
            }
            for (d, td) in done.iter_mut().zip(&trace.done) {
                *d |= *td;
            }
            if done.iter().all(|&d| d) {
                // A pool-share panic can re-raise after every task drained:
                // the layer completed, but it still counts as recovered.
                if replayed > 0 || trace.failure.is_some() {
                    let r = self.plan.workers();
                    let mut c = lock(&self.counters);
                    c.recovered_exchanges +=
                        runs[..r].iter().map(|&n| u64::from(n - 1)).sum::<u64>();
                    c.replayed_tasks += replayed;
                    c.recovered_layers += 1;
                }
                return Ok(());
            }
            let Some(failure) = trace.failure else {
                // Nothing failed yet tasks are left: a dependency cycle,
                // which no replay can fix.
                return Err(ShardError::Executor(format!(
                    "task graph stalled with {} tasks unreleased",
                    trace.remaining
                )));
            };
            unattributed += u32::from(failure.task.is_none());
            if unattributed >= retry::ATTEMPTS {
                return Err(ShardError::Executor(format!(
                    "{unattributed} panics outside any task: {}",
                    failure.message
                )));
            }
            // A task that is not done failed every run it had.
            if let Some(t) = (0..tasks).find(|&t| !done[t] && runs[t] >= retry::ATTEMPTS) {
                return Err(ShardError::Executor(format!(
                    "task {t} failed all {} runs: {}",
                    runs[t], failure.message
                )));
            }
            replayed += done.iter().filter(|d| !**d).count() as u64;
        }
    }

    /// Stages block `b`'s referenced rows of `src` into its stage buffer
    /// and books the copy's bytes. An injected `shard.exchange` fault
    /// panics out of the copy before it books anything; the executor then
    /// withholds the block's aggregate and the replay re-runs the copy.
    fn exchange_task(&self, b: usize, src: &DenseMatrix) {
        let blk = &self.plan.blocks()[b];
        let staged = exec::gather_rows(&mut lock(&self.blocks[b]).feat, src, &blk.refs);
        let mut c = lock(&self.counters);
        c.staged_bytes += staged;
        c.halo_bytes += (blk.halo.len() * src.cols() * 4) as u64;
    }

    /// Block `b`'s aggregate: its local-CSR row loop over the staged rows
    /// (encoded first at a narrow precision), written straight into its
    /// `rows` of the layer output and finished with `tail`'s bias +
    /// activation when given. Every row is overwritten, so a replayed
    /// aggregate is idempotent.
    fn aggregate_task(
        &self,
        b: usize,
        rows: &Mutex<&mut [f32]>,
        width: usize,
        tail: Option<&GcnLayer>,
    ) -> Result<(), ShardError> {
        let local = &self.plan.blocks()[b].local;
        let mut buf = lock(&self.blocks[b]);
        let buf = &mut *buf;
        let mut rows = lock(rows);
        match self.precision {
            Precision::F32 => fill_rows(self.kd, local, &buf.feat, &mut rows, width, tail),
            narrow => {
                buf.quant.encode(&buf.feat, narrow)?;
                fill_rows(self.kd, local, &buf.quant, &mut rows, width, tail);
            }
        }
        Ok(())
    }
}

/// `out = local · x` row by row (`width` lanes per row), each row one
/// [`FeatureOperand::fill_row`] over its non-zeros in ascending column
/// order — the unsharded row loop's exact FP sequence — then `tail`'s bias
/// and activation on the finished row.
fn fill_rows<F: FeatureOperand>(
    kd: KernelDispatch,
    local: &Csr,
    x: &F,
    out: &mut [f32],
    width: usize,
    tail: Option<&GcnLayer>,
) {
    for u in 0..local.nrows() {
        let y = &mut out[u * width..(u + 1) * width];
        x.fill_row(kd, y, local.row_cols(u), local.row_values(u));
        if let Some(layer) = tail {
            if let Some(bias) = &layer.bias {
                for (v, b) in y.iter_mut().zip(bias) {
                    *v += b;
                }
            }
            layer.activation.apply_in_place(y);
        }
    }
}

/// Locks ignoring poisoning: task panics are caught inside the executor,
/// and a poisoned buffer is fully overwritten by the replayed task.
/// Routed through the audit helpers so recoveries are counted.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    resilience::audit::recover("shard.runner", m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_typed_task_error_returns_without_a_replay() {
        let a = graph::Graph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3)])
            .normalized_adjacency()
            .unwrap();
        let sharded = ShardedGcn::new(&a, 2, PartitionKind::Rows1D).unwrap();
        let runs = Mutex::new(vec![0; sharded.graph.tasks()]);
        let typed = ShardError::Partition("typed".into());
        let err = sharded
            .run_recovering(|t| {
                lock(&runs)[t] += 1;
                if t == 0 {
                    Err(typed.clone())
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert_eq!(err, typed);
        // One round and no replay: every task ran at most once.
        assert!(lock(&runs).iter().all(|&n| n <= 1));
        assert_eq!(lock(&sharded.counters).replayed_tasks, 0);
    }
}
