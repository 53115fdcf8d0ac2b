//! The sharded GCN inference runner.
//!
//! [`ShardedGcn`] executes a [`gcn::GcnModel`] over a [`ShardPlan`] the
//! way a PIUMA cluster would: a sharded layer is the planned layer
//! ([`kernels::fused::gcn_layer_planned_into`]) with only its SpMM
//! sharded. The dense update is node-local, so it runs as one GEMM at pool
//! width over the whole activation matrix; the aggregation is one task
//! graph of `exchange(b) → aggregate(b)` per row block, drained by
//! [`crate::exec::TaskGraph`] over the shared pool. Every block shares one
//! address space, so nothing is copied: `exchange(b)` passes the
//! `shard.exchange` fault point and books the block's halo bytes, and
//! `aggregate(b)` reads the layer operand in place, at the adjacency's
//! global column ids, straight into the block's own output rows. At a
//! narrow precision the operand is encoded once per layer, before the
//! graph runs, and every block reads that one encoding.
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

use crate::exec::TaskGraph;
use crate::partition::{LayerExchange, PartitionKind, ShardPlan};
use crate::ShardError;

/// The planned layer's three n-row activation buffers: the layer input
/// `h` (unused by layer 0, which reads the features in place), the
/// intermediate `mid` and the layer output `next`; plus `quant`, the
/// aggregated operand's narrow encoding (written only at a narrow
/// precision).
#[derive(Debug, Default)]
struct LayerBufs {
    h: DenseMatrix,
    mid: DenseMatrix,
    next: DenseMatrix,
    quant: QuantMatrix,
}

/// Communication observed during the most recent inference call.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
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
    /// Bytes copied into stage buffers: always 0, because nothing is
    /// staged — every block reads the layer operand in place, and its
    /// remote reads are `halo_bytes`.
    pub staged_bytes: u64,
    /// Measured bytes of remote feature rows the blocks read during the
    /// last inference (booked by every exchange).
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
        let kd = KernelDispatch::get();
        Ok(ShardedGcn {
            plan,
            graph,
            precision: resolve_precision(kd, precision).0,
            kd,
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
    /// [`ShardError::VertexCountMismatch`]); a dense update or a narrow
    /// encode surfaces its [`ShardError::Matrix`], and a layer whose replay
    /// runs out of attempts ends in [`ShardError::Executor`].
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
            staged_bytes: 0,
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
        let LayerBufs {
            h,
            mid,
            next,
            quant,
        } = bufs;
        for (layer_idx, layer) in model.layers().iter().enumerate() {
            let input = if layer_idx == 0 { features } else { &*h };
            self.run_layer(layer, input, mid, next, quant)?;
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
        quant: &mut QuantMatrix,
    ) -> Result<(), ShardError> {
        let threads = pool::global().width();
        let (w, bias) = (&layer.weight, layer.bias.as_deref());
        let ex = self.plan.layer_exchange(layer.in_dim(), layer.out_dim());
        match ex.order {
            FusedOrder::AggregateFirst => {
                self.aggregate(h, quant, mid, None)?;
                dense_update_with(self.kd, mid, w, bias, layer.activation, threads, None, next)?;
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
                dense_update_with(
                    self.kd,
                    h,
                    w,
                    None,
                    Activation::Identity,
                    threads,
                    None,
                    mid,
                )?;
                self.aggregate(mid, quant, next, Some(layer))?;
            }
        }
        Ok(())
    }

    /// The sharded SpMM `out = A · src` through the `exchange(b) →
    /// aggregate(b)` graph: each block's aggregate reads `src` in place
    /// (through its one narrow encoding in `quant` at a narrow precision)
    /// and writes its own rows `[r0, r1)` of `out`, finished with `tail`'s
    /// bias + activation when given.
    fn aggregate(
        &self,
        src: &DenseMatrix,
        quant: &mut QuantMatrix,
        out: &mut DenseMatrix,
        tail: Option<&GcnLayer>,
    ) -> Result<(), ShardError> {
        match self.precision {
            Precision::F32 => self.run_blocks(src, out, tail),
            narrow => {
                quant.encode(src, None, narrow)?;
                self.run_blocks(&*quant, out, tail)
            }
        }
    }

    /// Drains the layer's block graph over operand `x` into `out`.
    fn run_blocks<F: FeatureOperand>(
        &self,
        x: &F,
        out: &mut DenseMatrix,
        tail: Option<&GcnLayer>,
    ) -> Result<(), ShardError> {
        let width = x.shape().1;
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
                self.exchange_task(t, width);
            } else {
                self.aggregate_task(t - r, x, &mut lock(&rows[t - r]), width, tail);
            }
        })
    }

    /// Drains the layer graph until every task is done. The first round
    /// runs every task. A task that panics (an injected kill, a failed
    /// exchange) is not done and the executor withholds its dependents, so
    /// no aggregate runs before its exchange finished; the next round
    /// re-runs exactly the tasks that are not done. Every task overwrites
    /// its outputs, so a recovered layer is bitwise identical to a
    /// fault-free run.
    ///
    /// Each task gets at most [`retry::ATTEMPTS`] runs, and panics with no
    /// task attached (a pool share re-raised on the caller) spend one
    /// budget of the same size for the layer; running out ends the layer
    /// in [`ShardError::Executor`] with the layer's last panic text.
    fn run_recovering<F>(&self, run_task: F) -> Result<(), ShardError>
    where
        F: Fn(usize) + Sync,
    {
        let tasks = self.graph.tasks();
        // Runs per task.
        let runs = Mutex::new(vec![0u32; tasks]);
        let mut done = vec![false; tasks];
        let mut unattributed = 0;
        let mut replayed = 0u64;
        loop {
            let done_ro = &done;
            let trace = self.graph.run_tracked(self.plan.workers(), |t| {
                if done_ro[t] {
                    return;
                }
                lock(&runs)[t] += 1;
                // The chaos harness' worker-kill site. It fires before the
                // task body, so an injected kill never leaves a partial
                // in-place mutation.
                resilience::fault_point!("shard.task");
                run_task(t);
            });
            let book = lock(&runs);
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
                        book[..r].iter().map(|&n| u64::from(n - 1)).sum::<u64>();
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
            if let Some(t) = (0..tasks).find(|&t| !done[t] && book[t] >= retry::ATTEMPTS) {
                return Err(ShardError::Executor(format!(
                    "task {t} failed all {} runs: {}",
                    book[t], failure.message
                )));
            }
            replayed += done.iter().filter(|d| !**d).count() as u64;
        }
    }

    /// Block `b`'s exchange: it copies nothing — its aggregate reads the
    /// remote rows in place — but passes the `shard.exchange` fault point
    /// and books the block's halo bytes at the layer's aggregation
    /// `width`. An injected fault panics before the booking; the executor
    /// then withholds the block's aggregate and the replay re-runs the
    /// exchange.
    fn exchange_task(&self, b: usize, width: usize) {
        resilience::fault_point!("shard.exchange");
        let halo = self.plan.blocks()[b].halo.len();
        lock(&self.counters).halo_bytes += (halo * width * 4) as u64;
    }

    /// Block `b`'s aggregate: the adjacency's row loop over the block's
    /// rows, reading `x` at global column ids, written straight into its
    /// `rows` of the layer output and finished with `tail`'s bias +
    /// activation when given. Every row is overwritten, so a replayed
    /// aggregate is idempotent.
    fn aggregate_task<F: FeatureOperand>(
        &self,
        b: usize,
        x: &F,
        rows: &mut [f32],
        width: usize,
        tail: Option<&GcnLayer>,
    ) {
        let blk = &self.plan.blocks()[b];
        let a = self.plan.adjacency();
        for (i, u) in (blk.row_start..blk.row_end).enumerate() {
            let y = &mut rows[i * width..(i + 1) * width];
            x.fill_row(self.kd, y, a.row_cols(u), a.row_values(u));
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
}

/// Locks ignoring poisoning: task panics are caught inside the executor,
/// and a poisoned buffer is fully overwritten by the replayed task.
/// Routed through the audit helpers so recoveries are counted.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    resilience::audit::recover("shard.runner", m)
}
