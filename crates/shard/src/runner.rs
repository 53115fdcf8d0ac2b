//! The sharded GCN inference runner.
//!
//! [`ShardedGcn`] executes a [`gcn::GcnModel`] over a [`ShardPlan`] the
//! way a PIUMA cluster would: every layer is one task graph of
//! `exchange(b) → compute(b)` per row block — "gather this block's
//! referenced rows into its stage buffer", then "aggregate them and run
//! the layer's tail" — drained by [`crate::exec::TaskGraph`] over the
//! shared pool. An update-first layer runs one independent `H_blk · W`
//! task per block before it. All cross-shard data moves through explicit
//! per-block copy buffers, every copy passes a fault point and is retried
//! idempotently, and the runner counts the staged/halo bytes so
//! communication volume is a measured quantity.
//!
//! The output is **bitwise identical** to single-node
//! [`gcn::GcnModel::infer_planned_with`] running a width-1 plan: per-block
//! plans are built at width 1 (always sequential — parallelism comes from
//! the task graph, not from inside a shard), each block walks its rows'
//! non-zeros in the same ascending column order as the unsharded row loop,
//! and the packed GEMM is row-partition-invariant.

use std::sync::Mutex;

use gcn::{GcnLayer, GcnModel};
use kernels::fused::FusedOrder;
use kernels::SpmmPlan;
use matrix::microkernel::{dense_update_with, KernelDispatch};
use matrix::{Activation, DenseMatrix, Precision, QuantMatrix};
use resilience::retry::{self, Recovery, RetryError, RetryPolicy};
use sparse::Csr;

use crate::exec::{self, TaskGraph};
use crate::health::{HealthRegistry, ShardDownCause, ShardEvent};
use crate::partition::{LayerExchange, PartitionKind, ShardPlan};
use crate::ShardError;

/// Upper bound on task-graph attempts per layer (first run + masked
/// replays). Hitting the bound surfaces the last typed error instead of
/// looping forever under a 100% fault rate.
pub const MAX_REPLAY_ATTEMPTS: usize = 8;

/// Per-block state: the staged feature rows (the halo landing buffer),
/// their narrow-storage encoding (written only under a narrow plan), the
/// block's cached execution plan, the aggregation accumulator, the layer
/// output rows, and the update-first staging block of `H` rows.
#[derive(Debug, Default)]
struct BlockBuf {
    feat: DenseMatrix,
    quant: QuantMatrix,
    plan: Option<SpmmPlan>,
    acc: DenseMatrix,
    out: DenseMatrix,
    hblk: DenseMatrix,
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

/// A task-level failure recorded while a layer graph was draining: the
/// typed error plus the row block it is attributed to.
#[derive(Debug, Clone)]
struct TaskFault {
    block: usize,
    error: ShardError,
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
    /// the last inference (local + halo rows, all phases).
    pub staged_bytes: u64,
    /// Measured halo subset of `staged_bytes` — rows fetched from other
    /// workers.
    pub halo_bytes: u64,
    /// Exchange attempts beyond the first (fault-injection recoveries)
    /// during the last inference.
    pub recovered_exchanges: u64,
    /// Tasks re-executed by the masked-replay recovery loop during the
    /// last inference (0 on a fault-free run).
    pub replayed_tasks: u64,
    /// Layers whose task graph needed at least one recovery replay during
    /// the last inference.
    pub recovered_layers: u64,
}

/// Sharded multi-node GCN executor over a fixed partition.
#[derive(Debug)]
pub struct ShardedGcn {
    plan: ShardPlan,
    precision: Precision,
    policy: RetryPolicy,
    kd: KernelDispatch,
    blocks: Vec<Mutex<BlockBuf>>,
    h: DenseMatrix,
    next: DenseMatrix,
    mid: DenseMatrix,
    counters: Mutex<Counters>,
    faults: Mutex<Vec<TaskFault>>,
    health: HealthRegistry,
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

    /// [`ShardedGcn::new`] at a narrow storage precision: every block's
    /// plan inherits `precision` for its SpMM feature operand (the update
    /// stays the one `f32` GEMM), exactly like single-node
    /// [`gcn::GcnModel::infer_planned_with`] under a plan
    /// [`SpmmPlan::at_precision`].
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
        let blocks = (0..plan.workers())
            .map(|_| Mutex::new(BlockBuf::default()))
            .collect();
        Ok(ShardedGcn {
            plan,
            precision,
            policy: RetryPolicy::default(),
            kd: KernelDispatch::get(),
            blocks,
            h: DenseMatrix::default(),
            next: DenseMatrix::default(),
            mid: DenseMatrix::default(),
            counters: Mutex::new(Counters::default()),
            faults: Mutex::new(Vec::new()),
            health: HealthRegistry::default(),
        })
    }

    /// The partition this runner executes over.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Storage precision the shards run at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Replaces the exchange retry policy (tests shorten the backoff).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// The shard health registry: typed shard-down events recorded by
    /// supervision. Events accumulate across inference calls (the registry
    /// ring is bounded); callers that want per-call attribution should
    /// [`HealthRegistry::clear`] between calls.
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// Runs sharded inference, returning the output activations.
    ///
    /// # Errors
    ///
    /// Input validation mirrors the single-node entry points
    /// ([`ShardError::FeatureDimMismatch`] /
    /// [`ShardError::VertexCountMismatch`]); execution errors surface as
    /// the first error any task recorded.
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
        // faults before counters: every function acquiring both keeps
        // this order, so the per-crate lock graph (L011) stays acyclic.
        lock(&self.faults).clear();
        *lock(&self.counters) = Counters::default();
        self.h.copy_from(features);
        for (layer_idx, layer) in model.layers().iter().enumerate() {
            self.run_layer(layer, layer_idx)?;
            std::mem::swap(&mut self.h, &mut self.next);
        }
        Ok(self.h.clone())
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

    /// One layer, in the fused layer's association order
    /// ([`ShardPlan::layer_exchange`]). An update-first layer
    /// (`k_in > k_out`) first runs every block's `H_blk · W` and publishes
    /// the products to `mid`. Then the `exchange(b) → compute(b)` graph
    /// aggregates `H` (aggregate-first) or `mid` (update-first), and the
    /// block outputs are scattered into the ping-pong buffer.
    fn run_layer(&mut self, layer: &GcnLayer, layer_idx: usize) -> Result<(), ShardError> {
        let ex = self.plan.layer_exchange(layer.in_dim(), layer.out_dim());
        let update_first = ex.order == FusedOrder::UpdateFirst;
        let r = self.plan.workers();
        if update_first {
            let this: &Self = self;
            this.run_recovering(&TaskGraph::new(r), layer_idx, |b| {
                this.update_task(b, layer)
            })?;
            // Publish the block products to the global mid buffer (the
            // sequential analogue of writing updates to the DGAS).
            self.mid
                .resize_for_overwrite(self.plan.nrows(), ex.agg_width);
            for (b, w) in self.plan.row_bounds().windows(2).enumerate() {
                let buf = lock(&self.blocks[b]);
                for (lu, g) in (w[0]..w[1]).enumerate() {
                    self.mid.row_mut(g).copy_from_slice(buf.out.row(lu));
                }
            }
        }
        let this: &Self = self;
        let src = if update_first { &this.mid } else { &this.h };
        let mut graph = TaskGraph::new(2 * r);
        for b in 0..r {
            graph.add_dep(r + b, b);
        }
        this.run_recovering(&graph, layer_idx, |t| {
            if t < r {
                this.exchange_task(t, src, ex.agg_width);
            } else {
                this.compute_task(t - r, layer, ex);
            }
        })?;
        self.scatter_outputs(layer.out_dim(), update_first)
    }

    /// Drains `graph` (task `t` belongs to block `t % workers`) with
    /// bounded masked-replay recovery. The first attempt runs every task;
    /// when a task panics (worker loss) or a staging copy exhausts its
    /// retries, the completed tasks' buffers are kept and only the rest is
    /// re-executed on the surviving workers. The replay mask has one rule:
    /// a fault on block `b` clears every task of `b` — its staging copy and
    /// the compute that read it. Every task overwrites its outputs, so a
    /// recovered layer is bitwise identical to a fault-free run.
    fn run_recovering<F: Fn(usize) + Sync>(
        &self,
        graph: &TaskGraph,
        layer_idx: usize,
        run_task: F,
    ) -> Result<(), ShardError> {
        let r = self.plan.workers();
        let mut done = vec![false; graph.tasks()];
        let mut replayed = 0u64;
        let mut recovered = false;
        let mut last_error = ShardError::Executor("recovery attempts exhausted".into());
        for attempt in 0..MAX_REPLAY_ATTEMPTS {
            if attempt > 0 {
                replayed += done.iter().filter(|d| !**d).count() as u64;
            }
            lock(&self.faults).clear();
            let done_ro = &done;
            let trace = graph.run_tracked(r, |t| {
                // Done in a prior attempt, or its block already faulted in
                // this one (a stale stage buffer): leave it to the mask.
                if done_ro[t] || lock(&self.faults).iter().any(|f| f.block == t % r) {
                    return;
                }
                // The chaos harness' worker-kill site. It fires before the
                // task body, so an injected kill never leaves a partial
                // in-place mutation.
                resilience::fault_point!("shard.task");
                run_task(t);
            });
            for (d, td) in done.iter_mut().zip(&trace.done) {
                *d = *d || *td;
            }
            let faults = std::mem::take(&mut *lock(&self.faults));
            // Panic captured by the executor: typed health event, then
            // decide whether the run still completed (a pool-share panic
            // can re-raise after every task drained).
            if let Some(f) = &trace.failure {
                self.health.record(ShardEvent {
                    block: f.task.map(|t| t % r),
                    layer: layer_idx,
                    cause: ShardDownCause::Panic,
                    site: f.message.clone(),
                    recovered: false,
                });
            }
            // Deterministic kernel/shape errors reproduce on replay;
            // surface them immediately.
            if let Some(bad) = faults
                .iter()
                .find(|f| !matches!(f.error, ShardError::Exchange(_)))
            {
                return Err(bad.error.clone());
            }
            if faults.is_empty() {
                if done.iter().all(|&d| d) {
                    if recovered || trace.failure.is_some() {
                        let mut ctr = lock(&self.counters);
                        ctr.replayed_tasks += replayed;
                        ctr.recovered_layers += 1;
                        drop(ctr);
                        self.health.mark_recovered(layer_idx);
                    }
                    return Ok(());
                }
                match &trace.failure {
                    Some(f) => last_error = ShardError::Executor(f.message.clone()),
                    // No failure and no fault but tasks unreleased: a
                    // dependency cycle — deterministic, do not retry.
                    None => {
                        return Err(ShardError::Executor(format!(
                            "task graph stalled with {} tasks unreleased",
                            trace.remaining
                        )))
                    }
                }
            }
            for f in faults {
                self.health.record(ShardEvent {
                    block: Some(f.block),
                    layer: layer_idx,
                    cause: ShardDownCause::ExchangeFault,
                    site: f.error.to_string(),
                    recovered: false,
                });
                // The faulted block's tasks returned normally, so their
                // done flags lie: clear them for the next attempt.
                for d in done.iter_mut().skip(f.block).step_by(r) {
                    *d = false;
                }
                last_error = f.error;
            }
            recovered = true;
        }
        Err(last_error)
    }

    /// Stages block `b`'s referenced rows of `src` into its stage buffer,
    /// retrying through the `shard.exchange` fault point.
    fn exchange_task(&self, b: usize, src: &DenseMatrix, width: usize) {
        let blk = &self.plan.blocks()[b];
        let mut buf = lock(&self.blocks[b]);
        let outcome = retry::run(&self.policy, || -> Result<u64, ShardError> {
            Ok(exec::gather_rows(&mut buf.feat, src, &blk.refs))
        });
        self.book_copy(b, outcome, (blk.halo.len() * width * 4) as u64);
    }

    /// Block `b`'s compute: aggregate its staged rows into `acc` through
    /// the block's cached width-1 plan (rebuilt when the aggregation width
    /// changes; a narrow plan encodes the staged rows first), then the
    /// layer's tail — the dense update with bias + activation written from
    /// the GEMM's register tiles (aggregate-first), or bias + activation on
    /// `acc` itself (update-first). The aggregate overwrites `acc`, so a
    /// replayed compute is idempotent.
    fn compute_task(&self, b: usize, layer: &GcnLayer, ex: LayerExchange) {
        let blk = &self.plan.blocks()[b];
        let mut buf = lock(&self.blocks[b]);
        let buf = &mut *buf;
        if !buf
            .plan
            .as_ref()
            .is_some_and(|p| p.matches(&blk.local) && p.k() == ex.agg_width)
        {
            // Width 1 => always sequential: parallelism comes from the
            // task graph, never from inside a shard, which keeps the
            // per-row floating-point order machine-independent.
            buf.plan = Some(
                SpmmPlan::with_width(&blk.local, ex.agg_width, 1).at_precision(self.precision),
            );
        }
        let plan = buf.plan.as_ref().expect("plan installed just above");
        let res = plan
            .run_at_precision_into(&blk.local, &buf.feat, &mut buf.quant, &mut buf.acc)
            .and_then(|()| match ex.order {
                FusedOrder::AggregateFirst => dense_update_with(
                    self.kd,
                    &buf.acc,
                    &layer.weight,
                    layer.bias.as_deref(),
                    layer.activation,
                    1,
                    &mut buf.out,
                ),
                FusedOrder::UpdateFirst => {
                    if let Some(bias) = &layer.bias {
                        buf.acc.add_row_bias(bias)?;
                    }
                    buf.acc.apply_activation(layer.activation);
                    Ok(())
                }
            });
        if let Err(e) = res {
            self.record(b, ShardError::Matrix(e));
        }
    }

    /// Update-first phase A on block `b`: stage its own `H` rows (retried
    /// through the `shard.stage` fault point) and multiply them by `W`
    /// into `out`; bias and activation wait until after the aggregation.
    fn update_task(&self, b: usize, layer: &GcnLayer) {
        let (r0, r1) = (self.plan.row_bounds()[b], self.plan.row_bounds()[b + 1]);
        let mut buf = lock(&self.blocks[b]);
        let buf = &mut *buf;
        let outcome = retry::run(&self.policy, || -> Result<u64, ShardError> {
            Ok(exec::stage_block(&mut buf.hblk, &self.h, r0, r1))
        });
        if !self.book_copy(b, outcome, 0) {
            return;
        }
        let res = dense_update_with(
            self.kd,
            &buf.hblk,
            &layer.weight,
            None,
            Activation::Identity,
            1,
            &mut buf.out,
        );
        if let Err(e) = res {
            self.record(b, ShardError::Matrix(e));
        }
    }

    /// Books one retried staging copy of block `b`: its bytes and
    /// recoveries when it landed, an `Exchange` fault when it exhausted
    /// its retries. Returns whether it landed.
    fn book_copy(
        &self,
        b: usize,
        outcome: Result<Recovery<u64>, RetryError<ShardError>>,
        halo_bytes: u64,
    ) -> bool {
        match outcome {
            Ok(rec) => {
                let mut c = lock(&self.counters);
                c.staged_bytes += rec.value;
                c.halo_bytes += halo_bytes;
                c.recovered_exchanges += u64::from(rec.attempts - 1);
                true
            }
            Err(e) => {
                self.record(b, ShardError::Exchange(e.to_string()));
                false
            }
        }
    }

    /// Copies per-block results into the ping-pong output buffer (`acc`
    /// after update-first, `out` after aggregate-first). The whole
    /// collection — buffer resize plus per-block scatter — runs inside one
    /// retried fault-pointed region: every write is an idempotent
    /// overwrite, so an injected panic just replays the copy.
    fn scatter_outputs(&mut self, k_out: usize, from_acc: bool) -> Result<(), ShardError> {
        let (next, plan, blocks) = (&mut self.next, &self.plan, &self.blocks);
        let outcome = retry::run(&self.policy, || -> Result<u64, ShardError> {
            resilience::fault_point!("shard.collect");
            next.resize_for_overwrite(plan.nrows(), k_out);
            let mut bytes = 0u64;
            for (block, w) in blocks.iter().zip(plan.row_bounds().windows(2)) {
                let buf = lock(block);
                let src = if from_acc { &buf.acc } else { &buf.out };
                bytes += exec::scatter_block(next, src, w[0], w[1]);
            }
            Ok(bytes)
        });
        match outcome {
            Ok(rec) => {
                lock(&self.counters).recovered_exchanges += u64::from(rec.attempts - 1);
                Ok(())
            }
            Err(e) => Err(ShardError::Exchange(e.to_string())),
        }
    }

    /// Records a task-level error of the current graph run, attributed to
    /// the block that hit it. Every fault is kept — recovery must
    /// invalidate *all* stale buffers, not just the first.
    fn record(&self, block: usize, error: ShardError) {
        lock(&self.faults).push(TaskFault { block, error });
    }
}

/// Locks ignoring poisoning: task panics are caught inside the executor,
/// and a poisoned buffer is fully overwritten by the retried attempt.
/// Routed through the audit helpers so recoveries are counted.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    resilience::audit::recover("shard.runner", m)
}
