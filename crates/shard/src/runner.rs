//! The sharded GCN inference runner.
//!
//! [`ShardedGcn`] executes a [`gcn::GcnModel`] over a [`ShardPlan`] the
//! way a PIUMA cluster would: every layer becomes one (aggregate-first)
//! or two (update-first) task graphs whose nodes are "gather this shard's
//! halo into its landing buffer" and "run this shard's kernel", drained by
//! [`crate::exec::TaskGraph`] over the shared pool. All cross-shard data
//! moves through explicit per-shard copy buffers, every gather passes a
//! `shard.exchange` fault point and is retried idempotently, and the
//! runner counts the staged/halo bytes so communication volume is a
//! measured quantity.
//!
//! The output is **bitwise identical** to single-node
//! [`gcn::GcnModel::infer_planned_with`] running a width-1 plan: per-shard
//! plans are built at width 1 (always sequential — parallelism comes from
//! the task graph, not from inside a shard), 2D column blocks accumulate
//! in ascending order so each output element sees the exact same
//! floating-point sequence as the unsharded row walk, and the packed GEMM
//! is row-partition-invariant.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use gcn::{GcnLayer, GcnModel};
use kernels::SpmmPlan;
use matrix::microkernel::{dense_update_with, KernelDispatch};
use matrix::{Activation, DenseMatrix, Precision, QuantMatrix};
use resilience::retry::{self, RetryPolicy};
use sparse::Csr;

use crate::exec::{self, TaskGraph};
use crate::health::{HealthRegistry, ShardDownCause, ShardEvent};
use crate::partition::{LayerExchange, PartitionKind, ShardPlan};
use crate::ShardError;

/// Upper bound on task-graph attempts per layer (first run + masked
/// replays). Hitting the bound surfaces the last typed error instead of
/// looping forever under a 100% fault rate.
pub const MAX_REPLAY_ATTEMPTS: usize = 8;

/// Per-worker exchange state: the staged feature rows (the halo landing
/// buffer), their narrow-storage encoding (written only under a narrow
/// plan), and the shard's cached execution plan.
#[derive(Debug, Default)]
struct StageBuf {
    feat: DenseMatrix,
    quant: QuantMatrix,
    plan: Option<SpmmPlan>,
}

/// Per-row-block dense state: the aggregation accumulator, the layer
/// output rows, and the update-first staging block of `H` rows.
#[derive(Debug, Default)]
struct RowBuf {
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
/// typed error plus the shard / row block it is attributed to.
#[derive(Debug, Clone)]
struct TaskFault {
    shard: Option<usize>,
    row_block: Option<usize>,
    error: ShardError,
}

/// Which task layout a layer graph uses — how task IDs map back to
/// shards and row blocks for failure attribution and chain-consistent
/// replay masking.
#[derive(Debug, Clone, Copy)]
enum GraphShape {
    /// `w` exchange tasks, `w` aggregate tasks, `r` tail tasks
    /// (update or finish): the aggregate-first / phase-B layout.
    ExchangeAggregate {
        /// Row blocks.
        r: usize,
        /// Column blocks.
        c: usize,
    },
    /// `r` independent per-row-block tasks (update-first phase A).
    RowBlocks,
}

impl GraphShape {
    /// `(shard, row_block)` attribution for task `t`.
    fn locate(self, t: usize) -> (Option<usize>, Option<usize>) {
        match self {
            GraphShape::ExchangeAggregate { r, c } => {
                let w = r * c;
                if t < w {
                    (Some(t), Some(t / c))
                } else if t < 2 * w {
                    (Some(t - w), Some((t - w) / c))
                } else {
                    (None, Some(t - 2 * w))
                }
            }
            GraphShape::RowBlocks => (None, Some(t)),
        }
    }
}

/// Partition statistics plus the communication ledger and the measured
/// byte counters of the most recent [`ShardedGcn::infer`] call.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Worker (shard) count.
    pub workers: usize,
    /// Partition kind the plan was built with.
    pub kind: PartitionKind,
    /// Grid shape `(row_blocks, col_blocks)`.
    pub grid: (usize, usize),
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
    stages: Vec<Mutex<StageBuf>>,
    rows: Vec<Mutex<RowBuf>>,
    h: DenseMatrix,
    next: DenseMatrix,
    mid: DenseMatrix,
    counters: Mutex<Counters>,
    faults: Mutex<Vec<TaskFault>>,
    health: HealthRegistry,
    task_deadline: Option<Duration>,
}

impl ShardedGcn {
    /// Partitions `a` across `workers` shards and prepares the runner at
    /// full `f32` precision.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardPlan::new`] errors.
    pub fn new(a: &Csr, workers: usize, kind: PartitionKind) -> Result<ShardedGcn, ShardError> {
        Self::with_precision(a, workers, kind, Precision::F32)
    }

    /// [`ShardedGcn::new`] at a narrow storage precision: every shard's
    /// plan inherits `precision` for its SpMM feature operand (the update
    /// stays the one `f32` GEMM), exactly like single-node
    /// [`gcn::GcnModel::infer_planned_with`] under a plan
    /// [`SpmmPlan::at_precision`].
    ///
    /// # Errors
    ///
    /// [`ShardError::UnsupportedPrecision`] for a narrow precision on a
    /// multi-column (2D) grid — partial aggregates have no quantized
    /// accumulation path — plus [`ShardPlan::new`] errors.
    pub fn with_precision(
        a: &Csr,
        workers: usize,
        kind: PartitionKind,
        precision: Precision,
    ) -> Result<ShardedGcn, ShardError> {
        let plan = ShardPlan::new(a, workers, kind)?;
        if precision != Precision::F32 && plan.grid().1 > 1 {
            return Err(ShardError::UnsupportedPrecision(precision));
        }
        let stages = (0..plan.workers())
            .map(|_| Mutex::new(StageBuf::default()))
            .collect();
        let rows = (0..plan.grid().0)
            .map(|_| Mutex::new(RowBuf::default()))
            .collect();
        let workers = plan.workers();
        Ok(ShardedGcn {
            plan,
            precision,
            policy: RetryPolicy::default(),
            kd: KernelDispatch::get(),
            stages,
            rows,
            h: DenseMatrix::default(),
            next: DenseMatrix::default(),
            mid: DenseMatrix::default(),
            counters: Mutex::new(Counters::default()),
            faults: Mutex::new(Vec::new()),
            health: HealthRegistry::new(workers),
            task_deadline: None,
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

    /// Arms per-task deadline supervision: a task whose wall-clock run
    /// time exceeds `deadline` is reported to the health registry as a
    /// [`ShardDownCause::DeadlineOverrun`] (the task's result is kept —
    /// the overrun is a straggler signal, not a failure). `None` disables
    /// the check.
    pub fn set_task_deadline(&mut self, deadline: Option<Duration>) {
        self.task_deadline = deadline;
    }

    /// The shard health registry: typed shard-down events recorded by
    /// supervision, and per-shard strike counts. Events accumulate across
    /// inference calls (the registry ring is bounded); callers that want
    /// per-call attribution should [`HealthRegistry::clear`] between
    /// calls.
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
            if layer.in_dim() <= layer.out_dim() {
                self.layer_aggregate_first(layer, layer_idx)?;
            } else {
                self.layer_update_first(layer, layer_idx)?;
            }
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
        let ledger_bytes = layers.iter().map(LayerExchange::total_bytes).sum();
        let c = *lock(&self.counters);
        ShardReport {
            workers: self.plan.workers(),
            kind: self.plan.kind(),
            grid: self.plan.grid(),
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

    /// Aggregate-first layer (`k_in <= k_out`): one task graph of
    /// exchange → aggregation chain → per-row-block update, then a
    /// sequential scatter of the block outputs into the ping-pong buffer.
    fn layer_aggregate_first(
        &mut self,
        layer: &GcnLayer,
        layer_idx: usize,
    ) -> Result<(), ShardError> {
        let (r, c) = self.plan.grid();
        let w = r * c;
        let k_in = layer.in_dim();
        let graph = exchange_aggregate_graph(r, c);
        let this: &Self = self;
        this.run_recovering(
            &graph,
            w.max(r),
            layer_idx,
            GraphShape::ExchangeAggregate { r, c },
            |t| {
                if t < w {
                    this.exchange_task(t, &this.h, k_in);
                } else if t < 2 * w {
                    this.aggregate_task(t - w, k_in);
                } else {
                    this.update_task(t - 2 * w, layer, true);
                }
            },
        )?;
        self.scatter_outputs(layer.out_dim(), false)
    }

    /// Update-first layer (`k_in > k_out`): phase A runs the per-row-block
    /// GEMM `H_blk * W` into `mid`, phase B exchanges `mid` rows and
    /// aggregates them, finishing with bias + activation per row block.
    fn layer_update_first(&mut self, layer: &GcnLayer, layer_idx: usize) -> Result<(), ShardError> {
        let (r, c) = self.plan.grid();
        let w = r * c;
        let k_out = layer.out_dim();
        // Phase A: independent per-row-block updates.
        let phase_a = TaskGraph::new(r);
        let this: &Self = self;
        this.run_recovering(&phase_a, r, layer_idx, GraphShape::RowBlocks, |i| {
            this.update_task(i, layer, false)
        })?;
        // Gather the block products into the global mid buffer (the
        // sequential analogue of publishing updates to the DGAS).
        self.mid.resize_for_overwrite(self.plan.nrows(), k_out);
        for i in 0..r {
            let rb = lock(&self.rows[i]);
            let (r0, r1) = (self.plan.row_bounds()[i], self.plan.row_bounds()[i + 1]);
            for (lu, g) in (r0..r1).enumerate() {
                self.mid.row_mut(g).copy_from_slice(rb.out.row(lu));
            }
        }
        // Phase B: exchange mid rows, aggregate, then bias + activation.
        let graph = exchange_aggregate_graph(r, c);
        let this: &Self = self;
        this.run_recovering(
            &graph,
            w.max(r),
            layer_idx,
            GraphShape::ExchangeAggregate { r, c },
            |t| {
                if t < w {
                    this.exchange_task(t, &this.mid, k_out);
                } else if t < 2 * w {
                    this.aggregate_task(t - w, k_out);
                } else {
                    this.finish_task(t - 2 * w, layer);
                }
            },
        )?;
        self.scatter_outputs(k_out, true)
    }

    /// Drains `graph` with supervision and bounded masked-replay
    /// recovery. The first attempt runs every task; when a task panics
    /// (worker loss), an exchange exhausts its retries, or a kernel
    /// records a recoverable fault, the completed tasks' buffers are kept
    /// and only the incomplete remainder — widened to whole aggregation
    /// chains, whose accumulation is not idempotent — is re-executed on
    /// the surviving workers. Because every replayed region either fully
    /// overwrites its output buffer or replays its accumulation chain
    /// from the overwriting first block, a recovered layer is bitwise
    /// identical to a fault-free run.
    fn run_recovering<F: Fn(usize) + Sync>(
        &self,
        graph: &TaskGraph,
        lanes: usize,
        layer_idx: usize,
        shape: GraphShape,
        run_task: F,
    ) -> Result<(), ShardError> {
        let total = graph.tasks();
        let mut done = vec![false; total];
        let mut replayed = 0u64;
        let mut recovered = false;
        let mut last_error = ShardError::Executor("recovery attempts exhausted".into());
        for attempt in 0..MAX_REPLAY_ATTEMPTS {
            if attempt > 0 {
                replayed += done.iter().filter(|d| !**d).count() as u64;
            }
            lock(&self.faults).clear();
            let done_ro = &done;
            let trace = graph.run_tracked(lanes, |t| {
                if done_ro[t] {
                    return; // already completed in a prior attempt
                }
                self.supervised(t, layer_idx, shape, &run_task);
            });
            for (d, td) in done.iter_mut().zip(&trace.done) {
                *d = *d || *td;
            }
            let faults = std::mem::take(&mut *lock(&self.faults));
            // Panic captured by the executor: typed health event, then
            // decide whether the run still completed (a pool-share panic
            // can re-raise after every task drained).
            if let Some(f) = &trace.failure {
                let (shard, row_block) = match f.task {
                    Some(t) => shape.locate(t),
                    None => (None, None),
                };
                self.health.record(ShardEvent {
                    shard,
                    row_block,
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
                    shard: f.shard,
                    row_block: f.row_block,
                    layer: layer_idx,
                    cause: ShardDownCause::ExchangeFault,
                    site: f.error.to_string(),
                    recovered: false,
                });
                // The faulted task returned normally after recording, so
                // its done flag lies: clear it (and anything its stale
                // buffer feeds) for the next attempt.
                clear_attributed(&mut done, shape, f.shard, f.row_block);
                last_error = f.error;
            }
            // Widen the replay set to chain granularity: an aggregation
            // chain accumulates in place, so a partially-complete chain
            // must restart from its overwriting first block.
            widen_to_chains(&mut done, shape);
            recovered = true;
        }
        Err(last_error)
    }

    /// Per-task supervision wrapper: the `shard.task` fault point (the
    /// chaos harness' worker-kill site — it fires *before* the task body,
    /// so an injected kill never leaves a partial in-place mutation) plus
    /// per-task deadline timing.
    fn supervised<F: Fn(usize)>(
        &self,
        t: usize,
        layer_idx: usize,
        shape: GraphShape,
        run_task: &F,
    ) {
        resilience::fault_point!("shard.task");
        let started = self.task_deadline.map(|_| Instant::now());
        run_task(t);
        if let (Some(deadline), Some(at)) = (self.task_deadline, started) {
            let took = at.elapsed();
            if took > deadline {
                let (shard, row_block) = shape.locate(t);
                self.health.record(ShardEvent {
                    shard,
                    row_block,
                    layer: layer_idx,
                    cause: ShardDownCause::DeadlineOverrun,
                    site: format!("shard.task[{t}] ran {took:?} (deadline {deadline:?})"),
                    // The task completed; the overrun is advisory.
                    recovered: true,
                });
            }
        }
    }

    /// Stages shard `b`'s referenced rows of `src` into its landing
    /// buffer, retrying through the fault point.
    fn exchange_task(&self, b: usize, src: &DenseMatrix, width: usize) {
        let blk = &self.plan.blocks()[b];
        let mut st = lock(&self.stages[b]);
        let st = &mut *st;
        let outcome = retry::run(&self.policy, || -> Result<u64, ShardError> {
            Ok(exec::gather_rows(&mut st.feat, src, &blk.refs))
        });
        match outcome {
            Ok(rec) => {
                let mut c = lock(&self.counters);
                c.staged_bytes += rec.value;
                c.halo_bytes += (blk.halo.len() * width * 4) as u64;
                c.recovered_exchanges += u64::from(rec.attempts - 1);
            }
            Err(e) => self.record(Some(b), None, ShardError::Exchange(e.to_string())),
        }
    }

    /// Aggregates shard `b`'s local block: column block 0 runs the
    /// shard's cached width-1 plan (rebuilt when the aggregation width
    /// changes) at the runner's precision — a narrow plan encodes the
    /// staged rows first — and later column blocks accumulate in
    /// ascending order.
    fn aggregate_task(&self, b: usize, k_agg: usize) {
        let (_, c) = self.plan.grid();
        let blk = &self.plan.blocks()[b];
        let i = b / c;
        let j = b % c;
        let mut st = lock(&self.stages[b]);
        let st = &mut *st;
        let mut rb = lock(&self.rows[i]);
        if j == 0 {
            if !st
                .plan
                .as_ref()
                .is_some_and(|p| p.matches(&blk.local) && p.k() == k_agg)
            {
                // Width 1 => always sequential: parallelism comes from the
                // task graph, never from inside a shard, which keeps the
                // per-row floating-point order machine-independent.
                st.plan =
                    Some(SpmmPlan::with_width(&blk.local, k_agg, 1).at_precision(self.precision));
            }
            let plan = st.plan.as_ref().expect("plan installed just above");
            let res = plan.run_at_precision_into(&blk.local, &st.feat, &mut st.quant, &mut rb.acc);
            if let Err(e) = res {
                self.record(Some(b), Some(i), ShardError::Matrix(e));
            }
        } else {
            exec::accumulate_block(self.kd, &blk.local, &st.feat, &mut rb.acc);
        }
    }

    /// Runs row block `i`'s dense update. With `from_acc` the GEMM input
    /// is the aggregation accumulator (aggregate-first) and bias +
    /// activation are applied in the same pass, from the GEMM's register
    /// tiles; otherwise the input is the staged `H`
    /// block (update-first phase A) and the raw product is kept for the
    /// later aggregation.
    fn update_task(&self, i: usize, layer: &GcnLayer, from_acc: bool) {
        let mut rb = lock(&self.rows[i]);
        let rb = &mut *rb;
        if !from_acc {
            let (r0, r1) = (self.plan.row_bounds()[i], self.plan.row_bounds()[i + 1]);
            let outcome = retry::run(&self.policy, || -> Result<u64, ShardError> {
                Ok(exec::stage_block(&mut rb.hblk, &self.h, r0, r1))
            });
            match outcome {
                Ok(rec) => {
                    let mut c = lock(&self.counters);
                    c.staged_bytes += rec.value;
                    c.recovered_exchanges += u64::from(rec.attempts - 1);
                }
                Err(e) => {
                    self.record(None, Some(i), ShardError::Exchange(e.to_string()));
                    return;
                }
            }
        }
        let (a, bias, act) = if from_acc {
            (&rb.acc, layer.bias.as_deref(), layer.activation)
        } else {
            (&rb.hblk, None, Activation::Identity)
        };
        let res = dense_update_with(self.kd, a, &layer.weight, bias, act, 1, &mut rb.out);
        if let Err(e) = res {
            self.record(None, Some(i), ShardError::Matrix(e));
        }
    }

    /// Update-first epilogue on row block `i`: bias + activation applied
    /// to the aggregated accumulator (which already holds `A_blk * mid`).
    fn finish_task(&self, i: usize, layer: &GcnLayer) {
        let mut rb = lock(&self.rows[i]);
        if let Some(bias) = &layer.bias {
            if let Err(e) = rb.acc.add_row_bias(bias) {
                self.record(None, Some(i), ShardError::Matrix(e));
                return;
            }
        }
        rb.acc.apply_activation(layer.activation);
    }

    /// Copies per-row-block results into the ping-pong output buffer
    /// (`acc` after update-first, `out` after aggregate-first). The whole
    /// collection — buffer resize plus per-block scatter — runs inside one
    /// retried fault-pointed region: every write is an idempotent
    /// overwrite, so an injected panic just replays the copy.
    fn scatter_outputs(&mut self, k_out: usize, from_acc: bool) -> Result<(), ShardError> {
        let (r, _) = self.plan.grid();
        let (next, plan, rows) = (&mut self.next, &self.plan, &self.rows);
        let outcome = retry::run(&self.policy, || -> Result<u64, ShardError> {
            resilience::fault_point!("shard.collect");
            next.resize_for_overwrite(plan.nrows(), k_out);
            let mut bytes = 0u64;
            for (i, row) in rows.iter().enumerate().take(r) {
                let rb = lock(row);
                let src = if from_acc { &rb.acc } else { &rb.out };
                let (r0, r1) = (plan.row_bounds()[i], plan.row_bounds()[i + 1]);
                bytes += exec::scatter_block(next, src, r0, r1);
            }
            Ok(bytes)
        });
        match outcome {
            Ok(rec) => {
                let mut c = lock(&self.counters);
                c.recovered_exchanges += u64::from(rec.attempts - 1);
                Ok(())
            }
            Err(e) => Err(ShardError::Exchange(e.to_string())),
        }
    }

    /// Records a task-level error of the current graph run, attributed to
    /// the shard / row block that hit it. Every fault is kept — recovery
    /// must invalidate *all* stale buffers, not just the first.
    fn record(&self, shard: Option<usize>, row_block: Option<usize>, e: ShardError) {
        lock(&self.faults).push(TaskFault {
            shard,
            row_block,
            error: e,
        });
    }
}

/// Builds the exchange → aggregation-chain → tail task graph shared by
/// aggregate-first layers and update-first phase B: tasks `0..w` exchange,
/// `w..2w` aggregate (chained per row block in ascending column order),
/// `2w..2w+r` run the per-row-block tail.
fn exchange_aggregate_graph(r: usize, c: usize) -> TaskGraph {
    let w = r * c;
    let mut graph = TaskGraph::new(2 * w + r);
    for i in 0..r {
        for j in 0..c {
            let b = i * c + j;
            graph.add_dep(w + b, b);
            if j > 0 {
                graph.add_dep(w + b, w + b - 1);
            }
        }
        graph.add_dep(2 * w + i, w + (i * c + c - 1));
    }
    graph
}

/// Clears the completion flags a recorded task fault invalidates: the
/// faulted shard's exchange (its landing buffer is stale) and the whole
/// aggregation chain of the attributed row block.
fn clear_attributed(
    done: &mut [bool],
    shape: GraphShape,
    shard: Option<usize>,
    row: Option<usize>,
) {
    match shape {
        GraphShape::ExchangeAggregate { r, c } => {
            if let Some(b) = shard {
                if let Some(d) = done.get_mut(b) {
                    *d = false;
                }
            }
            let row = row.or(shard.map(|b| b / c));
            if let Some(i) = row {
                for t in chain_tasks(i, r, c) {
                    if let Some(d) = done.get_mut(t) {
                        *d = false;
                    }
                }
            }
        }
        GraphShape::RowBlocks => {
            if let Some(i) = row {
                if let Some(d) = done.get_mut(i) {
                    *d = false;
                }
            }
        }
    }
}

/// Task IDs of row block `i`'s aggregation chain plus its tail task in an
/// exchange-aggregate graph.
fn chain_tasks(i: usize, r: usize, c: usize) -> impl Iterator<Item = usize> {
    let w = r * c;
    (w + i * c..w + (i + 1) * c).chain(std::iter::once(2 * w + i))
}

/// Chain-consistency pass over the replay mask: 2D aggregation chains
/// accumulate into one accumulator in place, so if *any* task of a row
/// block's chain (or its tail) is incomplete, the whole chain must replay
/// from its overwriting first block. Completed exchanges stay completed —
/// their landing buffers are untouched by aggregation.
fn widen_to_chains(done: &mut [bool], shape: GraphShape) {
    if let GraphShape::ExchangeAggregate { r, c } = shape {
        for i in 0..r {
            if chain_tasks(i, r, c).any(|t| !done[t]) {
                for t in chain_tasks(i, r, c) {
                    done[t] = false;
                }
            }
        }
    }
}

/// Locks ignoring poisoning: task panics are caught inside the executor,
/// and a poisoned buffer is fully overwritten by the retried attempt.
/// Routed through the audit helpers so recoveries are counted.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    resilience::audit::recover("shard.runner", m)
}
