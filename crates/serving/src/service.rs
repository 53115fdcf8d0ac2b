//! The inference service: lanes, backends, lifecycle.
//!
//! [`GcnService`] owns the admission queue plus a small set of **lane
//! threads** (the bounded in-flight executor: at most `queue_limit`
//! requests queued and `lanes x max_batch` requests executing, in the
//! spirit of the organizer engine's `CONCURRENT_OPERATIONS` cap). Each
//! lane blocks on the queue, lets the batching window coalesce arrivals,
//! then runs the whole batch as **one** backend call:
//!
//! * **planned** — [`GcnModel::infer_rows_planned_into`] expands the
//!   batch into layer-wise shrinking frontiers once and computes, at each
//!   layer, only the rows the batch's answers depend on, under
//!   `Sequential`-pinned [`kernels::SpmmPlan`]s;
//! * **sharded** — one [`ShardedGcn::infer`] pass serves every request in
//!   the batch, and each target row is attributed to its owning shard via
//!   [`shard::ShardPlan::owner_of_row`] for routing statistics.
//!
//! Both backends sit on the same bitwise contract (width-1 plans,
//! row-partition-invariant GEMM), so coalescing requests into batches —
//! in any interleaving — never changes a single bit of any response.
//!
//! Every batch executes under a [`RunGuard`] **child** of the lane guard
//! carrying the batch's tightest request deadline, so a nested budget can
//! only shrink the remaining time (the PR-9 guard semantics fix), and a
//! `kill()` cancels all lanes through the shared token. Panics — real or
//! injected through the `serving.queue` / `serving.batch` fault points —
//! are contained per lane iteration and turn into typed
//! [`Rejection::Faulted`] deliveries, never hangs.
//!
//! [`GcnModel::infer_rows_planned_into`]: gcn::GcnModel::infer_rows_planned_into
//! [`ShardedGcn::infer`]: shard::ShardedGcn::infer
//! [`RunGuard`]: resilience::guard::RunGuard

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use gcn::rows::RowsWorkspace;
use gcn::{GcnError, GcnModel};
use matrix::{DenseMatrix, Precision};
use resilience::audit;
use resilience::guard::{CancelToken, RunGuard};
use shard::{PartitionKind, ShardError, ShardedGcn};
use sparse::Csr;

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::queue::{AdmissionQueue, Pending, TenantLane};
use crate::request::{
    Brownout, BrownoutCause, Rejection, Request, Response, ResponseHandle, ServedBy, TenantId,
};
use crate::tenant::{FixedQuota, Resources, TenantSpec};

/// Tunables for one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Most requests coalesced into one batch.
    pub max_batch: usize,
    /// Most output rows per batch (caps gathered-neighbourhood work when
    /// subgraph requests are large).
    pub max_batch_rows: usize,
    /// How long a lane holds a batch open for late arrivals once the
    /// first request is in hand. Zero disables coalescing (per-request
    /// dispatch — the baseline the load generator compares against).
    pub batch_window: Duration,
    /// Most requests queued; admission sheds `QueueFull` above this.
    pub queue_limit: usize,
    /// Per-request latency budget: requests still queued past it are
    /// shed `DeadlineExceeded`, never served arbitrarily late.
    pub latency_budget: Duration,
    /// Lane (executor) threads.
    pub lanes: usize,
    /// Per-tenant scheduling weight and row quota; tenant `i` is
    /// `tenants[i]`.
    pub tenants: Vec<TenantSpec>,
    /// Circuit-breaker tunables for the sharded backend (ignored by
    /// planned-only services).
    pub breaker: BreakerConfig,
    /// When and how to degrade precision before shedding.
    pub brownout: BrownoutPolicy,
}

/// Brownout policy: degrade precision (through the existing narrow
/// storage chain) before shedding, and surface the degradation as a typed
/// annotation on every affected response.
#[derive(Debug, Clone)]
pub struct BrownoutPolicy {
    /// Queue depth at or above which planned batches run at the brownout
    /// precision (`usize::MAX` disables overload brownout).
    pub queue_high_water: usize,
    /// Run breaker-triggered failover batches at the brownout precision
    /// (absorbing the failed-over load more cheaply).
    pub on_open_breaker: bool,
    /// The degraded storage precision.
    pub precision: Precision,
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        BrownoutPolicy {
            queue_high_water: usize::MAX,
            on_open_breaker: true,
            precision: Precision::Bf16,
        }
    }
}

impl ServiceConfig {
    /// A single unlimited tenant with batching on — the quickstart shape.
    pub fn single_tenant() -> Self {
        ServiceConfig {
            max_batch: 64,
            max_batch_rows: 4096,
            batch_window: Duration::from_millis(1),
            queue_limit: 1024,
            latency_budget: Duration::from_secs(1),
            lanes: 2,
            tenants: vec![TenantSpec::default()],
            breaker: BreakerConfig::default(),
            brownout: BrownoutPolicy::default(),
        }
    }

    /// This config with per-request dispatch (no coalescing): batch size
    /// 1, zero window. The load generator's baseline arm.
    pub fn per_request(mut self) -> Self {
        self.max_batch = 1;
        self.batch_window = Duration::ZERO;
        self
    }
}

/// Why a service could not be constructed (requests are rejected with
/// [`Rejection`] instead once the service is running).
#[derive(Debug)]
pub enum ServingError {
    /// The configuration is unusable (no tenants, no lanes, …).
    Config(String),
    /// The model/graph/features triple is inconsistent.
    Model(GcnError),
    /// Building the sharded backend failed.
    Shard(ShardError),
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::Config(m) => write!(f, "invalid service config: {m}"),
            ServingError::Model(e) => write!(f, "model/graph mismatch: {e}"),
            ServingError::Shard(e) => write!(f, "sharded backend: {e}"),
        }
    }
}

impl std::error::Error for ServingError {}

impl From<ShardError> for ServingError {
    fn from(e: ShardError) -> Self {
        ServingError::Shard(e)
    }
}

/// The immutable inference state every lane shares.
struct Engine {
    model: GcnModel,
    a_hat: Csr,
    features: DenseMatrix,
    /// `Some` = sharded backend (the runner needs `&mut`, so lanes take
    /// turns); `None` = planned gathered-rows backend (per-lane
    /// workspaces, fully concurrent).
    sharded: Option<Mutex<ShardedGcn>>,
    /// Per-shard request-row attribution (empty for the planned backend).
    routes: Mutex<Vec<u64>>,
    /// Sharded-backend circuit breaker (idle for planned-only services).
    /// Never locked while `sharded` or `routes` is held — the lock graph
    /// stays edge-free.
    breaker: Mutex<CircuitBreaker>,
    /// Precision-degradation policy.
    brownout: BrownoutPolicy,
}

struct Inner {
    queue: AdmissionQueue,
    metrics: Arc<ServiceMetrics>,
    engine: Engine,
    token: CancelToken,
}

/// Per-lane reusable buffers.
struct LaneCtx {
    ws: RowsWorkspace,
    out: DenseMatrix,
    batch: Vec<Pending>,
    shed: Vec<Pending>,
    targets: Vec<usize>,
}

/// An async GCN inference service over one graph (see module docs).
///
/// ```no_run
/// use serving::{GcnService, Request, ServiceConfig};
/// # fn demo(model: gcn::GcnModel, a_hat: sparse::Csr, x: matrix::DenseMatrix) {
/// let svc = GcnService::planned(model, a_hat, x, ServiceConfig::single_tenant()).unwrap();
/// let handle = svc.submit(Request::vertex(0, 42)).unwrap();
/// let response = handle.wait().unwrap();
/// assert_eq!(response.rows.rows(), 1);
/// svc.shutdown();
/// # }
/// ```
pub struct GcnService {
    inner: Arc<Inner>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for GcnService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcnService")
            .field("lanes", &self.threads.len())
            .field("queue_depth", &self.inner.queue.depth())
            .finish()
    }
}

impl GcnService {
    /// A service over the planned single-node backend: batches gather
    /// their joint k-hop neighbourhood and run the cached plan.
    pub fn planned(
        model: GcnModel,
        a_hat: Csr,
        features: DenseMatrix,
        cfg: ServiceConfig,
    ) -> Result<GcnService, ServingError> {
        Self::start(model, a_hat, features, None, cfg)
    }

    /// A service over the sharded backend: each batch runs one
    /// [`ShardedGcn::infer`] pass across `workers` shards, and requests
    /// are attributed to owning shards for routing statistics.
    pub fn sharded(
        model: GcnModel,
        a_hat: Csr,
        features: DenseMatrix,
        workers: usize,
        kind: PartitionKind,
        cfg: ServiceConfig,
    ) -> Result<GcnService, ServingError> {
        let runner = ShardedGcn::new(&a_hat, workers, kind)?;
        Self::start(model, a_hat, features, Some(runner), cfg)
    }

    fn start(
        model: GcnModel,
        a_hat: Csr,
        features: DenseMatrix,
        sharded: Option<ShardedGcn>,
        cfg: ServiceConfig,
    ) -> Result<GcnService, ServingError> {
        if cfg.tenants.is_empty() {
            return Err(ServingError::Config("at least one tenant".into()));
        }
        if cfg.lanes == 0 {
            return Err(ServingError::Config("at least one lane".into()));
        }
        if features.cols() != model.input_dim() {
            return Err(ServingError::Model(GcnError::FeatureDimMismatch {
                expected: model.input_dim(),
                actual: features.cols(),
            }));
        }
        if features.rows() != a_hat.nrows() {
            return Err(ServingError::Model(GcnError::VertexCountMismatch {
                graph: a_hat.nrows(),
                features: features.rows(),
            }));
        }
        let metrics = Arc::new(ServiceMetrics::default());
        let lanes: Vec<TenantLane> = cfg
            .tenants
            .iter()
            .map(|t| TenantLane::new(t.weight))
            .collect();
        let resources: Box<dyn Resources> = Box::new(FixedQuota::per_tenant(
            cfg.tenants.iter().map(|t| t.quota_rows).collect(),
        ));
        let workers = sharded.as_ref().map_or(0, |s| s.plan().workers());
        let inner = Arc::new(Inner {
            queue: AdmissionQueue::new(
                lanes,
                resources,
                cfg.queue_limit,
                cfg.latency_budget,
                cfg.max_batch,
                cfg.max_batch_rows,
                cfg.batch_window,
                metrics.clone(),
            ),
            metrics,
            engine: Engine {
                model,
                a_hat,
                features,
                sharded: sharded.map(Mutex::new),
                routes: Mutex::new(vec![0; workers]),
                breaker: Mutex::new(CircuitBreaker::new(cfg.breaker.clone())),
                brownout: cfg.brownout.clone(),
            },
            token: CancelToken::new(),
        });
        let mut threads = Vec::with_capacity(cfg.lanes);
        for i in 0..cfg.lanes {
            let inner = inner.clone();
            let t = thread::Builder::new()
                .name(format!("serving-lane-{i}"))
                .spawn(move || lane_main(&inner))
                .map_err(|e| ServingError::Config(format!("spawning lane {i}: {e}")))?;
            threads.push(t);
        }
        Ok(GcnService { inner, threads })
    }

    /// Submit a request. `Ok` hands back the response handle; `Err` is a
    /// typed admission rejection (including `Faulted` if a chaos fault
    /// fires inside admission — submission never panics the caller).
    pub fn submit(&self, req: Request) -> Result<ResponseHandle, Rejection> {
        match catch_unwind(AssertUnwindSafe(|| self.inner.queue.submit(req))) {
            Ok(r) => r,
            Err(_) => {
                let r = Rejection::Faulted {
                    site: "serving.queue".into(),
                    shard: None,
                };
                self.inner.metrics.on_rejected(&r);
                Err(r)
            }
        }
    }

    /// Submit a single-vertex request.
    pub fn submit_vertex(&self, tenant: TenantId, v: usize) -> Result<ResponseHandle, Rejection> {
        self.submit(Request::vertex(tenant, v))
    }

    /// Submit a subgraph request (one output row per target).
    pub fn submit_subgraph(
        &self,
        tenant: TenantId,
        targets: Vec<usize>,
    ) -> Result<ResponseHandle, Rejection> {
        self.submit(Request::subgraph(tenant, targets))
    }

    /// Point-in-time counters: throughput, sheds by cause, batch-size
    /// histogram, latency quantiles.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// Current circuit-breaker state for the sharded backend (always
    /// `Closed` for planned-only services, which never trip it).
    pub fn breaker_state(&self) -> BreakerState {
        audit::recover("serving.breaker", &self.inner.engine.breaker).state()
    }

    /// Per-shard target-row attribution (`routes()[w]` = output rows the
    /// sharded backend computed on worker `w`). Empty for the planned
    /// backend.
    pub fn shard_routes(&self) -> Vec<u64> {
        audit::recover("serving.routes", &self.inner.engine.routes).clone()
    }

    /// Graceful shutdown: intake closes (new submissions shed
    /// `Shutdown`), queued work drains through the lanes, then the lanes
    /// exit. Returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        let mut drained = Vec::new();
        self.inner.queue.close(false, &mut drained);
        self.join();
        self.inner.metrics.snapshot()
    }

    /// Kill the service mid-flight: cancel every lane's guard, drop all
    /// queued requests with typed `Shutdown` rejections, and join the
    /// lanes. Queued work is *not* served. Returns the final metrics.
    pub fn kill(mut self) -> MetricsSnapshot {
        self.inner.token.cancel();
        let mut drained = Vec::new();
        self.inner.queue.close(true, &mut drained);
        for p in drained {
            self.inner.metrics.on_rejected(&Rejection::Shutdown);
            p.slot.fulfill(Err(Rejection::Shutdown));
        }
        self.join();
        self.inner.metrics.snapshot()
    }

    fn join(&mut self) {
        for t in self.threads.drain(..) {
            // A lane that panicked outside its catch_unwind containment
            // has already abandoned its work; joining it is best-effort.
            let _ = t.join();
        }
    }
}

impl Drop for GcnService {
    fn drop(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.inner.token.cancel();
        let mut drained = Vec::new();
        self.inner.queue.close(true, &mut drained);
        for p in drained {
            p.slot.fulfill(Err(Rejection::Shutdown));
        }
        self.join();
    }
}

/// One lane: loop { pop → shed → execute → deliver }, with per-iteration
/// panic containment (fault injection lands here as typed rejections).
fn lane_main(inner: &Inner) {
    let guard = RunGuard::with_token(inner.token.clone());
    let mut ctx = LaneCtx {
        ws: RowsWorkspace::new(),
        out: DenseMatrix::default(),
        batch: Vec::new(),
        shed: Vec::new(),
        targets: Vec::new(),
    };
    loop {
        match catch_unwind(AssertUnwindSafe(|| serve_once(inner, &guard, &mut ctx))) {
            Ok(true) => {}
            Ok(false) => break,
            Err(_) => abandon(inner, &mut ctx),
        }
    }
}

/// Deliver `Faulted` to everything the lane was holding when a panic
/// (injected or real) interrupted it, releasing the tenants' charges.
fn abandon(inner: &Inner, ctx: &mut LaneCtx) {
    let r = Rejection::Faulted {
        site: "serving.batch".into(),
        shard: None,
    };
    for p in ctx.batch.drain(..) {
        inner.queue.release(p.tenant, p.rows);
        inner.metrics.on_rejected(&r);
        p.slot.fulfill(Err(r.clone()));
    }
    // Shed entries had their charges released at pop time.
    for p in ctx.shed.drain(..) {
        inner.metrics.on_rejected(&r);
        p.slot.fulfill(Err(r.clone()));
    }
}

/// One pop-execute-deliver cycle. Returns `false` when the queue closed
/// and drained — the lane exits.
fn serve_once(inner: &Inner, guard: &RunGuard, ctx: &mut LaneCtx) -> bool {
    ctx.batch.clear();
    ctx.shed.clear();
    let alive = inner.queue.pop_batch(&mut ctx.batch, &mut ctx.shed);
    let budget = inner.queue.budget();
    for p in ctx.shed.drain(..) {
        let r = Rejection::DeadlineExceeded { budget };
        inner.metrics.on_rejected(&r);
        p.slot.fulfill(Err(r));
    }
    if ctx.batch.is_empty() {
        return alive;
    }
    let popped = Instant::now();
    // The batch runs under a child of the lane guard carrying the
    // tightest request deadline: the nested budget can only shrink the
    // outer one (RunGuard::and_budget clamps), and a service kill()
    // cancels it through the shared token.
    let tightest = ctx
        .batch
        .iter()
        .map(|p| p.deadline)
        .min()
        .unwrap_or(popped)
        .saturating_duration_since(popped);
    let batch_guard = guard.child_with_budget(tightest);
    if let Some(reason) = batch_guard.should_stop() {
        let r = Rejection::Stopped(reason);
        for p in ctx.batch.drain(..) {
            inner.queue.release(p.tenant, p.rows);
            inner.metrics.on_rejected(&r);
            p.slot.fulfill(Err(r.clone()));
        }
        return alive;
    }
    ctx.targets.clear();
    for p in &ctx.batch {
        ctx.targets.extend_from_slice(p.kind.targets());
    }
    inner.metrics.on_batch(ctx.batch.len(), ctx.targets.len());
    // The whole coalesced batch becomes ONE backend call.
    resilience::fault_point!("serving.batch");
    match run_backend(inner, &batch_guard, &ctx.targets, &mut ctx.ws, &mut ctx.out) {
        Ok(outcome) => {
            let done = Instant::now();
            let width = ctx.out.cols();
            let batch_size = ctx.batch.len();
            if outcome.degraded.is_some() {
                inner.metrics.on_brownout();
            }
            let mut row0 = 0usize;
            for p in ctx.batch.drain(..) {
                let k = p.kind.rows();
                let mut rows = DenseMatrix::zeros(k, width);
                for i in 0..k {
                    rows.row_mut(i).copy_from_slice(ctx.out.row(row0 + i));
                }
                row0 += k;
                let queued = popped.saturating_duration_since(p.enqueued);
                let total = done.saturating_duration_since(p.enqueued);
                inner.queue.release(p.tenant, p.rows);
                inner.metrics.on_completed(queued, total);
                p.slot.fulfill(Ok(Response {
                    rows,
                    queued,
                    total,
                    batch_size,
                    served_by: outcome.served_by,
                    degraded: outcome.degraded,
                }));
            }
        }
        Err(r) => {
            for p in ctx.batch.drain(..) {
                inner.queue.release(p.tenant, p.rows);
                inner.metrics.on_rejected(&r);
                p.slot.fulfill(Err(r.clone()));
            }
        }
    }
    alive
}

/// How one batch was ultimately served.
struct BatchOutcome {
    served_by: ServedBy,
    degraded: Option<Brownout>,
}

/// Run the planned single-node backend, browned out to `precision` when
/// one is given.
fn run_planned(
    engine: &Engine,
    targets: &[usize],
    precision: Option<Precision>,
    ws: &mut RowsWorkspace,
    out: &mut DenseMatrix,
) -> Result<(), String> {
    let precision = precision.unwrap_or(Precision::F32);
    engine
        .model
        .infer_rows_planned_prec_into(&engine.a_hat, &engine.features, targets, precision, ws, out)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Publish the breaker's current state into the metrics gauge. The
/// breaker lock is taken and released here alone — never while the
/// runner or routes locks are held.
/// Admit one sharded attempt through the breaker. Like every helper
/// below, acquires the breaker lock alone and drops it before returning,
/// so no function ever orders the breaker lock against the runner or
/// routing locks (L011).
fn breaker_try_admit(inner: &Inner, now: Instant) -> bool {
    audit::recover("serving.breaker", &inner.engine.breaker).try_admit(now)
}

/// Report a sharded success to the breaker and refresh the gauge.
fn breaker_on_success(inner: &Inner) {
    audit::recover("serving.breaker", &inner.engine.breaker).on_success();
    breaker_gauge(inner);
}

/// Report a sharded failure to the breaker and refresh the gauge.
fn breaker_on_failure(inner: &Inner, now: Instant) {
    audit::recover("serving.breaker", &inner.engine.breaker).on_failure(now);
    breaker_gauge(inner);
}

/// Is the breaker anywhere but closed right now?
fn breaker_not_closed(inner: &Inner) -> bool {
    audit::recover("serving.breaker", &inner.engine.breaker).state() != BreakerState::Closed
}

fn breaker_gauge(inner: &Inner) {
    let b = audit::recover("serving.breaker", &inner.engine.breaker);
    let state = match b.state() {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    };
    inner.metrics.set_breaker(state, b.opens());
}

/// Run one batch against the engine's backend, leaving one output row
/// per target in `out`.
///
/// Sharded services route through the circuit breaker: a failed sharded
/// pass records the originating fault site from the runner's health
/// registry, trips the breaker toward open, and **fails over** to the
/// planned single-node backend as a hedged re-dispatch under a child of
/// the batch guard (so the retry still honours the batch budget and the
/// service kill token). While the breaker is open, batches skip the
/// sharded backend entirely and — per [`BrownoutPolicy`] — run the
/// failover at degraded precision.
fn run_backend(
    inner: &Inner,
    guard: &RunGuard,
    targets: &[usize],
    ws: &mut RowsWorkspace,
    out: &mut DenseMatrix,
) -> Result<BatchOutcome, Rejection> {
    let engine = &inner.engine;
    for &t in targets {
        if t >= engine.a_hat.nrows() {
            return Err(Rejection::Inference(
                GcnError::VertexOutOfRange {
                    vertex: t,
                    vertices: engine.a_hat.nrows(),
                }
                .to_string(),
            ));
        }
    }
    let overloaded = inner.queue.depth() >= engine.brownout.queue_high_water;
    let m = match &engine.sharded {
        None => {
            // Planned-only service: brownout under queue overload, no
            // breaker in the path.
            let degraded = overloaded.then_some(Brownout {
                precision: engine.brownout.precision,
                cause: BrownoutCause::OverloadedQueue,
            });
            run_planned(
                engine,
                targets,
                degraded.as_ref().map(|b| b.precision),
                ws,
                out,
            )
            .map_err(Rejection::Inference)?;
            return Ok(BatchOutcome {
                served_by: ServedBy::Planned,
                degraded,
            });
        }
        Some(m) => m,
    };
    let now = Instant::now();
    let admitted = breaker_try_admit(inner, now);
    let sharded_error: Option<(String, Option<usize>)> = if admitted {
        let mut runner = audit::recover("serving.sharded", m);
        match runner.infer(&engine.model, &engine.features) {
            Ok(h) => {
                out.resize_for_overwrite(targets.len(), h.cols());
                let mut routes = audit::recover("serving.routes", &engine.routes);
                for (i, &t) in targets.iter().enumerate() {
                    out.row_mut(i).copy_from_slice(h.row(t));
                    if let Some(w) = runner.plan().owner_of_row(t) {
                        if let Some(c) = routes.get_mut(w) {
                            *c += 1;
                        }
                    }
                }
                drop(routes);
                drop(runner);
                breaker_on_success(inner);
                return Ok(BatchOutcome {
                    served_by: ServedBy::Sharded,
                    degraded: None,
                });
            }
            Err(e) => {
                // Attribute the failure before releasing the runner: the
                // health registry's most recent event names the fault
                // site and shard this error escaped from.
                let (site, shard) = match runner.health().last() {
                    Some(ev) => (ev.site.clone(), ev.shard),
                    None => (e.to_string(), None),
                };
                drop(runner);
                breaker_on_failure(inner, now);
                Some((site, shard))
            }
        }
    } else {
        None
    };
    // Failover: hedged re-dispatch on the planned backend under a child
    // guard — still subject to the batch budget and kill token.
    inner.metrics.on_failover();
    let hedge = guard.child();
    if let Some(reason) = hedge.should_stop() {
        return Err(Rejection::Stopped(reason));
    }
    let breaker_open = breaker_not_closed(inner);
    let degraded = if overloaded {
        Some(Brownout {
            precision: engine.brownout.precision,
            cause: BrownoutCause::OverloadedQueue,
        })
    } else if breaker_open && engine.brownout.on_open_breaker {
        Some(Brownout {
            precision: engine.brownout.precision,
            cause: BrownoutCause::OpenBreaker,
        })
    } else {
        None
    };
    match run_planned(
        engine,
        targets,
        degraded.as_ref().map(|b| b.precision),
        ws,
        out,
    ) {
        Ok(()) => Ok(BatchOutcome {
            served_by: ServedBy::PlannedFailover,
            degraded,
        }),
        Err(e2) => match sharded_error {
            Some((site, shard)) => Err(Rejection::Faulted {
                site: format!("{site}; fallback: {e2}"),
                shard,
            }),
            None => Err(Rejection::Inference(e2)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcn::GcnConfig;
    use graph::rmat::RmatConfig;
    use graph::Graph;
    use kernels::SpmmPlan;

    fn setup() -> (GcnModel, Csr, DenseMatrix) {
        let g = Graph::rmat(&RmatConfig::power_law(8, 6), 5);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 16, 4), 2);
        let x = g.random_features(8, 9);
        (model, g.normalized_adjacency().unwrap(), x)
    }

    fn reference(model: &GcnModel, a: &Csr, x: &DenseMatrix) -> DenseMatrix {
        let mut ws = gcn::InferenceWorkspace::new();
        ws.install_plan(SpmmPlan::with_width(a, x.cols(), 1));
        model.infer_planned_with(a, x, &mut ws).unwrap().clone()
    }

    #[test]
    fn planned_service_serves_correct_rows() {
        let (model, a, x) = setup();
        let full = reference(&model, &a, &x);
        let svc = GcnService::planned(model, a, x, ServiceConfig::single_tenant()).unwrap();
        let handles: Vec<_> = (0..20)
            .map(|v| svc.submit_vertex(0, v * 7).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let r = h.wait().unwrap();
            assert_eq!(r.rows.row(0), full.row(i * 7), "vertex {}", i * 7);
        }
        let m = svc.shutdown();
        assert_eq!(m.completed, 20);
        assert_eq!(m.shed, 0);
    }

    #[test]
    fn subgraph_requests_get_one_row_per_target() {
        let (model, a, x) = setup();
        let full = reference(&model, &a, &x);
        let svc = GcnService::planned(model, a, x, ServiceConfig::single_tenant()).unwrap();
        let h = svc.submit_subgraph(0, vec![3, 1, 3, 99]).unwrap();
        let r = h.wait().unwrap();
        assert_eq!(r.rows.rows(), 4);
        for (i, &t) in [3usize, 1, 3, 99].iter().enumerate() {
            assert_eq!(r.rows.row(i), full.row(t));
        }
        svc.shutdown();
    }

    #[test]
    fn sharded_service_matches_planned_bitwise_and_routes() {
        let (model, a, x) = setup();
        let full = reference(&model, &a, &x);
        let svc = GcnService::sharded(
            model,
            a,
            x,
            4,
            PartitionKind::Rows1D,
            ServiceConfig::single_tenant(),
        )
        .unwrap();
        let handles: Vec<_> = (0..12)
            .map(|v| svc.submit_vertex(0, v * 11).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let r = h.wait().unwrap();
            assert_eq!(r.rows.row(0), full.row(i * 11), "vertex {}", i * 11);
        }
        assert_eq!(svc.shard_routes().iter().sum::<u64>(), 12);
        svc.shutdown();
    }

    #[test]
    fn out_of_range_vertex_is_a_typed_inference_rejection() {
        let (model, a, x) = setup();
        let n = a.nrows();
        let svc = GcnService::planned(model, a, x, ServiceConfig::single_tenant()).unwrap();
        let h = svc.submit_vertex(0, n + 5).unwrap();
        assert!(matches!(h.wait(), Err(Rejection::Inference(_))));
        svc.shutdown();
    }

    #[test]
    fn kill_rejects_queued_work_with_shutdown() {
        let (model, a, x) = setup();
        let mut cfg = ServiceConfig::single_tenant();
        cfg.lanes = 1;
        cfg.batch_window = Duration::from_millis(50);
        let svc = GcnService::planned(model, a, x, cfg).unwrap();
        let handles: Vec<_> = (0..50)
            .map(|v| svc.submit_vertex(0, v % 64).unwrap())
            .collect();
        let m = svc.kill();
        let mut served = 0;
        let mut shut = 0;
        for h in handles {
            match h.wait() {
                Ok(_) => served += 1,
                Err(Rejection::Shutdown | Rejection::Stopped(_)) => shut += 1,
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        assert_eq!(served + shut, 50, "every handle resolves — no hangs");
        assert!(shut > 0, "killing mid-flight drops queued work");
        assert_eq!(m.completed, served);
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let (model, a, x) = setup();
        let mut cfg = ServiceConfig::single_tenant();
        cfg.lanes = 1;
        let svc = GcnService::planned(model, a, x, cfg).unwrap();
        let handles: Vec<_> = (0..30).map(|v| svc.submit_vertex(0, v).unwrap()).collect();
        let m = svc.shutdown();
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(m.completed, 30);
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        let (model, a, _) = setup();
        let wrong = DenseMatrix::zeros(a.nrows(), 5);
        assert!(matches!(
            GcnService::planned(
                model.clone(),
                a.clone(),
                wrong,
                ServiceConfig::single_tenant()
            ),
            Err(ServingError::Model(GcnError::FeatureDimMismatch { .. }))
        ));
        let mut cfg = ServiceConfig::single_tenant();
        cfg.tenants.clear();
        let x = DenseMatrix::zeros(a.nrows(), 8);
        assert!(matches!(
            GcnService::planned(model, a, x, cfg),
            Err(ServingError::Config(_))
        ));
    }
}
