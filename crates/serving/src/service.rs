//! The inference service: lanes, the planned backend, lifecycle.
//!
//! [`GcnService`] owns the admission queue plus a small set of **lane
//! threads** (the bounded in-flight executor: at most `queue_limit`
//! requests queued and `lanes x max_batch` requests executing, in the
//! spirit of the organizer engine's `CONCURRENT_OPERATIONS` cap). Each
//! lane blocks on the queue, lets the batching window coalesce arrivals,
//! then runs the whole batch as **one**
//! [`GcnModel::infer_rows_planned_prec_into`] call: the batch's targets
//! are expanded into layer-wise shrinking frontiers once, and each layer
//! computes only the rows the batch's answers depend on, under
//! `Sequential`-pinned [`kernels::SpmmPlan`]s. That width-1 contract is
//! what makes coalescing requests into batches — in any interleaving —
//! leave every bit of every response unchanged.
//!
//! Every batch executes under a [`RunGuard`] **child** of the lane guard
//! carrying the batch's tightest request deadline, so a nested budget can
//! only shrink the remaining time, and a `kill()` cancels all lanes
//! through the shared token. Panics — real or injected through the
//! `serving.queue` / `serving.batch` fault points — are contained per lane
//! iteration and turn into typed [`Rejection::Faulted`] deliveries, never
//! hangs.
//!
//! [`GcnModel::infer_rows_planned_prec_into`]: gcn::GcnModel::infer_rows_planned_prec_into
//! [`RunGuard`]: resilience::guard::RunGuard

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gcn::rows::RowsWorkspace;
use gcn::{GcnError, GcnModel};
use matrix::{DenseMatrix, Precision};
use resilience::guard::{CancelToken, RunGuard};
use sparse::Csr;

use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::queue::{AdmissionQueue, Pending, TenantLane};
use crate::request::{Brownout, Rejection, Request, Response, ResponseHandle, ServedBy, TenantId};
use crate::tenant::{FixedQuota, TenantSpec};

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
    /// When and how to degrade precision before shedding.
    pub brownout: BrownoutPolicy,
}

/// Brownout policy: degrade precision (through the existing narrow
/// storage chain) before shedding, and surface the degradation as a typed
/// annotation on every affected response.
#[derive(Debug, Clone)]
pub struct BrownoutPolicy {
    /// Queue depth at or above which batches run at the brownout
    /// precision (`usize::MAX`, the default, disables brownout).
    pub queue_high_water: usize,
    /// The degraded storage precision.
    pub precision: Precision,
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        BrownoutPolicy {
            queue_high_water: usize::MAX,
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
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::Config(m) => write!(f, "invalid service config: {m}"),
            ServingError::Model(e) => write!(f, "model/graph mismatch: {e}"),
        }
    }
}

impl std::error::Error for ServingError {}

/// The immutable inference state every lane shares.
struct Engine {
    model: GcnModel,
    a_hat: Csr,
    features: DenseMatrix,
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
    /// A service over the planned rows path: each batch computes, layer
    /// by layer, only the rows its targets depend on.
    pub fn planned(
        model: GcnModel,
        a_hat: Csr,
        features: DenseMatrix,
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
        let resources = FixedQuota::per_tenant(cfg.tenants.iter().map(|t| t.quota_rows).collect());
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
    match run_backend(inner, &ctx.targets, &mut ctx.ws, &mut ctx.out) {
        Ok(degraded) => {
            let done = Instant::now();
            let width = ctx.out.cols();
            let batch_size = ctx.batch.len();
            if degraded.is_some() {
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
                    served_by: ServedBy::Planned,
                    degraded,
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

/// Run one batch, leaving one output row per target in `out`: range-check
/// the targets, brown the batch out if the queue is at its high-water mark,
/// and make one rows-path call. Returns the brownout, if any.
fn run_backend(
    inner: &Inner,
    targets: &[usize],
    ws: &mut RowsWorkspace,
    out: &mut DenseMatrix,
) -> Result<Option<Brownout>, Rejection> {
    let engine = &inner.engine;
    let vertices = engine.a_hat.nrows();
    if let Some(&vertex) = targets.iter().find(|&&t| t >= vertices) {
        return Err(Rejection::Inference(
            GcnError::VertexOutOfRange { vertex, vertices }.to_string(),
        ));
    }
    let degraded = (inner.queue.depth() >= engine.brownout.queue_high_water).then_some(Brownout {
        precision: engine.brownout.precision,
    });
    let precision = degraded.map_or(Precision::F32, |b| b.precision);
    engine
        .model
        .infer_rows_planned_prec_into(&engine.a_hat, &engine.features, targets, precision, ws, out)
        .map_err(|e| Rejection::Inference(e.to_string()))?;
    Ok(degraded)
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
