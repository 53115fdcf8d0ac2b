//! Async GCN inference service: request batching, admission control, and
//! per-tenant accounting over the planned rows path.
//!
//! The serving layer turns the repo's offline inference engine into an
//! online service. Callers submit per-vertex or per-subgraph requests
//! ([`Request`]) and get back a one-shot [`ResponseHandle`] (blocking or
//! `.await`-able). Inside, an admission queue (bounded depth, per-tenant
//! row quotas, deficit-round-robin fairness) feeds lane threads that
//! coalesce requests within a configurable batching window and execute
//! each batch as a *single* planned SpMM+GEMM call over the batch's
//! layer-wise frontiers. Batching amortises plan reuse and kernel launch
//! overhead exactly the way the paper's PIUMA pipeline amortises DMA setup
//! across gathers.
//!
//! Three properties are load-bearing and tested:
//!
//! 1. **Bitwise invariance** — any interleaving/coalescing of requests
//!    returns bit-identical rows to serial per-request inference (the
//!    width-1 plan contract from the precision PR).
//! 2. **Bounded everything** — queue depth, per-tenant in-flight rows,
//!    and per-request latency budgets are all enforced with typed
//!    [`Rejection`]s; nothing queues or blocks forever.
//! 3. **Fault containment** — injected faults (`serving.queue`,
//!    `serving.batch`) surface as [`Rejection::Faulted`] on the affected
//!    requests only; the service keeps serving and never hangs.

mod queue;

/// Latency histograms and shed/throughput counters.
pub mod metrics;
/// Request, response, and typed-rejection types.
pub mod request;
/// The service itself: lanes, the planned backend, lifecycle.
pub mod service;
/// Per-tenant resource accounting and fair-share configuration.
pub mod tenant;

pub use metrics::{MetricsSnapshot, ServiceMetrics};
pub use request::{
    Brownout, Rejection, Request, RequestKind, Response, ResponseHandle, ServedBy, TenantId,
};
pub use service::{BrownoutPolicy, GcnService, ServiceConfig, ServingError};
pub use tenant::{FixedQuota, TenantSpec};
