//! Request, response, and typed-rejection types for the inference service.
//!
//! A [`Request`] names a tenant and a set of target vertices (one vertex
//! or a subgraph's worth). Submission returns a [`ResponseHandle`] — a
//! one-shot future the caller can either `.await` or block on with
//! [`ResponseHandle::wait`]. Every admission failure is a typed
//! [`Rejection`] carrying enough state to act on (shed, retry elsewhere,
//! back off); nothing queues forever and nothing is reported as a bare
//! string where a caller could branch on structure instead.

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use matrix::DenseMatrix;
use resilience::audit;
use resilience::guard::StopReason;

/// Tenant identifier: an index into the service's configured tenant
/// table (weights and quotas are per-tenant, see `ServiceConfig`).
pub type TenantId = u32;

/// What a request asks the model to score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestKind {
    /// One vertex: the response carries a single output row.
    Vertex(usize),
    /// A subgraph query: one output row per listed target vertex, in the
    /// given order (duplicates allowed).
    Subgraph(Vec<usize>),
}

impl RequestKind {
    /// Target vertices of this request, in response-row order.
    pub fn targets(&self) -> &[usize] {
        match self {
            RequestKind::Vertex(v) => std::slice::from_ref(v),
            RequestKind::Subgraph(t) => t,
        }
    }

    /// Number of output rows this request produces (its accounting cost).
    pub fn rows(&self) -> usize {
        self.targets().len()
    }
}

/// One inference request: which tenant is asking, and for what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The submitting tenant (admission is metered per tenant).
    pub tenant: TenantId,
    /// The requested computation.
    pub kind: RequestKind,
}

impl Request {
    /// A single-vertex request.
    pub fn vertex(tenant: TenantId, v: usize) -> Self {
        Request {
            tenant,
            kind: RequestKind::Vertex(v),
        }
    }

    /// A subgraph request over `targets` (one output row each).
    pub fn subgraph(tenant: TenantId, targets: Vec<usize>) -> Self {
        Request {
            tenant,
            kind: RequestKind::Subgraph(targets),
        }
    }
}

/// Why the service refused (or abandoned) a request. Every variant is a
/// deliberate, bounded outcome — the service sheds rather than queueing
/// without limit.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejection {
    /// The global queue is at its depth limit; the request was never
    /// admitted.
    QueueFull {
        /// Requests queued at the time of rejection.
        depth: usize,
        /// The configured depth limit.
        limit: usize,
    },
    /// The request's latency budget expired before a lane could run it
    /// (shed at dispatch rather than served late).
    DeadlineExceeded {
        /// The per-request budget that was exceeded.
        budget: Duration,
    },
    /// The tenant is at its in-flight row quota; admitting more would let
    /// one tenant starve the rest.
    TenantOverLimit {
        /// The tenant that hit its quota.
        tenant: TenantId,
        /// Rows the tenant currently has in flight.
        in_flight: u64,
        /// The tenant's configured quota.
        limit: u64,
    },
    /// The tenant id is not in the service's configured tenant table.
    UnknownTenant {
        /// The offending tenant id.
        tenant: TenantId,
        /// Number of configured tenants.
        tenants: usize,
    },
    /// The service is shutting down (or was killed); the request will
    /// never run.
    Shutdown,
    /// The run guard stopped the batch this request rode in (cancellation
    /// or budget, see [`StopReason`]).
    Stopped(StopReason),
    /// A fault (injected or real panic) hit the named site while this
    /// request was queued or executing; the request was abandoned, not
    /// retried.
    Faulted {
        /// The originating fault site: `serving.queue` or `serving.batch`.
        site: String,
    },
    /// The backend rejected the batch (dimension mismatch, out-of-range
    /// vertex, kernel error), rendered from the backend's own error type.
    Inference(String),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { depth, limit } => {
                write!(f, "queue full ({depth} of {limit} requests queued)")
            }
            Rejection::DeadlineExceeded { budget } => {
                write!(f, "latency budget {budget:?} exceeded before dispatch")
            }
            Rejection::TenantOverLimit {
                tenant,
                in_flight,
                limit,
            } => write!(
                f,
                "tenant {tenant} over quota ({in_flight} of {limit} rows in flight)"
            ),
            Rejection::UnknownTenant { tenant, tenants } => {
                write!(f, "unknown tenant {tenant} (service has {tenants} tenants)")
            }
            Rejection::Shutdown => write!(f, "service is shut down"),
            Rejection::Stopped(r) => write!(f, "batch stopped: {r}"),
            Rejection::Faulted { site } => write!(f, "fault at {site}"),
            Rejection::Inference(e) => write!(f, "inference failed: {e}"),
        }
    }
}

impl std::error::Error for Rejection {}

/// Which backend computed a response. The service has one, so this is
/// always `Planned`; the name stays only because gcnbench's `serve.rs`
/// reads it, and goes in the next `[benchmark]` PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The planned rows path.
    Planned,
}

/// Typed annotation for a browned-out response: the batch dispatched with
/// the queue at or above the brownout high-water mark, so it ran at a
/// narrower storage precision — degradation is surfaced, never silent
/// drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Brownout {
    /// Storage precision the batch actually ran at (e.g. bf16).
    pub precision: matrix::Precision,
}

/// A fulfilled request: the model output rows plus where the time went.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// One output row per requested target, in request order.
    pub rows: DenseMatrix,
    /// Time spent queued before a lane picked the request up.
    pub queued: Duration,
    /// Submission-to-completion latency.
    pub total: Duration,
    /// Number of requests coalesced into the batch that served this one.
    pub batch_size: usize,
    /// Always [`ServedBy::Planned`] (kept for gcnbench, see [`ServedBy`]).
    pub served_by: ServedBy,
    /// `Some` when the brownout policy degraded precision for this batch;
    /// `None` for full-precision (bitwise-exact) responses.
    pub degraded: Option<Brownout>,
}

/// One-shot completion slot shared between the service and the handle.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct SlotState {
    done: Option<Result<Response, Rejection>>,
    waker: Option<Waker>,
}

impl Slot {
    /// Deliver the outcome and wake both blocking and async waiters.
    /// Called at most once per slot; a second call keeps the first value
    /// (completion is one-shot).
    pub(crate) fn fulfill(&self, outcome: Result<Response, Rejection>) {
        let mut st = audit::recover("serving.slot", &self.state);
        if st.done.is_none() {
            st.done = Some(outcome);
        }
        if let Some(w) = st.waker.take() {
            w.wake();
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// The caller's half of a submitted request: a one-shot future that is
/// also blocking-waitable (no async runtime required).
///
/// ```
/// # use serving::{Rejection, ResponseHandle};
/// # fn demo(handle: ResponseHandle) -> Result<(), Rejection> {
/// let response = handle.wait()?; // or `handle.await?` in async code
/// assert!(response.rows.rows() >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ResponseHandle {
    slot: Arc<Slot>,
}

impl ResponseHandle {
    pub(crate) fn new() -> (Self, Arc<Slot>) {
        let slot = Arc::new(Slot::default());
        (ResponseHandle { slot: slot.clone() }, slot)
    }

    /// Block until the request completes or is rejected.
    pub fn wait(self) -> Result<Response, Rejection> {
        let mut st = audit::recover("serving.slot", &self.slot.state);
        loop {
            if let Some(outcome) = st.done.take() {
                return outcome;
            }
            st = audit::recover_wait("serving.slot", &self.slot.cv, st);
        }
    }

    /// Non-blocking probe: the outcome if it has already been delivered.
    pub fn try_take(&self) -> Option<Result<Response, Rejection>> {
        audit::recover("serving.slot", &self.slot.state).done.take()
    }
}

impl Future for ResponseHandle {
    type Output = Result<Response, Rejection>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = audit::recover("serving.slot", &self.slot.state);
        match st.done.take() {
            Some(outcome) => Poll::Ready(outcome),
            None => {
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::{RawWaker, RawWakerVTable};

    fn noop_waker() -> Waker {
        fn clone(_: *const ()) -> RawWaker {
            RawWaker::new(std::ptr::null(), &VTABLE)
        }
        fn noop(_: *const ()) {}
        static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, noop, noop, noop);
        // SAFETY: every vtable entry ignores its data pointer, so a null
        // pointer with no-op clone/wake/drop upholds the RawWaker contract.
        unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &VTABLE)) }
    }

    fn response() -> Response {
        Response {
            rows: DenseMatrix::zeros(1, 2),
            queued: Duration::ZERO,
            total: Duration::ZERO,
            batch_size: 1,
            served_by: ServedBy::Planned,
            degraded: None,
        }
    }

    #[test]
    fn wait_returns_fulfilled_outcome() {
        let (handle, slot) = ResponseHandle::new();
        slot.fulfill(Ok(response()));
        assert!(handle.wait().is_ok());
    }

    #[test]
    fn wait_blocks_until_another_thread_fulfills() {
        let (handle, slot) = ResponseHandle::new();
        let t = std::thread::spawn(move || handle.wait());
        std::thread::sleep(Duration::from_millis(10));
        slot.fulfill(Err(Rejection::Shutdown));
        assert_eq!(t.join().unwrap(), Err(Rejection::Shutdown));
    }

    #[test]
    fn future_pends_then_wakes() {
        let (mut handle, slot) = ResponseHandle::new();
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut handle).poll(&mut cx).is_pending());
        slot.fulfill(Ok(response()));
        assert!(matches!(
            Pin::new(&mut handle).poll(&mut cx),
            Poll::Ready(Ok(_))
        ));
    }

    #[test]
    fn fulfillment_is_one_shot() {
        let (handle, slot) = ResponseHandle::new();
        slot.fulfill(Err(Rejection::Shutdown));
        slot.fulfill(Ok(response()));
        assert_eq!(handle.wait(), Err(Rejection::Shutdown));
    }

    #[test]
    fn rejections_render_their_state() {
        let r = Rejection::QueueFull { depth: 8, limit: 8 };
        assert!(r.to_string().contains("8 of 8"));
        assert!(Rejection::Faulted {
            site: "serving.batch".into(),
        }
        .to_string()
        .contains("serving.batch"));
    }
}
