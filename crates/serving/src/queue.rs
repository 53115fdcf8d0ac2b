//! The admission queue and batch scheduler — the service's hot path.
//!
//! One `Mutex<Sched>` + condvar pair carries all scheduler state: a
//! bounded per-tenant FIFO each, the global depth counter, the deficit
//! round-robin cursor, and the [`FixedQuota`] row meter. Admission
//! ([`AdmissionQueue::submit`]) enforces three rules before a request is
//! ever queued — intake open, global depth below the limit, tenant under
//! its row quota — and every refusal is a typed
//! [`Rejection`](crate::request::Rejection) delivered immediately.
//! Dispatch ([`AdmissionQueue::pop_batch`]) blocks a lane until work
//! arrives, then holds the **batching window** open (a timed wait, so
//! late arrivals coalesce into the same kernel call) and drains requests
//! by deficit round-robin across tenants, shedding any whose latency
//! budget expired while queued — a request is served on time or rejected,
//! never served late without bound.
//!
//! In-flight work is bounded end to end: at most `limit` requests queued,
//! at most `max_batch` requests (or `max_rows` output rows) per executing
//! batch per lane, and per-tenant rows metered from admission until the
//! response (or rejection) is delivered.
//!
//! Steady state is allocation-free: every buffer (`VecDeque` ring, batch
//! vectors) is caller-owned and reused at its high-water mark; the only
//! per-request allocation is the response slot `Arc` created at submit.
//
// BOUNDS: all lane indexing is either `cursor % lanes.len()` (reduced
// modulo the lane count, which is ≥ 1 by construction in the service
// builder) or a tenant id validated against `lanes.len()` at admission
// before first use.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use std::sync::Arc;

use resilience::audit;

use crate::metrics::ServiceMetrics;
use crate::request::{Rejection, Request, RequestKind, ResponseHandle, Slot, TenantId};
use crate::tenant::FixedQuota;

/// One admitted request waiting for (or riding in) a batch.
#[derive(Debug)]
pub(crate) struct Pending {
    /// Submitting tenant (for the release of its row charge).
    pub tenant: TenantId,
    /// The requested computation.
    pub kind: RequestKind,
    /// Completion slot shared with the caller's handle.
    pub slot: Arc<Slot>,
    /// Submission time (queue-wait metric).
    pub enqueued: Instant,
    /// Shed-after time: `enqueued + latency budget`.
    pub deadline: Instant,
    /// Row charge held against the tenant until delivery.
    pub rows: u64,
}

/// One tenant's FIFO plus its deficit round-robin state.
#[derive(Debug)]
pub(crate) struct TenantLane {
    queue: VecDeque<Pending>,
    weight: u32,
    deficit: u32,
}

impl TenantLane {
    /// An empty lane with the given DRR weight (0 is clamped to 1).
    pub(crate) fn new(weight: u32) -> Self {
        TenantLane {
            queue: VecDeque::with_capacity(0),
            weight: weight.max(1),
            deficit: 0,
        }
    }
}

/// Everything the scheduler mutates, under one lock.
#[derive(Debug)]
struct Sched {
    lanes: Vec<TenantLane>,
    resources: FixedQuota,
    depth: usize,
    cursor: usize,
    open: bool,
}

/// The shared admission/batching queue (see module docs).
#[derive(Debug)]
pub(crate) struct AdmissionQueue {
    sched: Mutex<Sched>,
    cv: Condvar,
    limit: usize,
    budget: Duration,
    max_batch: usize,
    max_rows: usize,
    window: Duration,
    metrics: Arc<ServiceMetrics>,
}

impl AdmissionQueue {
    /// Assembles the queue from caller-built parts (the service builder
    /// owns all construction-time allocation).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        lanes: Vec<TenantLane>,
        resources: FixedQuota,
        limit: usize,
        budget: Duration,
        max_batch: usize,
        max_rows: usize,
        window: Duration,
        metrics: Arc<ServiceMetrics>,
    ) -> Self {
        AdmissionQueue {
            sched: Mutex::new(Sched {
                lanes,
                resources,
                depth: 0,
                cursor: 0,
                open: true,
            }),
            cv: Condvar::new(),
            limit: limit.max(1),
            budget,
            max_batch: max_batch.max(1),
            max_rows: max_rows.max(1),
            window,
            metrics,
        }
    }

    /// Admit one request, or reject it with a typed reason. On success
    /// the caller holds the response handle and the request is queued
    /// with its tenant's row charge taken.
    pub(crate) fn submit(&self, req: Request) -> Result<ResponseHandle, Rejection> {
        self.metrics.on_submitted();
        // lint:allow(L008): one static bool load per request while
        // disarmed; this is the chaos suite's "kill the queue mid-flight"
        // entry point and must sit before the lock so an injected panic
        // never poisons the scheduler from the submit side.
        resilience::fault_point!("serving.queue");
        let now = Instant::now();
        let rows = req.kind.rows() as u64;
        // The admission decision happens inside this scope (one lock
        // hold); metrics and rejections are delivered after the sched
        // lock is released so the lock-order graph stays sched-only.
        let admitted = {
            let mut s = audit::recover("serving.sched", &self.sched);
            let t = req.tenant as usize;
            if !s.open {
                Err(Rejection::Shutdown)
            } else if t >= s.lanes.len() {
                Err(Rejection::UnknownTenant {
                    tenant: req.tenant,
                    tenants: s.lanes.len(),
                })
            } else if s.depth >= self.limit {
                Err(Rejection::QueueFull {
                    depth: s.depth,
                    limit: self.limit,
                })
            } else if !s.resources.try_charge(req.tenant, rows) {
                Err(Rejection::TenantOverLimit {
                    tenant: req.tenant,
                    in_flight: s.resources.in_flight(req.tenant),
                    limit: s.resources.limit(req.tenant),
                })
            } else {
                let (handle, slot) = ResponseHandle::new();
                s.lanes[t].queue.push_back(Pending {
                    tenant: req.tenant,
                    kind: req.kind,
                    slot,
                    enqueued: now,
                    deadline: now + self.budget,
                    rows,
                });
                s.depth += 1;
                Ok(handle)
            }
        };
        match admitted {
            Ok(handle) => {
                self.metrics.on_admitted();
                self.cv.notify_one();
                Ok(handle)
            }
            Err(r) => Err(self.rejected(r)),
        }
    }

    /// Record a rejection in the metrics and hand it back.
    fn rejected(&self, r: Rejection) -> Rejection {
        self.metrics.on_rejected(&r);
        r
    }

    /// Block until work arrives (or the queue closes empty), hold the
    /// batching window open for late arrivals, then drain up to
    /// `max_batch` requests / `max_rows` output rows into `batch` by
    /// deficit round-robin over tenants. Requests whose deadline passed
    /// while queued land in `shed` instead (their tenant charge already
    /// released). Returns `false` when the queue is closed and empty —
    /// the lane should exit.
    pub(crate) fn pop_batch(&self, batch: &mut Vec<Pending>, shed: &mut Vec<Pending>) -> bool {
        // lint:allow(L008): one static bool load per batch while
        // disarmed; the dispatch side of the chaos kill point (an
        // injected panic here is contained by the lane's catch_unwind).
        resilience::fault_point!("serving.queue");
        let mut s = audit::recover("serving.sched", &self.sched);
        while s.depth == 0 {
            if !s.open {
                return false;
            }
            s = audit::recover_wait("serving.sched", &self.cv, s);
        }
        // Batching window: coalesce late arrivals into this batch until
        // the window closes or enough requests queued to fill it.
        if !self.window.is_zero() {
            let window_end = Instant::now() + self.window;
            while s.depth < self.max_batch && s.open {
                let now = Instant::now();
                if now >= window_end {
                    break;
                }
                let (g, timed_out) = audit::recover_wait_timeout(
                    "serving.sched",
                    &self.cv,
                    s,
                    window_end.saturating_duration_since(now),
                );
                s = g;
                if timed_out {
                    break;
                }
            }
        }
        let now = Instant::now();
        let nlanes = s.lanes.len();
        let mut rows = 0usize;
        let mut empty_scans = 0usize;
        while s.depth > 0 && batch.len() < self.max_batch && rows < self.max_rows {
            if empty_scans > nlanes {
                break;
            }
            let li = s.cursor % nlanes;
            if s.lanes[li].queue.is_empty() {
                s.lanes[li].deficit = 0;
                s.cursor = (s.cursor + 1) % nlanes;
                empty_scans += 1;
                continue;
            }
            empty_scans = 0;
            if s.lanes[li].deficit == 0 {
                s.lanes[li].deficit = s.lanes[li].weight;
            }
            let Some(p) = s.lanes[li].queue.pop_front() else {
                continue;
            };
            s.depth -= 1;
            s.lanes[li].deficit -= 1;
            if s.lanes[li].deficit == 0 {
                s.cursor = (s.cursor + 1) % nlanes;
            }
            if now >= p.deadline {
                s.resources.release(p.tenant, p.rows);
                shed.push(p);
            } else {
                rows += p.kind.rows();
                batch.push(p);
            }
        }
        true
    }

    /// Return a delivered request's row charge to its tenant.
    pub(crate) fn release(&self, tenant: TenantId, rows: u64) {
        let mut s = audit::recover("serving.sched", &self.sched);
        s.resources.release(tenant, rows);
    }

    /// Close intake. With `drain`, also empty every lane into `drained`
    /// (tenant charges released) — the kill path; without, queued work
    /// keeps draining through `pop_batch` — graceful shutdown. Wakes every
    /// waiting lane either way.
    pub(crate) fn close(&self, drain: bool, drained: &mut Vec<Pending>) {
        {
            let mut s = audit::recover("serving.sched", &self.sched);
            s.open = false;
            if drain {
                let Sched {
                    lanes,
                    resources,
                    depth,
                    ..
                } = &mut *s;
                for lane in lanes.iter_mut() {
                    while let Some(p) = lane.queue.pop_front() {
                        resources.release(p.tenant, p.rows);
                        *depth -= 1;
                        drained.push(p);
                    }
                }
            }
        }
        self.cv.notify_all();
    }

    /// Requests currently queued (not yet popped into a batch).
    pub(crate) fn depth(&self) -> usize {
        audit::recover("serving.sched", &self.sched).depth
    }

    /// The per-request latency budget admission stamps on deadlines.
    pub(crate) fn budget(&self) -> Duration {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(limit: usize, budget: Duration, max_batch: usize, tenants: usize) -> AdmissionQueue {
        let lanes = (0..tenants).map(|_| TenantLane::new(1)).collect();
        AdmissionQueue::new(
            lanes,
            FixedQuota::uniform(tenants, u64::MAX),
            limit,
            budget,
            max_batch,
            usize::MAX,
            Duration::ZERO,
            Arc::new(ServiceMetrics::default()),
        )
    }

    #[test]
    fn depth_limit_sheds_with_queue_full() {
        let q = queue(2, Duration::from_secs(60), 8, 1);
        assert!(q.submit(Request::vertex(0, 0)).is_ok());
        assert!(q.submit(Request::vertex(0, 1)).is_ok());
        assert!(matches!(
            q.submit(Request::vertex(0, 2)),
            Err(Rejection::QueueFull { depth: 2, limit: 2 })
        ));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn tenant_quota_sheds_with_typed_rejection() {
        let lanes = (0..2).map(|_| TenantLane::new(1)).collect();
        let q = AdmissionQueue::new(
            lanes,
            FixedQuota::uniform(2, 3),
            64,
            Duration::from_secs(60),
            8,
            usize::MAX,
            Duration::ZERO,
            Arc::new(ServiceMetrics::default()),
        );
        assert!(q.submit(Request::subgraph(0, vec![1, 2, 3])).is_ok());
        assert!(matches!(
            q.submit(Request::vertex(0, 4)),
            Err(Rejection::TenantOverLimit {
                tenant: 0,
                in_flight: 3,
                limit: 3
            })
        ));
        // The other tenant is unaffected, and releasing restores quota.
        assert!(q.submit(Request::vertex(1, 4)).is_ok());
        q.release(0, 3);
        assert!(q.submit(Request::vertex(0, 4)).is_ok());
    }

    #[test]
    fn unknown_tenant_is_rejected() {
        let q = queue(8, Duration::from_secs(60), 8, 2);
        assert!(matches!(
            q.submit(Request::vertex(5, 0)),
            Err(Rejection::UnknownTenant {
                tenant: 5,
                tenants: 2
            })
        ));
    }

    #[test]
    fn pop_coalesces_up_to_max_batch() {
        let q = queue(64, Duration::from_secs(60), 3, 1);
        for v in 0..5 {
            q.submit(Request::vertex(0, v)).unwrap();
        }
        let (mut batch, mut shed) = (Vec::new(), Vec::new());
        assert!(q.pop_batch(&mut batch, &mut shed));
        assert_eq!(batch.len(), 3, "capped at max_batch");
        assert!(shed.is_empty());
        batch.clear();
        assert!(q.pop_batch(&mut batch, &mut shed));
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn expired_requests_are_shed_not_served() {
        let q = queue(64, Duration::ZERO, 8, 1);
        q.submit(Request::vertex(0, 0)).unwrap();
        q.submit(Request::vertex(0, 1)).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        let (mut batch, mut shed) = (Vec::new(), Vec::new());
        assert!(q.pop_batch(&mut batch, &mut shed));
        assert!(batch.is_empty());
        assert_eq!(shed.len(), 2);
    }

    #[test]
    fn drr_interleaves_tenants_by_weight() {
        let lanes = vec![TenantLane::new(2), TenantLane::new(1)];
        let q = AdmissionQueue::new(
            lanes,
            FixedQuota::uniform(2, u64::MAX),
            64,
            Duration::from_secs(60),
            6,
            usize::MAX,
            Duration::ZERO,
            Arc::new(ServiceMetrics::default()),
        );
        for v in 0..4 {
            q.submit(Request::vertex(0, v)).unwrap();
            q.submit(Request::vertex(1, 10 + v)).unwrap();
        }
        let (mut batch, mut shed) = (Vec::new(), Vec::new());
        assert!(q.pop_batch(&mut batch, &mut shed));
        let order: Vec<TenantId> = batch.iter().map(|p| p.tenant).collect();
        // Weight 2:1 — tenant 0 dispatches twice per cursor visit.
        assert_eq!(order, vec![0, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn close_without_drain_lets_queued_work_finish() {
        let q = queue(64, Duration::from_secs(60), 8, 1);
        q.submit(Request::vertex(0, 0)).unwrap();
        let mut drained = Vec::new();
        q.close(false, &mut drained);
        assert!(drained.is_empty());
        assert!(matches!(
            q.submit(Request::vertex(0, 1)),
            Err(Rejection::Shutdown)
        ));
        let (mut batch, mut shed) = (Vec::new(), Vec::new());
        assert!(q.pop_batch(&mut batch, &mut shed), "queued work survives");
        assert_eq!(batch.len(), 1);
        batch.clear();
        assert!(!q.pop_batch(&mut batch, &mut shed), "then the lane exits");
    }

    #[test]
    fn kill_drains_everything() {
        let q = queue(64, Duration::from_secs(60), 8, 1);
        q.submit(Request::vertex(0, 0)).unwrap();
        q.submit(Request::vertex(0, 1)).unwrap();
        let mut drained = Vec::new();
        q.close(true, &mut drained);
        assert_eq!(drained.len(), 2);
        assert_eq!(q.depth(), 0);
        let (mut batch, mut shed) = (Vec::new(), Vec::new());
        assert!(!q.pop_batch(&mut batch, &mut shed));
    }

    #[test]
    fn pop_blocks_until_submit_wakes_it() {
        let q = Arc::new(queue(8, Duration::from_secs(60), 8, 1));
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            let (mut batch, mut shed) = (Vec::new(), Vec::new());
            assert!(q2.pop_batch(&mut batch, &mut shed));
            batch.len()
        });
        std::thread::sleep(Duration::from_millis(5));
        q.submit(Request::vertex(0, 3)).unwrap();
        assert_eq!(t.join().unwrap(), 1);
    }
}
