//! The admission queue and batch scheduler — the service's hot path.
//!
//! One `Mutex<Sched>` + condvar pair carries all scheduler state: one
//! bounded FIFO and the intake flag. Admission
//! ([`AdmissionQueue::submit`]) enforces two rules before a request is
//! ever queued — intake open, depth below the limit — and every refusal
//! is a typed [`Rejection`](crate::request::Rejection) delivered
//! immediately. Dispatch ([`AdmissionQueue::pop_batch`]) blocks a lane
//! until work arrives, then holds the **batching window** open (a timed
//! wait, so late arrivals coalesce into the same kernel call) and drains
//! requests in arrival order, shedding any whose latency budget expired
//! while queued — a request is served on time or rejected, never served
//! late without bound.
//!
//! In-flight work is bounded end to end: at most `limit` requests queued,
//! and at most `max_batch` requests and `max_rows` output rows per
//! executing batch per lane (one request larger than `max_rows` still runs,
//! alone).
//!
//! Steady state is allocation-free: every buffer (`VecDeque` ring, batch
//! vectors) is caller-owned and reused at its high-water mark; the only
//! per-request allocation is the response slot `Arc` created at submit.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use resilience::audit;

use crate::metrics::ServiceMetrics;
use crate::request::{Rejection, Request, ResponseHandle, Slot};

/// One admitted request waiting for (or riding in) a batch.
#[derive(Debug)]
pub(crate) struct Pending {
    /// The requested computation.
    pub kind: Request,
    /// Completion slot shared with the caller's handle.
    pub slot: Arc<Slot>,
    /// Submission time (queue-wait metric).
    pub enqueued: Instant,
    /// Shed-after time: `enqueued + latency budget`.
    pub deadline: Instant,
}

/// Everything the scheduler mutates, under one lock.
#[derive(Debug)]
struct Sched {
    queue: VecDeque<Pending>,
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
    /// An open, empty queue with the given limits.
    pub(crate) fn new(
        limit: usize,
        budget: Duration,
        max_batch: usize,
        max_rows: usize,
        window: Duration,
        metrics: Arc<ServiceMetrics>,
    ) -> Self {
        AdmissionQueue {
            sched: Mutex::new(Sched {
                queue: VecDeque::new(),
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
    /// the caller holds the response handle and the request is queued.
    pub(crate) fn submit(&self, req: Request) -> Result<ResponseHandle, Rejection> {
        self.metrics.on_submitted();
        // lint:allow(L008): one static bool load per request while
        // disarmed; this is the chaos suite's "kill the queue mid-flight"
        // entry point and must sit before the lock so an injected panic
        // never poisons the scheduler from the submit side.
        resilience::fault_point!("serving.queue");
        let now = Instant::now();
        // The admission decision happens inside this scope (one lock
        // hold); metrics and rejections are delivered after the sched
        // lock is released so the lock-order graph stays sched-only.
        let admitted = {
            let mut s = audit::recover("serving.sched", &self.sched);
            if !s.open {
                Err(Rejection::Shutdown)
            } else if s.queue.len() >= self.limit {
                Err(Rejection::QueueFull {
                    depth: s.queue.len(),
                    limit: self.limit,
                })
            } else {
                let (handle, slot) = ResponseHandle::new();
                s.queue.push_back(Pending {
                    kind: req,
                    slot,
                    enqueued: now,
                    deadline: now + self.budget,
                });
                Ok(handle)
            }
        };
        match admitted {
            Ok(handle) => {
                self.metrics.on_admitted();
                self.cv.notify_one();
                Ok(handle)
            }
            Err(r) => {
                self.metrics.on_rejected(&r);
                Err(r)
            }
        }
    }

    /// Block until work arrives (or the queue closes empty), hold the
    /// batching window open for late arrivals, then drain requests in
    /// arrival order into `batch`, up to `max_batch` requests and
    /// `max_rows` output rows: the first request that would overshoot the
    /// rows cap stays queued for the next batch, unless `batch` is still
    /// empty. Requests whose deadline passed while queued land in `shed`
    /// instead, whatever their size. Returns `false` when the queue is
    /// closed and empty — the lane should exit.
    pub(crate) fn pop_batch(&self, batch: &mut Vec<Pending>, shed: &mut Vec<Pending>) -> bool {
        // lint:allow(L008): one static bool load per batch while
        // disarmed; the dispatch side of the chaos kill point (an
        // injected panic here is contained by the lane's catch_unwind).
        resilience::fault_point!("serving.queue");
        let mut s = audit::recover("serving.sched", &self.sched);
        while s.queue.is_empty() {
            if !s.open {
                return false;
            }
            s = audit::recover_wait("serving.sched", &self.cv, s);
        }
        // Batching window: coalesce late arrivals into this batch until
        // the window closes or enough requests queued to fill it.
        if !self.window.is_zero() {
            let window_end = Instant::now() + self.window;
            while s.queue.len() < self.max_batch && s.open {
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
        let mut rows = 0usize;
        while batch.len() < self.max_batch {
            let Some(p) = s.queue.pop_front() else {
                break;
            };
            if now >= p.deadline {
                shed.push(p);
                continue;
            }
            let k = p.kind.rows();
            if !batch.is_empty() && rows.saturating_add(k) > self.max_rows {
                s.queue.push_front(p);
                break;
            }
            rows += k;
            batch.push(p);
        }
        true
    }

    /// Close intake. With `drain`, also empty the queue into `drained` —
    /// the kill path; without, queued work keeps draining through
    /// `pop_batch` — graceful shutdown. Wakes every waiting lane either
    /// way.
    pub(crate) fn close(&self, drain: bool, drained: &mut Vec<Pending>) {
        {
            let mut s = audit::recover("serving.sched", &self.sched);
            s.open = false;
            if drain {
                drained.extend(s.queue.drain(..));
            }
        }
        self.cv.notify_all();
    }

    /// Requests currently queued (not yet popped into a batch).
    pub(crate) fn depth(&self) -> usize {
        audit::recover("serving.sched", &self.sched).queue.len()
    }

    /// The per-request latency budget admission stamps on deadlines.
    pub(crate) fn budget(&self) -> Duration {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(limit: usize, budget: Duration, max_batch: usize) -> AdmissionQueue {
        AdmissionQueue::new(
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
        let q = queue(2, Duration::from_secs(60), 8);
        assert!(q.submit(Request::vertex(0, 0)).is_ok());
        assert!(q.submit(Request::vertex(0, 1)).is_ok());
        assert!(matches!(
            q.submit(Request::vertex(0, 2)),
            Err(Rejection::QueueFull { depth: 2, limit: 2 })
        ));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn pop_coalesces_up_to_max_batch() {
        let q = queue(64, Duration::from_secs(60), 3);
        for v in 0..5 {
            q.submit(Request::vertex(0, v)).unwrap();
        }
        let popped = |batch: &[Pending]| -> Vec<usize> {
            batch
                .iter()
                .flat_map(|p| p.kind.targets().to_vec())
                .collect()
        };
        let (mut batch, mut shed) = (Vec::new(), Vec::new());
        assert!(q.pop_batch(&mut batch, &mut shed));
        assert_eq!(batch.len(), 3, "capped at max_batch");
        assert_eq!(popped(&batch), vec![0, 1, 2], "FIFO order");
        assert!(shed.is_empty());
        batch.clear();
        assert!(q.pop_batch(&mut batch, &mut shed));
        assert_eq!(batch.len(), 2);
        assert_eq!(popped(&batch), vec![3, 4], "FIFO order");
    }

    #[test]
    fn max_rows_is_an_upper_bound_on_a_batch() {
        let q = AdmissionQueue::new(
            64,
            Duration::from_secs(60),
            8,
            5,
            Duration::ZERO,
            Arc::new(ServiceMetrics::default()),
        );
        q.submit(Request::subgraph(0, vec![1, 2, 3])).unwrap();
        q.submit(Request::subgraph(0, vec![4, 5, 6])).unwrap();
        q.submit(Request::subgraph(0, (0..7).collect())).unwrap();
        let (mut batch, mut shed) = (Vec::new(), Vec::new());
        for want in [3, 3, 7] {
            batch.clear();
            assert!(q.pop_batch(&mut batch, &mut shed));
            assert_eq!(batch.len(), 1, "3 + 3 rows would overshoot the cap of 5");
            assert_eq!(
                batch[0].kind.rows(),
                want,
                "an oversized request runs alone"
            );
        }
        assert!(shed.is_empty());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn expired_requests_are_shed_not_served() {
        let q = queue(64, Duration::ZERO, 8);
        q.submit(Request::vertex(0, 0)).unwrap();
        q.submit(Request::vertex(0, 1)).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        let (mut batch, mut shed) = (Vec::new(), Vec::new());
        assert!(q.pop_batch(&mut batch, &mut shed));
        assert!(batch.is_empty());
        assert_eq!(shed.len(), 2);
    }

    #[test]
    fn close_without_drain_lets_queued_work_finish() {
        let q = queue(64, Duration::from_secs(60), 8);
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
        let q = queue(64, Duration::from_secs(60), 8);
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
        let q = Arc::new(queue(8, Duration::from_secs(60), 8));
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
