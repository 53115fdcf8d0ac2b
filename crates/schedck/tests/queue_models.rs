//! Model-checks the serving admission protocol from
//! `crates/serving/src/queue.rs`: `submit` pushes onto one FIFO under the
//! scheduler mutex and notifies, `pop_batch` blocks while the queue is
//! empty and open, holds the batching window, then drains up to
//! `max_batch` requests, and `close(drain)` shuts intake (emptying the
//! queue when `drain` is set — the kill path) and wakes every lane.
//!
//! One submitter (two requests), one lane and one closer run against each
//! other. The real queue notifies one waiter on submit; with one lane
//! `notify_all` is exactly that. The window wait is modelled untimed — it
//! waits while fewer than `max_batch` requests are queued and the queue is
//! open — because a timeout only adds exits: a model that terminates clean
//! without one terminates clean with one.
//!
//! Every admitted request must be batched or drained exactly once, the
//! lane must exit, and no schedule may deadlock. The seeded twin closes
//! without notifying, which strands a lane asleep in either wait.

use std::collections::VecDeque;

use schedck::{explore, Config, MCell, MCondvar, MMutex, Report, Th};

const REQUESTS: u32 = 2;
const MAX_BATCH: usize = 2;

/// The model twin of `queue::Sched`, plus the ghost record of where each
/// request went.
#[derive(Default)]
struct Sched {
    queue: VecDeque<u32>,
    open: bool,
    admitted: Vec<u32>,
    batched: Vec<u32>,
    drained: Vec<u32>,
}

#[derive(Clone)]
struct Queue {
    mx: MMutex,
    cv: MCondvar,
    st: MCell<Sched>,
}

impl Queue {
    fn submit(&self, th: &Th, id: u32) {
        let admitted = {
            let _g = self.mx.lock(th);
            self.st.write(th, |s| {
                if s.open {
                    s.queue.push_back(id);
                    s.admitted.push(id);
                }
                s.open
            })
        };
        if admitted {
            self.cv.notify_all(th);
        }
    }

    /// One `pop_batch`; `false` when the queue is closed and empty.
    fn pop_batch(&self, th: &Th) -> bool {
        let depth_open = |th: &Th| self.st.read(th, |s| (s.queue.len(), s.open));
        let mut g = self.mx.lock(th);
        loop {
            match depth_open(th) {
                (0, false) => return false,
                (0, true) => g = self.cv.wait(g),
                _ => break,
            }
        }
        loop {
            let (depth, open) = depth_open(th);
            if depth >= MAX_BATCH || !open {
                break;
            }
            g = self.cv.wait(g);
        }
        self.st.write(th, |s| {
            let take = s.queue.len().min(MAX_BATCH);
            let popped: Vec<u32> = s.queue.drain(..take).collect();
            s.batched.extend(popped);
        });
        drop(g);
        true
    }

    fn close(&self, th: &Th, drain: bool, notify: bool) {
        {
            let _g = self.mx.lock(th);
            self.st.write(th, |s| {
                s.open = false;
                if drain {
                    let rest: Vec<u32> = s.queue.drain(..).collect();
                    s.drained.extend(rest);
                }
            });
        }
        if notify {
            self.cv.notify_all(th);
        }
    }
}

fn check(drain: bool, notify_on_close: bool) -> Report {
    let cfg = Config {
        preemption_bound: 2,
        max_schedules: 60_000,
        max_steps: 20_000,
    };
    explore(cfg, move |th| {
        let q = Queue {
            mx: th.mutex("serving.sched"),
            cv: th.condvar(),
            st: th.cell(
                "sched",
                Sched {
                    open: true,
                    ..Sched::default()
                },
            ),
        };
        let submitter = {
            let q = q.clone();
            th.spawn(move |th| {
                for id in 0..REQUESTS {
                    q.submit(th, id);
                }
            })
        };
        let lane = {
            let q = q.clone();
            th.spawn(move |th| while q.pop_batch(th) {})
        };
        let closer = {
            let q = q.clone();
            th.spawn(move |th| q.close(th, drain, notify_on_close))
        };
        for j in [submitter, lane, closer] {
            th.join(j);
        }
        q.st.read(th, |s| {
            let mut out: Vec<u32> = s.batched.iter().chain(&s.drained).copied().collect();
            out.sort_unstable();
            assert_eq!(out, s.admitted, "admitted requests each leave exactly once");
            assert!(s.queue.is_empty(), "nothing left queued");
            if !drain {
                assert!(s.drained.is_empty(), "graceful close drains nothing");
            }
        });
    })
}

#[test]
fn admission_queue_graceful_close_is_clean() {
    let report = check(false, true);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(!report.truncated);
    assert!(report.schedules > 1_000, "expected a real exploration");
}

#[test]
fn admission_queue_kill_is_clean() {
    let report = check(true, true);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(!report.truncated);
    assert!(report.schedules > 1_000, "expected a real exploration");
}

/// Seeded bug: `close` flips `open` but never notifies. A lane asleep in
/// the empty-queue wait or in the window wait is never told the queue
/// closed, so it sleeps forever and the joiner with it.
#[test]
fn close_without_notify_is_caught_as_deadlock() {
    for drain in [false, true] {
        let failure = check(drain, false)
            .failure
            .expect("a close that wakes no lane must deadlock");
        assert!(
            failure.message.contains("deadlock"),
            "expected a deadlock, got: {}",
            failure.message
        );
    }
}
