//! `schedck` — a deterministic schedule explorer (mini-loom) for the
//! workspace's concurrency handshakes.
//!
//! The pool's finished-counter handshake, the shard executor's
//! ready-ring, the exchange-retry path and the serving admission queue
//! are all small protocols whose
//! correctness depends on *which* interleavings are possible and *what*
//! each synchronization op publishes. Ordinary tests sample a handful of
//! OS schedules; this crate enumerates them. A model is a closure over
//! modeled primitives ([`MAtomic`], [`MMutex`], [`MCondvar`], [`MCell`],
//! park/unpark) whose every visible operation is a scheduling point;
//! [`explore`] runs the model under depth-first search over all
//! preemption-bounded interleavings, replaying decision prefixes so each
//! enumerated schedule is distinct and reproducible.
//!
//! Three failure classes are detected:
//!
//! - **data races**: vector clocks track happens-before; an [`MCell`]
//!   access unordered with a conflicting access fails the execution even
//!   if the explored order was benign (so a `Release→Relaxed` downgrade
//!   is caught on *every* schedule that reads the data, not just the
//!   unlucky one);
//! - **deadlocks**: all unfinished threads blocked;
//! - **model panics**: assertion failures inside model code, reported
//!   with the schedule that produced them.
//!
//! The explorer runs model threads as real OS threads but passes a
//! single scheduling token between them, so exactly one runs at a time
//! and every execution is a pure function of its decision sequence.
//!
//! ```
//! use schedck::{explore, Config, Ordering};
//!
//! let report = explore(Config::default(), |th| {
//!     let flag = th.atomic(0);
//!     let data = th.cell("data", 0u64);
//!     let d2 = data.clone();
//!     th.spawn(move |th| {
//!         d2.write(th, |v| *v = 42);
//!         flag.store(th, 1, Ordering::Release);
//!     });
//!     if flag.load(th, Ordering::Acquire) == 1 {
//!         assert_eq!(data.read(th, |v| *v), 42);
//!     }
//! });
//! assert!(report.failure.is_none(), "{:?}", report.failure);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod rt;
mod shim;

pub use shim::{MAtomic, MCell, MCondvar, MGuard, MJoin, MMutex, Ordering, Th};

use rt::Rt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Exploration limits.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Maximum voluntary context switches per execution (switches forced
    /// by blocking are free). Small bounds find most bugs (CHESS).
    pub preemption_bound: usize,
    /// Hard cap on enumerated schedules; hitting it sets
    /// [`Report::truncated`].
    pub max_schedules: u64,
    /// Per-execution step budget; exceeding it fails the execution
    /// (livelock / unbounded spin in the model).
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: 2,
            max_schedules: 100_000,
            max_steps: 20_000,
        }
    }
}

/// What [`explore`] found.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Distinct schedules fully executed.
    pub schedules: u64,
    /// True when [`Config::max_schedules`] stopped the search before the
    /// preemption-bounded tree was exhausted.
    pub truncated: bool,
    /// The first failing schedule, if any (the search stops on it).
    pub failure: Option<Failure>,
}

/// A failing execution: what went wrong and the thread-choice sequence
/// that reproduces it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Human-readable description (race, deadlock, panic, budget).
    pub message: String,
    /// The schedule as the sequence of thread IDs chosen at each
    /// decision point.
    pub schedule: Vec<usize>,
}

/// Exhaustively explores the model's preemption-bounded interleavings.
///
/// `model` runs once per schedule on the root modeled thread (`tid` 0);
/// it must be deterministic apart from scheduling (same primitives
/// created in the same order, behavior a function of observed values).
/// Returns after the tree is exhausted, [`Config::max_schedules`] is
/// hit, or the first failure.
pub fn explore(cfg: Config, model: impl Fn(&Th)) -> Report {
    quiet_abort_unwinds();
    let mut report = Report::default();
    let mut replay: Vec<usize> = Vec::new();
    loop {
        let rt = Rt::new(replay.clone(), cfg.max_steps);
        let th0 = Th {
            rt: std::sync::Arc::clone(&rt),
            tid: 0,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            model(&th0);
            th0.rt.main_done(0);
        }));
        drop(th0);
        if let Err(p) = outcome {
            if !p.is::<rt::AbortExec>() {
                let msg = resilience::retry::panic_message(p.as_ref());
                let mut g = rt.lock();
                rt.fail(&mut g, format!("root thread panicked: {msg}"));
            }
        }
        rt.drain();
        let g = rt.lock();
        report.schedules += 1;
        let trace: Vec<usize> = g.decisions.iter().map(rt::Decision::chosen).collect();
        if let Some(msg) = g.failure.clone() {
            report.failure = Some(Failure {
                message: msg,
                schedule: trace,
            });
            return report;
        }
        if report.schedules >= cfg.max_schedules {
            report.truncated = true;
            return report;
        }
        match rt::next_replay(&g.decisions, cfg.preemption_bound) {
            Some(next) => {
                drop(g);
                replay = next;
            }
            None => return report,
        }
    }
}

/// Installs (once) a panic hook that suppresses the explorer's own
/// teardown unwinds — [`rt::AbortExec`] payloads are control flow, not
/// failures — while delegating real panics to the previous hook.
fn quiet_abort_unwinds() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<rt::AbortExec>() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two independent single-op threads under an ample bound: the root
    /// spawns both then joins both; the explorer must terminate and find
    /// nothing.
    #[test]
    fn independent_threads_explore_cleanly() {
        let report = explore(
            Config {
                preemption_bound: 3,
                ..Config::default()
            },
            |th| {
                let a = th.atomic(0);
                let b = th.atomic(0);
                let h1 = th.spawn(move |th| a.store(th, 1, Ordering::Release));
                let h2 = th.spawn(move |th| b.store(th, 1, Ordering::Release));
                th.join(h1);
                th.join(h2);
                assert_eq!(a.load(th, Ordering::Acquire), 1);
                assert_eq!(b.load(th, Ordering::Acquire), 1);
            },
        );
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(!report.truncated);
        assert!(report.schedules > 1, "expected multiple interleavings");
    }

    /// Opposite lock orders in two threads: some schedule deadlocks, and
    /// the explorer must find it.
    #[test]
    fn opposite_lock_orders_deadlock() {
        let report = explore(Config::default(), |th| {
            let a = th.mutex("a");
            let b = th.mutex("b");
            let h1 = th.spawn(move |th| {
                let _ga = a.lock(th);
                let _gb = b.lock(th);
            });
            let h2 = th.spawn(move |th| {
                let _gb = b.lock(th);
                let _ga = a.lock(th);
            });
            th.join(h1);
            th.join(h2);
        });
        let failure = report
            .failure
            .expect("AB/BA locking must deadlock somewhere");
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
        assert!(!failure.schedule.is_empty());
    }

    /// Write/write to a cell with no synchronization at all: a race on
    /// every multi-thread schedule.
    #[test]
    fn unsynchronized_writes_race() {
        let report = explore(Config::default(), |th| {
            let c = th.cell("c", 0u64);
            let c2 = c.clone();
            let h = th.spawn(move |th| c2.write(th, |v| *v = 1));
            c.write(th, |v| *v = 2);
            th.join(h);
        });
        let failure = report.failure.expect("unsynchronized writes must race");
        assert!(failure.message.contains("data race"), "{}", failure.message);
    }

    /// Mutex-guarded cell accesses never race and never deadlock.
    #[test]
    fn mutex_guarded_counter_is_clean() {
        let report = explore(Config::default(), |th| {
            let mx = th.mutex("counter");
            let c = th.cell("count", 0u64);
            let (mxa, ca) = (mx, c.clone());
            let h1 = th.spawn(move |th| {
                let _g = mxa.lock(th);
                ca.write(th, |v| *v += 1);
            });
            let (mxb, cb) = (mx, c.clone());
            let h2 = th.spawn(move |th| {
                let _g = mxb.lock(th);
                cb.write(th, |v| *v += 1);
            });
            th.join(h1);
            th.join(h2);
            let _g = mx.lock(th);
            assert_eq!(c.read(th, |v| *v), 2);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
    }

    /// park/unpark transfers both control and a happens-before edge.
    #[test]
    fn park_unpark_synchronizes() {
        let report = explore(Config::default(), |th| {
            let data = th.cell("data", 0u64);
            let d2 = data.clone();
            let root = th.id();
            let h = th.spawn(move |th| {
                d2.write(th, |v| *v = 7);
                th.unpark(root);
            });
            th.park();
            assert_eq!(data.read(th, |v| *v), 7);
            th.join(h);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
    }

    /// A model panic is reported with its schedule.
    #[test]
    fn model_panics_are_reported() {
        let report = explore(Config::default(), |th| {
            let flag = th.atomic(0);
            let h = th.spawn(move |th| flag.store(th, 1, Ordering::Release));
            if flag.load(th, Ordering::Acquire) == 1 {
                panic!("seeded assertion");
            }
            th.join(h);
        });
        let failure = report.failure.expect("some schedule sees flag==1");
        assert!(
            failure.message.contains("seeded assertion"),
            "{}",
            failure.message
        );
    }

    /// Raising the preemption bound only grows the schedule count.
    #[test]
    fn preemption_bound_is_monotone() {
        let count = |bound| {
            explore(
                Config {
                    preemption_bound: bound,
                    ..Config::default()
                },
                |th| {
                    let a = th.atomic(0);
                    let h = th.spawn(move |th| {
                        a.fetch_add(th, 1, Ordering::AcqRel);
                        a.fetch_add(th, 1, Ordering::AcqRel);
                    });
                    a.fetch_add(th, 1, Ordering::AcqRel);
                    th.join(h);
                },
            )
            .schedules
        };
        let (c0, c1, c2) = (count(0), count(1), count(2));
        assert!(c0 >= 1);
        assert!(c1 > c0, "bound 1 must add schedules over {c0}");
        assert!(c2 > c1, "bound 2 must add schedules over {c1}");
    }
}
