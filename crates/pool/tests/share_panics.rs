//! The invariant that makes worker replacement unnecessary: every share
//! runs under `catch_unwind`, so no panic — injected at `pool.share` or
//! raised by the task — can end a pool thread.
//!
//! This is its own test binary because it arms `pool.share` at rate 1.0:
//! fault arming is process-global, and any broadcast in a neighbouring
//! test would re-raise an injected panic while it is armed.

use pool::ThreadPool;
use resilience::fault::{self, FaultConfig, FaultKind};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

#[test]
#[cfg_attr(
    miri,
    ignore = "256 timed shares; thread-identity claim needs no interpreter"
)]
fn panicking_shares_never_replace_a_worker() {
    let pool = ThreadPool::new(2);
    let before = pool.worker_ids();
    {
        let _quiet = resilience::retry::quiet_panics();
        let _armed = fault::arm(FaultConfig::new(5).point("pool.share", FaultKind::Panic, 1.0));
        // Enough shares per round that the workers wake and claim some
        // before the caller drains the job: every claim panics at the site.
        for round in 0..20 {
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.broadcast(pool.width(), 256, |_| {});
            }));
            assert!(
                r.is_err(),
                "round {round}: the injected panic must re-raise"
            );
        }
    }
    assert_eq!(pool.worker_ids(), before, "a worker was replaced");

    let hits: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
    let ids = Mutex::new(HashSet::new());
    pool.broadcast(pool.width(), hits.len(), |i| {
        thread::sleep(Duration::from_micros(50));
        hits[i].fetch_add(1, Ordering::Relaxed);
        ids.lock().unwrap().insert(thread::current().id());
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    let mut allowed: HashSet<ThreadId> = before.into_iter().collect();
    allowed.insert(thread::current().id());
    assert!(
        ids.into_inner().unwrap().is_subset(&allowed),
        "a share ran on a thread that was not spawned at pool construction"
    );

    // And every worker still serves: `width` shares that each wait for all
    // `width` to have started can only meet if the caller and every worker
    // hold one at once (a dead worker leaves its share to the caller, which
    // is still inside its own).
    let width = pool.width();
    let (started, met) = (AtomicUsize::new(0), AtomicUsize::new(0));
    pool.broadcast(width, width, |_| {
        started.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while started.load(Ordering::SeqCst) < width && Instant::now() < deadline {
            thread::sleep(Duration::from_micros(100));
        }
        if started.load(Ordering::SeqCst) == width {
            met.fetch_add(1, Ordering::SeqCst);
        }
    });
    assert_eq!(
        met.into_inner(),
        width,
        "a worker stopped serving broadcasts"
    );
}
