//! Poisoned-lock recovery with an audit trail.
//!
//! A `std::sync::Mutex` is poisoned when a thread panics while holding it.
//! For the locks in this workspace that is never a correctness problem:
//! they guard either plain counters or buffers that the next job fully
//! overwrites, so the right response is to take the data anyway via
//! `PoisonError::into_inner`. PR 3 established that idiom in the GEMM
//! kernels; this module centralizes it and *counts* every recovery per
//! site in [`recovery_log`], so chaos tests can assert that injected
//! panics actually exercised the poisoning path.

use std::sync::{Condvar, Mutex, MutexGuard};

// Small, touched only on the (rare) recovery path; keyed by site name.
static SITES: Mutex<Vec<(&'static str, u64)>> = Mutex::new(Vec::new());

fn note(site: &'static str) {
    let mut sites = SITES.lock().unwrap_or_else(|e| e.into_inner());
    match sites.iter_mut().find(|(s, _)| *s == site) {
        Some((_, n)) => *n += 1,
        None => sites.push((site, 1)),
    }
}

/// Lock `m`, recovering (and recording) if the lock is poisoned.
///
/// Use only for locks whose protected data stays valid across a panic —
/// counters, fully-overwritten buffers, registries. The `site` name tags
/// the recovery in [`recovery_log`].
pub fn recover<'a, T>(site: &'static str, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(e) => {
            note(site);
            e.into_inner()
        }
    }
}

/// Consume `m` and return its data, recovering (and recording) if the
/// lock is poisoned. The by-value analogue of [`recover`] for the
/// end-of-run pattern `Mutex::into_inner`.
pub fn recover_into<T>(site: &'static str, m: Mutex<T>) -> T {
    match m.into_inner() {
        Ok(v) => v,
        Err(e) => {
            note(site);
            e.into_inner()
        }
    }
}

/// `Condvar::wait` with the same poisoning-recovery policy as [`recover`].
pub fn recover_wait<'a, T>(
    site: &'static str,
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(e) => {
            note(site);
            e.into_inner()
        }
    }
}

/// `Condvar::wait_timeout` with the same poisoning-recovery policy as
/// [`recover`]. Returns the reacquired guard and whether the wait timed
/// out (`true` = the duration elapsed without a notification). The
/// serving batcher's window wait uses this so a panic injected into a
/// producer never wedges a consumer on a poisoned queue lock.
pub fn recover_wait_timeout<'a, T>(
    site: &'static str,
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: std::time::Duration,
) -> (MutexGuard<'a, T>, bool) {
    match cv.wait_timeout(guard, dur) {
        Ok((g, t)) => (g, t.timed_out()),
        Err(e) => {
            note(site);
            let (g, t) = e.into_inner();
            (g, t.timed_out())
        }
    }
}

/// Per-site recovery counts, for diagnostics and chaos-test assertions.
pub fn recovery_log() -> Vec<(&'static str, u64)> {
    SITES.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // Each test reads its own sites' counts from `recovery_log()`: other
    // tests in the binary recover locks concurrently, so only a per-site
    // delta is exact.
    fn count(site: &str) -> u64 {
        recovery_log()
            .iter()
            .find(|(s, _)| *s == site)
            .map_or(0, |&(_, n)| n)
    }

    fn poisoned(v: u32) -> Arc<Mutex<u32>> {
        let m = Arc::new(Mutex::new(v));
        let m2 = Arc::clone(&m);
        // Poison the mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison");
        })
        .join();
        assert!(m.is_poisoned());
        m
    }

    #[test]
    fn recovers_from_poison_and_counts_it() {
        let m = poisoned(41);
        let before = count("test.audit.recover");
        let mut g = recover("test.audit.recover", &m);
        *g += 1;
        assert_eq!(*g, 42);
        drop(g);
        assert_eq!(count("test.audit.recover"), before + 1);
    }

    #[test]
    fn recover_into_takes_poisoned_data() {
        let m = poisoned(7);
        let before = count("test.audit.into");
        let m = Arc::into_inner(m).expect("sole owner");
        assert_eq!(recover_into("test.audit.into", m), 7);
        assert_eq!(count("test.audit.into"), before + 1);
    }

    #[test]
    fn clean_lock_is_not_counted() {
        let m = Mutex::new(0u32);
        drop(recover("test.audit.clean", &m));
        assert_eq!(count("test.audit.clean"), 0);
    }
}
