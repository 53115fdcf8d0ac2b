//! Tier-1 concurrency gate: a fast schedule-exploration pass over the
//! pool's finished-counter handshake, so `cargo test` at the root proves
//! the protocol clean under every preemption-bounded interleaving — and
//! proves the detector itself still fires on a seeded memory-ordering
//! bug. The exhaustive model suites (the pool handshake with its seeded
//! twin, the admission queue) live in `crates/schedck/tests/` and run in the
//! workspace pass and the `schedck` CI job; this gate keeps the
//! fastest pair on the tier-1 path.

use schedck::{explore, Config, MCell, Ordering, Th};

const WORKERS: u64 = 2;

/// The `JobCore::run`/`wait_done` shape: result write, `finished`
/// increment with the ordering under test, condvar completion signal,
/// waiter reads every result after acquiring the counter.
fn finished_counter_model(th: &Th, finish_ord: Ordering) {
    let finished = th.atomic(0);
    let mx = th.mutex("done");
    let cv = th.condvar();
    let results: Vec<MCell<u64>> = (0..WORKERS).map(|_| th.cell("result", 0u64)).collect();
    let joins: Vec<_> = (0..WORKERS as usize)
        .map(|i| {
            let r = results[i].clone();
            th.spawn(move |th| {
                r.write(th, |v| *v = 1 + i as u64);
                if finished.fetch_add(th, 1, finish_ord) + 1 == WORKERS {
                    let _g = mx.lock(th);
                    cv.notify_all(th);
                }
            })
        })
        .collect();
    let mut g = mx.lock(th);
    while finished.load(th, Ordering::Acquire) < WORKERS {
        g = cv.wait(g);
    }
    drop(g);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.read(th, |v| *v), 1 + i as u64);
    }
    for j in joins {
        th.join(j);
    }
}

#[test]
fn pool_completion_handshake_explores_clean() {
    let report = explore(Config::default(), |th| {
        finished_counter_model(th, Ordering::AcqRel);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(!report.truncated);
}

#[test]
fn seeded_relaxed_downgrade_is_caught() {
    let report = explore(Config::default(), |th| {
        finished_counter_model(th, Ordering::Relaxed);
    });
    let failure = report
        .failure
        .expect("relaxed completion counter must race");
    assert!(failure.message.contains("data race"), "{}", failure.message);
}
