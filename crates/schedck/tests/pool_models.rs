//! Model-checks the shard executor's exchange-retry loop
//! (`crates/shard/src/runner.rs` halo gathers under `resilience::retry::run`):
//! a small mutex handshake whose publication guarantees the explorer
//! proves over every preemption-bounded interleaving. (The pool's own
//! completion handshake is modelled in the root `tests/schedck_gate.rs`
//! and in `seeded_bugs.rs`.)

use schedck::{explore, Config, MCell};

/// Exchange-retry: two workers gather into disjoint stage buffers; each
/// hits one injected fault on its first attempt and replays the
/// (idempotent) gather, then books staged bytes, halo bytes and recoveries
/// under the shared counter mutex — the shape of `runner::exchange_task`'s
/// `retry::run(|| gather_rows(..))` with its `staged_bytes` /
/// `halo_bytes` / `recovered_exchanges` accounting. The explorer proves
/// replayed writes stay self-ordered and the counters publish to the
/// joiner.
#[test]
fn exchange_retry_replay_is_clean() {
    struct Counters {
        staged: u64,
        halo: u64,
        recovered: u64,
    }

    const BYTES: u64 = 64;
    const HALO_BYTES: u64 = 16;

    let cfg = Config {
        preemption_bound: 2,
        max_schedules: 60_000,
        max_steps: 20_000,
    };
    let report = explore(cfg, |th| {
        let mx = th.mutex("shard.counters");
        let counters = th.cell(
            "counters",
            Counters {
                staged: 0,
                halo: 0,
                recovered: 0,
            },
        );
        let buffers: Vec<MCell<u64>> = (0..2).map(|_| th.cell("stage-buffer", 0u64)).collect();

        let mut joins = Vec::new();
        for (i, buf) in buffers.iter().enumerate() {
            let (buf, counters, mx) = (buf.clone(), counters.clone(), mx);
            joins.push(th.spawn(move |th| {
                let mut attempts = 0u64;
                loop {
                    attempts += 1;
                    // The gather into the stage buffer — idempotent by
                    // design, so the replay after a caught fault simply
                    // overwrites.
                    buf.write(th, |v| *v = 1000 + i as u64);
                    let fault = attempts == 1;
                    if !fault {
                        break;
                    }
                }
                let _g = mx.lock(th);
                counters.write(th, |c| {
                    c.staged += BYTES;
                    c.halo += HALO_BYTES;
                    c.recovered += attempts - 1;
                });
            }));
        }
        for j in joins {
            th.join(j);
        }
        let _g = mx.lock(th);
        counters.read(th, |c| {
            assert_eq!(c.staged, 2 * BYTES);
            assert_eq!(c.halo, 2 * HALO_BYTES);
            assert_eq!(c.recovered, 2, "each worker recovered exactly once");
        });
        drop(_g);
        // join edges publish the (replayed) gather writes.
        for (i, b) in buffers.iter().enumerate() {
            assert_eq!(b.read(th, |v| *v), 1000 + i as u64);
        }
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(!report.truncated);
    assert!(report.schedules > 10, "expected a real exploration");
}
