//! Service-level contracts: bitwise coalescing invariance, open-loop
//! admission behaviour, and chaos (fault-injection) containment.
//!
//! Test names are prefixed so CI's serving-load job can filter one
//! concern per step: `bitwise_*` (any interleaving/coalescing of
//! requests returns bit-identical rows to serial per-request planned
//! inference, on every Table-I twin), `smoke_*` (fixed-seed open loop:
//! zero sheds at low rate, measurable batching gain), `brownout_*` (a
//! browned-out batch says so on every response it serves), and `chaos_*`
//! (seeded panics on the `serving.*` fault points surface as typed
//! rejections on the affected requests only — every handle resolves, the
//! service never hangs, and survivors are still bit-correct).
//!
//! Fault arming is process-global, so the tests that arm nothing open with
//! `fault::arm(FaultConfig::new(0))` — a config that fires nowhere but
//! holds the arm lock, keeping the `chaos_*` tests' injected faults out of
//! their runs.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use gcn::{GcnConfig, GcnModel, InferenceWorkspace};
use graph::OgbDataset;
use kernels::SpmmPlan;
use matrix::DenseMatrix;
use matrix::Precision;
use proptest::prelude::*;
use resilience::fault::{self, FaultConfig, FaultKind};
use serving::{
    Brownout, BrownoutPolicy, GcnService, Rejection, Request, ServiceConfig, TenantSpec,
};
use sparse::Csr;

/// Small twin cap keeps all nine datasets fast while preserving degree
/// profiles (hubs are what make gathered neighbourhoods interesting).
const TWIN_CAP: usize = 1 << 9;

fn twin(d: OgbDataset) -> Csr {
    d.materialize_scaled(TWIN_CAP, 0xC0FFEE)
        .normalized_adjacency()
        .expect("twin adjacency normalizes")
}

/// Deterministic feature matrix (splitmix-style hash): identical bits on
/// every platform, no RNG dependency.
fn features(n: usize, dim: usize, seed: u64) -> DenseMatrix {
    let data: Vec<f32> = (0..n * dim)
        .map(|i| {
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z >> 40) as f32) / ((1u64 << 23) as f32) - 1.0
        })
        .collect();
    DenseMatrix::from_vec(n, dim, data).expect("shape matches by construction")
}

/// The serial per-request reference: full-graph planned inference through
/// a pinned width-1 plan (serving a request serially means reading the
/// target rows out of this).
fn reference(model: &GcnModel, a_hat: &Csr, x: &DenseMatrix) -> DenseMatrix {
    let mut ws = InferenceWorkspace::new();
    ws.install_plan(SpmmPlan::with_width(a_hat, x.cols(), 1));
    model
        .infer_planned_with(a_hat, x, &mut ws)
        .expect("planned inference succeeds")
        .clone()
}

fn assert_row_bitwise(name: &str, target: usize, got: &[f32], want: &[f32]) {
    assert_eq!(
        got.len(),
        want.len(),
        "{name}: row width for vertex {target}"
    );
    for (j, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{name}: vertex {target} column {j} diverged: service {g:e} vs serial {w:e}"
        );
    }
}

fn batched_config(max_batch: usize, window_us: u64, lanes: usize) -> ServiceConfig {
    ServiceConfig {
        max_batch,
        max_batch_rows: 4096,
        batch_window: Duration::from_micros(window_us),
        queue_limit: 4096,
        latency_budget: Duration::from_secs(30),
        lanes,
        tenants: vec![TenantSpec::default()],
        brownout: BrownoutPolicy::default(),
    }
}

/// Every Table-I twin: a mixed stream of vertex and subgraph requests,
/// coalesced by a held-open batching window across two lanes, must match
/// the serial reference to the bit.
#[test]
fn bitwise_all_table1_twins() {
    let _quiet = fault::arm(FaultConfig::new(0));
    let config = GcnConfig::from_dims(vec![16, 32, 8]);
    for d in OgbDataset::TABLE1 {
        let name = d.stats().name;
        let a = twin(d);
        let n = a.nrows();
        let model = GcnModel::new(&config, 7);
        let x = features(n, 16, 11);
        let want = reference(&model, &a, &x);

        let svc = GcnService::planned(model, a, x, batched_config(16, 500, 2))
            .expect("service starts on every twin");
        // A deterministic mix: singles walking the graph, subgraphs with
        // duplicates and hubs, an empty-window straggler pattern.
        let mut expected: Vec<Vec<usize>> = Vec::new();
        let mut handles = Vec::new();
        for i in 0..40 {
            let targets = match i % 4 {
                0 => vec![(i * 13) % n],
                1 => vec![(i * 7) % n, (i * 7) % n, 0],
                2 => vec![n - 1 - (i % n.min(17)), (i * 3) % n],
                _ => vec![(i * 31) % n; 3],
            };
            handles.push(
                svc.submit(Request::subgraph(0, targets.clone()))
                    .expect("request admits under a deep queue"),
            );
            expected.push(targets);
        }
        for (h, targets) in handles.into_iter().zip(expected) {
            let r = h.wait().expect("request completes");
            assert_eq!(r.rows.rows(), targets.len(), "{name}: row count");
            for (i, &t) in targets.iter().enumerate() {
                assert_row_bitwise(name, t, r.rows.row(i), want.row(t));
            }
        }
        let m = svc.shutdown();
        assert_eq!(m.shed, 0, "{name}: nothing shed under a deep queue");
        assert!(
            m.batches < m.completed,
            "{name}: the window actually coalesced ({} batches for {} requests)",
            m.batches,
            m.completed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any partition of any target multiset into requests, under any
    /// batching shape (batch cap, window, lane count), is bitwise
    /// equivalent to serial per-request inference.
    #[test]
    fn bitwise_coalescing_invariant(
        targets in proptest::collection::vec(0usize..TWIN_CAP, 1..48),
        splits in proptest::collection::vec(1usize..6, 1..16),
        max_batch in 1usize..12,
        window_us in 0u64..800,
        lanes in 1usize..4,
    ) {
        let _quiet = fault::arm(FaultConfig::new(0));
        let a = twin(OgbDataset::Arxiv);
        let n = a.nrows();
        let model = GcnModel::new(&GcnConfig::from_dims(vec![16, 24]), 7);
        let x = features(n, 16, 11);
        let want = reference(&model, &a, &x);

        let svc = GcnService::planned(model, a, x, batched_config(max_batch, window_us, lanes))
            .expect("service starts");
        let mut handles = Vec::new();
        let mut expected = Vec::new();
        let mut cursor = 0usize;
        for &w in &splits {
            if cursor >= targets.len() {
                break;
            }
            let chunk: Vec<usize> =
                targets[cursor..(cursor + w).min(targets.len())]
                    .iter()
                    .map(|t| t % n)
                    .collect();
            cursor += w;
            handles.push(svc.submit(Request::subgraph(0, chunk.clone())).expect("admits"));
            expected.push(chunk);
        }
        for (h, chunk) in handles.into_iter().zip(expected) {
            let r = h.wait().expect("completes");
            for (i, &t) in chunk.iter().enumerate() {
                assert_row_bitwise("arxiv", t, r.rows.row(i), want.row(t));
            }
        }
        svc.shutdown();
    }
}

/// A zero high-water mark browns out every batch (queue depth is always
/// at least 0): every response carries the typed bf16 annotation, and the
/// service counts each batch it served as a brownout batch.
#[test]
fn brownout_annotates_every_response() {
    let _quiet = fault::arm(FaultConfig::new(0));
    let a = twin(OgbDataset::Arxiv);
    let n = a.nrows();
    let model = GcnModel::new(&GcnConfig::from_dims(vec![16, 32, 8]), 7);
    let x = features(n, 16, 11);
    let mut cfg = batched_config(8, 200, 2);
    cfg.brownout.queue_high_water = 0;
    let svc = GcnService::planned(model, a, x, cfg).expect("service starts");
    let handles: Vec<_> = (0..60)
        .map(|i| {
            let targets = vec![(i * 13) % n; 1 + i % 3];
            svc.submit(Request::subgraph(0, targets)).expect("admits")
        })
        .collect();
    for h in handles {
        let r = h.wait().expect("a browned-out request still completes");
        assert_eq!(
            r.degraded,
            Some(Brownout {
                precision: Precision::Bf16
            })
        );
    }
    let m = svc.shutdown();
    assert_eq!(m.completed, 60);
    assert_eq!(m.shed, 0);
    assert!(m.batches > 0);
    assert_eq!(
        m.brownout_batches, m.batches,
        "every batch served is counted as browned out"
    );
}

/// Fixed-seed open loop at a rate the service trivially sustains: every
/// request completes, nothing is shed, and the window coalesces.
#[test]
fn smoke_low_rate_zero_sheds() {
    let _quiet = fault::arm(FaultConfig::new(0));
    let a = twin(OgbDataset::Products);
    let n = a.nrows();
    let model = GcnModel::new(&GcnConfig::from_dims(vec![16, 16]), 7);
    let x = features(n, 16, 5);
    let mut cfg = batched_config(32, 1_000, 2);
    cfg.queue_limit = 256;
    cfg.latency_budget = Duration::from_secs(5);
    let svc = GcnService::planned(model, a, x, cfg).expect("service starts");

    // ~200 req/s for 120 requests; deterministic near-Poisson gaps from
    // the same splitmix hash the feature generator uses.
    let mut handles = Vec::new();
    for i in 0..120u64 {
        let mut z = 0xFEEDu64.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
        z ^= z >> 29;
        let gap_us = 2_000 + (z % 6_000); // mean ~5 ms
        std::thread::sleep(Duration::from_micros(gap_us));
        handles.push(
            svc.submit_vertex(0, (i as usize * 37) % n)
                .expect("low-rate submission always admits"),
        );
    }
    for h in handles {
        h.wait().expect("low-rate request completes");
    }
    let m = svc.shutdown();
    assert_eq!(m.completed, 120);
    assert_eq!(m.shed, 0, "zero sheds at low rate");
    assert_eq!(m.shed_rate, 0.0);
}

/// Closed-loop burst: coalescing must beat per-request dispatch on wall
/// clock (the batched service runs a handful of gathered calls where the
/// per-request one builds a sub-plan per request).
#[test]
fn smoke_batching_beats_per_request() {
    let _quiet = fault::arm(FaultConfig::new(0));
    let a = twin(OgbDataset::Products);
    let n = a.nrows();
    let model = GcnModel::new(&GcnConfig::from_dims(vec![32, 32, 16]), 7);
    let x = features(n, 32, 5);

    let burst = |cfg: ServiceConfig| {
        let svc =
            GcnService::planned(model.clone(), a.clone(), x.clone(), cfg).expect("service starts");
        // Warm plan caches outside the timed region.
        svc.submit_vertex(0, 0)
            .expect("admits")
            .wait()
            .expect("completes");
        let t0 = Instant::now();
        for _round in 0..3 {
            let handles: Vec<_> = (0..64)
                .map(|i| svc.submit_vertex(0, (i * 61) % n).expect("admits"))
                .collect();
            for h in handles {
                h.wait().expect("completes");
            }
        }
        let elapsed = t0.elapsed();
        let m = svc.shutdown();
        (elapsed, m)
    };

    let (serial, sm) = burst(batched_config(1, 0, 1));
    let (batched, bm) = burst(batched_config(64, 2_000, 1));
    assert_eq!(sm.completed, 193);
    assert_eq!(bm.completed, 193);
    assert!(
        bm.mean_batch_size() > 2.0,
        "burst must actually coalesce (mean batch {})",
        bm.mean_batch_size()
    );
    assert!(
        batched < serial,
        "batched burst ({batched:?}) must beat per-request dispatch ({serial:?})"
    );
}

/// Seeded panics on every `serving.*` fault point: all handles resolve
/// (no hangs — enforced with a hard timeout), failures are typed, the
/// service keeps serving after each contained fault, and every response
/// that does come back is still bit-correct.
#[test]
fn chaos_faults_surface_as_typed_rejections() {
    let seed = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let a = twin(OgbDataset::Arxiv);
    let n = a.nrows();
    let model = GcnModel::new(&GcnConfig::from_dims(vec![16, 16]), 7);
    let x = features(n, 16, 11);
    let want = reference(&model, &a, &x);

    let _armed = fault::arm(
        FaultConfig::new(seed)
            .point("serving.queue", FaultKind::Panic, 0.05)
            .point("serving.batch", FaultKind::Panic, 0.10),
    );
    let svc = GcnService::planned(model, a, x, batched_config(8, 200, 2)).expect("service starts");

    let (tx, rx) = mpsc::channel();
    let mut submitted = 0usize;
    let mut door_faults = 0usize;
    for i in 0..300usize {
        match svc.submit_vertex(0, (i * 13) % n) {
            Ok(h) => {
                submitted += 1;
                let tx = tx.clone();
                let target = (i * 13) % n;
                std::thread::spawn(move || {
                    let _ = tx.send((target, h.wait()));
                });
            }
            Err(Rejection::Faulted { site }) => {
                assert_eq!(site, "serving.queue");
                door_faults += 1;
            }
            Err(other) => panic!("unexpected admission rejection: {other}"),
        }
    }
    let mut completed = 0usize;
    let mut faulted = 0usize;
    for _ in 0..submitted {
        // The no-hang assertion: every outstanding handle must resolve
        // well inside the timeout even while panics land mid-batch.
        let (target, outcome) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("every handle resolves: the service must not hang under faults");
        match outcome {
            Ok(r) => {
                completed += 1;
                assert_row_bitwise("arxiv", target, r.rows.row(0), want.row(target));
            }
            Err(Rejection::Faulted { site, .. }) => {
                assert_eq!(site, "serving.batch");
                faulted += 1;
            }
            Err(Rejection::Shutdown | Rejection::Stopped(_)) => {}
            Err(other) => panic!("unexpected in-flight rejection: {other}"),
        }
    }
    let m = svc.shutdown();
    assert_eq!(m.completed as usize, completed);
    assert!(
        completed > 0,
        "the service must keep serving between contained faults"
    );
    assert_eq!(
        m.shed_faulted as usize,
        faulted + door_faults,
        "every fault is accounted as a typed shed"
    );
}

/// Killing the service mid-flight (queue loaded) resolves every handle
/// with a typed rejection or a completed response — no hangs, no lost
/// requests. That work is still queued when the kill lands is a fact, not
/// a race against how fast a lane serves: the 200 requests cannot fill a
/// batch (`max_batch` 256), so the one lane holds them in a batching window
/// that outlasts the test until the kill closes the queue under it.
#[test]
fn chaos_kill_mid_flight_rejects_typed() {
    let _quiet = fault::arm(FaultConfig::new(0));
    let a = twin(OgbDataset::Products);
    let n = a.nrows();
    let model = GcnModel::new(&GcnConfig::from_dims(vec![16, 16]), 7);
    let x = features(n, 16, 5);
    let mut cfg = batched_config(256, 120_000_000, 1);
    cfg.queue_limit = 1024;
    let svc = GcnService::planned(model, a, x, cfg).expect("service starts");

    let handles: Vec<_> = (0..200)
        .map(|i| svc.submit_vertex(0, (i * 7) % n).expect("admits"))
        .collect();
    let (tx, rx) = mpsc::channel();
    for h in handles {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let _ = tx.send(h.wait());
        });
    }
    svc.kill();
    let mut served = 0;
    let mut rejected = 0;
    for _ in 0..200 {
        match rx
            .recv_timeout(Duration::from_secs(60))
            .expect("every handle resolves after kill — no hangs")
        {
            Ok(_) => served += 1,
            Err(Rejection::Shutdown | Rejection::Stopped(_)) => rejected += 1,
            Err(other) => panic!("unexpected rejection after kill: {other}"),
        }
    }
    assert_eq!(served + rejected, 200);
    assert!(rejected > 0, "killing mid-flight drops queued work");
}
