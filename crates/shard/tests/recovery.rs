//! Bitwise recovery: killing shard tasks mid-layer must never change a
//! bit of the output.
//!
//! For every Table-I twin, this arms the `shard.task` fault point (panic at the top of the supervised task
//! wrapper — an injected kill never leaves a partial in-place mutation)
//! and searches a bounded seed range for a schedule whose kills land in
//! **every** layer, verified through the health registry's per-event
//! layer indices. Two contracts are asserted:
//!
//! 1. **soundness** — every seed whose run completes must match the
//!    single-node width-1 planned reference bit for bit (a recovered run
//!    that diverges is a masked-replay bug, not a skip);
//! 2. **coverage** — some seed in the range kills at least one task in
//!    each layer and still recovers bitwise, with the report counting
//!    replayed tasks and recovered layers.

use std::collections::HashSet;

use gcn::{GcnConfig, GcnModel, InferenceWorkspace};
use graph::OgbDataset;
use kernels::SpmmPlan;
use matrix::DenseMatrix;
use resilience::fault::{self, FaultConfig, FaultKind};
use resilience::RetryPolicy;
use shard::{PartitionKind, ShardDownCause, ShardError, ShardedGcn};
use sparse::Csr;

const TWIN_CAP: usize = 1 << 9;
/// Seeds probed per twin before declaring coverage missing.
const SEED_RANGE: u64 = 192;
/// Per-visit panic rate on `shard.task` while a probe seed is armed.
const KILL_RATE: f64 = 0.12;

fn twin(d: OgbDataset) -> Csr {
    d.materialize_scaled(TWIN_CAP, 0xC0FFEE)
        .normalized_adjacency()
        .expect("twin adjacency normalizes")
}

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

fn reference(model: &GcnModel, a_hat: &Csr, x: &DenseMatrix) -> DenseMatrix {
    let mut ws = InferenceWorkspace::new();
    ws.install_plan(SpmmPlan::with_width(a_hat, x.cols(), 1));
    model
        .infer_planned_with(a_hat, x, &mut ws)
        .expect("single-node planned inference succeeds")
        .clone()
}

fn assert_bitwise(name: &str, seed: u64, got: &DenseMatrix, want: &DenseMatrix) {
    assert_eq!(got.shape(), want.shape(), "{name} seed {seed}: shape");
    for (i, (g, w)) in got
        .as_slice()
        .iter()
        .zip(want.as_slice().iter())
        .enumerate()
    {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{name} seed {seed}: element {i} diverged after recovery: {g:e} vs {w:e}"
        );
    }
}

/// One twin: probe seeds until kills covered every layer.
fn kill_one_shard_per_layer(d: OgbDataset, workers: usize) {
    let name = d.stats().name;
    let config = GcnConfig::from_dims(vec![16, 32, 8]);
    let layers = 2usize;
    let a_hat = twin(d);
    let model = GcnModel::new(&config, 7);
    let x = features(a_hat.nrows(), 16, 11);
    let want = reference(&model, &a_hat, &x);
    let mut sharded =
        ShardedGcn::new(&a_hat, workers, PartitionKind::Rows1D).expect("shard plan builds");

    let _quiet = resilience::retry::quiet_panics();
    let mut covered = false;
    for seed in 0..SEED_RANGE {
        sharded.health().clear();
        let outcome = {
            let _armed =
                fault::arm(FaultConfig::new(seed).point("shard.task", FaultKind::Panic, KILL_RATE));
            sharded.infer(&model, &x)
        };
        let got = match outcome {
            // Replay budget exhausted under this schedule: a typed error,
            // not a soundness problem. Try the next seed.
            Err(_) => continue,
            Ok(got) => got,
        };
        // Soundness: ANY completed run must be bitwise-identical.
        assert_bitwise(name, seed, &got, &want);
        let killed_layers: HashSet<usize> = sharded
            .health()
            .events()
            .iter()
            .filter(|e| e.cause == ShardDownCause::Panic)
            .map(|e| e.layer)
            .collect();
        for e in sharded.health().events() {
            assert!(
                e.recovered,
                "{name} seed {seed}: event in completed run not marked recovered: {e:?}"
            );
            assert!(
                e.site.contains("shard.task"),
                "{name} seed {seed}: panic event must carry the fault site: {e:?}"
            );
        }
        if killed_layers.len() == layers {
            let report = sharded.report(&model);
            assert!(
                report.replayed_tasks >= layers as u64,
                "{name} seed {seed}: each killed layer replays at least one task"
            );
            assert!(
                report.recovered_layers >= layers as u64,
                "{name} seed {seed}: both layers recovered"
            );
            covered = true;
            break;
        }
    }
    assert!(
        covered,
        "{name} ({workers} workers): no seed in 0..{SEED_RANGE} \
         killed a task in every layer and recovered — coverage lost"
    );
}

#[test]
fn bitwise_recovery_all_table1() {
    for d in OgbDataset::TABLE1 {
        kill_one_shard_per_layer(d, 4);
    }
}

/// Per-visit panic rate on a staging site while a probe seed is armed.
const STAGE_FAULT_RATE: f64 = 0.3;

/// One staging site with a single-attempt retry budget, so every injected
/// panic exhausts its retries and reaches the masked replay: on every
/// Table-I twin, every completed run is bitwise the width-1 reference,
/// some seed records an `ExchangeFault` that the replay answered, and a
/// site that always fails ends in a typed `ShardError::Exchange`.
fn exhausted_staging_replays_bitwise(site: &'static str) {
    let config = GcnConfig::from_dims(vec![16, 32, 8]);
    let _quiet = resilience::retry::quiet_panics();
    for d in OgbDataset::TABLE1 {
        let name = d.stats().name;
        let a_hat = twin(d);
        let model = GcnModel::new(&config, 7);
        let x = features(a_hat.nrows(), 16, 11);
        let want = reference(&model, &a_hat, &x);
        let mut sharded = ShardedGcn::new(&a_hat, 4, PartitionKind::Rows1D).expect("plan builds");
        sharded.set_retry_policy(RetryPolicy::immediate(1));

        let mut covered = false;
        for seed in 0..SEED_RANGE {
            sharded.health().clear();
            let outcome = {
                let _armed = fault::arm(FaultConfig::new(seed).point(
                    site,
                    FaultKind::Panic,
                    STAGE_FAULT_RATE,
                ));
                sharded.infer(&model, &x)
            };
            let Ok(got) = outcome else { continue };
            assert_bitwise(name, seed, &got, &want);
            let events = sharded.health().events();
            for e in &events {
                assert!(
                    e.recovered,
                    "{name} seed {seed}: event in completed run not marked recovered: {e:?}"
                );
            }
            let faulted = events
                .iter()
                .any(|e| e.cause == ShardDownCause::ExchangeFault && e.site.contains(site));
            if faulted {
                assert!(
                    sharded.report(&model).replayed_tasks > 0,
                    "{name} seed {seed}: an exhausted {site} must replay tasks"
                );
                covered = true;
                break;
            }
        }
        assert!(
            covered,
            "{name}: no seed in 0..{SEED_RANGE} exhausted a {site} retry and recovered"
        );

        let outcome = {
            let _armed = fault::arm(FaultConfig::new(0).point(site, FaultKind::Panic, 1.0));
            sharded.infer(&model, &x)
        };
        assert!(
            matches!(outcome, Err(ShardError::Exchange(_))),
            "{name}: {site} failing every visit must end in a typed exchange error, got {outcome:?}"
        );
    }
}

#[test]
fn exhausted_exchange_retries_replay_bitwise() {
    exhausted_staging_replays_bitwise("shard.exchange");
}
