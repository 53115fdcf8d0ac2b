//! Bitwise recovery: killing shard tasks mid-layer must never change a
//! bit of the output.
//!
//! For every Table-I twin, this arms the `shard.task` fault point (panic at
//! the top of the supervised task wrapper — an injected kill never leaves a
//! partial in-place mutation) and searches a bounded seed range for a
//! schedule whose kills land in **every** layer, verified through the
//! report's recovered-layer count and the fault registry's panic count.
//! Two contracts are asserted:
//!
//! 1. **soundness** — every seed whose run completes must match the
//!    single-node width-1 planned reference bit for bit (a recovered run
//!    that diverges is a replay bug, not a skip);
//! 2. **coverage** — some seed in the range kills at least one task in
//!    each layer and still recovers bitwise, with the report counting
//!    replayed tasks and recovered layers.

use gcn::{GcnConfig, GcnModel, InferenceWorkspace};
use graph::OgbDataset;
use kernels::SpmmPlan;
use matrix::DenseMatrix;
use resilience::fault::{self, FaultConfig, FaultKind};
use resilience::retry::ATTEMPTS;
use shard::{PartitionKind, ShardError, ShardedGcn};
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

/// The width-1 single-node reference. It runs while holding the arm lock
/// with a config that fires nowhere: a neighbour test arms `pool.share` at
/// rate 1.0, and the reference's pool broadcasts must not meet it.
fn reference(model: &GcnModel, a_hat: &Csr, x: &DenseMatrix) -> DenseMatrix {
    let _quiet = fault::arm(FaultConfig::new(0));
    let mut ws = InferenceWorkspace::new();
    ws.install_plan(SpmmPlan::with_width(a_hat, x.cols(), 1));
    model
        .infer_planned_with(a_hat, x, &mut ws)
        .expect("single-node planned inference succeeds")
        .clone()
}

/// Panics the armed registry injected at `site` so far.
fn site_panics(site: &str) -> u64 {
    fault::stats().sites.get(site).map_or(0, |s| s.panics)
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
        let (outcome, panics) = {
            let _armed =
                fault::arm(FaultConfig::new(seed).point("shard.task", FaultKind::Panic, KILL_RATE));
            let outcome = sharded.infer(&model, &x);
            (outcome, site_panics("shard.task"))
        };
        let got = match outcome {
            // Replay budget exhausted under this schedule: a typed error,
            // not a soundness problem. Try the next seed.
            Err(_) => continue,
            Ok(got) => got,
        };
        // Soundness: ANY completed run must be bitwise-identical.
        assert_bitwise(name, seed, &got, &want);
        // Every kill in a completed run was answered: a layer is counted
        // recovered exactly when at least one of its tasks was killed.
        let report = sharded.report(&model);
        assert!(
            report.recovered_layers <= panics && (panics > 0) == (report.recovered_layers > 0),
            "{name} seed {seed}: {panics} `shard.task` kills but {} recovered layers",
            report.recovered_layers
        );
        if report.recovered_layers == layers as u64 {
            assert!(
                report.replayed_tasks >= layers as u64,
                "{name} seed {seed}: each killed layer replays at least one task"
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

/// Panics at one staging site, each answered by the layer's replay: on
/// every Table-I twin, every completed run is bitwise the width-1
/// reference and counts each injected panic as one recovered exchange,
/// some seed's panics reach the replay, and a site that always fails ends
/// in a typed `ShardError::Executor` naming the site.
fn failed_staging_replays_bitwise(site: &'static str) {
    let config = GcnConfig::from_dims(vec![16, 32, 8]);
    let _quiet = resilience::retry::quiet_panics();
    for d in OgbDataset::TABLE1 {
        let name = d.stats().name;
        let a_hat = twin(d);
        let model = GcnModel::new(&config, 7);
        let x = features(a_hat.nrows(), 16, 11);
        let want = reference(&model, &a_hat, &x);
        let mut sharded = ShardedGcn::new(&a_hat, 4, PartitionKind::Rows1D).expect("plan builds");

        let mut covered = false;
        for seed in 0..SEED_RANGE {
            let (outcome, panics) = {
                let _armed = fault::arm(FaultConfig::new(seed).point(
                    site,
                    FaultKind::Panic,
                    STAGE_FAULT_RATE,
                ));
                let outcome = sharded.infer(&model, &x);
                (outcome, site_panics(site))
            };
            let Ok(got) = outcome else { continue };
            assert_bitwise(name, seed, &got, &want);
            let report = sharded.report(&model);
            assert_eq!(
                report.recovered_exchanges, panics,
                "{name} seed {seed}: every {site} panic in a completed run is one recovered exchange"
            );
            if panics > 0 {
                assert!(
                    report.replayed_tasks > 0,
                    "{name} seed {seed}: a failed {site} must replay tasks"
                );
                covered = true;
                break;
            }
        }
        assert!(
            covered,
            "{name}: no seed in 0..{SEED_RANGE} failed a {site} and recovered"
        );

        let outcome = {
            let _armed = fault::arm(FaultConfig::new(0).point(site, FaultKind::Panic, 1.0));
            sharded.infer(&model, &x)
        };
        assert!(
            matches!(&outcome, Err(ShardError::Executor(e)) if e.contains(site)),
            "{name}: {site} failing every visit must end in a typed executor error naming it, got {outcome:?}"
        );
    }
}

#[test]
fn failed_exchanges_replay_bitwise() {
    failed_staging_replays_bitwise("shard.exchange");
}

/// Per-visit kill rate for the per-task budget schedule.
const BUDGET_KILL_RATE: f64 = 0.7;

/// The attempt budget is per task, not per layer. On one worker the graph
/// runs on one lane, so `shard.task`'s decision stream meets the tasks in
/// a fixed order: each layer runs its exchange until one run survives,
/// then its aggregate. A seed whose kills hit some layer more than
/// `ATTEMPTS` times in total, but no task `ATTEMPTS` times, must complete
/// bitwise, with every kill counted where it landed.
#[test]
fn a_layer_killed_more_often_than_the_budget_still_completes() {
    let _quiet = resilience::retry::quiet_panics();
    let d = OgbDataset::Products;
    let name = d.stats().name;
    let a_hat = twin(d);
    let model = GcnModel::new(&GcnConfig::from_dims(vec![16, 32, 8]), 7);
    let x = features(a_hat.nrows(), 16, 11);
    let want = reference(&model, &a_hat, &x);
    let mut sharded = ShardedGcn::new(&a_hat, 1, PartitionKind::Rows1D).expect("plan builds");
    let layers = model.layers().len();
    let budget = ATTEMPTS as usize;
    let kills = |seed, kind| FaultConfig::new(seed).point("shard.task", kind, BUDGET_KILL_RATE);

    // (kills, failed exchange runs, replayed tasks) the schedule implies.
    // The decision hash keys on (seed, site, visit), not on the kind:
    // probe the real site as errors.
    let (seed, (killed, failed_exchanges, replayed)) = (0..4096u64)
        .find_map(|seed| {
            let _probe = fault::arm(kills(seed, FaultKind::Error));
            let mut fires = (0..256).map(|_| fault::should_fail("shard.task"));
            let mut expect = (0, 0, 0);
            let mut over_budget = false;
            for _ in 0..layers {
                let mut layer_kills = 0;
                // Task 0 is the exchange, task 1 the aggregate; a killed
                // exchange leaves both tasks to replay, a killed aggregate
                // one.
                for (task, pending) in [(0, 2), (1, 1)] {
                    let mut failed = 0;
                    while fires.next()? {
                        failed += 1;
                    }
                    if failed >= budget {
                        return None;
                    }
                    layer_kills += failed;
                    expect.0 += failed;
                    expect.1 += if task == 0 { failed } else { 0 };
                    expect.2 += pending * failed;
                }
                over_budget |= layer_kills > budget;
            }
            over_budget.then_some((seed, expect))
        })
        .expect("some seed kills a layer's tasks more than ATTEMPTS times, none that often alone");

    let (got, panics) = {
        let _armed = fault::arm(kills(seed, FaultKind::Panic));
        let got = sharded
            .infer(&model, &x)
            .unwrap_or_else(|e| panic!("{name} seed {seed}: a per-task budget completes: {e}"));
        (got, site_panics("shard.task"))
    };
    assert_bitwise(name, seed, &got, &want);
    let report = sharded.report(&model);
    assert_eq!(panics, killed as u64, "{name} seed {seed}: kills");
    assert_eq!(
        (report.recovered_exchanges, report.replayed_tasks),
        (failed_exchanges as u64, replayed as u64),
        "{name} seed {seed}: recovered exchanges, replayed tasks"
    );
}

/// Panics with no task attached — the pool shares of every round's
/// broadcast — spend the layer's one budget: after `ATTEMPTS` rounds the
/// layer ends in a typed executor error carrying the panic text.
#[test]
fn panics_outside_any_task_spend_the_layer_budget() {
    let _quiet = resilience::retry::quiet_panics();
    let a_hat = twin(OgbDataset::Products);
    let model = GcnModel::new(&GcnConfig::from_dims(vec![16, 32, 8]), 7);
    let x = features(a_hat.nrows(), 16, 11);
    let mut sharded = ShardedGcn::new(&a_hat, 4, PartitionKind::Rows1D).expect("plan builds");
    let (outcome, shares) = {
        let _armed = fault::arm(FaultConfig::new(0).point("pool.share", FaultKind::Panic, 1.0));
        let outcome = sharded.infer(&model, &x);
        (outcome, site_panics("pool.share"))
    };
    assert!(
        matches!(&outcome, Err(ShardError::Executor(e))
            if e.contains("outside any task") && e.contains("pool.share")),
        "a pool that panics every share must end in a typed executor error, got {outcome:?}"
    );
    // Layer 0 aggregates first, so no dense update ran: each of the
    // `ATTEMPTS` rounds panicked at least one share.
    assert!(shares >= u64::from(ATTEMPTS), "{shares} share panics");
}
