//! Bitwise recovery: a sharded layer that fails is recovered by the layer
//! loop's one walk — retry, then a strategy rung down — and never changes
//! a bit of the output.
//!
//! Faults are injected at the two sites a sharded layer passes: `gcn.layer`
//! (the top of every layer attempt, as a panic or a typed error) and
//! `pool.share` (every pool share of the layer's kernels). For every
//! Table-I twin a bounded seed range is searched. Two contracts are
//! asserted:
//!
//! 1. **soundness** — every seed whose run completes must match the
//!    single-node width-1 planned reference bit for bit (a recovered run
//!    that diverges is a retry bug, not a skip), with every injected
//!    fault counted in the report;
//! 2. **coverage** — some seed in the range fails at least one attempt of
//!    each layer and still recovers bitwise.
//!
//! A site that fails every visit exhausts every rung and ends in a typed
//! `ShardError::Matrix(MatrixError::Fault { .. })` naming `gcn.layer`.

use gcn::{GcnConfig, GcnModel, InferenceWorkspace};
use graph::OgbDataset;
use kernels::SpmmPlan;
use matrix::{DenseMatrix, MatrixError};
use resilience::fault::{self, FaultConfig, FaultKind};
use resilience::retry::ATTEMPTS;
use shard::{PartitionKind, ShardError, ShardedGcn};
use sparse::Csr;

const TWIN_CAP: usize = 1 << 9;
/// Seeds probed per twin before declaring coverage missing.
const SEED_RANGE: u64 = 192;
/// Per-visit fault rate on `gcn.layer` while a probe seed is armed.
const KILL_RATE: f64 = 0.3;

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

/// Faults the armed registry injected at `site` so far (panics or typed
/// errors).
fn site_faults(site: &str) -> u64 {
    fault::stats()
        .sites
        .get(site)
        .map_or(0, |s| s.panics + s.errors)
}

/// The strategy rungs the runner's layers can walk: its plan's execution
/// path, then each fallback down to sequential.
fn rungs(a_hat: &Csr, k: usize) -> usize {
    let exec = SpmmPlan::new(a_hat, k).exec();
    std::iter::successors(Some(exec), |s| s.fallback()).count()
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

/// A run that fails on every rung ends in the typed fault naming the
/// layer site.
fn assert_layer_fault(what: &str, outcome: &Result<DenseMatrix, ShardError>) {
    assert!(
        matches!(outcome, Err(ShardError::Matrix(MatrixError::Fault { site }))
            if site.contains("gcn.layer")),
        "{what}: expected a typed fault naming gcn.layer, got {outcome:?}"
    );
}

/// One twin: probe seeds until killed attempts covered every layer.
fn kill_one_attempt_per_layer(d: OgbDataset, workers: usize) {
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
        let (outcome, kills) = {
            let _armed =
                fault::arm(FaultConfig::new(seed).point("gcn.layer", FaultKind::Panic, KILL_RATE));
            let outcome = sharded.infer(&model, &x);
            (outcome, site_faults("gcn.layer"))
        };
        let got = match outcome {
            // Every rung exhausted under this schedule: a typed error,
            // not a soundness problem. Try the next seed.
            Err(_) => continue,
            Ok(got) => got,
        };
        // Soundness: ANY completed run must be bitwise-identical.
        assert_bitwise(name, seed, &got, &want);
        // Every kill in a completed run was answered by one more attempt,
        // and a layer is counted recovered exactly when one of its
        // attempts was killed.
        let report = sharded.report(&model);
        assert_eq!(report.replayed_tasks, kills, "{name} seed {seed}: replays");
        assert!(
            report.recovered_layers <= kills && (kills > 0) == (report.recovered_layers > 0),
            "{name} seed {seed}: {kills} `gcn.layer` kills but {} recovered layers",
            report.recovered_layers
        );
        if report.recovered_layers == layers as u64 {
            covered = true;
            break;
        }
    }
    assert!(
        covered,
        "{name} ({workers} workers): no seed in 0..{SEED_RANGE} \
         killed an attempt of every layer and recovered — coverage lost"
    );
}

#[test]
fn bitwise_recovery_all_table1() {
    for d in OgbDataset::TABLE1 {
        kill_one_attempt_per_layer(d, 4);
    }
}

/// Typed errors at `gcn.layer`, each answered by a retry: on every
/// Table-I twin, every completed run is bitwise the width-1 reference and
/// counts each injected error as one recovered exchange, some seed's
/// errors reach the retry, and a site that always fails — as an error or
/// as a panic — ends in a typed fault naming the site.
#[test]
fn failed_exchanges_replay_bitwise() {
    let site = "gcn.layer";
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
            let (outcome, errors) = {
                let _armed =
                    fault::arm(FaultConfig::new(seed).point(site, FaultKind::Error, KILL_RATE));
                let outcome = sharded.infer(&model, &x);
                (outcome, site_faults(site))
            };
            let Ok(got) = outcome else { continue };
            assert_bitwise(name, seed, &got, &want);
            let report = sharded.report(&model);
            assert_eq!(
                report.recovered_exchanges, errors,
                "{name} seed {seed}: every {site} error in a completed run is one recovered exchange"
            );
            if errors > 0 {
                assert_eq!(report.replayed_tasks, errors, "{name} seed {seed}");
                covered = true;
                break;
            }
        }
        assert!(
            covered,
            "{name}: no seed in 0..{SEED_RANGE} failed a {site} attempt and recovered"
        );

        for kind in [FaultKind::Error, FaultKind::Panic] {
            let outcome = {
                let _armed = fault::arm(FaultConfig::new(0).point(site, kind, 1.0));
                sharded.infer(&model, &x)
            };
            assert_layer_fault(
                &format!("{name}: {site} failing every visit ({kind:?})"),
                &outcome,
            );
        }
    }
}

/// Per-visit kill rate for the budget schedule.
const BUDGET_KILL_RATE: f64 = 0.85;

/// What the layer walk does under one seed's `gcn.layer` decision stream.
#[derive(Debug, Default)]
struct Walk {
    /// Attempts killed.
    kills: u64,
    /// Kills answered by a retry on the same rung.
    retried: u64,
    /// Layers with at least one kill.
    recovered_layers: u64,
    /// Some layer was killed `ATTEMPTS` times or more in total.
    over_budget: bool,
    /// Every layer found a rung that completed.
    completed: bool,
}

/// Replays the walk of `layers` layers down `rungs` rungs on the decision
/// stream of `seed`. The decision hash keys on (seed, site, visit), not on
/// the kind: probe the real site as errors.
fn walk(seed: u64, layers: usize, rungs: usize) -> Walk {
    let _probe =
        fault::arm(FaultConfig::new(seed).point("gcn.layer", FaultKind::Error, BUDGET_KILL_RATE));
    let mut w = Walk::default();
    for _ in 0..layers {
        let (mut layer_kills, mut done) = (0, false);
        for _ in 0..rungs {
            let mut failed = 0;
            while failed < ATTEMPTS && fault::should_fail("gcn.layer") {
                failed += 1;
            }
            layer_kills += u64::from(failed);
            if failed < ATTEMPTS {
                w.retried += u64::from(failed);
                done = true;
                break;
            }
        }
        w.kills += layer_kills;
        w.recovered_layers += u64::from(layer_kills > 0);
        w.over_budget |= layer_kills >= u64::from(ATTEMPTS);
        if !done {
            return w;
        }
    }
    w.completed = true;
    w
}

/// The attempt budget is per rung, not per layer: a layer killed
/// `ATTEMPTS` times or more steps one strategy rung down and completes
/// bitwise there, with every kill counted where it landed. On a plan with
/// no rung below (a one-thread pool), the same kills end in the typed
/// fault.
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
    let (layers, rungs) = (model.layers().len(), rungs(&a_hat, 16));
    let can_step_down = rungs > 1;

    let (seed, expect) = (0..4096u64)
        .map(|seed| (seed, walk(seed, layers, rungs)))
        .find(|(_, w)| w.over_budget && w.completed == can_step_down)
        .expect("some seed kills a layer ATTEMPTS times");

    let (outcome, kills) = {
        let _armed = fault::arm(FaultConfig::new(seed).point(
            "gcn.layer",
            FaultKind::Panic,
            BUDGET_KILL_RATE,
        ));
        let outcome = sharded.infer(&model, &x);
        (outcome, site_faults("gcn.layer"))
    };
    assert_eq!(kills, expect.kills, "{name} seed {seed}: kills");
    if !can_step_down {
        assert_layer_fault(&format!("{name} seed {seed}"), &outcome);
        return;
    }
    let got = outcome.unwrap_or_else(|e| panic!("{name} seed {seed}: a rung down completes: {e}"));
    assert_bitwise(name, seed, &got, &want);
    let report = sharded.report(&model);
    assert_eq!(
        (
            report.replayed_tasks,
            report.recovered_exchanges,
            report.recovered_layers
        ),
        (expect.kills, expect.retried, expect.recovered_layers),
        "{name} seed {seed}: replayed attempts, retried kills, recovered layers"
    );
}

/// Pool-share panics re-raise on the layer attempt that broadcast them,
/// so the layer walk answers them like any failed attempt: at a low rate
/// some seed's run recovers bitwise, and a pool that panics every share
/// fails every attempt of every rung (each rung's dense update
/// broadcasts) and ends in the typed fault.
#[test]
fn panics_outside_any_task_spend_the_layer_budget() {
    let _quiet = resilience::retry::quiet_panics();
    let d = OgbDataset::Products;
    let name = d.stats().name;
    let a_hat = twin(d);
    let model = GcnModel::new(&GcnConfig::from_dims(vec![16, 32, 8]), 7);
    let x = features(a_hat.nrows(), 16, 11);
    let want = reference(&model, &a_hat, &x);
    let mut sharded = ShardedGcn::new(&a_hat, 4, PartitionKind::Rows1D).expect("plan builds");

    let mut covered = false;
    for seed in 0..SEED_RANGE {
        let (outcome, shares) = {
            let _armed =
                fault::arm(FaultConfig::new(seed).point("pool.share", FaultKind::Panic, 0.02));
            let outcome = sharded.infer(&model, &x);
            (outcome, site_faults("pool.share"))
        };
        let Ok(got) = outcome else { continue };
        assert_bitwise(name, seed, &got, &want);
        let report = sharded.report(&model);
        assert_eq!(
            report.recovered_layers > 0,
            shares > 0,
            "{name} seed {seed}"
        );
        if report.recovered_exchanges > 0 {
            covered = true;
            break;
        }
    }
    assert!(
        covered,
        "{name}: no seed in 0..{SEED_RANGE} recovered a share panic"
    );

    let (outcome, shares) = {
        let _armed = fault::arm(FaultConfig::new(0).point("pool.share", FaultKind::Panic, 1.0));
        let outcome = sharded.infer(&model, &x);
        (outcome, site_faults("pool.share"))
    };
    assert_layer_fault("a pool that panics every share", &outcome);
    // Layer 0 fails every attempt on every rung, each with at least one
    // share panic.
    let attempts = u64::from(ATTEMPTS) * rungs(&a_hat, 16) as u64;
    assert!(
        shares >= attempts,
        "{shares} share panics, {attempts} attempts"
    );
}
