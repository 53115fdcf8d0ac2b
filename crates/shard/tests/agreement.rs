//! Bitwise agreement between [`shard::ShardedGcn`] and the single-node
//! planned inference path, across every Table-I dataset twin and
//! N ∈ {2, 4, 8} row-block workers.
//!
//! The contract under test: sharded execution is a pure reassociation-free
//! re-tiling of the same FP instruction stream, so outputs must agree to
//! the bit (`f32::to_bits`), not merely to a tolerance. The reference path
//! pins a width-1 (sequential) plan via
//! [`gcn::InferenceWorkspace::install_plan`] so machine width cannot
//! perturb the comparison.
//!
//! Test names follow `bitwise_n{workers}` so CI's shard-matrix job can
//! filter one cell per runner: `cargo test -p shard --test agreement
//! bitwise_n4`.

use gcn::{GcnConfig, GcnModel, InferenceWorkspace};
use graph::OgbDataset;
use kernels::SpmmPlan;
use matrix::DenseMatrix;
use resilience::fault::{self, FaultConfig, FaultKind};
use resilience::RetryPolicy;
use shard::{PartitionKind, ShardedGcn};
use sparse::Csr;

/// Small cap keeps all nine twins fast while preserving each dataset's
/// degree profile (the partition stress: hubs, halos, empty tails).
const TWIN_CAP: usize = 1 << 9;

fn twin(d: OgbDataset) -> Csr {
    d.materialize_scaled(TWIN_CAP, 0xC0FFEE)
        .normalized_adjacency()
        .expect("twin adjacency normalizes")
}

/// Deterministic feature matrix in `[-1, 1)` (splitmix-style hash, no RNG
/// dependency) — identical bits on every platform.
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

/// Reference output through the sequential pinned plan.
fn reference(model: &GcnModel, a_hat: &Csr, x: &DenseMatrix) -> DenseMatrix {
    let mut ws = InferenceWorkspace::new();
    ws.install_plan(SpmmPlan::with_width(a_hat, x.cols(), 1));
    model
        .infer_planned_with(a_hat, x, &mut ws)
        .expect("single-node planned inference succeeds")
        .clone()
}

fn assert_bitwise(d: OgbDataset, got: &DenseMatrix, want: &DenseMatrix) {
    assert_eq!(
        got.shape(),
        want.shape(),
        "{}: output shape",
        d.stats().name
    );
    for (i, (g, w)) in got
        .as_slice()
        .iter()
        .zip(want.as_slice().iter())
        .enumerate()
    {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{}: element {i} diverged: sharded {g:e} vs single-node {w:e}",
            d.stats().name
        );
    }
}

/// Runs every Table-I twin through both association orders: the 16→32
/// layer is aggregate-first (`k_in <= k_out`), the 32→8 layer is
/// update-first, so one pass covers both schedules.
fn check_all_table1(workers: usize) {
    // Fires nowhere, but holds the process-wide arm lock: a neighbour's
    // injected faults cannot land in this run.
    let _quiet = fault::arm(FaultConfig::new(0));
    let config = GcnConfig::from_dims(vec![16, 32, 8]);
    for d in OgbDataset::TABLE1 {
        let a_hat = twin(d);
        let model = GcnModel::new(&config, 7);
        let x = features(a_hat.nrows(), 16, 11);
        let want = reference(&model, &a_hat, &x);
        let mut sharded = ShardedGcn::new(&a_hat, workers, PartitionKind::Rows1D)
            .expect("shard plan builds for every twin");
        let got = sharded
            .infer(&model, &x)
            .expect("sharded inference succeeds");
        assert_bitwise(d, &got, &want);

        let report = sharded.report(&model);
        assert_eq!(report.workers, workers);
        assert_eq!(
            report.recovered_exchanges,
            0,
            "{}: clean run",
            d.stats().name
        );
        if workers > 1 {
            assert!(
                report.staged_bytes > 0,
                "{}: exchanges must move measurable bytes",
                d.stats().name
            );
        }
    }
}

#[test]
fn bitwise_n2() {
    check_all_table1(2);
}

#[test]
fn bitwise_n4() {
    check_all_table1(4);
}

#[test]
fn bitwise_n8() {
    check_all_table1(8);
}

/// The wide-K regime (gcnbench's `full_wide` model, aggregating at 128, 256
/// and 40 lanes) on the skewed arxiv twin. A plan keeps wide `K` on the row
/// partition, so the pinned plan's re-resolution at the other layer widths
/// stays row-local and the identity holds at `K = 256` as it does at 16.
#[test]
fn bitwise_n4_wide() {
    // Fires nowhere, but holds the process-wide arm lock: a neighbour's
    // injected faults cannot land in this run.
    let _quiet = fault::arm(FaultConfig::new(0));
    let d = OgbDataset::Arxiv;
    let a_hat = twin(d);
    let model = GcnModel::new(&GcnConfig::from_dims(vec![128, 256, 256, 40]), 7);
    let x = features(a_hat.nrows(), 128, 11);
    let want = reference(&model, &a_hat, &x);
    let mut sharded = ShardedGcn::new(&a_hat, 4, PartitionKind::Rows1D).expect("shard plan builds");
    let got = sharded
        .infer(&model, &x)
        .expect("sharded inference succeeds");
    assert_bitwise(d, &got, &want);
}

/// Narrow-precision sharded inference agrees bitwise with the single-node
/// narrow path at the same width-1 plan.
#[test]
fn bitwise_narrow_precision() {
    use matrix::Precision;
    // Fires nowhere, but holds the process-wide arm lock: a neighbour's
    // injected faults cannot land in this run.
    let _quiet = fault::arm(FaultConfig::new(0));
    let a_hat = twin(OgbDataset::Arxiv);
    let config = GcnConfig::from_dims(vec![16, 32, 8]);
    let model = GcnModel::new(&config, 7);
    let x = features(a_hat.nrows(), 16, 11);
    for precision in [Precision::Bf16, Precision::F16] {
        let mut ws = InferenceWorkspace::new();
        ws.install_plan(SpmmPlan::with_width(&a_hat, 16, 1).at_precision(precision));
        let want = model
            .infer_planned_with(&a_hat, &x, &mut ws)
            .expect("single-node narrow inference succeeds")
            .clone();
        let mut sharded =
            ShardedGcn::with_precision(&a_hat, 4, precision).expect("narrow shard plan builds");
        let got = sharded
            .infer(&model, &x)
            .expect("sharded narrow inference succeeds");
        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits(), "precision {precision:?} diverged");
        }
    }
}

/// Chaos drill: panics injected at the `shard.exchange` fault point are
/// absorbed by the per-exchange retry, the run still completes, the output
/// is still bitwise identical, and the recovery counter records the hits.
#[test]
fn chaos_exchange_recovers_bitwise() {
    let _quiet = resilience::retry::quiet_panics();
    let a_hat = twin(OgbDataset::Products);
    let config = GcnConfig::from_dims(vec![16, 32, 8]);
    let model = GcnModel::new(&config, 7);
    let x = features(a_hat.nrows(), 16, 11);
    let want = reference(&model, &a_hat, &x);

    let _armed =
        fault::arm(FaultConfig::new(0xFA_u64).point("shard.exchange", FaultKind::Panic, 0.4));
    let mut sharded = ShardedGcn::new(&a_hat, 8, PartitionKind::Rows1D).expect("shard plan builds");
    sharded.set_retry_policy(RetryPolicy::immediate(6));
    let got = sharded
        .infer(&model, &x)
        .expect("retries absorb injected exchange panics");
    assert_bitwise(OgbDataset::Products, &got, &want);
    let report = sharded.report(&model);
    assert!(
        report.recovered_exchanges > 0,
        "fault rate 0.4 over many exchange tasks must trigger at least one recovery"
    );
}
