//! Sharded GCN strong-scaling study: measured execution plus PIUMA
//! projection over N ∈ {1, 2, 4, 8} row-block shards, F ∈ {16, 64, 256}
//! feature widths, natural and RCM-reordered vertex order.
//!
//! Two result families per configuration, written to
//! `results/BENCH_shard_scaling.json` (one JSON object per row, one row
//! per line, so the report crate can scan it without a JSON parser):
//!
//! * **Measured**: median wall-clock of [`shard::ShardedGcn::infer`] on
//!   this host (the task graph drains through the process pool, so on a
//!   small host this measures work + scheduling overhead, not
//!   distributed-memory latency), with per-shard NNZ imbalance and halo
//!   volume (rows, bytes, fraction of staged traffic) from the partition
//!   ledger.
//! * **Projected**: [`shard::simulate_model`] on one 8-core PIUMA node
//!   per shard — per-node DMA halo gathers over the HyperX path, DRAM /
//!   dense-peak kernel bounds, and a closing barrier — reported as
//!   achieved GFLOPS and parallel efficiency against the N=1 baseline of
//!   the same width/ordering.
//!
//! The reordering column is the satellite study: RCM tightens each row
//! block's reference window, so the halo fraction (and the exchanged
//! bytes) drop relative to the natural order at the same N.

use bench::BENCH_SEED;
use criterion::{criterion_group, criterion_main, Criterion};
use gcn::{GcnConfig, GcnModel};
use graph::{OgbDataset, ReorderKind, ReorderedGraph};
use matrix::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard::sim::parallel_efficiency;
use shard::{simulate_model, PartitionKind, ShardedGcn};
use sparse::Csr;
use std::fmt::Write as _;
use std::time::Instant;

/// Shard counts swept (one simulated PIUMA node per shard).
const N_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Feature widths swept (the paper's K ∈ {8..256} band edges + middle).
const F_SWEEP: [usize; 3] = [16, 64, 256];
/// Cores per simulated PIUMA node.
const CORES_PER_NODE: usize = 8;
/// Vertex cap for the Products twin.
const TWIN_CAP: usize = 1 << 12;
/// Wall-clock repetitions per measured configuration (median reported).
const REPS: usize = 3;

fn random_features(rng: &mut StdRng, rows: usize, cols: usize) -> DenseMatrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap()
}

fn median_secs(mut f: impl FnMut()) -> f64 {
    f(); // warmup sizes every stage / accumulator buffer
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The two orderings under study: natural twin order and RCM.
fn twins() -> [(&'static str, Csr); 2] {
    let g = OgbDataset::Products.materialize_scaled(TWIN_CAP, 0xC0FFEE);
    let natural = g.normalized_adjacency().unwrap();
    let rcm = ReorderedGraph::new(&g, ReorderKind::Rcm)
        .graph()
        .normalized_adjacency()
        .unwrap();
    [("natural", natural), ("rcm", rcm)]
}

struct Row {
    workers: usize,
    reordered: bool,
    f: usize,
    imbalance: f64,
    halo_rows: usize,
    halo_frac: f64,
    exchange_bytes: u64,
    median_s: f64,
    measured_gflops: f64,
    sim_gflops: f64,
    sim_efficiency: f64,
}

fn measure(a: &Csr, reordered: bool) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5AAD);
    let mut rows = Vec::new();
    for &f in &F_SWEEP {
        let model = GcnModel::new(&GcnConfig::from_dims(vec![f, f]), 7);
        let x = random_features(&mut rng, a.nrows(), f);
        let flops = 2.0 * a.nnz() as f64 * f as f64 + 2.0 * a.nrows() as f64 * (f * f) as f64;
        let mut base_sim = None;
        for &n in &N_SWEEP {
            let mut sharded =
                ShardedGcn::new(a, n, PartitionKind::Rows1D).expect("shard plan builds");
            let median_s = median_secs(|| {
                sharded
                    .infer(&model, &x)
                    .expect("sharded inference succeeds");
            });
            let report = sharded.report(&model);
            let sim = simulate_model(sharded.plan(), &[(f, f)], CORES_PER_NODE);
            let eff = match &base_sim {
                None => {
                    let e = 1.0;
                    base_sim = Some(sim.clone());
                    e
                }
                Some(base) => parallel_efficiency(base, 1, &sim, n),
            };
            rows.push(Row {
                workers: n,
                reordered,
                f,
                imbalance: report.imbalance,
                halo_rows: report.halo_rows,
                halo_frac: report.halo_fraction,
                exchange_bytes: report.staged_bytes,
                median_s,
                measured_gflops: flops / median_s / 1e9,
                sim_gflops: sim.gflops(),
                sim_efficiency: eff,
            });
        }
    }
    rows
}

fn write_stats(rows: &[Row], vertices: usize, nnz: usize) {
    // Satellite headline: RCM's halo-byte reduction at the widest sweep
    // point (N=8, F=256) relative to the natural ordering.
    let halo_at = |reordered: bool| {
        rows.iter()
            .find(|r| r.workers == 8 && r.f == 256 && r.reordered == reordered)
            .map_or(0.0, |r| r.exchange_bytes as f64)
    };
    let natural = halo_at(false);
    let reduction = if natural > 0.0 {
        1.0 - halo_at(true) / natural
    } else {
        0.0
    };

    let mut rows_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            rows_json.push(',');
        }
        write!(
            rows_json,
            "\n    {{\"workers\": {}, \"reordered\": {}, \"f\": {}, \
             \"imbalance\": {:.3}, \"halo_rows\": {}, \"halo_frac\": {:.4}, \
             \"exchange_bytes\": {}, \"median_ms\": {:.3}, \"measured_gflops\": {:.3}, \
             \"sim_gflops\": {:.2}, \"sim_efficiency\": {:.3}}}",
            r.workers,
            r.reordered,
            r.f,
            r.imbalance,
            r.halo_rows,
            r.halo_frac,
            r.exchange_bytes,
            r.median_s * 1e3,
            r.measured_gflops,
            r.sim_gflops,
            r.sim_efficiency,
        )
        .expect("writing to a String cannot fail");
    }
    let json = format!(
        "{{\n  \"bench\": \"shard_scaling\",\n  \"seed\": {BENCH_SEED},\n  \
         \"graph\": \"products_twin\", \"vertices\": {vertices}, \"nnz\": {nnz},\n  \
         \"cores_per_node\": {CORES_PER_NODE}, \"reps\": {REPS},\n  \
         \"rcm_halo_reduction_n8_1d_f256\": {reduction:.3},\n  \
         \"rows\": [{rows_json}\n  ]\n}}\n"
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(format!("{dir}/BENCH_shard_scaling.json"), &json))
    {
        eprintln!("shard_scaling: failed to write stats JSON: {e}");
    } else {
        eprintln!("shard_scaling: wrote {dir}/BENCH_shard_scaling.json");
    }
}

fn bench_all(c: &mut Criterion) {
    let mut all = Vec::new();
    let mut shape = (0usize, 0usize);
    for (name, a) in twins() {
        shape = (a.nrows(), a.nnz());
        eprintln!("shard_scaling: sweeping {name} ordering");
        all.extend(measure(&a, name == "rcm"));
    }
    write_stats(&all, shape.0, shape.1);

    // One interactive criterion datapoint so the sweep above stays a
    // single-shot (it is far too wide for criterion's sampling).
    let a = twins()[0].1.clone();
    let model = GcnModel::new(&GcnConfig::from_dims(vec![64, 64]), 7);
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let x = random_features(&mut rng, a.nrows(), 64);
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    let mut sharded = ShardedGcn::new(&a, 4, PartitionKind::Rows1D).expect("shard plan builds");
    group.bench_function("infer_n4_f64", |b| {
        b.iter(|| {
            sharded
                .infer(&model, &x)
                .expect("sharded inference succeeds")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
