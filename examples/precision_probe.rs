//! Quick wall-clock probe for the narrow-precision paths.
//!
//! First the `microkernel` bench's F=256 SpMM measurement without the
//! criterion harness, so kernel tuning can iterate in seconds; then the
//! same four precisions end to end — whole-graph planned inference on
//! gcnbench's `full_agg` / `full_wide` shapes and a 16-target rows batch on
//! its `serve_*` shape — as milliseconds, ratio to f32 and
//! relative-Frobenius error against f32 (EXPERIMENTS.md, "Narrow paths end
//! to end"). Public calls only, so the file also runs in a clone of an
//! older commit:
//!
//! ```text
//! cargo run --release --example precision_probe
//! ```

use piuma_gcn::gcn::accuracy::rel_frobenius;
use piuma_gcn::gcn::{GcnConfig, GcnModel, InferenceWorkspace, RowsWorkspace};
use piuma_gcn::graph::rmat::RmatConfig;
use piuma_gcn::graph::{Graph, OgbDataset};
use piuma_gcn::kernels::spmm::spmm_sequential_into;
use piuma_gcn::matrix::{DenseMatrix, Precision, QuantMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const REPS: usize = 9;

fn median_secs(mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|x, y| x.total_cmp(y));
    times[REPS / 2]
}

/// One row per (shape, precision): a whole-graph planned inference at pool
/// width, or — with `targets` — one rows batch, the serving brownout call.
fn inference_table() {
    for (name, dataset, cap, dims, targets) in [
        (
            "full_agg",
            OgbDataset::Ddi,
            1 << 12,
            &[128, 64, 64, 128][..],
            0,
        ),
        (
            "full_wide",
            OgbDataset::Arxiv,
            1 << 14,
            &[128, 256, 256, 40],
            0,
        ),
        (
            "serve rows x16",
            OgbDataset::Products,
            1 << 14,
            &[100, 64, 47],
            16,
        ),
    ] {
        let graph = dataset.materialize_scaled(cap, 1);
        let a_hat = graph.normalized_adjacency().unwrap();
        let x = graph.random_features(dims[0], 2);
        let model = GcnModel::new(&GcnConfig::from_dims(dims.to_vec()), 3);
        let targets: Vec<usize> = (0..targets).map(|i| i * 997 % a_hat.nrows()).collect();
        let (mut reference, mut f32_s) = (DenseMatrix::default(), 0.0);
        for p in Precision::all() {
            let mut out = DenseMatrix::default();
            let s = if targets.is_empty() {
                let mut ws = InferenceWorkspace::new();
                ws.plan_for(&a_hat, dims[0], p);
                let s = median_secs(|| {
                    model.infer_planned_with(&a_hat, &x, &mut ws).unwrap();
                });
                out.clone_from(ws.output());
                s
            } else {
                let mut ws = RowsWorkspace::new();
                median_secs(|| {
                    model
                        .infer_rows_planned_prec_into(&a_hat, &x, &targets, p, &mut ws, &mut out)
                        .unwrap();
                })
            };
            if p == Precision::F32 {
                (reference, f32_s) = (out.clone(), s);
            }
            println!(
                "{name:14} {:5} {:8.3} ms  {:.2}x f32  rel-frobenius {:.2e}",
                p.name(),
                s * 1e3,
                s / f32_s,
                rel_frobenius(&out, &reference)
            );
        }
    }
}

fn main() {
    let graph = Graph::rmat(&RmatConfig::power_law(14, 8), 3);
    let a = graph.normalized_adjacency().unwrap();
    let mut rng = StdRng::seed_from_u64(12483601);
    let f = 256usize;
    let data = (0..a.ncols() * f)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let h = DenseMatrix::from_vec(a.ncols(), f, data).unwrap();
    let mut out = DenseMatrix::default();
    let mut q = QuantMatrix::new();

    let f32_s = median_secs(|| spmm_sequential_into(&a, &h, &mut out).unwrap());
    println!("f32   {:8.3} ms", f32_s * 1e3);
    for p in [Precision::Bf16, Precision::F16, Precision::Int8] {
        q.encode(&h, p).unwrap();
        let s = median_secs(|| spmm_sequential_into(&a, &q, &mut out).unwrap());
        println!(
            "{:5} {:8.3} ms  speedup {:.3}x",
            p.name(),
            s * 1e3,
            f32_s / s
        );
    }
    inference_table();
}
