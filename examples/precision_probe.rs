//! Quick wall-clock probe for the narrow-precision SpMM paths.
//!
//! Mirrors the `microkernel` bench's F=256 SpMM measurement without the
//! criterion harness, so kernel tuning can iterate in seconds:
//!
//! ```text
//! cargo run --release --example precision_probe
//! ```

use piuma_gcn::graph::rmat::RmatConfig;
use piuma_gcn::graph::Graph;
use piuma_gcn::kernels::spmm::spmm_sequential_into;
use piuma_gcn::matrix::{DenseMatrix, Precision, QuantMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const REPS: usize = 5;

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
}
