//! Dense micro-kernel engine: packed register-tiled GEMM vs the scalar
//! baselines, and the widened-AXPY SpMM path across feature widths.
//!
//! Two question sets, matching the paper's two pillars of a GCN layer:
//!
//! * **GEMM GFLOPS** at 512x512x512: naive triple loop vs
//!   `DenseMatrix::matmul` (the `blocked` row: one thread of the packed
//!   engine on the cached dispatch, allocating its output) vs the packed
//!   register-tiled engine on each available backend (scalar / portable /
//!   AVX2+FMA), single- and multi-threaded. The acceptance bar is the best
//!   packed backend beating naive by >= 2x and no shipped kernel slower
//!   than naive. There is one GEMM, at `f32`: the update is compute-bound,
//!   so storage precision narrows only the SpMM operand below.
//! * **SpMM effective GB/s** at F in {16, 64, 256} on an RMAT graph at
//!   every storage precision (f32 / bf16 / f16 / int8), using the paper's
//!   traffic model (CSR read + one feature-row read per non-zero + output
//!   write) held at **f32-equivalent bytes** — so narrow storage shows up
//!   directly as higher effective GB/s when it converts saved bytes into
//!   saved wall-clock. Feature-width scaling is exactly the lever the
//!   Harvard embedding study identifies; the widened AXPY and narrow
//!   payloads are what move it.
//!
//! Alongside the interactive criterion groups, medians of explicit
//! wall-clock reps are written to `results/BENCH_microkernel.json`.

use bench::BENCH_SEED;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph::rmat::RmatConfig;
use graph::Graph;
use matrix::gemm::{gemm_flops, matmul_naive};
use matrix::microkernel::{avx2_available, matmul_packed_with, Backend, KernelDispatch};
use matrix::{DenseMatrix, Precision, QuantMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse::Csr;
use std::fmt::Write as _;
use std::time::Instant;

/// GEMM edge for the measured numbers (the acceptance-criteria shape).
const GEMM_DIM: usize = 512;
/// Executor count for the multi-threaded GEMM rows (the pool clamps to
/// the host's width, so this is an upper bound, not a promise).
const GEMM_THREADS: usize = 4;
/// Wall-clock repetitions per measured kernel (median reported).
const REPS: usize = 5;
/// log2 vertex count of the SpMM fixture graph.
const SPMM_SCALE: u32 = 14;
/// Average degree of the SpMM fixture graph.
const SPMM_DEGREE: usize = 8;

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> DenseMatrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap()
}

/// Median of `REPS` wall-clock timings of `f` (one warmup call first).
fn median_secs(mut f: impl FnMut()) -> f64 {
    f(); // warmup: touches buffers, grows pool scratch to capacity
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

/// The packed-GEMM backends worth measuring on this machine, most capable
/// last; the final entry equals what `KernelDispatch::get()` resolves to
/// (absent `MICROKERNEL_FORCE`).
fn backends() -> Vec<KernelDispatch> {
    let mut v = vec![
        KernelDispatch::with_backend(Backend::Scalar),
        KernelDispatch::with_backend(Backend::Portable),
    ];
    if avx2_available() {
        v.push(KernelDispatch::with_backend(Backend::Avx2Fma));
    }
    v
}

/// Effective SpMM traffic in bytes under the paper's model: each non-zero
/// reads one `u32` column index + one `f32` value + one `F`-wide feature
/// row, and every output element is written once (read-modify-write
/// counted as one access each way).
fn spmm_traffic_bytes(a: &Csr, f: usize) -> f64 {
    let nnz = a.nnz() as f64;
    let n = a.nrows() as f64;
    nnz * 8.0 + nnz * (f as f64) * 4.0 + 2.0 * n * (f as f64) * 4.0
}

struct GemmMeasurement {
    name: String,
    threads: usize,
    median_s: f64,
    gflops: f64,
}

fn measure_gemm() -> Vec<GemmMeasurement> {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let a = random_matrix(&mut rng, GEMM_DIM, GEMM_DIM);
    let b = random_matrix(&mut rng, GEMM_DIM, GEMM_DIM);
    let flops = gemm_flops(GEMM_DIM, GEMM_DIM, GEMM_DIM);
    let mut out = Vec::new();
    let mut push = |name: String, threads: usize, median_s: f64| {
        out.push(GemmMeasurement {
            name,
            threads,
            median_s,
            gflops: flops / median_s / 1e9,
        });
    };
    push(
        "naive".into(),
        1,
        median_secs(|| {
            matmul_naive(&a, &b).unwrap();
        }),
    );
    push(
        "blocked".into(),
        1,
        median_secs(|| {
            a.matmul(&b).unwrap();
        }),
    );
    let mut c = DenseMatrix::default();
    for kd in backends() {
        for threads in [1usize, GEMM_THREADS] {
            push(
                format!("packed_{}", kd.backend().name()),
                threads,
                median_secs(|| {
                    matmul_packed_with(kd, &a, &b, threads, &mut c).unwrap();
                }),
            );
        }
    }
    out
}

struct SpmmMeasurement {
    f: usize,
    precision: Precision,
    median_s: f64,
    /// Effective GB/s against the *f32-equivalent* traffic model, so a
    /// narrow precision that halves wall-clock doubles this number.
    gbps: f64,
}

fn measure_spmm(a: &Csr) -> Vec<SpmmMeasurement> {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5A11);
    let mut out = DenseMatrix::default();
    let mut q = QuantMatrix::new();
    let mut measurements = Vec::new();
    for f in [16usize, 64, 256] {
        let h = random_matrix(&mut rng, a.ncols(), f);
        let traffic = spmm_traffic_bytes(a, f);
        for precision in Precision::all() {
            // Quantization is staged once per layer in the fused path, so
            // the encode stays outside the timed region here too.
            let median_s = if precision == Precision::F32 {
                median_secs(|| {
                    kernels::spmm::spmm_sequential_into(a, &h, &mut out).unwrap();
                })
            } else {
                q.encode(&h, precision).unwrap();
                median_secs(|| {
                    kernels::spmm::spmm_sequential_into(a, &q, &mut out).unwrap();
                })
            };
            measurements.push(SpmmMeasurement {
                f,
                precision,
                median_s,
                gbps: traffic / median_s / 1e9,
            });
        }
    }
    measurements
}

fn write_stats(a: &Csr) {
    let gemm = measure_gemm();
    let spmm = measure_spmm(a);
    let naive = gemm
        .iter()
        .find(|m| m.name == "naive")
        .map_or(0.0, |m| m.gflops);
    let packed_best = gemm
        .iter()
        .filter(|m| m.name.starts_with("packed_"))
        .map(|m| m.gflops)
        .fold(0.0, f64::max);
    let speedup = if naive > 0.0 {
        packed_best / naive
    } else {
        0.0
    };
    // Acceptance metric for narrow storage: best effective-GB/s gain over
    // f32 at the widest feature sweep point.
    let f32_gbps_at = |f: usize| {
        spmm.iter()
            .find(|m| m.f == f && m.precision == Precision::F32)
            .map_or(0.0, |m| m.gbps)
    };
    let narrow_speedup_f256 = spmm
        .iter()
        .filter(|m| m.f == 256 && m.precision.is_narrow())
        .map(|m| m.gbps / f32_gbps_at(256).max(1e-12))
        .fold(0.0, f64::max);

    let mut kernels_json = String::new();
    for (i, m) in gemm.iter().enumerate() {
        if i > 0 {
            kernels_json.push(',');
        }
        write!(
            kernels_json,
            "\n      {{\"name\": \"{}\", \"threads\": {}, \"median_ms\": {:.3}, \
             \"gflops\": {:.3}}}",
            m.name,
            m.threads,
            m.median_s * 1e3,
            m.gflops
        )
        .expect("writing to a String cannot fail");
    }
    let mut widths_json = String::new();
    for (wi, f) in [16usize, 64, 256].into_iter().enumerate() {
        if wi > 0 {
            widths_json.push(',');
        }
        let mut prec_json = String::new();
        for (pi, m) in spmm.iter().filter(|m| m.f == f).enumerate() {
            if pi > 0 {
                prec_json.push(',');
            }
            write!(
                prec_json,
                "\n        {{\"precision\": \"{}\", \"median_ms\": {:.3}, \"gbps\": {:.3}, \
                 \"speedup_vs_f32\": {:.3}}}",
                m.precision.name(),
                m.median_s * 1e3,
                m.gbps,
                m.gbps / f32_gbps_at(f).max(1e-12)
            )
            .expect("writing to a String cannot fail");
        }
        write!(
            widths_json,
            "\n      {{\"f\": {f}, \"precisions\": [{prec_json}\n      ]}}"
        )
        .expect("writing to a String cannot fail");
    }
    let json = format!(
        "{{\n  \"bench\": \"microkernel\",\n  \"seed\": {BENCH_SEED},\n  \
         \"dispatch\": \"{}\",\n  \"gemm\": {{\n    \"m\": {GEMM_DIM}, \"k\": {GEMM_DIM}, \
         \"n\": {GEMM_DIM},\n    \"flops\": {:.0},\n    \"reps\": {REPS},\n    \
         \"kernels\": [{kernels_json}\n    ],\n    \
         \"packed_vs_naive_speedup\": {speedup:.3}\n  }},\n  \"spmm\": {{\n    \
         \"graph\": \"rmat_{SPMM_SCALE}\", \"vertices\": {}, \"nnz\": {},\n    \
         \"reps\": {REPS},\n    \
         \"traffic_model\": \"f32-equivalent: nnz*8 + nnz*F*4 + 2*n*F*4 bytes\",\n    \
         \"widths\": [{widths_json}\n    ],\n    \
         \"narrow_speedup_f256\": {narrow_speedup_f256:.3}\n  }}\n}}\n",
        KernelDispatch::get().backend().name(),
        gemm_flops(GEMM_DIM, GEMM_DIM, GEMM_DIM),
        a.nrows(),
        a.nnz(),
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(format!("{dir}/BENCH_microkernel.json"), &json))
    {
        eprintln!("microkernel: failed to write stats JSON: {e}");
    } else {
        eprintln!("microkernel: wrote {dir}/BENCH_microkernel.json");
    }
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("microkernel/gemm");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let a = random_matrix(&mut rng, GEMM_DIM, GEMM_DIM);
    let b = random_matrix(&mut rng, GEMM_DIM, GEMM_DIM);
    group.bench_function("blocked_scalar", |bch| bch.iter(|| a.matmul(&b).unwrap()));
    let mut out = DenseMatrix::default();
    for kd in backends() {
        let name = kd.backend().name();
        group.bench_with_input(BenchmarkId::new("packed", name), &kd, |bch, &kd| {
            bch.iter(|| matmul_packed_with(kd, &a, &b, 1, &mut out).unwrap())
        });
    }
    group.finish();
}

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("microkernel/spmm_axpy");
    group.sample_size(10);
    let graph = Graph::rmat(&RmatConfig::power_law(SPMM_SCALE, SPMM_DEGREE), 3);
    let a = graph.normalized_adjacency().unwrap();
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let mut out = DenseMatrix::default();
    let mut q = QuantMatrix::new();
    for f in [16usize, 64, 256] {
        let h = random_matrix(&mut rng, a.ncols(), f);
        group.bench_with_input(BenchmarkId::new("sequential", f), &f, |bch, _| {
            bch.iter(|| kernels::spmm::spmm_sequential_into(&a, &h, &mut out).unwrap())
        });
        for precision in [Precision::Bf16, Precision::F16, Precision::Int8] {
            q.encode(&h, precision).unwrap();
            let id = BenchmarkId::new(format!("sequential_{}", precision.name()), f);
            group.bench_with_input(id, &f, |bch, _| {
                bch.iter(|| kernels::spmm::spmm_sequential_into(&a, &q, &mut out).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_all(c: &mut Criterion) {
    let graph = Graph::rmat(&RmatConfig::power_law(SPMM_SCALE, SPMM_DEGREE), 3);
    let a = graph.normalized_adjacency().unwrap();
    write_stats(&a);
    bench_gemm(c);
    bench_spmm(c);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
