//! Micro-benchmarks of the dense GEMM kernels (the GCN update phase).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use matrix::gemm::matmul_naive;
use matrix::microkernel::{matmul_packed_with, KernelDispatch};
use matrix::{DenseMatrix, WeightInit};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let kd = KernelDispatch::get();
    let mut out = DenseMatrix::default();
    let mut group = c.benchmark_group("gemm_kernels");
    group.sample_size(10);
    // Tall-skinny GCN update shapes: |V| x K_in times K_in x K_out.
    for &(m, kin, kout) in &[(4096usize, 64usize, 64usize), (4096, 256, 256)] {
        let a = WeightInit::Glorot.build(m, kin, &mut rng);
        let w = WeightInit::Glorot.build(kin, kout, &mut rng);
        let id = format!("{m}x{kin}x{kout}");
        group.bench_with_input(BenchmarkId::new("naive", &id), &id, |b, _| {
            b.iter(|| matmul_naive(&a, &w).unwrap())
        });
        for (label, threads) in [("packed_1", 1), ("packed_parallel", threads)] {
            group.bench_with_input(BenchmarkId::new(label, &id), &id, |b, _| {
                b.iter(|| matmul_packed_with(kd, &a, &w, threads, &mut out).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
