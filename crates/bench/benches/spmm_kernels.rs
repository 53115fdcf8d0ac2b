//! Micro-benchmarks of the executable SpMM kernels (Section II-C trade-offs
//! on the host CPU: vertex-parallel vs edge-parallel vs sequential).

use bench::{features, products_twin};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kernels::SpmmStrategy;

fn bench_spmm(c: &mut Criterion) {
    let a = products_twin();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut group = c.benchmark_group("spmm_kernels");
    group.sample_size(10);
    for k in [8usize, 64] {
        let h = features(&a, k);
        for (label, strategy) in [
            ("sequential", SpmmStrategy::Sequential),
            ("vertex_parallel", SpmmStrategy::VertexParallel { threads }),
            ("edge_parallel", SpmmStrategy::EdgeParallel { threads }),
        ] {
            group.bench_with_input(BenchmarkId::new(label, k), &k, |b, _| {
                b.iter(|| strategy.run(&a, &h).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_spmm);
criterion_main!(benches);
