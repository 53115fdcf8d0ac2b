//! Micro-benchmark: feature-tiled SpMM vs the row-parallel kernels — the
//! cache-blocking optimization of Graphite/GE-SpMM, with its K crossover.

use bench::{features, products_twin};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kernels::SpmmStrategy;

fn bench_tiled(c: &mut Criterion) {
    let a = products_twin();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut group = c.benchmark_group("tiled_spmm");
    group.sample_size(10);
    for k in [32usize, 256] {
        let h = features(&a, k);
        for (label, strategy) in [
            ("vertex_parallel", SpmmStrategy::VertexParallel { threads }),
            ("feature_tiled_seq", SpmmStrategy::FeatureTiled { tile: 64 }),
            (
                "feature_parallel",
                SpmmStrategy::FeatureParallel { threads },
            ),
        ] {
            group.bench_with_input(BenchmarkId::new(label, k), &k, |b, _| {
                b.iter(|| strategy.run(&a, &h).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_tiled);
criterion_main!(benches);
