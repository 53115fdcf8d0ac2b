//! End-to-end GCN inference benchmark over the executable kernels.

use bench::products_graph;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcn::{GcnConfig, GcnModel, InferenceWorkspace};
use kernels::{SpmmPlan, SpmmStrategy};

fn bench_gcn(c: &mut Criterion) {
    let g = products_graph();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let a_hat = g.normalized_adjacency().unwrap();
    let mut group = c.benchmark_group("gcn_inference");
    group.sample_size(10);
    for k in [16usize, 64] {
        let config = GcnConfig::paper_model(100, k, 47);
        let model = GcnModel::new(&config, 1);
        let x = g.random_features(100, 2);
        for strategy in [
            SpmmStrategy::VertexParallel { threads },
            SpmmStrategy::EdgeParallel { threads },
        ] {
            let mut ws = InferenceWorkspace::new();
            ws.install_plan(SpmmPlan::pinned(&a_hat, x.cols(), strategy));
            group.bench_with_input(BenchmarkId::new(strategy.to_string(), k), &k, |b, _| {
                b.iter(|| {
                    model
                        .infer_planned_with(&a_hat, &x, &mut ws)
                        .map(|_| ())
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_gcn);
criterion_main!(benches);
