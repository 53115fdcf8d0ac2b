//! One benchmark group per paper table / figure / ablation / extension:
//! each regenerates its experiment through [`report::experiments`] at
//! `Fidelity::Quick`. Select one by name, e.g.
//! `cargo bench -p bench --bench paper_experiments -- fig5`.

use criterion::{criterion_group, criterion_main, Criterion};
use report::experiments::{Experiment, Fidelity};

fn bench(c: &mut Criterion) {
    for e in Experiment::ALL {
        let mut group = c.benchmark_group(e.name());
        group.sample_size(10);
        group.bench_function(e.name(), |b| b.iter(|| e.run(Fidelity::Quick)));
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
