//! Planned SpMM, native vs reordered.
//!
//! Two executions of the same aggregation are compared on a skewed RMAT
//! graph (2^16 vertices) and a uniform Erdős–Rényi control:
//!
//! * `planned` — a cached [`SpmmPlan`]: NNZ-balanced row partition and
//!   strategy resolution paid once, reused every iteration,
//! * `planned_rcm` — the same plan built on the RCM-reordered graph, so
//!   neighbouring rows read neighbouring feature rows.
//!
//! (`SpmmStrategy::Auto` is "build this plan, run it once", so it has no
//! arm of its own: it would time `SpmmPlan::new` plus the `planned` row.)
//! Alongside the timing output the bench writes plan statistics (slot NNZ
//! spread, imbalance) and per-ordering bandwidth reductions to
//! `results/BENCH_plan_reorder.json`.

use bench::{features, BENCH_SEED};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph::generators::erdos_renyi;
use graph::reorder::mean_bandwidth;
use graph::rmat::RmatConfig;
use graph::{Graph, ReorderKind, ReorderedGraph};
use kernels::SpmmPlan;
use matrix::DenseMatrix;
use std::fmt::Write as _;

/// log2 of the vertex count; matches the paper's smallest RMAT scale.
const SCALE: usize = 16;
/// Average degree of the generated graphs.
const DEGREE: usize = 8;

struct Fixture {
    name: &'static str,
    graph: Graph,
}

fn fixtures() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "rmat_16",
            graph: Graph::rmat(&RmatConfig::power_law(SCALE as u32, DEGREE), 3),
        },
        Fixture {
            name: "er_16",
            graph: erdos_renyi(1 << SCALE, (1 << SCALE) * DEGREE / 2, BENCH_SEED),
        },
    ]
}

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_reorder/spmm");
    group.sample_size(10);
    for fx in fixtures() {
        let a = fx.graph.normalized_adjacency().unwrap();
        let reordered = ReorderedGraph::new(&fx.graph, ReorderKind::Rcm);
        let a_rcm = reordered.graph().normalized_adjacency().unwrap();
        for k in [64usize, 256] {
            let h = features(&a, k);
            let h_rcm = reordered.permute_features(&h);
            let plan = SpmmPlan::new(&a, k);
            let plan_rcm = SpmmPlan::new(&a_rcm, k);
            let mut out = DenseMatrix::zeros(a.nrows(), k);
            let id = format!("{}/k{}", fx.name, k);
            group.bench_with_input(BenchmarkId::new("planned", &id), &k, |b, _| {
                b.iter(|| plan.run_into(&a, &h, &mut out).unwrap())
            });
            group.bench_with_input(BenchmarkId::new("planned_rcm", &id), &k, |b, _| {
                b.iter(|| plan_rcm.run_into(&a_rcm, &h_rcm, &mut out).unwrap())
            });
        }
    }
    group.finish();
}

/// Hand-rolled JSON (the workspace vendors no serde_json): plan quality and
/// reordering bandwidth numbers for `results/BENCH_plan_reorder.json`.
fn write_stats() {
    let mut graphs = String::new();
    for (i, fx) in fixtures().iter().enumerate() {
        let a = fx.graph.normalized_adjacency().unwrap();
        let plan = SpmmPlan::new(&a, 64);
        let ps = plan.plan_stats();
        let before = mean_bandwidth(fx.graph.adjacency());
        let mut orderings = String::new();
        for (j, kind) in [
            ReorderKind::DegreeDescending,
            ReorderKind::Bfs,
            ReorderKind::Rcm,
        ]
        .into_iter()
        .enumerate()
        {
            let reordered = ReorderedGraph::new(&fx.graph, kind);
            let after = mean_bandwidth(reordered.graph().adjacency());
            if j > 0 {
                orderings.push(',');
            }
            write!(
                orderings,
                "\n        {{\"kind\": \"{kind}\", \"mean_bandwidth\": {after:.2}, \
                 \"reduction\": {:.4}}}",
                reordered.bandwidth_reduction(&fx.graph)
            )
            .expect("writing to a String cannot fail");
        }
        if i > 0 {
            graphs.push(',');
        }
        write!(
            graphs,
            "\n    {{\n      \"name\": \"{}\",\n      \"vertices\": {},\n      \
             \"nnz\": {},\n      \"exec\": \"{}\",\n      \"plan\": {{\"slots\": {}, \
             \"min_slot_nnz\": {}, \"max_slot_nnz\": {}, \"ideal_slot_nnz\": {:.2}, \
             \"imbalance\": {:.4}}},\n      \"mean_bandwidth_native\": {before:.2},\n      \
             \"reorderings\": [{}\n      ]\n    }}",
            fx.name,
            a.nrows(),
            a.nnz(),
            plan.exec(),
            ps.slots,
            ps.min_slot_nnz,
            ps.max_slot_nnz,
            ps.ideal_slot_nnz,
            ps.imbalance,
            orderings
        )
        .expect("writing to a String cannot fail");
    }
    let json = format!(
        "{{\n  \"bench\": \"plan_reorder\",\n  \"seed\": {BENCH_SEED},\n  \
         \"graphs\": [{graphs}\n  ]\n}}\n"
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(format!("{dir}/BENCH_plan_reorder.json"), &json))
    {
        eprintln!("plan_reorder: failed to write stats JSON: {e}");
    } else {
        eprintln!("plan_reorder: wrote {dir}/BENCH_plan_reorder.json");
    }
}

fn bench_all(c: &mut Criterion) {
    write_stats();
    bench_spmm(c);
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
