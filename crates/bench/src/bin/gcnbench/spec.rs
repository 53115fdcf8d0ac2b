//! The benchmark's contract in one place: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is this table rendered by `--manifest`; a unit test keeps the two
//! identical.

use graph::OgbDataset;

/// Default measured seconds per run (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The command `BENCHMARK.json` records (arguments are appended by the
/// caller).
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/gcnbench/Cargo.toml",
    "--",
];

/// Shards of the `sharded` workload and of every traced pass's shard probe.
pub const SHARD_WORKERS: usize = 4;

/// The directory that holds the benchmark and nothing else.
pub const PATHS: &[&str] = &["crates/bench/src/bin/gcnbench"];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Lower => "lower",
            Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, the same names on every workload. Failures are
/// reported through the result line's `attempted` / `failed` counts (a
/// gated metric may never read 0, and the failed share always should).
///
/// Bounds: `max(10 %, 2 x inter-quartile spread over ten seeds)`, capped at
/// 25 %. Every timing metric hits the cap on the sizing host, whose speed
/// moves between two regimes 1.4x apart for minutes at a time; memory
/// repeats to a few percent (README, "Bounds").
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_ms_p50", "ms", Lower, 0.25),
    e2e("latency_ms_p90", "ms", Lower, 0.25),
    e2e("throughput_ops_s", "ops/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Per-layer metrics of the traced pass; layer = crate name. Every one is
/// emitted exactly once by every traced workload, measured on that
/// workload's own graph and model.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("host.cores", "count", Higher),
    layer("host.llc_mib", "MiB", Higher),
    layer("host.copy_array_mib", "MiB", Higher),
    layer("host.copy_gbps", "GB/s", Higher),
    layer("host.gemm_peak_gflops", "GFLOP/s", Higher),
    layer("host.gemm_peak_gflops_pool", "GFLOP/s", Higher),
    layer("pool.width", "count", Higher),
    layer("pool.broadcast_us", "us", Lower),
    layer("graph.materialize_s", "s", Lower),
    layer("sparse.normalize_s", "s", Lower),
    layer("sparse.nnz", "count", Lower),
    layer("kernels.plan_build_ms", "ms", Lower),
    layer("kernels.spmm_ms", "ms", Lower),
    layer("kernels.spmm_share", "ratio", Lower),
    layer("kernels.spmm_bytes", "B", Lower),
    layer("kernels.spmm_gbps", "GB/s", Higher),
    layer("kernels.spmm_fraction_of_bound", "ratio", Higher),
    layer("kernels.spmm_scaling", "ratio", Higher),
    layer("matrix.gemm_ms", "ms", Lower),
    layer("matrix.gemm_share", "ratio", Lower),
    layer("matrix.gemm_gflops", "GFLOP/s", Higher),
    layer("matrix.gemm_fraction_of_peak", "ratio", Higher),
    layer("matrix.gemm_scaling", "ratio", Higher),
    layer("matrix.bias_act_ms", "ms", Lower),
    layer("gcn.infer_ms", "ms", Lower),
    layer("gcn.copy_in_ms", "ms", Lower),
    layer("gcn.glue_ms", "ms", Lower),
    layer("gcn.glue_share", "ratio", Lower),
    layer("gcn.rows_ms_b1", "ms", Lower),
    layer("gcn.rows_ms_b16", "ms", Lower),
    layer("gcn.rows_ms_b64", "ms", Lower),
    layer("gcn.rows_gathered_b16", "count", Lower),
    layer("gcn.rows_sub_nnz_b16", "count", Lower),
    layer("gcn.rows_full_graph_share", "ratio", Lower),
    layer("gcn.rows_us_per_gathered", "us", Lower),
    layer("gcn.rows_vs_full_ratio", "ratio", Lower),
    layer("shard.plan_build_ms", "ms", Lower),
    layer("shard.infer_ms_n1", "ms", Lower),
    layer("shard.overhead_ratio_n1", "ratio", Lower),
    layer("shard.speedup_n4", "ratio", Higher),
    layer("shard.staged_bytes", "B", Lower),
    layer("shard.halo_bytes", "B", Lower),
    layer("shard.halo_fraction", "ratio", Lower),
    layer("shard.imbalance", "ratio", Lower),
    layer("shard.copy_bound_ms", "ms", Lower),
    layer("shard.replayed_tasks", "count", Lower),
    layer("shard.recovered_exchanges", "count", Lower),
    layer("serving.queue_ms_p50", "ms", Lower),
    layer("serving.queue_ms_p90", "ms", Lower),
    layer("serving.service_ms_p50", "ms", Lower),
    layer("serving.batch_size_mean", "count", Higher),
    layer("serving.batch_rows_mean", "count", Higher),
    layer("serving.batches", "count", Lower),
    layer("serving.latency_ms_p99", "ms", Lower),
    layer("serving.slo_rate_rps", "req/s", Higher),
    layer("serving.shed_total", "count", Lower),
    layer("serving.failovers", "count", Lower),
    layer("serving.brownout_batches", "count", Lower),
    layer("serving.gen_late_ms_p99", "ms", Lower),
    layer("serving.gen_late_ms_max", "ms", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// What one operation of a workload is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Closed loop over `GcnModel::infer_planned_with`.
    Full,
    /// Closed loop over `ShardedGcn::infer` on [`SHARD_WORKERS`] row shards.
    Sharded,
    /// Served requests of `targets` output rows each: an open-loop Poisson
    /// *steady* phase at `rate` req/s, then a closed-loop *saturate* phase
    /// keeping `outstanding` requests in flight.
    Serve {
        targets: usize,
        rate: f64,
        outstanding: usize,
    },
}

/// One workload: its inputs, its operation, and why it is here.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: OgbDataset,
    /// Vertex cap of the twin (`--smoke` lowers it to 2^10).
    pub cap: usize,
    /// Layer widths, `dims[t] -> dims[t + 1]`.
    pub dims: &'static [usize],
    pub kind: Kind,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "full_agg",
        why: "dense uniform ddi twin at K=64: SpMM dominates full-graph planned inference, so a GEMM change should barely move it",
        dataset: OgbDataset::Ddi,
        cap: 1 << 12,
        dims: &[128, 64, 64, 128],
        kind: Kind::Full,
    },
    Workload {
        name: "full_wide",
        why: "sparse power-law arxiv twin at K=256: the same two kernels at the opposite width/degree point, GEMM about half the time",
        dataset: OgbDataset::Arxiv,
        cap: 1 << 14,
        dims: &[128, 256, 256, 40],
        kind: Kind::Full,
    },
    Workload {
        name: "sharded",
        why: "products twin on 4 row shards: halo exchange, staging copies and task-graph scheduling around width-1 per-block kernels",
        dataset: OgbDataset::Products,
        cap: 1 << 15,
        dims: &[100, 64, 64, 47],
        kind: Kind::Sharded,
    },
    Workload {
        name: "serve_vertex",
        why: "single-vertex requests with poorly shared frontiers: queue wait, batching window and per-batch gather + sub-plan build dominate",
        dataset: OgbDataset::Products,
        cap: 1 << 14,
        dims: &[100, 64, 47],
        kind: Kind::Serve {
            targets: 1,
            rate: 1000.0,
            outstanding: 128,
        },
    },
    Workload {
        name: "serve_subgraph",
        why: "16-row BFS-ball requests with heavily shared neighbourhoods: the same serving + rows code used with many output rows per request",
        dataset: OgbDataset::Products,
        cap: 1 << 14,
        dims: &[100, 64, 47],
        kind: Kind::Serve {
            targets: 16,
            rate: 100.0,
            outstanding: 64,
        },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    use crate::json::quote;
    let list = |items: &[&str]| {
        let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
        format!("[{}]", quoted.join(", "))
    };
    let metric = |m: &MetricSpec| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str())
        )
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(COMMAND),
        list(PATHS),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "unit {}",
                m.unit
            );
        }
        for w in WORKLOADS {
            assert!(
                valid_name(w.name) && seen.insert(w.name),
                "workload {}",
                w.name
            );
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn bounds_are_set_and_capped() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn manifest_matches_benchmark_json() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|p| p.join("BENCHMARK.json").exists())
            .expect("BENCHMARK.json above the benchmark's manifest");
        let on_disk = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("readable");
        assert_eq!(on_disk, manifest_json(), "regenerate with --manifest");
    }
}
