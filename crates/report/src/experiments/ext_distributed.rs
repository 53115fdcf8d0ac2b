//! Extension — distributed-memory CPU versus PIUMA DGAS scaling
//! (Section V-A's closing argument, with the COST critique of ref. \[24\]).

use super::common::{dataset_workload, ms};
use crate::{ExperimentOutput, TextTable};
use graph::OgbDataset;
use platform_models::{DistributedXeonModel, PiumaModel};

/// Cluster sizes swept.
pub const NODES: [usize; 5] = [1, 2, 4, 8, 16];

/// Regenerates the DGAS-vs-MPI scaling comparison.
pub fn run() -> ExperimentOutput {
    let mut out = ExperimentOutput::new("ext_distributed");
    let w = dataset_workload(OgbDataset::Papers, 64);

    let mut table = TextTable::new(vec![
        "system",
        "nodes",
        "total_ms",
        "speedup_vs_1",
        "efficiency",
    ]);
    let xeon1 = DistributedXeonModel::cluster(1).gcn_times(&w).total_ns();
    for &n in &NODES {
        let cluster = DistributedXeonModel::cluster(n);
        let t = cluster.gcn_times(&w).total_ns();
        table.row(vec![
            "xeon+mpi".into(),
            n.to_string(),
            ms(t),
            format!("{:.2}", xeon1 / t),
            format!("{:.2}", cluster.parallel_efficiency(&w)),
        ]);
    }
    let piuma_base = PiumaModel::with_cores(8).gcn_times(&w).total_ns();
    for &n in &NODES {
        let t = PiumaModel::with_cores(8 * n).gcn_times(&w).total_ns();
        table.row(vec![
            "piuma-dgas".into(),
            n.to_string(),
            ms(t),
            format!("{:.2}", piuma_base / t),
            format!("{:.2}", piuma_base / t / n as f64),
        ]);
    }
    out.csv("scaling.csv", table.to_csv());
    out.section(
        "Scaling papers/K=64 GCN: MPI Xeon cluster vs PIUMA DGAS (8 cores/node)",
        &table,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgas_out_scales_mpi() {
        let w = dataset_workload(OgbDataset::Papers, 64);
        let mpi16 = DistributedXeonModel::cluster(16).parallel_efficiency(&w);
        let piuma16 = {
            let t1 = PiumaModel::with_cores(8).gcn_times(&w).total_ns();
            let t16 = PiumaModel::with_cores(128).gcn_times(&w).total_ns();
            t1 / t16 / 16.0
        };
        assert!(
            piuma16 > mpi16 + 0.2,
            "DGAS efficiency {piuma16:.2} vs MPI {mpi16:.2}"
        );
    }

    #[test]
    fn output_covers_both_systems() {
        let out = run();
        let body = &out.sections[0].1;
        assert!(body.contains("xeon+mpi"));
        assert!(body.contains("piuma-dgas"));
    }
}
