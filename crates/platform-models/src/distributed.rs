//! Distributed-memory CPU scaling with message passing.
//!
//! Section V-A: "Traditional CPU systems such as Xeon can not scale their
//! memory bandwidth by increasing the number of systems ... communication
//! overheads of MPI significantly reduce performance relative to an
//! at-scale DGAS system" (citing the COST critique, ref. \[24\]). This module
//! models a cluster of Xeon nodes running 1-D row-partitioned SpMM with a
//! bulk-synchronous feature gather, so the DGAS-vs-MPI contrast the paper
//! asserts can be measured.

use crate::breakdown::GcnPhaseTimes;
use crate::xeon::XeonModel;
use analytic::workload::{GcnWorkload, LayerWorkload};
use analytic::ElementSizes;
use serde::{Deserialize, Serialize};

/// A cluster of identical Xeon nodes with an MPI-style interconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributedXeonModel {
    /// The per-node machine.
    pub node: XeonModel,
    /// Number of nodes.
    pub nodes: usize,
    /// Effective per-node injection bandwidth in GB/s (e.g. one 200 Gb/s
    /// HDR InfiniBand port ~ 23 GB/s after protocol overheads).
    pub interconnect_gbps: f64,
    /// Per-message software latency in nanoseconds (MPI stack).
    pub message_latency_ns: f64,
}

impl DistributedXeonModel {
    /// A cluster of `nodes` default Xeon nodes over 200 Gb/s links.
    pub fn cluster(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        DistributedXeonModel {
            node: XeonModel::default(),
            nodes,
            interconnect_gbps: 23.0,
            message_latency_ns: 5_000.0,
        }
    }

    /// Bytes each node must *receive* per SpMM for the feature gather:
    /// with 1-D row partitioning and a uniformly random graph, a fraction
    /// `(nodes-1)/nodes` of each node's `|E|/nodes` in-edges reference rows
    /// owned by other nodes.
    pub fn gather_bytes_per_node(&self, layer: &LayerWorkload) -> f64 {
        if self.nodes <= 1 {
            return 0.0;
        }
        let remote_fraction = (self.nodes - 1) as f64 / self.nodes as f64;
        let edges_per_node = layer.edges as f64 / self.nodes as f64;
        // Gather is deduplicated per owned vertex in the best case, but for
        // a scale-free graph most referenced remote rows are distinct at
        // realistic partition sizes; charge the deduplicated volume:
        // min(distinct rows, referencing edges).
        let distinct_rows = (layer.vertices as f64).min(edges_per_node * remote_fraction);
        distinct_rows * layer.k_agg() as f64 * ElementSizes::default().feature as f64
    }

    /// Communication time (ns) of one SpMM's gather phase.
    pub fn gather_time_ns(&self, layer: &LayerWorkload) -> f64 {
        if self.nodes <= 1 {
            return 0.0;
        }
        let bytes = self.gather_bytes_per_node(layer);
        // All-to-all: each node exchanges with every other node.
        let messages = (self.nodes - 1) as f64;
        bytes / self.interconnect_gbps + messages * self.message_latency_ns
    }

    /// GCN phase times on the cluster: per-node compute on `1/nodes` of the
    /// work plus the gather on the critical path of every layer (charged to
    /// the SpMM phase, where the paper's discussion places it).
    pub fn gcn_times(&self, workload: &GcnWorkload) -> GcnPhaseTimes {
        let mut t = GcnPhaseTimes::default();
        let threads = self.node.physical_cores();
        for layer in workload.layers() {
            let local = LayerWorkload {
                vertices: (layer.vertices / self.nodes).max(1),
                edges: (layer.edges / self.nodes).max(1),
                ..*layer
            };
            t.spmm_ns += self.node.spmm_time_ns(&local, threads) + self.gather_time_ns(layer);
            t.dense_ns += self.node.dense_time_ns(&local, threads);
            t.glue_ns += self.node.glue_time_ns(&local, threads);
        }
        t
    }

    /// Parallel efficiency on `workload` relative to a single node
    /// (`T(1) / (nodes * T(nodes))`).
    pub fn parallel_efficiency(&self, workload: &GcnWorkload) -> f64 {
        let single = DistributedXeonModel {
            nodes: 1,
            ..self.clone()
        };
        let t1 = single.gcn_times(workload).total_ns();
        let tn = self.gcn_times(workload).total_ns();
        t1 / (self.nodes as f64 * tn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::OgbDataset;

    fn workload(d: OgbDataset, hidden: usize) -> GcnWorkload {
        let s = d.stats();
        GcnWorkload::paper_model(s.vertices, s.edges, s.input_dim, hidden, s.output_dim)
    }

    #[test]
    fn single_node_matches_plain_xeon() {
        let w = workload(OgbDataset::Products, 64);
        let cluster = DistributedXeonModel::cluster(1);
        let plain = XeonModel::default().gcn_times_full(&w);
        let dist = cluster.gcn_times(&w);
        assert!((dist.total_ns() - plain.total_ns()).abs() / plain.total_ns() < 1e-9);
    }

    #[test]
    fn communication_erodes_scaling() {
        // The MPI gather keeps distributed CPU efficiency well below 1,
        // which is the paper's argument for DGAS.
        let w = workload(OgbDataset::Products, 64);
        let eff4 = DistributedXeonModel::cluster(4).parallel_efficiency(&w);
        assert!(eff4 < 0.8, "4-node efficiency {eff4:.2} suspiciously good");
        assert!(eff4 > 0.05, "4-node efficiency {eff4:.2} suspiciously bad");
        let eff16 = DistributedXeonModel::cluster(16).parallel_efficiency(&w);
        assert!(eff16 < eff4, "efficiency must fall with node count");
    }

    #[test]
    fn distributed_cpu_still_beats_nothing_but_loses_to_piuma_scaling() {
        // 4 Xeon nodes vs a 4x-larger PIUMA system on a bandwidth-bound
        // workload: PIUMA's DGAS scales ~linearly, MPI does not.
        let w = workload(OgbDataset::Papers, 64);
        let xeon1 = DistributedXeonModel::cluster(1).gcn_times(&w).total_ns();
        let xeon4 = DistributedXeonModel::cluster(4).gcn_times(&w).total_ns();
        let cpu_speedup = xeon1 / xeon4;

        let piuma8 = crate::PiumaModel::with_cores(8).gcn_times(&w).total_ns();
        let piuma32 = crate::PiumaModel::with_cores(32).gcn_times(&w).total_ns();
        let piuma_speedup = piuma8 / piuma32;
        assert!(
            piuma_speedup > cpu_speedup,
            "PIUMA 4x scaling {piuma_speedup:.2} should beat MPI 4x scaling {cpu_speedup:.2}"
        );
    }

    #[test]
    fn gather_volume_is_zero_on_one_node_and_grows_with_k() {
        let w = workload(OgbDataset::Products, 64);
        let layer = w.layers()[1];
        assert_eq!(
            DistributedXeonModel::cluster(1).gather_bytes_per_node(&layer),
            0.0
        );
        let c = DistributedXeonModel::cluster(4);
        let wide = workload(OgbDataset::Products, 256);
        assert!(c.gather_bytes_per_node(&wide.layers()[1]) > c.gather_bytes_per_node(&layer));
    }
}
