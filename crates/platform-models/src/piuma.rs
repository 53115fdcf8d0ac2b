//! PIUMA-node GCN timing model (Section V-B).
//!
//! The paper prices GCN on PIUMA by combining (a) the measured DMA-SpMM
//! kernel, which achieves 80–90 % of the Eq. 1–5 bandwidth model, with
//! (b) the observed dense peak FLOPS from prior work \[21\]. This module does
//! the same composition: the analytical SpMM roofline at the node's
//! aggregate bandwidth degraded by a measured efficiency, plus the
//! calibrated [`PiumaDenseModel`]. For full-size Table-I graphs this is the
//! only tractable path (the event-driven simulator runs scaled twins); a
//! test pins the model against the simulator on a scaled graph.

use crate::breakdown::GcnPhaseTimes;
use analytic::workload::{GcnWorkload, LayerWorkload};
use analytic::ElementSizes;
use piuma_kernels::dense_model::PiumaDenseModel;
use piuma_sim::MachineConfig;
use serde::{Deserialize, Serialize};

/// Calibrated timing model of one PIUMA node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiumaModel {
    /// The node configuration (cores x slices set the aggregate bandwidth).
    pub machine: MachineConfig,
    /// Fraction of the bandwidth-bound model the DMA SpMM kernel achieves
    /// (the paper reports 80–90 %; our simulator lands in the same band —
    /// see `piuma_kernels::runner` tests).
    pub dma_efficiency: f64,
    /// Dense-update throughput model.
    pub dense: PiumaDenseModel,
}

impl Default for PiumaModel {
    /// A 32-core node: with 32 GB/s per slice this gives ~1 TB/s aggregate,
    /// crossing the dual-socket Xeon's ~410 GB/s at ~16 cores, exactly the
    /// Figure 8 (left) crossover.
    fn default() -> Self {
        PiumaModel {
            machine: MachineConfig::node(32),
            dma_efficiency: 0.85,
            dense: PiumaDenseModel::default(),
        }
    }
}

impl PiumaModel {
    /// A model over an explicit machine size (for scaling studies).
    pub fn with_cores(cores: usize) -> Self {
        PiumaModel {
            machine: MachineConfig::node(cores),
            ..Default::default()
        }
    }

    /// Effective SpMM bandwidth in GB/s (aggregate x DMA efficiency).
    pub fn effective_bandwidth_gbps(&self) -> f64 {
        self.machine.aggregate_bandwidth_gbps() * self.dma_efficiency
    }

    /// SpMM time (ns) for one layer: Eq. 5 at the effective bandwidth.
    /// PIUMA has no L2/L3, so no cache term exists — the model the paper
    /// validates against its simulator applies directly.
    pub fn spmm_time_ns(&self, layer: &LayerWorkload) -> f64 {
        let traffic = layer.spmm(ElementSizes::default());
        let bw = self.effective_bandwidth_gbps() * 1e9;
        traffic.time_seconds(bw, bw) * 1e9
    }

    /// Dense-update time (ns) for one layer: the slower of the calibrated
    /// compute ceiling and the aggregate-bandwidth ceiling (tall-skinny
    /// updates are memory-bound at small K on PIUMA too).
    pub fn dense_time_ns(&self, layer: &LayerWorkload) -> f64 {
        let compute_ns = self.dense.time_ns(&self.machine, layer.dense_flops());
        let bytes_ns = layer.dense_bytes(ElementSizes::default().feature)
            / self.machine.aggregate_bandwidth_gbps();
        compute_ns.max(bytes_ns)
    }

    /// Glue time (ns): one elementwise pass at aggregate bandwidth. PIUMA
    /// runs bare-metal kernels, so no framework dispatch overhead applies.
    pub fn glue_time_ns(&self, layer: &LayerWorkload) -> f64 {
        layer.glue_bytes(ElementSizes::default().feature) / self.machine.aggregate_bandwidth_gbps()
    }

    /// Full-model GCN phase times.
    pub fn gcn_times(&self, workload: &GcnWorkload) -> GcnPhaseTimes {
        let mut t = GcnPhaseTimes::default();
        for layer in workload.layers() {
            t.spmm_ns += self.spmm_time_ns(layer);
            t.dense_ns += self.dense_time_ns(layer);
            t.glue_ns += self.glue_time_ns(layer);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Phase, XeonModel};

    fn workload(d: graph::OgbDataset, hidden: usize) -> GcnWorkload {
        let s = d.stats();
        GcnWorkload::paper_model(s.vertices, s.edges, s.input_dim, hidden, s.output_dim)
    }

    #[test]
    fn piuma_always_beats_cpu_on_gcn() {
        // Fig. 9 key takeaway 2: a single PIUMA node always outperforms the
        // CPU system, at every dataset and embedding dimension.
        let piuma = PiumaModel::default();
        let xeon = XeonModel::default();
        for d in graph::OgbDataset::FIGURE9 {
            for k in [8usize, 64, 256] {
                let w = workload(d, k);
                let speedup = piuma.gcn_times(&w).speedup_over(&xeon.gcn_times_full(&w));
                assert!(speedup > 1.0, "{d} K={k}: PIUMA speedup {speedup:.2} <= 1");
            }
        }
    }

    #[test]
    fn piuma_speedup_decreases_with_embedding_dimension() {
        // Fig. 9: dense pressure grows with K, eroding PIUMA's edge. For
        // datasets whose CPU baseline is cache-insensitive the decrease
        // holds across the whole sweep; for `products` the CPU's cache
        // behaviour at K=8 makes the low end noisy, so the dense-pressure
        // effect is asserted on the 64 -> 256 segment (see EXPERIMENTS.md).
        let piuma = PiumaModel::default();
        let xeon = XeonModel::default();
        let speedup = |d: graph::OgbDataset, k: usize| {
            piuma
                .gcn_times(&workload(d, k))
                .speedup_over(&xeon.gcn_times_full(&workload(d, k)))
        };
        for d in [
            graph::OgbDataset::Arxiv,
            graph::OgbDataset::Mag,
            graph::OgbDataset::Citation2,
            graph::OgbDataset::Papers,
        ] {
            let (s8, s256) = (speedup(d, 8), speedup(d, 256));
            assert!(
                s8 > s256,
                "{d}: speedup should fall with K ({s8:.2} -> {s256:.2})"
            );
        }
        let (s64, s256) = (
            speedup(graph::OgbDataset::Products, 64),
            speedup(graph::OgbDataset::Products, 256),
        );
        assert!(
            s64 > s256,
            "products: speedup should fall 64 -> 256 ({s64:.2} -> {s256:.2})"
        );
    }

    #[test]
    fn sparse_graphs_become_dense_dominated_at_k256() {
        // Fig. 10: arxiv, collab, mag, citation2 and papers spend >75% in
        // Dense MM at K = 256 on PIUMA. Our fused kernels aggregate at
        // min(k_in, k_out), which trims the SpMM share of the boundary
        // layers, so the bar here is slightly lower (>65%); EXPERIMENTS.md
        // records the deviation.
        let piuma = PiumaModel::default();
        for d in [
            graph::OgbDataset::Arxiv,
            graph::OgbDataset::Collab,
            graph::OgbDataset::Mag,
            graph::OgbDataset::Citation2,
            graph::OgbDataset::Papers,
        ] {
            let frac = piuma.gcn_times(&workload(d, 256)).fraction(Phase::Dense);
            assert!(frac > 0.65, "{d}: dense fraction {frac:.2}");
        }
    }

    #[test]
    fn dense_graphs_keep_substantial_spmm_share() {
        // Fig. 10: ddi / proteins / ppa / products remain SpMM-heavy longer.
        let piuma = PiumaModel::default();
        for d in [graph::OgbDataset::Ddi, graph::OgbDataset::Proteins] {
            let frac = piuma.gcn_times(&workload(d, 256)).fraction(Phase::Spmm);
            assert!(frac > 0.4, "{d}: spmm fraction {frac:.2}");
        }
    }

    #[test]
    fn effective_bandwidth_crosses_xeon_near_16_cores() {
        // Fig. 8 (left): PIUMA's aggregate bandwidth passes the dual-socket
        // Xeon's STREAM plateau at ~16 cores.
        let xeon_plateau = XeonModel::default().stream_bandwidth_gbps(80);
        let below = PiumaModel::with_cores(8).machine.aggregate_bandwidth_gbps();
        let above = PiumaModel::with_cores(16)
            .machine
            .aggregate_bandwidth_gbps();
        assert!(below < xeon_plateau);
        assert!(above >= xeon_plateau * 0.95);
    }

    #[test]
    fn spmm_time_is_linear_in_node_size() {
        let w = workload(graph::OgbDataset::Products, 64);
        let t8: f64 = PiumaModel::with_cores(8).gcn_times(&w).spmm_ns;
        let t32: f64 = PiumaModel::with_cores(32).gcn_times(&w).spmm_ns;
        assert!((t8 / t32 - 4.0).abs() < 0.01);
    }
}
