//! Dense MM on PIUMA — a calibrated throughput model.
//!
//! The paper does not simulate Dense MM on PIUMA; it uses the *observed peak
//! FLOPS* from prior work (Tithi et al., "SU3 Bench on PIUMA", ref. \[21\])
//! to price the GCN update phase (Section V-B). We do the same: a per-core
//! sustained GEMM rate, calibrated so that a full node's dense throughput
//! sits slightly below a dual-socket Xeon's — which is what produces the
//! paper's two headline observations:
//!
//! * Dense MM *dominates* PIUMA's GCN time at large embedding dimensions
//!   (Fig. 10: >75 % for arxiv/collab/mag/citation2/papers at K = 256), and
//! * PIUMA's *overall* GCN speedup over CPU shrinks as K grows but stays
//!   above 1 (Fig. 9), because the SpMM savings still outweigh the dense
//!   slowdown.
#![allow(clippy::doc_markdown)]

use piuma_sim::MachineConfig;
use serde::{Deserialize, Serialize};

/// Calibrated dense-GEMM throughput model for PIUMA.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PiumaDenseModel {
    /// Sustained GEMM GFLOP/s per PIUMA core. PIUMA pipelines are scalar
    /// (no SIMD unit — the dense weakness the paper's Discussion section
    /// proposes fixing with a heterogeneous SoC), but a core hosts many MTP
    /// threads each retiring a MAC per cycle in the best case:
    /// 4 MTPs x 16 threads... bounded in practice by issue slots. The
    /// default (140 GFLOP/s) makes a 32-core node ~0.76x a dual-socket
    /// Xeon 8380's sustained GEMM, consistent with \[21\]'s observation that
    /// PIUMA is roughly at parity per node on dense kernels.
    pub gflops_per_core: f64,
    /// Fraction of peak sustained on real GEMM shapes.
    pub efficiency: f64,
}

impl Default for PiumaDenseModel {
    fn default() -> Self {
        PiumaDenseModel {
            gflops_per_core: 110.0,
            efficiency: 0.85,
        }
    }
}

impl PiumaDenseModel {
    /// Sustained dense throughput of a whole machine, in FLOP/s.
    pub fn node_flops_per_second(&self, config: &MachineConfig) -> f64 {
        self.gflops_per_core * 1e9 * config.cores as f64 * self.efficiency
    }

    /// Time in nanoseconds to execute `flops` of dense work.
    ///
    /// # Panics
    ///
    /// Panics if the model rates are non-positive.
    pub fn time_ns(&self, config: &MachineConfig, flops: f64) -> f64 {
        let rate = self.node_flops_per_second(config);
        assert!(rate > 0.0, "dense model rate must be positive");
        flops / rate * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_rate_scales_with_cores() {
        let m = PiumaDenseModel::default();
        let one = m.node_flops_per_second(&MachineConfig::node(1));
        let eight = m.node_flops_per_second(&MachineConfig::node(8));
        assert!((eight / one - 8.0).abs() < 1e-9);
    }

    #[test]
    fn default_node_is_below_xeon_dense_peak() {
        // Dual-socket Xeon 8380 sustains ~4.7 TFLOP/s on large FP32 GEMM
        // (5.9 peak x ~0.8). A 32-core PIUMA node should land below that.
        let m = PiumaDenseModel::default();
        let node = m.node_flops_per_second(&MachineConfig::node(32));
        assert!(node < 4.7e12);
        assert!(node > 2.0e12, "node dense rate implausibly low: {node}");
    }

    #[test]
    fn time_is_linear_in_flops() {
        let m = PiumaDenseModel::default();
        let cfg = MachineConfig::node(4);
        let t1 = m.time_ns(&cfg, 1e9);
        let t2 = m.time_ns(&cfg, 2e9);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
    }
}
