//! Layer fusion — the Graphite optimization (ref. \[9\] of the paper).
//!
//! The paper's Related Work notes that Graphite's layer fusion
//! "demonstrated a 1.3x speedup for SpMM and is an interesting software
//! optimization for PIUMA". Fusing the aggregation with the update keeps
//! each aggregated row `(A_hat H)[u, :]` in the scratchpad and multiplies
//! it by `W` immediately, so the intermediate `|V| x K` matrix is neither
//! written to DRAM nor read back: the SpMM phase saves one write and the
//! update phase saves one read of `|V| * K * B_F` bytes.
//!
//! This module prices that saving over the Eq. 1–5 traffic model, so the
//! "interesting optimization" can be evaluated per workload.

use crate::workload::LayerWorkload;
use crate::{ElementSizes, SpmmTraffic};
use serde::{Deserialize, Serialize};

/// Traffic of one fused aggregation+update layer next to the unfused
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FusionAnalysis {
    /// Unfused bytes on the SpMM + intermediate path: CSR reads + feature
    /// reads + intermediate write + intermediate re-read.
    pub unfused_bytes: f64,
    /// Fused bytes: the intermediate round trip disappears.
    pub fused_bytes: f64,
}

impl FusionAnalysis {
    /// Analyzes fusion for one layer.
    pub fn of(layer: &LayerWorkload, sizes: ElementSizes) -> Self {
        let traffic: SpmmTraffic = layer.spmm(sizes);
        let intermediate = layer.vertices as f64 * layer.k_agg() as f64 * sizes.feature as f64;
        // Unfused: SpMM writes the intermediate, the GEMM reads it back.
        let unfused = traffic.read_bytes() + traffic.write_bytes + intermediate;
        // Fused: aggregation feeds the MAC loop directly; only the final
        // (post-W) output is written, which both variants pay equally and
        // is therefore excluded from the comparison.
        let fused = traffic.read_bytes();
        FusionAnalysis {
            unfused_bytes: unfused,
            fused_bytes: fused,
        }
    }

    /// Bandwidth-bound speedup of the fused sparse path
    /// (`unfused / fused`, >1 when fusion helps).
    pub fn speedup(&self) -> f64 {
        if self.fused_bytes <= 0.0 {
            return 1.0;
        }
        self.unfused_bytes / self.fused_bytes
    }

    /// Fraction of the unfused traffic eliminated.
    pub fn traffic_saved(&self) -> f64 {
        if self.unfused_bytes <= 0.0 {
            return 0.0;
        }
        1.0 - self.fused_bytes / self.unfused_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(vertices: usize, edges: usize, k: usize) -> LayerWorkload {
        LayerWorkload {
            vertices,
            edges,
            k_in: k,
            k_out: k,
        }
    }

    #[test]
    fn fusion_speedup_lands_in_graphite_band_for_citation_graphs() {
        // arxiv-like shape (avg degree ~7): Graphite reports ~1.3x.
        let a = FusionAnalysis::of(&layer(169_343, 1_166_243, 256), ElementSizes::default());
        let s = a.speedup();
        assert!(
            (1.15..1.45).contains(&s),
            "arxiv-like fusion speedup {s:.2}"
        );
    }

    #[test]
    fn fusion_helps_less_on_dense_graphs() {
        // products-like (avg degree ~25): features dominate, the
        // intermediate round trip is a smaller share.
        let dense = FusionAnalysis::of(&layer(2_449_029, 61_859_140, 256), ElementSizes::default());
        let sparse = FusionAnalysis::of(&layer(169_343, 1_166_243, 256), ElementSizes::default());
        assert!(dense.speedup() < sparse.speedup());
        assert!(dense.speedup() > 1.0);
    }

    #[test]
    fn savings_and_speedup_are_consistent() {
        let a = FusionAnalysis::of(&layer(1000, 10_000, 64), ElementSizes::default());
        let expected = 1.0 / (1.0 - a.traffic_saved());
        assert!((a.speedup() - expected).abs() < 1e-12);
        assert!(a.fused_bytes < a.unfused_bytes);
    }
}
