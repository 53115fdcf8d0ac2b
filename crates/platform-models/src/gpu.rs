//! NVIDIA A100 GCN timing model (the paper's GPU comparison, from its
//! companion study, ref. \[16\]).

use crate::breakdown::GcnPhaseTimes;
use analytic::workload::GcnWorkload;
use analytic::ElementSizes;
use serde::{Deserialize, Serialize};

/// Calibrated timing model of an NVIDIA A100-40GB attached over PCIe 4.0,
/// running inductive GCN inference: the adjacency matrix and vertex
/// embeddings are offloaded for every inference (Section III-C), and graphs
/// that do not fit in the 40 GB of device memory fall back to host-side
/// full-neighbourhood sampling — the `papers` cliff of Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    /// Device memory capacity in bytes (40 GB on the paper's A100).
    pub memory_bytes: f64,
    /// Sustained HBM2e bandwidth in GB/s (~1555 on the A100).
    pub hbm_gbps: f64,
    /// Fraction of HBM bandwidth the SpMM kernel sustains (coalescing
    /// losses on irregular gathers).
    pub spmm_efficiency: f64,
    /// Peak FP32 throughput in GFLOP/s (19 500 on the A100).
    pub fp32_peak_gflops: f64,
    /// Fraction of FP32 peak sustained on tall-skinny GEMM.
    pub dense_efficiency: f64,
    /// Effective host-to-device PCIe 4.0 x16 bandwidth in GB/s.
    pub pcie_gbps: f64,
    /// Host-side cost per edge of full-neighbourhood sampling, in
    /// nanoseconds (pointer chasing + batch assembly on the CPU).
    pub sample_ns_per_edge: f64,
    /// Kernel-launch overhead in nanoseconds.
    pub launch_overhead_ns: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel {
            memory_bytes: 40e9,
            hbm_gbps: 1555.0,
            spmm_efficiency: 0.55,
            fp32_peak_gflops: 19_500.0,
            dense_efficiency: 0.60,
            pcie_gbps: 22.0,
            sample_ns_per_edge: 18.0,
            launch_overhead_ns: 10_000.0,
        }
    }
}

impl GpuModel {
    /// Whether the inference working set fits in device memory.
    pub fn fits(&self, workload: &GcnWorkload) -> bool {
        workload.inference_footprint_bytes(ElementSizes::default()) <= self.memory_bytes
    }

    /// Bytes that must cross PCIe for one inductive inference: the CSR
    /// adjacency, the input features, and the result read-back.
    pub fn offload_bytes(&self, workload: &GcnWorkload) -> f64 {
        let sizes = ElementSizes::default();
        let first = workload.layers().first().expect("at least one layer");
        let last = workload.layers().last().expect("at least one layer");
        let v = first.vertices as f64;
        let e = first.edges as f64;
        let csr = (v + 1.0) * sizes.row_ptr as f64 + e * (sizes.col_idx + sizes.value) as f64;
        let input = v * first.k_in as f64 * sizes.feature as f64;
        let output = v * last.k_out as f64 * sizes.feature as f64;
        csr + input + output
    }

    /// Full-model GCN phase times.
    ///
    /// For graphs that fit on the device: offload + on-device compute. The
    /// offload volume is independent of the hidden dimension (only the
    /// input/output layers cross PCIe), which is why the GPU's *relative*
    /// compute share grows with K (Fig. 4). For graphs that do not fit:
    /// host-side full-neighbourhood sampling dominates, with mini-batch
    /// offload on top — the >99 % combined sampling+offload share the paper
    /// reports for `papers`.
    pub fn gcn_times(&self, workload: &GcnWorkload) -> GcnPhaseTimes {
        let mut t = GcnPhaseTimes::default();
        let sizes = ElementSizes::default();

        // On-device (or per-batch) compute phases.
        for layer in workload.layers() {
            let traffic = layer.spmm(sizes);
            t.spmm_ns += traffic.total_bytes() / (self.hbm_gbps * self.spmm_efficiency)
                + self.launch_overhead_ns;
            t.dense_ns += layer.dense_flops() / (self.fp32_peak_gflops * self.dense_efficiency)
                + self.launch_overhead_ns;
            t.glue_ns += layer.glue_bytes(sizes.feature) / self.hbm_gbps + self.launch_overhead_ns;
        }

        t.offload_ns = self.offload_bytes(workload) / self.pcie_gbps;

        if !self.fits(workload) {
            // Full-neighbourhood sampling walks every in-edge of every layer
            // on the host.
            let edges: f64 = workload.layers().iter().map(|l| l.edges as f64).sum();
            t.sampling_ns = edges * self.sample_ns_per_edge;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    fn products(hidden: usize) -> GcnWorkload {
        GcnWorkload::paper_model(2_449_029, 61_859_140, 100, hidden, 47)
    }

    fn papers(hidden: usize) -> GcnWorkload {
        GcnWorkload::paper_model(111_059_956, 1_615_685_872, 128, hidden, 172)
    }

    #[test]
    fn products_fits_but_papers_does_not() {
        let m = GpuModel::default();
        assert!(m.fits(&products(256)));
        assert!(!m.fits(&papers(8)));
    }

    #[test]
    fn offload_dominates_fitting_graphs_at_small_k() {
        // Fig. 4: for graphs that fit, offload is the main contributor.
        let m = GpuModel::default();
        let t = m.gcn_times(&products(8));
        assert!(
            t.fraction(Phase::Offload) > 0.5,
            "offload fraction {:.2}",
            t.fraction(Phase::Offload)
        );
        assert_eq!(t.sampling_ns, 0.0);
    }

    #[test]
    fn compute_share_grows_with_k() {
        // Offload volume is constant in K, so SpMM+Dense share rises.
        let m = GpuModel::default();
        let share = |k| {
            let t = m.gcn_times(&products(k));
            t.fraction(Phase::Spmm) + t.fraction(Phase::Dense)
        };
        assert!(share(256) > share(8));
    }

    #[test]
    fn offload_bytes_do_not_depend_on_hidden_dim() {
        let m = GpuModel::default();
        assert_eq!(
            m.offload_bytes(&products(8)),
            m.offload_bytes(&products(256))
        );
    }

    #[test]
    fn papers_is_sampling_bound() {
        // Fig. 4: papers spends >75% sampling; sampling+offload >99%.
        let m = GpuModel::default();
        let t = m.gcn_times(&papers(64));
        assert!(
            t.fraction(Phase::Sampling) > 0.75,
            "sampling fraction {:.2}",
            t.fraction(Phase::Sampling)
        );
        assert!(
            t.fraction(Phase::Sampling) + t.fraction(Phase::Offload) > 0.9,
            "sampling+offload {:.2}",
            t.fraction(Phase::Sampling) + t.fraction(Phase::Offload)
        );
    }

    #[test]
    fn phase_times_are_finite_and_nonnegative() {
        let m = GpuModel::default();
        for t in [m.gcn_times(&products(64)), m.gcn_times(&papers(64))] {
            for p in Phase::ALL {
                assert!(t.get(p).is_finite() && t.get(p) >= 0.0, "{p}");
            }
        }
    }
}
