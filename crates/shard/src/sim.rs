//! First-principles PIUMA projection of a sharded GCN execution.
//!
//! [`simulate_model`] mirrors the exact partition [`crate::ShardedGcn`]
//! executes — same blocks, same halo maps, same per-layer association
//! order — onto a [`piuma_sim::MachineConfig`] with **one PIUMA node per
//! shard**. Every cost comes from the machine description: per-node dense
//! rate and DRAM bandwidth bound the kernels, DMA engines stream the halo
//! with a per-request issue cost and a `dma_window`-deep latency pipe over
//! the HyperX path ([`MachineConfig::network_latency_ns`]), and each layer
//! ends on a global barrier. This is the model that regenerates
//! `results/ext_multinode_scaling.csv` — the scaling curves fall out of
//! the partition's measured halo volume and NNZ imbalance rather than
//! being seeded.
//!
//! The two calibration constants ([`SPMM_EFFICIENCY`],
//! [`GEMM_EFFICIENCY`]) set what fraction of the offload-assisted dense
//! peak each kernel class sustains; everything else (latencies,
//! bandwidths, window depths) is the machine config. The qualitative
//! behaviour the paper reports emerges structurally: at small feature
//! widths the K-independent per-row request overheads and barriers are
//! exposed (poor scaling), at K=256 the per-row payload amortizes them
//! and efficiency stays high.
//!
//! [`MachineConfig::network_latency_ns`]: piuma_sim::MachineConfig::network_latency_ns
//! [`SPMM_EFFICIENCY`]: crate::sim::SPMM_EFFICIENCY
//! [`GEMM_EFFICIENCY`]: crate::sim::GEMM_EFFICIENCY

use piuma_sim::MachineConfig;

use crate::partition::ShardPlan;

/// Fraction of a node's offload-assisted dense peak the irregular SpMM
/// row loops sustain (gather-dominated access pattern; the paper's SpMM
/// chapter measures low single-digit utilization on CPUs and PIUMA's
/// latency tolerance buys roughly this much of peak).
pub const SPMM_EFFICIENCY: f64 = 0.05;

/// Fraction of the dense peak the packed register-tiled GEMM sustains.
pub const GEMM_EFFICIENCY: f64 = 0.55;

/// Outcome of one simulated sharded inference pass.
#[derive(Debug, Clone)]
pub struct ShardSimResult {
    /// End-to-end nanoseconds for the full layer stack.
    pub total_ns: f64,
    /// Per-layer nanoseconds (slowest block's gather + aggregate + update,
    /// plus the barrier).
    pub layer_ns: Vec<f64>,
    /// Useful floating-point operations (same count as single-node).
    pub flops: f64,
}

impl ShardSimResult {
    /// Achieved GFLOPS over the whole pass.
    pub fn gflops(&self) -> f64 {
        if self.total_ns <= 0.0 {
            return 0.0;
        }
        self.flops / self.total_ns
    }
}

/// Parallel efficiency of `scaled` over `baseline` given their worker
/// counts: `T_base * N_base / (T_scaled * N_scaled)`.
pub fn parallel_efficiency(
    baseline: &ShardSimResult,
    n_base: usize,
    scaled: &ShardSimResult,
    n_scaled: usize,
) -> f64 {
    if scaled.total_ns <= 0.0 || n_scaled == 0 {
        return 0.0;
    }
    (baseline.total_ns * n_base as f64) / (scaled.total_ns * n_scaled as f64)
}

/// Projects a sharded GCN pass (layer widths `dims`, one `(k_in, k_out)`
/// pair per layer) onto PIUMA nodes: one node of `cores_per_node` cores
/// per shard, costs from the node's dense rate, DRAM bandwidth, DMA
/// engines, and the HyperX latency model.
pub fn simulate_model(
    plan: &ShardPlan,
    dims: &[(usize, usize)],
    cores_per_node: usize,
) -> ShardSimResult {
    let workers = plan.workers().max(1);
    let machine = MachineConfig::multi_node(workers, cores_per_node.max(1));

    // Per-node rates. FLOPs per ns = GFLOPS; bytes per ns = GB/s.
    let cpn = machine.cores_per_node() as f64;
    let node_peak = cpn
        * machine.mtps_per_core as f64
        * machine.dense_flops_per_cycle_per_mtp
        * machine.clock_ghz;
    let spmm_rate = node_peak * SPMM_EFFICIENCY;
    let gemm_rate = node_peak * GEMM_EFFICIENCY;
    let node_bw = cpn * machine.dram_slices_per_core as f64 * machine.dram_bandwidth_gbps;
    let engines = (cpn * machine.dma_engines_per_core as f64).max(1.0);
    let dma_rate = (engines * machine.dma_engine_gbps).min(node_bw);
    // One remote row fetch: issue occupancy plus the HyperX round trip
    // amortized over the descriptor window, spread across the engines.
    let remote_ns = if workers > 1 {
        machine.network_latency_ns(0, machine.cores - 1)
    } else {
        0.0
    };
    let req_ns = (machine.dma_issue_ns + remote_ns / machine.dma_window as f64) / engines;

    let mut layer_ns = Vec::with_capacity(dims.len());
    let mut flops = 0.0;
    for &(k_in, k_out) in dims {
        let k_agg = plan.layer_exchange(k_in, k_out).agg_width as f64;
        let mut worst_chain = 0.0f64;
        for blk in plan.blocks() {
            let rows = blk.rows() as f64;
            let nnz = blk.nnz() as f64;
            let refs = blk.refs.len() as f64;
            let halo = blk.halo.len() as f64;
            // Aggregation: compute-bound or memory-bound, whichever binds
            // (8 B per stored non-zero, one read per referenced row, acc RMW).
            let agg_bytes = nnz * 8.0 + (refs + 2.0 * rows) * k_agg * 4.0;
            let t_spmm = (2.0 * nnz * k_agg / spmm_rate).max(agg_bytes / node_bw);
            // Halo gather: the DMA engines stream the payload while the
            // SpMM drains already-landed rows, so the payload overlaps
            // compute; only the per-row request issue cost is exposed.
            // That overhead is K-independent — this is what sinks small
            // feature widths.
            let t_payload = halo * k_agg * 4.0 / dma_rate;
            // Dense update of this block (either order runs exactly one
            // GEMM over its rows).
            let up_flops = 2.0 * rows * k_in as f64 * k_out as f64;
            let up_bytes = rows * (k_in + k_out) as f64 * 4.0;
            let chain = halo * req_ns
                + t_payload.max(t_spmm)
                + (up_flops / gemm_rate).max(up_bytes / node_bw);
            worst_chain = worst_chain.max(chain);
        }
        let t_layer = worst_chain + machine.barrier_latency_ns();
        layer_ns.push(t_layer);
        flops +=
            2.0 * plan.nnz() as f64 * k_agg + 2.0 * plan.nrows() as f64 * (k_in * k_out) as f64;
    }
    ShardSimResult {
        total_ns: layer_ns.iter().sum(),
        layer_ns,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionKind;
    use graph::rmat::RmatConfig;
    use graph::Graph;
    use sparse::Csr;

    fn twin() -> Csr {
        Graph::rmat(&RmatConfig::power_law(12, 8), 0xC0FFEE)
            .normalized_adjacency()
            .unwrap()
    }

    fn eff_at(a: &Csr, n: usize, k: usize) -> f64 {
        let base = simulate_model(
            &ShardPlan::new(a, 1, PartitionKind::Rows1D).unwrap(),
            &[(k, k)],
            8,
        );
        let scaled = simulate_model(
            &ShardPlan::new(a, n, PartitionKind::Rows1D).unwrap(),
            &[(k, k)],
            8,
        );
        parallel_efficiency(&base, 1, &scaled, n)
    }

    #[test]
    fn wide_features_scale_and_narrow_features_do_not() {
        let a = twin();
        let wide = eff_at(&a, 8, 256);
        let narrow = eff_at(&a, 8, 8);
        assert!(
            wide >= 0.74,
            "K=256 at 8 nodes must meet the paper's strong scaling, got {wide:.3}"
        );
        assert!(
            narrow < wide - 0.2,
            "K=8 must scale qualitatively worse (paper's gap): K=8 {narrow:.3} vs K=256 {wide:.3}"
        );
        assert!(
            narrow > 0.05,
            "even K=8 makes some progress, got {narrow:.3}"
        );
    }

    #[test]
    fn efficiency_decays_monotonically_with_workers() {
        let a = twin();
        for k in [8usize, 256] {
            let effs: Vec<f64> = [2usize, 4, 8].iter().map(|&n| eff_at(&a, n, k)).collect();
            assert!(
                effs.windows(2).all(|w| w[1] <= w[0] + 1e-9),
                "k={k}: efficiency must not rise with more nodes: {effs:?}"
            );
        }
    }

    #[test]
    fn gflops_rise_with_nodes_at_wide_k() {
        let a = twin();
        let mut last = 0.0;
        for n in [1usize, 2, 4, 8] {
            let r = simulate_model(
                &ShardPlan::new(&a, n, PartitionKind::Rows1D).unwrap(),
                &[(256, 256)],
                8,
            );
            assert!(
                r.gflops() > last,
                "aggregate K=256 throughput must rise with nodes"
            );
            last = r.gflops();
        }
    }
}
