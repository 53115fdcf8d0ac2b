//! PIUMA machine configuration — every knob the paper's sweeps vary.

use serde::{Deserialize, Serialize};

/// Configuration of a simulated PIUMA machine.
///
/// Defaults follow the published PIUMA organization (Aananthakrishnan et
/// al., 2020): cores hosting several single-issue, in-order MTPs with 16
/// round-robin threads each, a local scratchpad, one DRAM slice and DMA
/// offload engines per core, all connected by a HyperX network over a
/// distributed global address space. Absolute rates are calibration
/// constants, not measurements; the reproduction targets the paper's
/// *normalized* curves.
///
/// # Examples
///
/// ```
/// use piuma_sim::MachineConfig;
///
/// let one_die = MachineConfig::node(8); // Fig. 7 runs on one 8-core die
/// assert_eq!(one_die.cores, 8);
/// assert_eq!(one_die.total_threads(), 8 * 4 * 16);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of PIUMA cores (total, across all nodes).
    pub cores: usize,
    /// Number of nodes the cores are divided over. Nodes are connected by
    /// optical links (the HyperX topology spans them), so remote accesses
    /// that cross a node boundary pay [`MachineConfig::inter_node_ns`] on
    /// top of the intra-node path. Must divide `cores`.
    pub nodes: usize,
    /// Extra one-way latency in nanoseconds for crossing a node boundary.
    pub inter_node_ns: f64,
    /// Multi-threaded pipelines per core.
    pub mtps_per_core: usize,
    /// Hardware threads per MTP (the paper sweeps 1–16; default 16).
    pub threads_per_mtp: usize,
    /// Pipeline clock in GHz (sets the cost of issue/compute cycles).
    pub clock_ghz: f64,
    /// DRAM slices per core (the DGAS distributes rows across all slices).
    pub dram_slices_per_core: usize,
    /// Sustained bandwidth of one DRAM slice, in GB/s.
    pub dram_bandwidth_gbps: f64,
    /// DRAM access latency in nanoseconds (the paper sweeps 45–720 ns).
    pub dram_latency_ns: f64,
    /// Per-hop network latency in nanoseconds for remote-slice accesses.
    pub network_hop_ns: f64,
    /// DMA engines per core.
    pub dma_engines_per_core: usize,
    /// DMA engine per-request issue/setup occupancy in nanoseconds. The
    /// engine serializes request *issue* at this rate while completions
    /// overlap.
    pub dma_issue_ns: f64,
    /// Sustained streaming rate of one DMA engine in GB/s (its internal
    /// copy/multiply datapath; the slice bandwidth usually binds first).
    pub dma_engine_gbps: f64,
    /// Maximum DMA transfers a single thread may have outstanding before it
    /// stalls (descriptor window).
    pub dma_window: usize,
    /// Credit-based flow control between DMA engines and DRAM slices: an
    /// engine will not issue a transfer to a slice whose queued backlog
    /// exceeds this many nanoseconds of service. This bounds the
    /// head-of-line delay that fine-grained pipeline loads (e.g. NNZ reads)
    /// experience behind bulk DMA traffic, mirroring the per-channel credit
    /// schemes of real memory subsystems.
    pub dma_backlog_ns: f64,
    /// Cache-line size in bytes (granularity of pipeline line loads).
    pub cache_line_bytes: usize,
    /// Latency in nanoseconds of a remote atomic executed at the memory-side
    /// offload engine (PIUMA's "efficient remote atomics").
    pub atomic_ns: f64,
    /// Fixed cost in nanoseconds of a global barrier through the
    /// collectives offload engine, on top of the rendezvous and one network
    /// diameter.
    pub barrier_ns: f64,
    /// Effective dense-arithmetic throughput of one MTP in FLOPs per cycle,
    /// *including* the in-memory add/multiply the DMA offload engines
    /// contribute. PIUMA pipelines are scalar (1 MAC/cycle), so anything
    /// above 2 here is offload-engine assist; the default (16) calibrates a
    /// core to ~90 GFLOP/s at 1.4 GHz, matching the observed dense rates of
    /// prior work (\[21\]) that `PiumaDenseModel` encodes.
    pub dense_flops_per_cycle_per_mtp: f64,
}

impl MachineConfig {
    /// A single-core machine with default parameters.
    pub fn single_core() -> Self {
        MachineConfig::node(1)
    }

    /// A multi-node system: `nodes` nodes of `cores_per_node` cores each,
    /// connected by optical links. The DGAS spans all of it — programs see
    /// one address space, remote slices just get further away.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn multi_node(nodes: usize, cores_per_node: usize) -> Self {
        assert!(nodes > 0 && cores_per_node > 0, "counts must be positive");
        MachineConfig {
            nodes,
            ..MachineConfig::node(nodes * cores_per_node)
        }
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.cores / self.nodes
    }

    /// The node hosting a core.
    pub fn node_of_core(&self, core: usize) -> usize {
        core / self.cores_per_node()
    }

    /// A PIUMA node with `cores` cores and default parameters.
    pub fn node(cores: usize) -> Self {
        MachineConfig {
            cores,
            nodes: 1,
            inter_node_ns: 300.0,
            mtps_per_core: 4,
            threads_per_mtp: 16,
            clock_ghz: 1.4,
            dram_slices_per_core: 1,
            dram_bandwidth_gbps: 32.0,
            dram_latency_ns: 45.0,
            network_hop_ns: 40.0,
            dma_engines_per_core: 1,
            dma_issue_ns: 0.5,
            dma_engine_gbps: 64.0,
            dma_window: 64,
            dma_backlog_ns: 120.0,
            cache_line_bytes: 64,
            atomic_ns: 60.0,
            barrier_ns: 100.0,
            dense_flops_per_cycle_per_mtp: 16.0,
        }
    }

    /// Nanoseconds per pipeline clock cycle.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }

    /// Total DRAM slices in the machine.
    pub fn total_slices(&self) -> usize {
        self.cores * self.dram_slices_per_core
    }

    /// Total hardware threads in the machine.
    pub fn total_threads(&self) -> usize {
        self.cores * self.mtps_per_core * self.threads_per_mtp
    }

    /// Aggregate DRAM bandwidth in GB/s.
    pub fn aggregate_bandwidth_gbps(&self) -> f64 {
        self.total_slices() as f64 * self.dram_bandwidth_gbps
    }

    /// The core that owns DRAM slice `slice`.
    pub fn slice_owner(&self, slice: usize) -> usize {
        slice / self.dram_slices_per_core
    }

    /// Extra network latency (ns) for core `core` to reach `slice`.
    ///
    /// Local slices cost nothing extra. Remote slices pay the average
    /// HyperX path: per-hop latency times a diameter term that grows with
    /// the square root of the core count (a 2-D HyperX arrangement). At 32
    /// cores and default parameters a remote access costs ~5x the local
    /// 45 ns DRAM latency on top — matching the paper's report of NNZ reads
    /// being on average 6x slower on 32 cores than on one.
    pub fn network_latency_ns(&self, core: usize, slice: usize) -> f64 {
        let owner = self.slice_owner(slice);
        if owner == core {
            return 0.0;
        }
        let intra = self.network_hop_ns * (self.cores_per_node() as f64).sqrt();
        if self.node_of_core(owner) == self.node_of_core(core) {
            intra
        } else {
            intra + self.inter_node_ns
        }
    }

    /// Total latency (ns) of a global barrier: fixed collectives cost plus
    /// one network diameter to gather and release every core.
    pub fn barrier_latency_ns(&self) -> f64 {
        self.barrier_ns + self.network_hop_ns * (self.cores as f64).sqrt()
    }

    /// Average memory latency (ns) seen from any core for an access to a
    /// uniformly random slice — DRAM latency plus the expected network
    /// penalty. Useful for analytical cross-checks in tests.
    pub fn avg_memory_latency_ns(&self) -> f64 {
        if self.cores <= 1 {
            return self.dram_latency_ns;
        }
        let cores = self.cores as f64;
        let per_node = self.cores_per_node() as f64;
        let intra = self.network_hop_ns * per_node.sqrt();
        let remote_fraction = (cores - 1.0) / cores;
        let cross_node_fraction = (cores - per_node) / cores;
        self.dram_latency_ns + remote_fraction * intra + cross_node_fraction * self.inter_node_ns
    }

    /// Returns a copy with a different DRAM latency (sweep helper).
    pub fn with_dram_latency_ns(&self, latency: f64) -> Self {
        MachineConfig {
            dram_latency_ns: latency,
            ..self.clone()
        }
    }

    /// Returns a copy with a different per-slice bandwidth (sweep helper).
    pub fn with_dram_bandwidth_gbps(&self, bw: f64) -> Self {
        MachineConfig {
            dram_bandwidth_gbps: bw,
            ..self.clone()
        }
    }

    /// Returns a copy with a different thread count per MTP (sweep helper).
    pub fn with_threads_per_mtp(&self, threads: usize) -> Self {
        MachineConfig {
            threads_per_mtp: threads,
            ..self.clone()
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any structural parameter is zero or any rate is
    /// non-positive.
    pub fn assert_valid(&self) {
        assert!(self.cores > 0, "need at least one core");
        assert!(self.nodes > 0, "need at least one node");
        assert!(
            self.cores.is_multiple_of(self.nodes),
            "nodes must divide the core count"
        );
        assert!(
            self.inter_node_ns >= 0.0,
            "inter-node latency must be non-negative"
        );
        assert!(self.mtps_per_core > 0, "need at least one MTP per core");
        assert!(self.threads_per_mtp > 0, "need at least one thread per MTP");
        assert!(
            self.dram_slices_per_core > 0,
            "need at least one slice per core"
        );
        assert!(
            self.dma_engines_per_core > 0,
            "need at least one DMA engine"
        );
        assert!(self.clock_ghz > 0.0, "clock must be positive");
        assert!(self.dram_bandwidth_gbps > 0.0, "bandwidth must be positive");
        assert!(self.dram_latency_ns >= 0.0, "latency must be non-negative");
        assert!(self.dma_engine_gbps > 0.0, "DMA rate must be positive");
        assert!(self.dma_window > 0, "DMA window must be positive");
        assert!(self.cache_line_bytes > 0, "cache line must be positive");
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::node(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        MachineConfig::default().assert_valid();
        MachineConfig::single_core().assert_valid();
        MachineConfig::node(32).assert_valid();
    }

    #[test]
    fn totals_multiply_out() {
        let c = MachineConfig::node(4);
        assert_eq!(c.total_slices(), 4);
        assert_eq!(c.total_threads(), 4 * 4 * 16);
        assert_eq!(c.aggregate_bandwidth_gbps(), 4.0 * 32.0);
    }

    #[test]
    fn local_access_pays_no_network() {
        let c = MachineConfig::node(16);
        assert_eq!(c.network_latency_ns(3, 3), 0.0);
        assert!(c.network_latency_ns(3, 4) > 0.0);
    }

    #[test]
    fn remote_latency_grows_with_core_count() {
        let small = MachineConfig::node(4).network_latency_ns(0, 1);
        let large = MachineConfig::node(32).network_latency_ns(0, 1);
        assert!(large > small);
    }

    #[test]
    fn thirty_two_core_remote_latency_matches_paper_scale() {
        // Paper: NNZ reads ~6x slower on 32 cores than 1 core. Our average
        // latency ratio should land in the same neighbourhood (4x-8x).
        let one = MachineConfig::node(1).avg_memory_latency_ns();
        let thirty_two = MachineConfig::node(32).avg_memory_latency_ns();
        let ratio = thirty_two / one;
        assert!(
            (4.0..8.0).contains(&ratio),
            "latency ratio {ratio} outside the paper's ballpark"
        );
    }

    #[test]
    fn sweep_helpers_change_one_field() {
        let base = MachineConfig::node(2);
        let swept = base.with_dram_latency_ns(360.0);
        assert_eq!(swept.dram_latency_ns, 360.0);
        assert_eq!(swept.cores, base.cores);
        let swept = base.with_threads_per_mtp(1);
        assert_eq!(swept.threads_per_mtp, 1);
        let swept = base.with_dram_bandwidth_gbps(64.0);
        assert_eq!(swept.dram_bandwidth_gbps, 64.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_is_invalid() {
        MachineConfig {
            cores: 0,
            ..MachineConfig::default()
        }
        .assert_valid();
    }

    #[test]
    fn multi_node_divides_cores() {
        let c = MachineConfig::multi_node(4, 8);
        c.assert_valid();
        assert_eq!(c.cores, 32);
        assert_eq!(c.cores_per_node(), 8);
        assert_eq!(c.node_of_core(0), 0);
        assert_eq!(c.node_of_core(15), 1);
        assert_eq!(c.node_of_core(31), 3);
    }

    #[test]
    fn cross_node_access_pays_optical_latency() {
        let c = MachineConfig::multi_node(2, 4);
        let same_node = c.network_latency_ns(0, 1);
        let cross_node = c.network_latency_ns(0, 5);
        assert!(cross_node > same_node + 200.0);
        assert_eq!(c.network_latency_ns(2, 2), 0.0);
    }

    #[test]
    fn multi_node_raises_average_latency() {
        let single = MachineConfig::node(16).avg_memory_latency_ns();
        let multi = MachineConfig::multi_node(4, 4).avg_memory_latency_ns();
        assert!(multi > single);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn nodes_must_divide_cores() {
        MachineConfig {
            nodes: 3,
            ..MachineConfig::node(8)
        }
        .assert_valid();
    }

    #[test]
    fn slice_owner_maps_round_robin_blocks() {
        let mut c = MachineConfig::node(2);
        c.dram_slices_per_core = 2;
        assert_eq!(c.slice_owner(0), 0);
        assert_eq!(c.slice_owner(1), 0);
        assert_eq!(c.slice_owner(2), 1);
        assert_eq!(c.slice_owner(3), 1);
    }
}
