//! Integration tests over the extension features: graph I/O, multi-node
//! simulation, and the design-space models working together.

use piuma_gcn::platform_models::{DistributedXeonModel, HeterogeneousSoc};
use piuma_gcn::prelude::*;

#[test]
fn graph_io_round_trips_through_the_kernels() {
    use piuma_gcn::graph::io::{read_matrix_market, write_matrix_market};
    let g = OgbDataset::Arxiv.materialize_scaled(1 << 9, 7);
    let mut buf = Vec::new();
    write_matrix_market(g.adjacency(), &mut buf).unwrap();
    let back = read_matrix_market(std::io::Cursor::new(buf)).unwrap();
    assert_eq!(&back, g.adjacency());

    // The re-read matrix must produce identical SpMM results.
    let x = g.random_features(8, 1);
    let a = SpmmStrategy::Sequential.run(g.adjacency(), &x).unwrap();
    let b = SpmmStrategy::Sequential.run(&back, &x).unwrap();
    assert_eq!(a, b);
}

#[test]
fn design_space_models_compose() {
    let s = OgbDataset::Mag.stats();
    let w = GcnWorkload::paper_model(s.vertices, s.edges, s.input_dim, 128, s.output_dim);

    // Heterogeneous SoC never loses to homogeneous at its own best split.
    let soc = HeterogeneousSoc::all_piuma(4);
    let (_, best) = soc.best_split(&w);
    assert!(best.total_ns() <= soc.gcn_times(&w).total_ns() + 1e-6);

    // MPI cluster efficiency stays below DGAS scaling.
    let mpi = DistributedXeonModel::cluster(8).parallel_efficiency(&w);
    assert!(mpi < 1.0);
}

#[test]
fn multi_node_simulation_runs_spmm() {
    let a = OgbDataset::Products
        .materialize_scaled(1 << 10, 8)
        .into_adjacency();
    let cfg = MachineConfig::multi_node(2, 4);
    let spmm = SpmmSimulation::new(cfg, SpmmVariant::Dma)
        .run(&a, 32)
        .unwrap();
    assert!(spmm.gflops > 0.0);
}
