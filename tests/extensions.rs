//! Integration tests over the extension features: sampling,
//! graph I/O, random walks, and the design-space models working together.

use piuma_gcn::gcn::SamplingScheme;
use piuma_gcn::piuma_kernels::walk_sim::simulate_random_walks;
use piuma_gcn::platform_models::{DistributedXeonModel, HeterogeneousSoc};
use piuma_gcn::prelude::*;
use piuma_gcn::sparse::ops::{pagerank, spmv};

#[test]
fn sampled_inference_matches_full_graph() {
    // Scale 10: the batch's 3-hop ball stops short of its component, so
    // the sample's boundary vertices have neighbours outside it — the case
    // where renormalizing the induced subgraph is not exact.
    let g = Graph::rmat(&RmatConfig::power_law(10, 6), 5);
    let model = GcnModel::new(&GcnConfig::paper_model(8, 8, 3), 2);
    let x = g.random_features(8, 4);

    let full = model.infer(&g, &x, SpmmStrategy::Sequential).unwrap();
    let batch = [7usize, 99, 181];
    let sampled = model
        .infer_sampled(
            &g,
            &x,
            &batch,
            SamplingScheme::FullNeighborhood,
            SpmmStrategy::Sequential,
        )
        .unwrap();
    assert!(sampled.subgraph.len() < g.vertices());
    for (i, &v) in batch.iter().enumerate() {
        let scale = full.row(v).iter().fold(0.0f32, |m, e| m.max(e.abs()));
        let diff = full
            .row(v)
            .iter()
            .zip(sampled.output.row(i))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            diff <= 1e-6 * scale,
            "vertex {v} diverged by {diff} on {scale}"
        );
    }
}

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
fn pagerank_is_uniform_on_doubly_regular_graphs() {
    // A circulant graph (v -> v+1..v+4 mod n) has regular in- AND
    // out-degree, so its walk matrix is doubly stochastic and the
    // stationary distribution is uniform.
    let n = 64usize;
    let edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|v| (1..=4).map(move |d| (v, (v + d) % n)))
        .collect();
    let g = Graph::from_directed_edges(n, &edges);
    let ranks = pagerank(g.adjacency(), 0.85, 60).unwrap();
    for &r in &ranks {
        assert!((r - 1.0 / n as f32).abs() < 2e-4, "rank {r}");
    }
    let y = spmv(g.adjacency(), &vec![1.0; n]).unwrap();
    assert!(y.iter().all(|&v| (v - 4.0).abs() < 1e-5));
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

    // Simulated random walks run on the same scaled twins.
    let a = OgbDataset::Mag
        .materialize_scaled(1 << 10, 2)
        .into_adjacency();
    let r = simulate_random_walks(&MachineConfig::node(2), &a, 64, 16).unwrap();
    assert!(r.msteps_per_second > 0.0);
}

#[test]
fn multi_node_simulation_runs_spmm_and_walks() {
    let a = OgbDataset::Products
        .materialize_scaled(1 << 10, 8)
        .into_adjacency();
    let cfg = MachineConfig::multi_node(2, 4);
    let spmm = SpmmSimulation::new(cfg.clone(), SpmmVariant::Dma)
        .run(&a, 32)
        .unwrap();
    assert!(spmm.gflops > 0.0);
    let walks = simulate_random_walks(&cfg, &a, 128, 32).unwrap();
    assert!(walks.sim.total_ns > 0.0);
}
