//! Property-based tests over the core data structures and kernels.

use piuma_gcn::prelude::*;
use proptest::prelude::*;

/// Strategy: a random COO matrix with shape up to 48x48 and up to 200
/// triplets (duplicates and empty rows included on purpose).
fn coo_strategy() -> impl Strategy<Value = Coo> {
    (2usize..48, 2usize..48).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0..r, 0..c, -2.0f32..2.0), 0..200).prop_map(move |triplets| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in triplets {
                coo.push(i, j, v);
            }
            coo
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_construction_upholds_invariants(coo in coo_strategy()) {
        let csr = Csr::from_coo(&coo);
        prop_assert!(csr.validate().is_ok());
        prop_assert!(csr.nnz() <= coo.nnz());
    }

    #[test]
    fn csr_matches_dense_semantics(coo in coo_strategy()) {
        let csr = Csr::from_coo(&coo);
        let dense = csr.to_dense();
        // Every stored triplet agrees with the dense reconstruction.
        for (r, c, v) in csr.iter() {
            prop_assert!((dense[(r, c)] - v).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_is_an_involution(coo in coo_strategy()) {
        let csr = Csr::from_coo(&coo);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn spmm_kernels_agree(coo in coo_strategy(), k in 1usize..9, threads in 1usize..6) {
        let csr = Csr::from_coo(&coo);
        let mut x = DenseMatrix::zeros(csr.ncols(), k);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 2654435761) % 17) as f32 / 17.0 - 0.5;
        }
        let reference = SpmmStrategy::Sequential.run(&csr, &x).unwrap();
        let vp = SpmmStrategy::VertexParallel { threads }.run(&csr, &x).unwrap();
        let ep = SpmmStrategy::EdgeParallel { threads }.run(&csr, &x).unwrap();
        prop_assert!(reference.max_abs_diff(&vp) < 1e-3);
        prop_assert!(reference.max_abs_diff(&ep) < 1e-3);
    }

    #[test]
    fn spmm_distributes_over_dense_product(coo in coo_strategy(), k in 1usize..6) {
        // (A * H) computed sparse equals A_dense * H computed dense.
        let csr = Csr::from_coo(&coo);
        let mut h = DenseMatrix::zeros(csr.ncols(), k);
        for (i, v) in h.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 40503) % 13) as f32 / 13.0;
        }
        let sparse_out = SpmmStrategy::Sequential.run(&csr, &h).unwrap();
        let dense_out = csr.to_dense().matmul(&h).unwrap();
        prop_assert!(sparse_out.max_abs_diff(&dense_out) < 1e-3);
    }

    #[test]
    fn normalized_adjacency_rows_are_stochastic_under_random_walk(
        edges in proptest::collection::vec((0usize..20, 0usize..20), 1..60)
    ) {
        let g = Graph::from_undirected_edges(20, &edges);
        let rw = sparse::norm::normalize(g.adjacency(), sparse::norm::NormKind::RandomWalk).unwrap();
        for r in 0..20 {
            let s: f32 = rw.row_values(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5, "row {} sums to {}", r, s);
        }
    }

    #[test]
    fn symmetric_normalization_bounds_spectral_growth(
        edges in proptest::collection::vec((0usize..16, 0usize..16), 1..50),
        k in 1usize..5
    ) {
        // ||A_hat x|| <= ||x|| for the symmetric normalization (its spectral
        // radius is 1), so one aggregation never amplifies features.
        let g = Graph::from_undirected_edges(16, &edges);
        let a_hat = g.normalized_adjacency().unwrap();
        let x = g.random_features(k, 3);
        let y = SpmmStrategy::Sequential.run(&a_hat, &x).unwrap();
        prop_assert!(y.frobenius_norm() <= x.frobenius_norm() * 1.0001);
    }

    #[test]
    fn analytic_model_is_monotone(v in 1usize..100_000, e in 1usize..1_000_000, k in 1usize..512) {
        let t = SpmmTraffic::compute(v, e, k, ElementSizes::default());
        let t_more_edges = SpmmTraffic::compute(v, e * 2, k, ElementSizes::default());
        prop_assert!(t_more_edges.read_bytes() > t.read_bytes());
        prop_assert!(t_more_edges.flops > t.flops);
        // More bandwidth never hurts.
        let slow = t.time_seconds(1e9, 1e9);
        let fast = t.time_seconds(2e9, 2e9);
        prop_assert!(fast < slow);
    }

    #[test]
    fn csc_round_trips_and_agrees_on_entries(coo in coo_strategy()) {
        let csr = Csr::from_coo(&coo);
        let csc = sparse::Csc::from_csr(&csr);
        prop_assert_eq!(csc.to_csr(), csr.clone());
        for (r, c, v) in csr.iter() {
            prop_assert_eq!(csc.get(r, c), Some(v));
        }
        prop_assert_eq!(csc.nnz(), csr.nnz());
    }

    #[test]
    fn matrix_market_round_trips_arbitrary_matrices(coo in coo_strategy()) {
        use piuma_gcn::graph::io::{read_matrix_market, write_matrix_market};
        let csr = Csr::from_coo(&coo);
        let mut buf = Vec::new();
        write_matrix_market(&csr, &mut buf).unwrap();
        let back = read_matrix_market(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.shape(), csr.shape());
        prop_assert_eq!(back.nnz(), csr.nnz());
        for ((r1, c1, v1), (r2, c2, v2)) in back.iter().zip(csr.iter()) {
            prop_assert_eq!((r1, c1), (r2, c2));
            // Values pass through decimal text; allow rounding slack.
            prop_assert!((v1 - v2).abs() <= 1e-4 * v2.abs().max(1.0));
        }
    }

    #[test]
    fn spmv_is_spmm_with_one_column(coo in coo_strategy()) {
        let csr = Csr::from_coo(&coo);
        let x: Vec<f32> = (0..csr.ncols())
            .map(|i| ((i * 7919) % 23) as f32 / 23.0 - 0.5)
            .collect();
        let y = sparse::ops::spmv(&csr, &x).unwrap();
        let xm = DenseMatrix::from_vec(csr.ncols(), 1, x).unwrap();
        let ym = SpmmStrategy::Sequential.run(&csr, &xm).unwrap();
        for (u, &yu) in y.iter().enumerate() {
            prop_assert!((yu - ym[(u, 0)]).abs() < 1e-4);
        }
    }

    #[test]
    fn fusion_always_helps_and_is_bounded(
        v in 1usize..100_000,
        deg in 1usize..64,
        k in 1usize..512,
    ) {
        use piuma_gcn::analytic::fusion::FusionAnalysis;
        use piuma_gcn::analytic::workload::LayerWorkload;
        let layer = LayerWorkload { vertices: v, edges: v * deg, k_in: k, k_out: k };
        let a = FusionAnalysis::of(&layer, ElementSizes::default());
        prop_assert!(a.speedup() >= 1.0);
        // Savings are one write + one read of the V x K intermediate, which
        // can never exceed half the unfused traffic plus the CSR bytes.
        prop_assert!(a.traffic_saved() < 0.67, "saved {}", a.traffic_saved());
    }

    #[test]
    fn sampled_subgraphs_are_valid_and_seeded(
        seeds in proptest::collection::vec(0usize..64, 1..6),
        hops in 0usize..3,
        fanout in 1usize..5,
    ) {
        let g = Graph::rmat(&RmatConfig::power_law(6, 4), 17);
        let sub = graph::sampling::sample_neighbors(&g, &seeds, hops, fanout, 3);
        sub.adjacency.validate().unwrap();
        // Every (deduplicated) seed is present, in order, at the front.
        let mut seen = std::collections::HashSet::new();
        let unique: Vec<usize> = seeds
            .iter()
            .copied()
            .filter(|s| seen.insert(*s))
            .collect();
        prop_assert_eq!(&sub.vertices[..unique.len()], &unique[..]);
        // Induced edges exist in the parent graph.
        for (lu, lv, _) in sub.adjacency.iter() {
            prop_assert!(g
                .adjacency()
                .get(sub.vertices[lu], sub.vertices[lv])
                .is_some());
        }
    }

    #[test]
    fn gcn_inference_is_deterministic(seed in 0u64..1000) {
        let g = Graph::rmat(&RmatConfig::power_law(6, 4), seed);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 8, 4), seed);
        let x = g.random_features(8, seed);
        let a = model.infer(&g, &x, SpmmStrategy::Sequential).unwrap();
        let b = model.infer(&g, &x, SpmmStrategy::Sequential).unwrap();
        prop_assert_eq!(a, b);
    }
}

/// Deterministic Fisher-Yates permutation from a seed (the vendored
/// proptest stub has no shuffle strategy, so randomness comes from a plain
/// xorshift stream instead).
fn seeded_permutation(n: usize, seed: u64) -> Permutation {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        order.swap(i, (s as usize) % (i + 1));
    }
    Permutation::from_new_to_old(order).expect("Fisher-Yates yields a bijection")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn permute_round_trips_with_inverse(coo in coo_strategy(), rs in 0u64..1_000_000, cs in 0u64..1_000_000) {
        let csr = Csr::from_coo(&coo);
        let rows = seeded_permutation(csr.nrows(), rs);
        let cols = seeded_permutation(csr.ncols(), cs);
        let permuted = csr.permute(&rows, &cols).unwrap();
        prop_assert!(permuted.validate().is_ok());
        prop_assert_eq!(permuted.nnz(), csr.nnz());
        let back = permuted.permute(&rows.inverse(), &cols.inverse()).unwrap();
        prop_assert_eq!(back, csr);
    }

    #[test]
    fn nnz_partition_covers_all_rows_exactly_once(
        scale in 4u32..9,
        degree in 1usize..9,
        slots in 1usize..33,
        seed in 0u64..1000,
    ) {
        use piuma_gcn::kernels::plan::nnz_balanced_partition;
        let n = 1usize << scale;
        // Alternate between the uniform control and the skewed RMAT family.
        let graph = if seed % 2 == 0 {
            graph::generators::erdos_renyi(n, n * degree / 2, seed)
        } else {
            Graph::rmat(&RmatConfig::power_law(scale, degree), seed)
        };
        let a = graph.adjacency();
        let partition = nnz_balanced_partition(a.row_ptr(), slots);
        // Boundaries are strictly increasing from 0 to nrows: the ranges
        // tile the row space, covering every row exactly once.
        prop_assert_eq!(*partition.first().unwrap(), 0);
        prop_assert_eq!(*partition.last().unwrap(), a.nrows());
        prop_assert!(partition.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(partition.len() <= slots + 1);

        // Row granularity caps balance at one hub row above the ideal: each
        // slot owns at most ceil(nnz/slots) + max_row_nnz - 1 non-zeros.
        let nnz = a.nnz();
        let max_row = (0..a.nrows()).map(|r| a.row_nnz(r)).max().unwrap_or(0);
        let bound = nnz.div_ceil(slots) + max_row.saturating_sub(1);
        for w in partition.windows(2) {
            let slot_nnz = a.row_ptr()[w[1]] - a.row_ptr()[w[0]];
            prop_assert!(
                slot_nnz <= bound,
                "slot [{}, {}) owns {} nnz, bound {}",
                w[0], w[1], slot_nnz, bound
            );
        }
        // Hub-adjusted 2x check: when no single row exceeds the ideal, every
        // slot stays within twice the perfect share.
        let ideal = (nnz as f64 / slots as f64).ceil();
        if (max_row as f64) <= ideal {
            for w in partition.windows(2) {
                let slot_nnz = (a.row_ptr()[w[1]] - a.row_ptr()[w[0]]) as f64;
                prop_assert!(slot_nnz <= 2.0 * ideal.max(1.0));
            }
        }
    }

    #[test]
    fn planned_spmm_agrees_with_sequential(coo in coo_strategy(), k in 1usize..9) {
        let csr = Csr::from_coo(&coo);
        let mut h = DenseMatrix::zeros(csr.ncols(), k);
        for (i, v) in h.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 2654435761) % 17) as f32 / 17.0 - 0.5;
        }
        let reference = SpmmStrategy::Sequential.run(&csr, &h).unwrap();
        let plan = SpmmPlan::new(&csr, k);
        let planned = plan.run(&csr, &h).unwrap();
        prop_assert!(reference.max_abs_diff(&planned) < 1e-3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simulator_is_monotone_in_resources(cores_exp in 0u32..4, k in 1usize..5) {
        // More bandwidth must not meaningfully slow the simulated kernel,
        // and more cores must not slow the DMA kernel. (Strict per-point
        // monotonicity does not hold for flow-controlled queueing systems,
        // so a small tolerance is allowed.)
        let a = OgbDataset::Products.materialize_scaled(1 << 10, 5).into_adjacency();
        let k = k * 8;
        let cores = 1usize << cores_exp;
        let base_cfg = MachineConfig::node(cores);
        let fast_cfg = base_cfg.with_dram_bandwidth_gbps(base_cfg.dram_bandwidth_gbps * 2.0);
        let base = SpmmSimulation::new(base_cfg, SpmmVariant::Dma).run(&a, k).unwrap();
        let fast = SpmmSimulation::new(fast_cfg, SpmmVariant::Dma).run(&a, k).unwrap();
        prop_assert!(fast.sim.total_ns <= base.sim.total_ns * 1.05);

        let more_cores = SpmmSimulation::new(MachineConfig::node(cores * 2), SpmmVariant::Dma)
            .run(&a, k)
            .unwrap();
        prop_assert!(more_cores.sim.total_ns <= base.sim.total_ns * 1.10);
    }
}
