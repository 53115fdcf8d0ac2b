//! Cross-crate integration: real GCN inference over generated graphs, every
//! kernel agreeing, and the simulator consuming the same adjacency.

use piuma_gcn::prelude::*;

use piuma_gcn::gcn::GcnError;
use piuma_gcn::graph::generators::erdos_renyi;
use piuma_gcn::matrix::MatrixError;
use resilience::fault::{self, FaultConfig, FaultKind};
use resilience::guard::{CancelToken, RunGuard, StopReason};
use resilience::retry::{self, ATTEMPTS};
use std::collections::BTreeSet;
use std::time::Duration;

/// The table's twins: a skewed RMAT and a near-uniform Erdős–Rényi graph.
fn twins() -> [(&'static str, Graph); 2] {
    [
        ("rmat", Graph::rmat(&RmatConfig::power_law(8, 8), 13)),
        ("erdos-renyi", erdos_renyi(300, 1800, 14)),
    ]
}

/// The table's models: one that starts aggregate-first (`8 <= 16`) and one
/// that is update-first throughout.
fn models() -> [(&'static str, GcnModel); 2] {
    [
        (
            "8-16-4",
            GcnModel::new(&GcnConfig::from_dims(vec![8, 16, 4]), 3),
        ),
        (
            "16-8-4",
            GcnModel::new(&GcnConfig::from_dims(vec![16, 8, 4]), 4),
        ),
    ]
}

/// A workspace holding `plan`.
fn workspace(plan: SpmmPlan) -> InferenceWorkspace {
    let mut ws = InferenceWorkspace::new();
    ws.install_plan(plan);
    ws
}

#[test]
fn every_strategy_runs_the_one_layer_loop() {
    // strategy x association order x degree distribution, through the one
    // convenience wrapper, against the unfused oracle; the row-local arms
    // (every arm `Auto` resolves to among them) additionally against the
    // machine-independent width-1 plan, bit for bit (packed GEMM does not
    // depend on its thread count).
    for (graph_name, g) in twins() {
        let a_hat = g.normalized_adjacency().unwrap();
        for (model_name, model) in models() {
            let k = model.input_dim();
            let x = g.random_features(k, 21);
            let reference = model.infer_reference(&g, &x).unwrap();
            let mut ws = workspace(SpmmPlan::with_width(&a_hat, k, 1));
            let width1 = model.infer_planned_with(&a_hat, &x, &mut ws).unwrap();
            for (strategy, width1_tol) in [
                (SpmmStrategy::Sequential, Some(0.0)),
                (SpmmStrategy::VertexParallel { threads: 3 }, Some(0.0)),
                (SpmmStrategy::EdgeParallel { threads: 3 }, None),
                (SpmmStrategy::Auto, Some(0.0)),
            ] {
                let case = format!("{graph_name} {model_name} {strategy}");
                let out = model.infer(&g, &x, strategy).unwrap();
                let diff = reference.max_abs_diff(&out);
                assert!(diff < 1e-3, "{case}: {diff} from the oracle");
                if let Some(tol) = width1_tol {
                    let diff = width1.max_abs_diff(&out);
                    assert!(diff <= tol, "{case}: {diff} from the width-1 plan");
                }
            }
        }
    }
}

#[test]
fn fired_guard_stops_with_a_typed_reason_at_the_last_completed_layer() {
    let (_, g) = &twins()[0];
    let (_, model) = &models()[0];
    let a_hat = g.normalized_adjacency().unwrap();
    let x = g.random_features(model.input_dim(), 21);
    let cancelled = CancelToken::new();
    cancelled.cancel();
    for (guard, reason) in [
        (RunGuard::with_token(cancelled), StopReason::Cancelled),
        (
            RunGuard::with_budget(Duration::ZERO),
            StopReason::BudgetExceeded,
        ),
    ] {
        let mut ws = InferenceWorkspace::new();
        let run = model
            .infer_resilient_with(&a_hat, &x, &guard, &mut ws)
            .unwrap();
        assert!(!run.is_complete());
        assert_eq!((run.layers_done, run.total_layers), (0, 2));
        assert_eq!(run.stopped, Some(reason));
        // No layer completed: the workspace still holds the input features.
        assert_eq!(*ws.output(), x);
    }
}

#[test]
fn every_strategy_reaches_sequential_within_two_rungs() {
    for start in [
        SpmmStrategy::Sequential,
        SpmmStrategy::VertexParallel { threads: 3 },
        SpmmStrategy::EdgeParallel { threads: 3 },
        SpmmStrategy::Auto,
    ] {
        let ladder: Vec<_> = std::iter::successors(Some(start), |s| s.fallback()).collect();
        assert!(ladder.len() <= 3, "{start}: {ladder:?}");
        assert_eq!(ladder.last(), Some(&SpmmStrategy::Sequential), "{start}");
        // A rung down keeps the thread budget or drops to one thread.
        assert!(ladder.windows(2).all(|w| w[1].threads() <= w[0].threads()));
    }
}

/// A degradation trail: `(layer, from, to)` per rung taken.
type Trail<'a> = Vec<(Option<usize>, &'a str, &'a str)>;

/// Replays a `gcn.layer` decision stream (one decision per attempt, up to
/// `ATTEMPTS` attempts per rung, a rung left when all of them fire)
/// against `ladder`, the strategy names every layer restarts at the top
/// of: the `(layer, from, to)` trail and the attempts made, or `None` if
/// some layer runs out of rungs or the stream runs out.
fn expected_trail<'a>(
    fires: &[bool],
    ladder: &[&'a str],
    layers: usize,
) -> Option<(Trail<'a>, usize)> {
    let mut decisions = fires.iter();
    let mut trail = Vec::new();
    let mut attempts = 0;
    for layer in 0..layers {
        for rung in 0.. {
            // The retry loop stops at the first attempt that does not fire.
            let mut clean = false;
            for _ in 0..ATTEMPTS {
                attempts += 1;
                if !*decisions.next()? {
                    clean = true;
                    break;
                }
            }
            if clean {
                break;
            }
            trail.push((Some(layer), ladder[rung], *ladder.get(rung + 1)?));
        }
    }
    Some((trail, attempts))
}

#[test]
fn layer_fault_schedule_degrades_down_the_plans_chain_and_recovers_the_same_bits() {
    let (_, g) = &twins()[0];
    let (_, model) = &models()[0];
    let a_hat = g.normalized_adjacency().unwrap();
    let k = model.input_dim();
    let x = g.random_features(k, 21);
    let layers = model.layers().len();
    let _quiet = retry::quiet_panics();
    // (plan, its ladder by name, how the site fails, layers the schedule
    // must degrade).
    for (plan, ladder, kind, degraded) in [
        // Every layer degrades: each one's trail restarting at the pin is
        // what shows that a degradation does not outlive its layer. The
        // three-rung ladder starts at Algorithm 2, on one thread (more
        // would split a row between two atomic flushes, and the recovered
        // rungs would not reproduce its bits).
        (
            SpmmPlan::pinned(&a_hat, k, SpmmStrategy::EdgeParallel { threads: 1 }),
            &["edge-parallel x1", "vertex-parallel x1", "sequential"][..],
            FaultKind::Error,
            &[0, 1][..],
        ),
        // A resolved plan degrades down the ladder of whatever it resolved
        // to: here the second layer only, by panics.
        (
            SpmmPlan::with_width(&a_hat, k, 4),
            &["vertex-parallel x4", "sequential"],
            FaultKind::Panic,
            &[1],
        ),
        // Algorithm 2 on one thread (more would make its atomic flushes,
        // and so its bits, depend on arrival order).
        (
            SpmmPlan::pinned(&a_hat, k, SpmmStrategy::EdgeParallel { threads: 1 }),
            &["edge-parallel x1", "vertex-parallel x1", "sequential"],
            FaultKind::Error,
            &[0],
        ),
    ] {
        let start = plan.exec();
        assert_eq!(start.to_string(), ladder[0]);
        // Undisturbed run of the same plan. Every rung of every chain is
        // row-local, so every rung is bitwise reproducible.
        let undisturbed = model
            .infer_planned_with(&a_hat, &x, &mut workspace(plan.clone()))
            .unwrap()
            .clone();
        // The decision hash keys on (seed, site, visit), not on the kind:
        // probe the real site, as errors, for a stream that degrades
        // exactly those layers yet lets all finish. A rung is left only
        // after `ATTEMPTS` fires in a row, which the stream never gives at
        // rate 0.8 or below: hence 0.9.
        let layer_faults = |seed, kind, rate| FaultConfig::new(seed).point("gcn.layer", kind, rate);
        let (seed, (trail, attempts)) = (0..4096u64)
            .find_map(|seed| {
                let _probe = fault::arm(layer_faults(seed, FaultKind::Error, 0.9));
                let fires: Vec<bool> = (0..64).map(|_| fault::should_fail("gcn.layer")).collect();
                let (trail, attempts) = expected_trail(&fires, ladder, layers)?;
                let mut hit: Vec<usize> = trail.iter().filter_map(|rung| rung.0).collect();
                hit.dedup();
                (hit == degraded).then_some((seed, (trail, attempts)))
            })
            .expect("some seed degrades exactly those layers yet completes");
        let mut ws = workspace(plan);
        let run = {
            let _armed = fault::arm(layer_faults(seed, kind, 0.9));
            model.infer_resilient_with(&a_hat, &x, &RunGuard::unbounded(), &mut ws)
        }
        .unwrap();
        assert!(run.is_complete(), "{start}: {run:?}");
        let got: Vec<_> = run
            .degradations
            .iter()
            .map(|d| (d.layer, d.from.as_str(), d.to.as_str()))
            .collect();
        assert_eq!(got, trail, "{start}");
        // Every attempt the stream implies, each layer's success included.
        assert_eq!(run.attempts as usize, attempts, "{start}");
        assert_eq!(*ws.output(), undisturbed, "{start}: recovered bits differ");
        assert_eq!(
            ws.plan().unwrap().exec(),
            start,
            "the workspace's plan is kept"
        );

        // The same plan under a site that fires on every visit: each rung
        // spends its attempts, the ladder runs out, and the last failure
        // surfaces typed with the workspace's plan still the caller's.
        let _armed = fault::arm(layer_faults(seed, kind, 1.0));
        let err = model
            .infer_resilient_with(&a_hat, &x, &RunGuard::unbounded(), &mut ws)
            .unwrap_err();
        let site = match kind {
            FaultKind::Panic => "gcn.layer: unrecovered panic",
            _ => "gcn.layer",
        };
        assert!(
            matches!(err, GcnError::Kernel(MatrixError::Fault { site: s }) if s == site),
            "{start}: {err}"
        );
        assert_eq!(ws.plan().unwrap().exec(), start);
    }
}

/// The rows table's adjacencies. The first two and the last are
/// normalized (self-loops: levels nest); the middle two are raw `Csr`s the
/// normalizer never produces.
fn rows_graphs() -> Vec<(&'static str, Csr)> {
    let [(_, rmat), (_, er)] = twins();
    let er = er.normalized_adjacency().unwrap();
    // Directed, no self-loops, some rows empty: `V_l` is not inside `V_{l-1}`.
    let n = 200;
    let mut directed = Coo::new(n, n);
    for v in (0..n).filter(|v| v % 9 != 4) {
        for j in 0..3 {
            let c = (v * 31 + j * 17 + 7) % n;
            if c != v {
                directed.push(v, c, 0.25 + 0.125 * j as f32);
            }
        }
    }
    // Vertex 5 (the single-vertex target) loses every edge, self-loop included.
    let mut isolated = Coo::new(er.nrows(), er.ncols());
    for (r, c, v) in er.iter().filter(|&(r, c, _)| r != 5 && c != 5) {
        isolated.push(r, c, v);
    }
    let tiny = Graph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
    vec![
        ("rmat", rmat.normalized_adjacency().unwrap()),
        ("directed-no-self-loops", Csr::from_coo(&directed)),
        ("isolated-target", Csr::from_coo(&isolated)),
        ("erdos-renyi", er),
        ("tiny-saturating", tiny.normalized_adjacency().unwrap()),
    ]
}

/// `(|V_0|, Σ_l Σ_{v ∈ V_l} deg(v), every level whole)` of a batch,
/// recomputed from the adjacency alone.
fn frontier_stats(a: &Csr, targets: &[usize], hops: usize) -> (usize, usize, bool) {
    let mut level: BTreeSet<usize> = targets.iter().copied().collect();
    let mut whole = level.len() == a.nrows();
    let mut nnz = 0;
    for _ in 0..hops {
        nnz += level.iter().map(|&v| a.row_nnz(v)).sum::<usize>();
        level = level
            .iter()
            .flat_map(|&v| a.row_cols(v).iter().map(|&c| c as usize))
            .collect();
        whole &= level.len() == a.nrows();
    }
    (level.len(), nnz, whole)
}

#[test]
fn rows_match_the_width_one_full_graph_run_bitwise_whatever_the_batch() {
    // depth and association order x precision x graph x target set: each
    // served row equals full-graph inference under the width-1 plan at that
    // precision bit for bit, and the same target served alone; the batch's
    // stats are its frontier sizes.
    let models = [
        ("1-layer update-first", vec![16, 8]),
        ("2-layer aggregate-first", vec![8, 16, 32]),
        ("2-layer update-first", vec![32, 16, 8]),
        ("3-layer mixed", vec![8, 16, 8, 12]),
    ];
    for (graph_name, a_hat) in rows_graphs() {
        let n = a_hat.nrows();
        let graph = Graph::from_adjacency(a_hat.clone());
        let pick = |i: usize| ((i % 11) * 37 + 5) % (n - 1);
        let target_sets = [
            ("one", vec![pick(0)]),
            ("16 with duplicates", (0..16).map(pick).collect()),
            ("every vertex", (0..n).rev().collect::<Vec<_>>()),
        ];
        for (model_name, dims) in &models {
            let model = GcnModel::new(&GcnConfig::from_dims(dims.clone()), 5);
            let hops = model.layers().len();
            let x = graph.random_features(dims[0], 21);
            for p in Precision::all() {
                let mut ws = workspace(SpmmPlan::with_width(&a_hat, dims[0], 1).at_precision(p));
                let full = model.infer_planned_with(&a_hat, &x, &mut ws).unwrap();
                let mut rows_ws = InferenceWorkspace::new();
                rows_ws.plan_for(&a_hat, dims[0], p);
                let (mut out, mut alone) = (DenseMatrix::default(), DenseMatrix::default());
                for (set_name, targets) in &target_sets {
                    let case = format!("{graph_name}, {model_name}, {p}, {set_name}");
                    let stats = model
                        .infer_rows_planned_into(&a_hat, &x, targets, &mut rows_ws, &mut out)
                        .unwrap();
                    let (gathered, sub_nnz, whole) = frontier_stats(&a_hat, targets, hops);
                    assert_eq!(
                        (stats.targets, stats.hops, stats.gathered, stats.sub_nnz),
                        (targets.len(), hops, gathered, sub_nnz),
                        "{case}"
                    );
                    assert_eq!(stats.full_graph, whole, "{case}");
                    assert!(!whole || targets.len() == n, "{case}");
                    for (i, &t) in targets.iter().enumerate() {
                        assert_eq!(out.row(i), full.row(t), "{case}: row {t} vs full graph");
                    }
                    // Coalescing invariance, on at most 16 of the targets.
                    for (i, &t) in targets
                        .iter()
                        .enumerate()
                        .step_by(targets.len().div_ceil(16))
                    {
                        model
                            .infer_rows_planned_into(&a_hat, &x, &[t], &mut rows_ws, &mut alone)
                            .unwrap();
                        assert_eq!(alone.row(0), out.row(i), "{case}: row {t} served alone");
                    }
                }
            }
        }
    }
}

#[test]
fn full_pipeline_on_a_power_law_graph() {
    let g = Graph::rmat(&RmatConfig::power_law(9, 8), 123);
    let model = GcnModel::new(&GcnConfig::paper_model(24, 48, 6), 5);
    let x = g.random_features(24, 11);

    let reference = model.infer(&g, &x, SpmmStrategy::Sequential).unwrap();
    assert_eq!(reference.shape(), (g.vertices(), 6));
    assert!(reference.all_finite());

    for strategy in [
        SpmmStrategy::VertexParallel { threads: 8 },
        SpmmStrategy::EdgeParallel { threads: 8 },
    ] {
        let out = model.infer(&g, &x, strategy).unwrap();
        let diff = reference.max_abs_diff(&out);
        assert!(diff < 1e-3, "{strategy}: diff {diff}");
    }
}

#[test]
fn scaled_ogb_twin_runs_both_host_and_simulated_spmm() {
    let g = OgbDataset::Arxiv.materialize_scaled(1 << 10, 9);
    let a = g.adjacency();
    let k = 16;
    let x = g.random_features(k, 3);

    // Host kernel produces real numbers...
    let host = SpmmStrategy::VertexParallel { threads: 4 }
        .run(a, &x)
        .unwrap();
    assert_eq!(host.shape(), (a.nrows(), k));

    // ...and the simulator prices the same kernel on PIUMA.
    let sim = SpmmSimulation::new(MachineConfig::node(2), SpmmVariant::Dma)
        .run(a, k)
        .unwrap();
    assert!(sim.sim.total_ns > 0.0);
    assert!(sim.gflops > 0.0);
    // Traffic the simulator moved must match the analytical accounting of
    // the same matrix within tolerance.
    let traffic = SpmmTraffic::compute(a.nrows(), a.nnz(), k, ElementSizes::default());
    let ratio = sim.sim.bytes_read / traffic.read_bytes();
    assert!((0.85..1.25).contains(&ratio), "read traffic ratio {ratio}");
}

#[test]
fn normalization_preserves_inference_stability_across_depth() {
    // Symmetric normalization keeps activations bounded: a deep GCN over
    // A_hat must not blow up.
    let g = Graph::rmat(&RmatConfig::uniform(8, 12), 77);
    let dims = vec![8, 16, 16, 16, 16, 4];
    let model = GcnModel::new(&GcnConfig::from_dims(dims), 1);
    let x = g.random_features(8, 2);
    let out = model.infer(&g, &x, SpmmStrategy::Sequential).unwrap();
    assert!(out.all_finite());
    assert!(out.frobenius_norm() < 1e6);
}

#[test]
fn platform_models_agree_with_simulator_on_spmm_ordering() {
    // The PIUMA analytical model (used for full-size graphs) and the
    // event-driven simulator (used for twins) must rank machine sizes the
    // same way and land in the same efficiency band.
    let a = OgbDataset::Products
        .materialize_scaled(1 << 12, 4)
        .into_adjacency();
    let k = 64;
    for cores in [4usize, 16] {
        let sim = SpmmSimulation::new(MachineConfig::node(cores), SpmmVariant::Dma)
            .run(&a, k)
            .unwrap();
        let frac = sim.model_fraction();
        assert!(
            (0.6..=1.05).contains(&frac),
            "{cores} cores: simulator at {frac:.2} of the analytic model"
        );
    }
}

#[test]
fn repro_experiments_produce_csv_and_sections() {
    use piuma_gcn::report::experiments::{Experiment, Fidelity};
    for e in [Experiment::Table1, Experiment::Fig2, Experiment::Fig9] {
        let out = e.run(Fidelity::Quick);
        assert!(!out.sections.is_empty(), "{} has no sections", e.name());
        assert!(!out.csv_files.is_empty(), "{} has no CSVs", e.name());
        for (_, csv) in &out.csv_files {
            assert!(csv.lines().count() > 1, "{}: empty csv", e.name());
        }
    }
}
