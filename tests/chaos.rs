//! End-to-end chaos suite: seeded fault injection through the whole stack.
//!
//! Every test arms the process-wide fault registry (`resilience::fault`)
//! with a deterministic seed and drives real work — GCN inference, parallel
//! SpMM through the thread pool, graph loading, the PIUMA simulator — while
//! panics, typed errors, and latency are injected at the named sites the
//! production code carries. The contract under test:
//!
//! * no panic escapes a resilient entry point (worker isolation + retry);
//! * retry-recovered results are **bitwise identical** to a fault-free run
//!   of the same code path (kernels fully overwrite their outputs);
//! * everything completes within a generous wall-clock budget (no retry
//!   loop or poisoned lock can deadlock the suite).
//!
//! Seeds come from `FAULT_SEED` / `FAULT_RATE` when set (the CI chaos
//! matrix) and default to eight fixed seeds at the paper-quoted p = 0.01
//! otherwise. References are computed under an armed-but-silent config
//! (rate 0) so no concurrently running test can inject into them: armed
//! regions are serialized process-wide.

use piuma_gcn::prelude::*;
use resilience::fault::{self, FaultConfig, FaultKind};
use resilience::guard::{RunGuard, RunOutcome};
use resilience::retry;
use std::time::{Duration, Instant};

/// Seeds to sweep: the env seed alone when the CI matrix pins one,
/// otherwise eight fixed defaults.
fn seeds() -> Vec<u64> {
    match std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
    {
        Some(s) => vec![s],
        None => vec![1, 7, 13, 42, 97, 128, 255, 1234],
    }
}

/// Per-visit firing probability (env override, default p = 0.01).
fn rate() -> f64 {
    std::env::var("FAULT_RATE")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0.01)
}

/// Wall-clock ceiling for any single chaos scenario; hitting it means a
/// retry loop or lock recovery path livelocked.
const BUDGET: Duration = Duration::from_secs(60);

/// Called while `config` is still armed: every prefix it armed matched a
/// fault site the scenario actually passed, so a stale or misspelt site
/// name fails here instead of silently testing nothing.
fn assert_armed_sites_visited(config: &FaultConfig) {
    let stats = fault::stats();
    for armed in &config.overrides {
        let visits: u64 = stats
            .sites
            .iter()
            .filter(|(site, _)| site.starts_with(armed.prefix.as_str()))
            .map(|(_, site)| site.visits)
            .sum();
        assert!(
            visits > 0,
            "armed `{}` but the scenario visited no fault site under it (visited: {:?})",
            armed.prefix,
            stats.sites.keys().collect::<Vec<_>>()
        );
    }
}

fn test_model() -> (Csr, GcnModel, DenseMatrix) {
    let g = Graph::rmat(&RmatConfig::power_law(8, 8), 2024);
    let a_hat = g.normalized_adjacency().unwrap();
    let model = GcnModel::new(&GcnConfig::paper_model(16, 32, 4), 7);
    let x = g.random_features(16, 5);
    (a_hat, model, x)
}

/// A workspace whose plan is pinned to `strategy`.
fn pinned_workspace(a_hat: &Csr, x: &DenseMatrix, strategy: SpmmStrategy) -> InferenceWorkspace {
    let mut ws = InferenceWorkspace::new();
    ws.install_plan(SpmmPlan::pinned(a_hat, x.cols(), strategy));
    ws
}

/// Fault-free reference through the *same* resilient code path, computed
/// under an armed-but-never-firing config so it holds the arm lock.
fn quiet_reference(
    a_hat: &Csr,
    model: &GcnModel,
    x: &DenseMatrix,
    strategy: SpmmStrategy,
) -> DenseMatrix {
    let _quiet = fault::arm(FaultConfig::new(0));
    let guard = RunGuard::unbounded();
    let mut ws = pinned_workspace(a_hat, x, strategy);
    let run = model
        .infer_resilient_with(a_hat, x, &guard, &mut ws)
        .unwrap();
    assert!(run.is_complete());
    ws.output().clone()
}

#[test]
fn inference_under_error_injection_is_bitwise_correct_across_seeds() {
    let (a_hat, model, x) = test_model();
    let reference = quiet_reference(&a_hat, &model, &x, SpmmStrategy::Sequential);
    let p = rate();

    for seed in seeds() {
        let started = Instant::now();
        let config = FaultConfig::new(seed).point("gcn.layer", FaultKind::Error, p);
        let _armed = fault::arm(config.clone());
        let guard = RunGuard::with_budget(BUDGET);
        let mut ws = pinned_workspace(&a_hat, &x, SpmmStrategy::Sequential);
        let run = model
            .infer_resilient_with(&a_hat, &x, &guard, &mut ws)
            .unwrap_or_else(|e| panic!("seed {seed}: inference failed: {e}"));
        assert!(run.is_complete(), "seed {seed}: {run:?}");
        assert_eq!(
            ws.output().as_slice(),
            reference.as_slice(),
            "seed {seed}: recovered result diverged from the fault-free run"
        );
        assert!(
            started.elapsed() < BUDGET,
            "seed {seed}: chaos run exceeded the wall-clock budget"
        );
        assert_armed_sites_visited(&config);
    }
}

#[test]
fn inference_recovers_injected_panics_without_escaping() {
    let (a_hat, model, x) = test_model();
    let reference = quiet_reference(&a_hat, &model, &x, SpmmStrategy::Sequential);
    let env_pinned = std::env::var("FAULT_SEED").is_ok();
    let mut injected_total = 0u64;

    for seed in seeds() {
        let _quiet = retry::quiet_panics();
        let config = FaultConfig::new(seed).point("gcn.layer", FaultKind::Panic, 0.3);
        let _armed = fault::arm(config.clone());
        let guard = RunGuard::with_budget(BUDGET);
        let mut ws = pinned_workspace(&a_hat, &x, SpmmStrategy::Sequential);
        // `retry::ATTEMPTS` (8) per rung: at p = 0.3 a rung of the chain
        // still finds a fault-free attempt with overwhelming probability.
        let run = model
            .infer_resilient_with(&a_hat, &x, &guard, &mut ws)
            .unwrap_or_else(|e| panic!("seed {seed}: panic escaped or chain exhausted: {e}"));
        assert!(run.is_complete(), "seed {seed}: {run:?}");
        assert_eq!(
            ws.output().as_slice(),
            reference.as_slice(),
            "seed {seed}: panic-recovered result diverged"
        );
        injected_total += fault::stats().total_injected();
        assert_armed_sites_visited(&config);
    }
    // The default eight-seed sweep at p = 0.3 deterministically injects at
    // least one panic; a CI-pinned single seed may legitimately miss.
    if !env_pinned {
        assert!(
            injected_total > 0,
            "panic chaos never fired — the suite is not exercising recovery"
        );
    }
}

#[test]
fn parallel_spmm_survives_pool_worker_panics() {
    // Pool-share panics under the parallel SpMM (and the layer's parallel
    // dense update), on the one path that retries: resilient inference
    // along a plan pinned to the four-thread vertex-parallel kernel.
    let g = Graph::rmat(&RmatConfig::power_law(9, 8), 99);
    let a_hat = g.normalized_adjacency().unwrap();
    let model = GcnModel::new(&GcnConfig::paper_model(32, 32, 4), 7);
    let x = g.random_features(32, 13);
    let strategy = SpmmStrategy::VertexParallel { threads: 4 };
    let reference = quiet_reference(&a_hat, &model, &x, strategy);
    let mut recovered = 0;

    for seed in seeds() {
        let _quiet = retry::quiet_panics();
        let config = FaultConfig::new(seed).point("pool.share", FaultKind::Panic, 0.02);
        let _armed = fault::arm(config.clone());
        let started = Instant::now();
        let mut ws = pinned_workspace(&a_hat, &x, strategy);
        let run = model
            .infer_resilient_with(&a_hat, &x, &RunGuard::with_budget(BUDGET), &mut ws)
            .unwrap_or_else(|e| panic!("seed {seed}: parallel inference failed: {e}"));
        assert!(run.is_complete(), "seed {seed}: {run:?}");
        assert_eq!(
            ws.output().as_slice(),
            reference.as_slice(),
            "seed {seed}: pool-recovered inference diverged (run: {run:?})"
        );
        assert!(started.elapsed() < BUDGET, "seed {seed}: over budget");
        recovered += run.recovered_panics;
        assert_armed_sites_visited(&config);
    }
    // Share visits per attempt are fixed at a given pool width, so the
    // default sweep's firings are too (about 300 visits at p = 0.02); a
    // CI-pinned single seed may legitimately miss.
    if std::env::var("FAULT_SEED").is_err() {
        assert!(recovered > 0, "no pool-share panic was ever recovered");
    }
}

/// A recovering run works in place, so a `pool.share` panic that fires
/// inside a layer's broadcast, after the other shares wrote their rows of
/// `h`, destroys that layer's input. Under a plan pinned to the four-thread
/// vertex-parallel kernel each layer broadcasts its SpMM over its NNZ
/// partition and its dense update over the executors; `16 -> 32 -> 32 -> 4`
/// runs two aggregate-first layers and an update-first one, whose SpMM
/// writes `h` second.
fn share_panic_case() -> (Csr, GcnModel, DenseMatrix, SpmmPlan) {
    let g = Graph::rmat(&RmatConfig::power_law(8, 8), 2024);
    let a_hat = g.normalized_adjacency().unwrap();
    let model = GcnModel::new(&GcnConfig::from_dims(vec![16, 32, 32, 4]), 7);
    let x = g.random_features(16, 5);
    let plan = SpmmPlan::pinned(&a_hat, 16, SpmmStrategy::VertexParallel { threads: 4 });
    (a_hat, model, x, plan)
}

/// `model` on `plan` by the plain loop, under an armed-but-silent config.
fn planned_reference(
    a_hat: &Csr,
    model: &GcnModel,
    x: &DenseMatrix,
    plan: &SpmmPlan,
) -> DenseMatrix {
    let _quiet = fault::arm(FaultConfig::new(0));
    let mut ws = InferenceWorkspace::new();
    ws.install_plan(plan.clone());
    model.infer_planned_with(a_hat, x, &mut ws).unwrap().clone()
}

/// One recovering run of `model` on `plan` under `config`. The guard is
/// made once the config is armed, so a budget counts from the run's start.
fn recovering_run(
    a_hat: &Csr,
    model: &GcnModel,
    x: &DenseMatrix,
    plan: &SpmmPlan,
    config: FaultConfig,
    guard: impl FnOnce() -> RunGuard,
) -> (Result<gcn::InferenceRun, gcn::GcnError>, DenseMatrix) {
    let _armed = fault::arm(config);
    let mut ws = InferenceWorkspace::new();
    ws.install_plan(plan.clone());
    let run = model.infer_recovering_with(a_hat, x, &guard(), &mut ws);
    (run, ws.output().clone())
}

/// Layer attempts that failed in a run: every attempt beyond each
/// completed layer's first.
fn failed_attempts(run: &gcn::InferenceRun) -> usize {
    run.attempts as usize - run.layers_done
}

/// Share panics mid-layer: every completed recovering run is bitwise the
/// plain loop's output, and the rebuilds it made are counted: each failed
/// attempt at layer `t` costs the next one at most `t` rebuilt layers.
/// Some seed must rebuild.
#[test]
fn share_panics_mid_layer_rebuild_the_input_bitwise() {
    let (a_hat, model, x, plan) = share_panic_case();
    let reference = planned_reference(&a_hat, &model, &x, &plan);
    let deepest = model.layers().len() - 1;
    let _quiet = retry::quiet_panics();
    let mut rebuilt = 0;
    for seed in 0..64 {
        let config = FaultConfig::new(seed).point("pool.share", FaultKind::Panic, 0.01);
        let (run, out) = recovering_run(&a_hat, &model, &x, &plan, config, RunGuard::unbounded);
        let Ok(run) = run else { continue };
        assert!(run.is_complete(), "seed {seed}: {run:?}");
        assert_eq!(
            out.as_slice(),
            reference.as_slice(),
            "seed {seed}: rebuilt run diverged ({run:?})"
        );
        assert!(
            run.rebuilt_layers <= deepest * failed_attempts(&run),
            "seed {seed}: {run:?}"
        );
        rebuilt += run.rebuilt_layers;
    }
    assert!(rebuilt > 0, "no seed in 0..64 rebuilt a layer's input");
}

/// A fault at the last layer of a three-layer model: a run with exactly
/// one failed attempt and two rebuilt layers failed once at layer 2 (an
/// attempt at layer `t` rebuilds `t` layers), mostly in its SpMM, after
/// the update wrote `mid` and some shares wrote `h`. The retry re-runs
/// layers 0 and 1 from the features and lands on the plain loop's bits.
#[test]
fn a_fault_at_the_last_layer_rebuilds_every_earlier_layer() {
    let (a_hat, model, x, plan) = share_panic_case();
    assert_eq!(model.layers().len(), 3);
    let reference = planned_reference(&a_hat, &model, &x, &plan);
    let _quiet = retry::quiet_panics();
    let mut hits = 0;
    for seed in 0..128 {
        let config = FaultConfig::new(seed).point("pool.share", FaultKind::Panic, 0.004);
        let (run, out) = recovering_run(&a_hat, &model, &x, &plan, config, RunGuard::unbounded);
        let Ok(run) = run else { continue };
        assert_eq!(out.as_slice(), reference.as_slice(), "seed {seed}: {run:?}");
        if failed_attempts(&run) == 1 && run.rebuilt_layers == 2 {
            assert_eq!((run.recovered_panics, run.recovered_layers), (1, 1));
            hits += 1;
        }
    }
    assert!(
        hits > 0,
        "no seed in 0..128 failed the last layer once and recovered"
    );
}

/// A guard that fires right after a mid-write failure ends the run at the
/// last completed layer, with that layer's output rebuilt first. Every
/// attempt sleeps at `gcn.layer` (latency, never a failure), so a two-layer
/// run reaches the check before layer 1 after a few sleeps and the check
/// after layer 1's first rung — eight failed attempts — after at least
/// nine: a budget of five sleeps fires there. Layer 1 updates first and
/// aggregates into `h` second, so a share panic there leaves `h` half
/// written. Whatever a seed does, a stopped run must hold exactly the
/// layers it reports done; some seed must stop on layer 1's rung.
#[test]
fn a_guard_after_a_mid_write_failure_returns_the_last_completed_layer() {
    const SLEEP: Duration = Duration::from_millis(20);
    let g = Graph::rmat(&RmatConfig::power_law(8, 8), 2024);
    let a_hat = g.normalized_adjacency().unwrap();
    let model = GcnModel::new(&GcnConfig::from_dims(vec![16, 32, 8]), 7);
    let x = g.random_features(16, 5);
    let plan = SpmmPlan::pinned(&a_hat, 16, SpmmStrategy::VertexParallel { threads: 4 });
    let mut first = GcnModel::new(&GcnConfig::from_dims(vec![16, 32]), 0);
    first.layers_mut()[0] = model.layers()[0].clone();
    let after = [
        x.clone(),
        planned_reference(&a_hat, &first, &x, &plan),
        planned_reference(&a_hat, &model, &x, &plan),
    ];
    let _quiet = retry::quiet_panics();
    let mut covered = false;
    for seed in 0..64 {
        let config = FaultConfig::new(seed)
            .latency(SLEEP)
            .point("gcn.layer", FaultKind::Latency, 1.0)
            .point("pool.share", FaultKind::Panic, 0.02);
        let guard = || RunGuard::with_budget(5 * SLEEP);
        let (run, out) = recovering_run(&a_hat, &model, &x, &plan, config, guard);
        let Ok(run) = run else { continue };
        assert_eq!(
            out.as_slice(),
            after[run.layers_done].as_slice(),
            "seed {seed}: the output is not layer {}'s ({run:?})",
            run.layers_done
        );
        let on_the_rung = run.degradations.last().and_then(|d| d.layer) == Some(1);
        if run.stopped.is_some() && run.layers_done == 1 && on_the_rung {
            assert!(run.rebuilt_layers > 0, "seed {seed}: {run:?}");
            covered = true;
            break;
        }
    }
    assert!(
        covered,
        "no seed in 0..64 stopped after a failed rung of layer 1"
    );
}

#[test]
fn graph_loading_retries_through_injected_io_faults() {
    use graph::io::read_matrix_market;
    use std::io::Cursor;
    let text = "%%MatrixMarket matrix coordinate real general\n\
                4 4 5\n1 2 1.0\n2 3 2.0\n3 4 3.0\n4 1 4.0\n2 2 5.0\n";

    let reference = {
        let _quiet = fault::arm(FaultConfig::new(0));
        read_matrix_market(Cursor::new(text)).unwrap()
    };

    for seed in seeds() {
        let config = FaultConfig::new(seed).point("graph.io.", FaultKind::Error, 0.3);
        let _armed = fault::arm(config.clone());
        let outcome = retry::run(|| read_matrix_market(Cursor::new(text)));
        let rec = outcome.unwrap_or_else(|e| panic!("seed {seed}: loader never recovered: {e}"));
        assert_eq!(rec.value.row_ptr(), reference.row_ptr(), "seed {seed}");
        assert_eq!(rec.value.col_idx(), reference.col_idx(), "seed {seed}");
        assert_eq!(rec.value.values(), reference.values(), "seed {seed}");
        assert_armed_sites_visited(&config);
    }
}

#[test]
fn simulator_chaos_latency_does_not_change_simulated_time() {
    let g = Graph::rmat(&RmatConfig::uniform(7, 6), 5);
    let a = g.adjacency();
    let sim = SpmmSimulation::new(MachineConfig::single_core(), SpmmVariant::Dma);

    let reference = {
        let _quiet = fault::arm(FaultConfig::new(0));
        sim.run(a, 8).unwrap()
    };

    for seed in seeds() {
        // Host-side latency at the event-loop site: slows the wall clock,
        // must not perturb virtual time or traffic accounting.
        let config = FaultConfig::new(seed)
            .latency(Duration::from_micros(20))
            .point("sim.event", FaultKind::Latency, 0.001);
        let _armed = fault::arm(config.clone());
        let guard = RunGuard::with_budget(BUDGET);
        let outcome = sim
            .run_guarded(a, 8, &guard)
            .unwrap_or_else(|e| panic!("seed {seed}: simulation failed: {e}"));
        match outcome {
            RunOutcome::Complete(r) => {
                assert_eq!(r.sim.total_ns, reference.sim.total_ns, "seed {seed}");
                assert_eq!(r.sim.bytes_read, reference.sim.bytes_read, "seed {seed}");
            }
            RunOutcome::Partial { reason, .. } => {
                panic!("seed {seed}: small sim blew the {BUDGET:?} budget ({reason:?})")
            }
        }
        assert_armed_sites_visited(&config);
    }
}

#[test]
fn exhausted_injection_surfaces_typed_errors_not_panics() {
    // Rate 1.0 at the simulator entry: every attempt fails, so the caller
    // must see the typed error — never an abort or a poisoned lock.
    let config = FaultConfig::new(1).point("sim.run", FaultKind::Error, 1.0);
    let _armed = fault::arm(config.clone());
    let g = Graph::rmat(&RmatConfig::uniform(6, 4), 1);
    let err = SpmmSimulation::new(MachineConfig::single_core(), SpmmVariant::Dma)
        .run(g.adjacency(), 4)
        .unwrap_err();
    assert_eq!(format!("{err}"), "injected fault at `sim.run`");
    assert_armed_sites_visited(&config);
}
