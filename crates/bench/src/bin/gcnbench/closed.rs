//! The closed-loop workloads: one caller, one whole-graph inference per
//! operation, through the planned path (`full_*`) or the sharded runner.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gcn::InferenceWorkspace;
use kernels::SpmmPlan;
use matrix::DenseMatrix;
use shard::{PartitionKind, ShardedGcn};

use crate::inputs::Inputs;
use crate::spec::{Kind, Workload, SHARD_WORKERS};
use crate::stats::{percentile, quiet, quiet_half_median, sorted, windows};
use crate::{Outcome, RunArgs};

/// Operations a run measures at least, so p90 has ten samples beyond it.
const MIN_OPS: usize = 100;
/// Warm-up operations inside set-up (buffers sized, plan cached).
const WARMUP_OPS: usize = 2;
/// `full_*`: every n-th output is held against `infer_reference`.
const FULL_CHECK_EVERY: usize = 10;
/// `sharded`: every n-th output is held against the pinned width-1 plan.
const SHARD_CHECK_EVERY: usize = 25;
/// Relative tolerance of the `full_*` check (the reference sums in another
/// order; the sharded check is bitwise).
const FULL_REL_TOL: f32 = 1e-4;

/// The engine one closed-loop operation runs on.
enum Engine {
    Planned(InferenceWorkspace),
    Sharded {
        runner: ShardedGcn,
        out: DenseMatrix,
    },
}

impl Engine {
    /// Builds the plan (`SpmmPlan` or `ShardPlan` inside `ShardedGcn`).
    fn build(w: &Workload, inputs: &Inputs) -> Result<Engine, String> {
        match w.kind {
            Kind::Sharded => {
                let runner = ShardedGcn::new(&inputs.a_hat, SHARD_WORKERS, PartitionKind::Rows1D)
                    .map_err(|e| format!("building the shard plan: {e}"))?;
                Ok(Engine::Sharded {
                    runner,
                    out: DenseMatrix::default(),
                })
            }
            _ => {
                let mut ws = InferenceWorkspace::new();
                ws.install_plan(SpmmPlan::new(&inputs.a_hat, inputs.x.cols()));
                Ok(Engine::Planned(ws))
            }
        }
    }

    /// One operation; the output stays in the engine.
    fn run(&mut self, inputs: &Inputs) -> Result<&DenseMatrix, String> {
        match self {
            Engine::Planned(ws) => inputs
                .model
                .infer_planned_with(&inputs.a_hat, &inputs.x, ws)
                .map_err(|e| format!("infer_planned_with: {e}")),
            Engine::Sharded { runner, out } => {
                *out = runner
                    .infer(&inputs.model, &inputs.x)
                    .map_err(|e| format!("ShardedGcn::infer: {e}"))?;
                Ok(out)
            }
        }
    }

    /// What a checked output is compared with, and how.
    fn oracle(&self, inputs: &Inputs) -> Result<Oracle, String> {
        match self {
            Engine::Planned(_) => Ok(Oracle {
                want: inputs
                    .model
                    .infer_reference(&inputs.graph, &inputs.x)
                    .map_err(|e| format!("infer_reference: {e}"))?,
                bitwise: false,
                every: FULL_CHECK_EVERY,
            }),
            Engine::Sharded { .. } => Ok(Oracle {
                want: inputs
                    .model
                    .infer_planned_with(&inputs.a_hat, &inputs.x, &mut width1_workspace(inputs))
                    .map_err(|e| format!("width-1 infer_planned_with: {e}"))?
                    .clone(),
                bitwise: true,
                every: SHARD_CHECK_EVERY,
            }),
        }
    }
}

struct Oracle {
    want: DenseMatrix,
    bitwise: bool,
    every: usize,
}

impl Oracle {
    fn accepts(&self, got: &DenseMatrix) -> bool {
        if self.bitwise {
            bitwise_equal(got, &self.want)
        } else {
            let scale = self
                .want
                .as_slice()
                .iter()
                .fold(f32::MIN_POSITIVE, |m, v| m.max(v.abs()));
            got.max_abs_diff(&self.want) <= FULL_REL_TOL * scale
        }
    }
}

/// A workspace pinned to a width-1 (sequential) plan: whole-graph planned
/// inference through it is the machine-independent reference
/// `crates/shard/tests/agreement.rs` pins.
pub fn width1_workspace(inputs: &Inputs) -> InferenceWorkspace {
    let mut ws = InferenceWorkspace::new();
    ws.install_plan(SpmmPlan::with_width(&inputs.a_hat, inputs.x.cols(), 1));
    ws
}

pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn bitwise_equal(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.shape() == b.shape() && bits_equal(a.as_slice(), b.as_slice())
}

/// Inputs, engine and warm-up: everything before the first timed operation.
fn setup(w: &Workload, args: &RunArgs) -> Result<(Inputs, Engine), String> {
    let inputs = Inputs::build(w, args.seed, args.smoke)?;
    let mut engine = Engine::build(w, &inputs)?;
    for _ in 0..WARMUP_OPS {
        engine.run(&inputs)?;
    }
    Ok((inputs, engine))
}

/// The untraced pass: repeated set-up, then the measured loop.
pub fn run(w: &Workload, args: &RunArgs) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..args.setup_repeats() {
        // Drop the previous copy first so peak RSS holds one, not two.
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(w, args)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (inputs, mut engine) = state.expect("at least one set-up ran");
    let oracle = engine.oracle(&inputs)?;

    let min_ops = if args.smoke { 5 } else { MIN_OPS };
    let budget = Duration::from_secs_f64(args.seconds);
    // One caller, so the loop's time is the sum of its operations; the
    // output checks between them are not part of it.
    // `(seconds of the loop so far, this operation's ms)`.
    let mut events: Vec<(f64, f64)> = Vec::new();
    let mut busy = Duration::ZERO;
    let mut failed = 0u64;
    let loop_start = Instant::now();
    while loop_start.elapsed() < budget || events.len() < min_ops {
        let t = Instant::now();
        let result = engine.run(&inputs).map(|out| {
            black_box(out);
        });
        let took = t.elapsed();
        busy += took;
        events.push((busy.as_secs_f64(), took.as_secs_f64() * 1e3));
        let op = events.len();
        let ok = match result {
            Err(e) => {
                eprintln!("gcnbench: {}: operation {op} failed: {e}", w.name);
                false
            }
            Ok(()) if op.is_multiple_of(oracle.every) => {
                let got = match &engine {
                    Engine::Planned(ws) => ws.output(),
                    Engine::Sharded { out, .. } => out,
                };
                let ok = oracle.accepts(got);
                if !ok {
                    eprintln!("gcnbench: {}: output {op} failed its check", w.name);
                }
                ok
            }
            Ok(()) => true,
        };
        failed += u64::from(!ok);
    }
    if let Engine::Sharded { runner, .. } = &engine {
        let report = runner.report(&inputs.model);
        if report.replayed_tasks + report.recovered_exchanges > 0 {
            eprintln!("gcnbench: {}: fault-free run replayed work", w.name);
            failed += 1;
        }
    }

    let ops = events.len();
    let (quiet_ms, quiet_s) = quiet(windows(events.iter().copied()));
    let n = quiet_ms.len();
    eprintln!(
        "gcnbench: {}: {n} of {ops} operations in quiet windows; over all of them p50 {:.3} ms, {:.3} ops/s",
        w.name,
        percentile(&sorted(events.iter().map(|e| e.1).collect()), 50.0),
        ops as f64 / busy.as_secs_f64()
    );
    let mut out = Outcome::new(ops as u64, failed);
    out.push("setup_s", quiet_half_median(&setup_s), setup_s.len());
    out.push("latency_ms_p50", percentile(&quiet_ms, 50.0), n);
    out.push("latency_ms_p90", percentile(&quiet_ms, 90.0), n);
    out.push("throughput_ops_s", n as f64 / quiet_s, n);
    Ok(out)
}
