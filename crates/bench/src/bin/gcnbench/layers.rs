//! The traced pass: every layer is timed from outside, through its public
//! functions, on the workload's own graph and model, and every span lands
//! in one Chrome trace. Each probe yields the per-layer metrics named after
//! its crate; all of them are emitted by every workload.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use analytic::{ElementSizes, SpmmTraffic};
use gcn::{InferenceWorkspace, RowsWorkspace};
use kernels::{pool, SpmmPlan};
use matrix::microkernel::matmul_packed_with;
use matrix::DenseMatrix;
use shard::{PartitionKind, ShardPlan, ShardedGcn};

use crate::closed::{bitwise_equal, width1_workspace};
use crate::host::{HostFacts, HostRates};
use crate::inputs::{request_targets, Inputs, SplitMix};
use crate::serve::{self, Load};
use crate::spec::{Kind, Workload, SHARD_WORKERS};
use crate::stats::{median, percentile, quiet_half_median, sorted};
use crate::trace::Tracer;
use crate::{Outcome, RunArgs};

/// Request rate of the serving probe on workloads that are not served.
const PROBE_RATE: f64 = 250.0;
/// Requests per serving probe phase, at most.
const PROBE_REQUESTS: usize = 2000;
/// Offered rates of the SLO sweep, ascending.
const SLO_RATES: [f64; 4] = [250.0, 500.0, 1000.0, 2000.0];
/// The SLO: p90 from due time at most this, nothing failed, no backlog.
const SLO_P90_MS: f64 = 100.0;
/// Queue growth over the second half of a send phase that counts as a
/// growing backlog (one full batch).
const SLO_BACKLOG: usize = 64;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `n` timings of `f`, in ms.
fn median_ms(n: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f()?;
        ms.push(ms_since(t));
    }
    Ok(median(&ms))
}

/// Tracing overhead share of an operation timed alternately traced and
/// untraced: the difference between the two at the quiet end of their
/// samples (the host's interference is many times what a span costs), over
/// the untraced time.
fn overhead_share(traced: &[f64], untraced: &[f64]) -> f64 {
    let untraced = quiet_half_median(untraced);
    (quiet_half_median(traced) - untraced) / untraced
}

/// `infer_planned_with` rebuilt from public calls in the order
/// `kernels::fused::gcn_layer_planned_into` uses, one timed stage at a time.
/// Its output must equal the opaque call's bit for bit, which is what makes
/// the stage times a decomposition of the whole.
struct Replay {
    h: DenseMatrix,
    next: DenseMatrix,
    mid: DenseMatrix,
    copy_in: Vec<f64>,
    /// Per layer, one sample per replay.
    spmm: Vec<Vec<f64>>,
    gemm: Vec<Vec<f64>>,
    bias_act: Vec<Vec<f64>>,
}

/// Per-layer times of the one-thread variants, for the scaling ratios.
#[derive(Default)]
struct OneThread {
    spmm_ms: f64,
    gemm_ms: f64,
}

impl Replay {
    fn new(layers: usize) -> Self {
        Replay {
            h: DenseMatrix::default(),
            next: DenseMatrix::default(),
            mid: DenseMatrix::default(),
            copy_in: Vec::new(),
            spmm: vec![Vec::new(); layers],
            gemm: vec![Vec::new(); layers],
            bias_act: vec![Vec::new(); layers],
        }
    }

    /// One replayed inference under a `gcn.replay` span. With `one_thread`,
    /// each layer's SpMM and GEMM are also timed on the same operands under
    /// a width-1 plan and one GEMM thread (outside the stage spans).
    fn run(
        &mut self,
        inputs: &Inputs,
        plan: &SpmmPlan,
        tracer: &mut Tracer,
        op: u64,
        mut one_thread: Option<&mut OneThread>,
    ) -> Result<(), String> {
        let a = &inputs.a_hat;
        let threads = pool::global().width();
        let kd = plan.dense_kernel();
        let mut scratch = DenseMatrix::default();
        let err = |e: matrix::MatrixError| format!("replay: {e}");
        let root = tracer.open("gcn.replay", None, op, &[]);

        let (_, t) = tracer.time("gcn.copy_in", root, op, &[], || self.h.copy_from(&inputs.x));
        self.copy_in.push(t);
        for (i, layer) in inputs.model.layers().iter().enumerate() {
            let (k_in, k_out) = (layer.in_dim(), layer.out_dim());
            let spmm_counts = [
                ("rows", a.nrows() as u64),
                ("nnz", a.nnz() as u64),
                ("k", k_in.min(k_out) as u64),
            ];
            let gemm_counts = [
                ("rows", a.nrows() as u64),
                ("k_in", k_in as u64),
                ("k_out", k_out as u64),
            ];
            let Replay { h, next, mid, .. } = self;
            // Aggregate in the narrower width, like the fused layer.
            let (spmm_in, gemm_in): (&DenseMatrix, &DenseMatrix);
            let (spmm_ms, gemm_ms);
            if k_in <= k_out {
                let (r, t) =
                    tracer.time(format!("kernels.spmm.L{i}"), root, op, &spmm_counts, || {
                        plan.run_into(a, h, mid)
                    });
                r.map_err(err)?;
                spmm_ms = t;
                let (r, t) =
                    tracer.time(format!("matrix.gemm.L{i}"), root, op, &gemm_counts, || {
                        matmul_packed_with(kd, mid, &layer.weight, threads, next)
                    });
                r.map_err(err)?;
                gemm_ms = t;
                (spmm_in, gemm_in) = (h, mid);
            } else {
                let (r, t) =
                    tracer.time(format!("matrix.gemm.L{i}"), root, op, &gemm_counts, || {
                        matmul_packed_with(kd, h, &layer.weight, threads, mid)
                    });
                r.map_err(err)?;
                gemm_ms = t;
                let (r, t) =
                    tracer.time(format!("kernels.spmm.L{i}"), root, op, &spmm_counts, || {
                        plan.run_into(a, mid, next)
                    });
                r.map_err(err)?;
                spmm_ms = t;
                (spmm_in, gemm_in) = (mid, h);
            }
            if let Some(one) = one_thread.as_deref_mut() {
                let narrow = SpmmPlan::with_width(a, spmm_in.cols(), 1);
                one.spmm_ms +=
                    median_ms(3, || narrow.run_into(a, spmm_in, &mut scratch).map_err(err))?;
                one.gemm_ms += median_ms(3, || {
                    matmul_packed_with(kd, gemm_in, &layer.weight, 1, &mut scratch).map_err(err)
                })?;
            }
            let (r, t) = tracer.time(format!("matrix.bias_act.L{i}"), root, op, &[], || {
                let biased = layer
                    .bias
                    .as_deref()
                    .map_or(Ok(()), |b| next.add_row_bias(b));
                next.apply_activation(layer.activation);
                biased
            });
            r.map_err(err)?;
            self.spmm[i].push(spmm_ms);
            self.gemm[i].push(gemm_ms);
            self.bias_act[i].push(t);
            std::mem::swap(&mut self.h, &mut self.next);
        }
        tracer.close(root);
        Ok(())
    }

    fn clear_samples(&mut self) {
        self.copy_in.clear();
        for stage in [&mut self.spmm, &mut self.gemm, &mut self.bias_act] {
            stage.iter_mut().for_each(Vec::clear);
        }
    }

    fn sum_of_medians(per_layer: &[Vec<f64>]) -> f64 {
        per_layer.iter().map(|l| median(l)).sum()
    }
}

struct Probe<'a> {
    w: &'a Workload,
    args: &'a RunArgs,
    facts: &'a HostFacts,
    rates: HostRates,
    inputs: Inputs,
    tracer: Tracer,
    out: Outcome,
    /// Traced operations per closed-loop probe.
    reps: usize,
}

impl Probe<'_> {
    fn host_and_pool(&mut self) {
        let (f, r) = (self.facts, &self.rates);
        self.out.push("host.cores", f.cores as f64, 1);
        self.out.push("host.llc_mib", (f.llc_bytes >> 20) as f64, 1);
        self.out
            .push("host.copy_array_mib", (r.copy_array_bytes >> 20) as f64, 1);
        self.out.push("host.copy_gbps", r.copy_gbps, 3);
        self.out
            .push("host.gemm_peak_gflops", r.gemm_peak_gflops, 8);
        self.out
            .push("host.gemm_peak_gflops_pool", r.gemm_peak_gflops_pool, 8);

        let pool = pool::global();
        let width = pool.width();
        let us: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                pool.broadcast(width, width, |i| {
                    black_box(i);
                });
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        self.out.push("pool.width", width as f64, 1);
        self.out.push("pool.broadcast_us", median(&us), us.len());

        self.out
            .push("graph.materialize_s", self.inputs.materialize_s, 1);
        self.out
            .push("sparse.normalize_s", self.inputs.normalize_s, 1);
        self.out
            .push("sparse.nnz", self.inputs.a_hat.nnz() as f64, 1);
    }

    /// Whole-graph planned inference, opaque and replayed: `kernels.*`,
    /// `matrix.*` and `gcn.{infer,copy_in,glue}*`. Returns the tracing
    /// overhead share of the opaque call.
    fn full_graph(&mut self) -> Result<f64, String> {
        let inputs = &self.inputs;
        let (a, x, model) = (&inputs.a_hat, &inputs.x, &inputs.model);
        let n_layers = model.layers().len();
        let infer_err = |e: gcn::GcnError| format!("infer_planned_with: {e}");

        let t = Instant::now();
        let plan = SpmmPlan::new(a, x.cols());
        let plan_build_ms = ms_since(t);
        let mut ws = InferenceWorkspace::new();
        ws.install_plan(plan.clone());
        let mut replay = Replay::new(n_layers);
        let mut off = Tracer::new(false);
        for _ in 0..2 {
            model.infer_planned_with(a, x, &mut ws).map_err(infer_err)?;
            replay.run(inputs, &plan, &mut off, 0, None)?;
        }
        replay.clear_samples();

        // Each operation is a replay, then the opaque call twice: once
        // traced, once not, swapping which goes first, so that drift and
        // what the previous call left in cache hit both alike.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let counts = [("rows", a.nrows() as u64), ("nnz", a.nnz() as u64)];
        for op in 0..self.reps as u64 {
            replay.run(inputs, &plan, &mut self.tracer, op, None)?;
            for traced_call in [op % 2 == 0, op % 2 != 0] {
                if traced_call {
                    let (r, t) = self.tracer.time("gcn.infer", None, op, &counts, || {
                        model.infer_planned_with(a, x, &mut ws).map(|_| ())
                    });
                    r.map_err(infer_err)?;
                    traced.push(t);
                } else {
                    let t = Instant::now();
                    model.infer_planned_with(a, x, &mut ws).map_err(infer_err)?;
                    untraced.push(ms_since(t));
                }
            }
            self.out.attempted += 1;
            if !bitwise_equal(&replay.h, ws.output()) {
                eprintln!(
                    "gcnbench: {}: replay {op} differs from infer_planned_with",
                    self.w.name
                );
                self.out.failed += 1;
            }
        }
        let mut one = OneThread::default();
        Replay::new(n_layers).run(inputs, &plan, &mut off, 0, Some(&mut one))?;

        let n = self.reps;
        let infer_ms = median(&traced);
        let spmm_ms = Replay::sum_of_medians(&replay.spmm);
        let gemm_ms = Replay::sum_of_medians(&replay.gemm);
        let bias_act_ms = Replay::sum_of_medians(&replay.bias_act);
        let copy_in_ms = median(&replay.copy_in);
        let glue_ms = infer_ms - (spmm_ms + gemm_ms + bias_act_ms + copy_in_ms);

        // Eq. 1-4 bytes (computed, not measured) and the GEMM FLOPs.
        let (mut bytes, mut flops) = (0.0, 0.0);
        for layer in model.layers() {
            let (k_in, k_out) = (layer.in_dim(), layer.out_dim());
            bytes +=
                SpmmTraffic::compute(a.nrows(), a.nnz(), k_in.min(k_out), ElementSizes::default())
                    .total_bytes();
            flops += 2.0 * (a.nrows() * k_in * k_out) as f64;
        }
        let spmm_gbps = bytes / (spmm_ms / 1e3) / 1e9;
        let gemm_gflops = flops / (gemm_ms / 1e3) / 1e9;
        let width = self.facts.pool_width as f64;

        let o = &mut self.out;
        o.push("kernels.plan_build_ms", plan_build_ms, 1);
        o.push("kernels.spmm_ms", spmm_ms, n);
        o.push("kernels.spmm_share", spmm_ms / infer_ms, n);
        o.push("kernels.spmm_bytes", bytes, 1);
        o.push("kernels.spmm_gbps", spmm_gbps, n);
        // Eq. 5 at the measured copy bandwidth, over the measured time.
        o.push(
            "kernels.spmm_fraction_of_bound",
            spmm_gbps / self.rates.copy_gbps,
            n,
        );
        o.push("kernels.spmm_scaling", one.spmm_ms / spmm_ms, 3);
        o.push("matrix.gemm_ms", gemm_ms, n);
        o.push("matrix.gemm_share", gemm_ms / infer_ms, n);
        o.push("matrix.gemm_gflops", gemm_gflops, n);
        o.push(
            "matrix.gemm_fraction_of_peak",
            gemm_gflops / (self.rates.gemm_peak_gflops * width),
            n,
        );
        o.push("matrix.gemm_scaling", one.gemm_ms / gemm_ms, 3);
        o.push("matrix.bias_act_ms", bias_act_ms, n);
        o.push("gcn.infer_ms", infer_ms, n);
        o.push("gcn.copy_in_ms", copy_in_ms, n);
        o.push("gcn.glue_ms", glue_ms, n);
        o.push("gcn.glue_share", glue_ms / infer_ms, n);
        Ok(overhead_share(&traced, &untraced))
    }

    /// The targets of a gathered batch of `rows` output rows, drawn request
    /// by request like the workload's own requests.
    fn batch_targets(&self, pick: &mut SplitMix, rows: usize) -> Vec<usize> {
        let per_request = match self.w.kind {
            Kind::Serve { targets, .. } => targets,
            _ => 1,
        };
        let mut batch = Vec::with_capacity(rows + per_request);
        while batch.len() < rows {
            batch.extend(request_targets(pick, &self.inputs.a_hat, per_request));
        }
        batch.truncate(rows);
        batch
    }

    /// Direct `infer_rows_planned_into` at 1 / 16 / 64 target rows:
    /// `gcn.rows_*`. `full_ms` is the width-1 whole-graph inference time.
    fn rows(&mut self, full_ms: f64) -> Result<(), String> {
        let draws = if self.args.smoke { 2 } else { 5 };
        let mut pick = SplitMix::new(self.args.seed, "rows-probe");
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        let n_vertices = self.inputs.vertices();
        let (mut calls, mut full_graph_calls) = (0usize, 0usize);
        let mut first_b16 = None;
        let mut gathered_b64 = Vec::new();
        let mut ms_by_size = Vec::new();
        for rows in [1usize, 16, 64] {
            let mut ms = Vec::with_capacity(draws);
            for draw in 0..=draws {
                let targets = self.batch_targets(&mut pick, rows);
                let start = Instant::now();
                let stats = self
                    .inputs
                    .model
                    .infer_rows_planned_into(
                        &self.inputs.a_hat,
                        &self.inputs.x,
                        &targets,
                        &mut ws,
                        &mut out,
                    )
                    .map_err(|e| format!("infer_rows_planned_into: {e}"))?;
                let end = Instant::now();
                if draw == 0 {
                    // The first call at a size grows the workspace.
                    continue;
                }
                let gathered = if stats.full_graph {
                    n_vertices
                } else {
                    stats.gathered
                };
                self.tracer.record(
                    format!("gcn.rows.b{rows}"),
                    None,
                    draw as u64,
                    start,
                    end,
                    &[
                        ("rows", rows as u64),
                        ("gathered", gathered as u64),
                        ("sub_nnz", stats.sub_nnz as u64),
                        ("full_graph", u64::from(stats.full_graph)),
                    ],
                );
                ms.push((end - start).as_secs_f64() * 1e3);
                calls += 1;
                full_graph_calls += usize::from(stats.full_graph);
                if rows == 16 && first_b16.is_none() {
                    first_b16 = Some((gathered, stats.sub_nnz));
                }
                if rows == 64 {
                    gathered_b64.push(gathered as f64);
                }
            }
            ms_by_size.push(median(&ms));
        }
        let (gathered_b16, sub_nnz_b16) = first_b16.expect("the 16-row size was probed");
        let o = &mut self.out;
        o.push("gcn.rows_ms_b1", ms_by_size[0], draws);
        o.push("gcn.rows_ms_b16", ms_by_size[1], draws);
        o.push("gcn.rows_ms_b64", ms_by_size[2], draws);
        o.push("gcn.rows_gathered_b16", gathered_b16 as f64, 1);
        o.push("gcn.rows_sub_nnz_b16", sub_nnz_b16 as f64, 1);
        o.push(
            "gcn.rows_full_graph_share",
            full_graph_calls as f64 / calls as f64,
            calls,
        );
        o.push(
            "gcn.rows_us_per_gathered",
            ms_by_size[2] * 1e3 / median(&gathered_b64),
            draws,
        );
        o.push("gcn.rows_vs_full_ratio", ms_by_size[2] / full_ms, draws);
        Ok(())
    }

    /// `ShardPlan::new`, `ShardedGcn` at one shard and at four: `shard.*`.
    /// `reference` is the width-1 whole-graph output, `full_ms` its time.
    /// Returns the tracing overhead share of the four-shard call.
    fn shard(&mut self, reference: &DenseMatrix, full_ms: f64) -> Result<f64, String> {
        let (a, x, model) = (&self.inputs.a_hat, &self.inputs.x, &self.inputs.model);
        let shard_err = |e: shard::ShardError| format!("shard: {e}");
        let t = Instant::now();
        let plan = ShardPlan::new(a, SHARD_WORKERS, PartitionKind::Rows1D).map_err(shard_err)?;
        let plan_build_ms = ms_since(t);
        drop(plan);

        let mut one = ShardedGcn::new(a, 1, PartitionKind::Rows1D).map_err(shard_err)?;
        one.infer(model, x).map_err(shard_err)?;
        let n1_ms = median_ms(3, || one.infer(model, x).map(|_| ()).map_err(shard_err))?;
        drop(one);

        let mut four =
            ShardedGcn::new(a, SHARD_WORKERS, PartitionKind::Rows1D).map_err(shard_err)?;
        four.infer(model, x).map_err(shard_err)?;
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let counts = [("rows", a.nrows() as u64), ("nnz", a.nnz() as u64)];
        let mut last = DenseMatrix::default();
        for op in 0..(self.reps as u64).div_ceil(2) {
            for traced_call in [op % 2 == 0, op % 2 != 0] {
                if traced_call {
                    let (r, t) = self
                        .tracer
                        .time("shard.infer", None, op, &counts, || four.infer(model, x));
                    last = r.map_err(shard_err)?;
                    traced.push(t);
                } else {
                    let t = Instant::now();
                    four.infer(model, x).map_err(shard_err)?;
                    untraced.push(ms_since(t));
                }
            }
        }
        let report = four.report(model);
        // Bitwise identity with the width-1 plan is the contract the
        // `sharded` workload's widths are inside, so only there is a
        // difference a failure; elsewhere it is reported (README,
        // observations).
        let identical = bitwise_equal(&last, reference);
        if self.w.kind == Kind::Sharded {
            self.out.attempted += 1;
            self.out.failed += u64::from(!identical);
        }
        if !identical {
            eprintln!(
                "gcnbench: {}: {SHARD_WORKERS}-shard output differs from the width-1 plan",
                self.w.name
            );
        }
        if report.replayed_tasks + report.recovered_exchanges > 0 {
            eprintln!(
                "gcnbench: {}: fault-free sharded run replayed work",
                self.w.name
            );
            self.out.failed += 1;
        }

        let n4_ms = median(&traced);
        let n = traced.len();
        let o = &mut self.out;
        o.push("shard.plan_build_ms", plan_build_ms, 1);
        o.push("shard.infer_ms_n1", n1_ms, 3);
        o.push("shard.overhead_ratio_n1", n1_ms / full_ms, 3);
        o.push("shard.speedup_n4", full_ms / n4_ms, n);
        o.push("shard.staged_bytes", report.staged_bytes as f64, 1);
        o.push("shard.halo_bytes", report.halo_bytes as f64, 1);
        o.push("shard.halo_fraction", report.halo_fraction, 1);
        o.push("shard.imbalance", report.imbalance, 1);
        // Every staged byte is read once and written once.
        o.push(
            "shard.copy_bound_ms",
            2.0 * report.staged_bytes as f64 / (self.rates.copy_gbps * 1e9) * 1e3,
            1,
        );
        o.push("shard.replayed_tasks", report.replayed_tasks as f64, 1);
        o.push(
            "shard.recovered_exchanges",
            report.recovered_exchanges as f64,
            1,
        );
        Ok(overhead_share(&traced, &untraced))
    }

    /// One traced steady phase through the service, then the SLO rate
    /// sweep: `serving.*`. A request's spans are synthesised from its
    /// response after it resolves, so tracing adds nothing in flight;
    /// what is returned as its overhead share is the time spent recording
    /// a request's spans over the median request latency.
    fn serving(&mut self) -> Result<f64, String> {
        let (targets, rate) = match self.w.kind {
            Kind::Serve { targets, rate, .. } => (targets, rate),
            _ => (1, PROBE_RATE),
        };
        let window_s = self.args.seconds / 10.0;
        let floor = if self.args.smoke { 20 } else { 100 };
        let requests = |rate: f64| ((rate * window_s) as usize).clamp(floor, PROBE_REQUESTS);

        let svc = serve::start(&self.inputs)?;
        let load = Load {
            workload: self.w.name,
            svc: &svc,
            inputs: &self.inputs,
            targets,
            seed: self.args.seed,
        };
        let before = svc.metrics();
        let recording_before = self.tracer.recording_s();
        let phase = load.steady(rate, requests(rate), &mut self.tracer);
        let recording_s = self.tracer.recording_s() - recording_before;
        let after = svc.metrics();

        let mut slo_rate = 0.0;
        for offered in SLO_RATES {
            let sweep = load.steady(offered, requests(offered), &mut Tracer::new(false));
            let p90 = percentile(&sorted(sweep.latency_ms), 90.0);
            let met = sweep.failed == 0
                && p90 <= SLO_P90_MS
                && sweep.depth_end <= sweep.depth_half + SLO_BACKLOG;
            eprintln!(
                "gcnbench: {}: slo sweep at {offered} req/s: p90 {p90:.1} ms, {} of {} ok, queue {} -> {}, {}",
                self.w.name,
                sweep.attempted - sweep.failed,
                sweep.attempted,
                sweep.depth_half,
                sweep.depth_end,
                if met { "met" } else { "missed" }
            );
            if !met {
                break;
            }
            slo_rate = offered;
        }
        svc.shutdown();

        let wrong = serve::verify(&self.inputs, &[&phase])?;
        if wrong > 0 {
            eprintln!(
                "gcnbench: {}: {wrong} checked responses differ",
                self.w.name
            );
        }
        self.out.attempted += phase.attempted;
        self.out.failed += phase.failed + wrong;
        let n = phase.latency_ms.len();
        if n == 0 {
            return Err(format!(
                "{}: the serving probe completed no request",
                self.w.name
            ));
        }

        let batches = after.batches - before.batches;
        let latency = sorted(phase.latency_ms);
        let queued = sorted(phase.queued_ms);
        let service = sorted(phase.service_ms);
        let late = sorted(phase.late_ms);
        let o = &mut self.out;
        o.push("serving.queue_ms_p50", percentile(&queued, 50.0), n);
        o.push("serving.queue_ms_p90", percentile(&queued, 90.0), n);
        o.push("serving.service_ms_p50", percentile(&service, 50.0), n);
        o.push(
            "serving.batch_size_mean",
            phase.batch_sizes.iter().sum::<f64>() / n as f64,
            n,
        );
        o.push(
            "serving.batch_rows_mean",
            (after.batched_rows - before.batched_rows) as f64 / batches.max(1) as f64,
            batches as usize,
        );
        o.push("serving.batches", batches as f64, 1);
        o.push("serving.latency_ms_p99", percentile(&latency, 99.0), n);
        o.push("serving.slo_rate_rps", slo_rate, SLO_RATES.len());
        // Counted before the sweep: overload there is the point of it.
        o.push("serving.shed_total", after.shed as f64, 1);
        o.push("serving.failovers", after.failovers as f64, 1);
        o.push("serving.brownout_batches", after.brownout_batches as f64, 1);
        o.push("serving.gen_late_ms_p99", percentile(&late, 99.0), n);
        o.push("serving.gen_late_ms_max", late[late.len() - 1], n);
        Ok(recording_s * 1e3 / n as f64 / percentile(&latency, 50.0))
    }
}

/// Where run outputs go: `$CARGO_TARGET_DIR/gcnbench` or `target/gcnbench`.
fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("gcnbench")
}

/// The traced pass of one workload.
pub fn run(
    w: &Workload,
    args: &RunArgs,
    facts: &HostFacts,
    rates: HostRates,
) -> Result<Outcome, String> {
    let mut probe = Probe {
        w,
        args,
        facts,
        rates,
        inputs: Inputs::build(w, args.seed, args.smoke)?,
        tracer: Tracer::new(true),
        out: Outcome::new(0, 0),
        reps: if args.smoke { 2 } else { 20 },
    };
    probe.host_and_pool();
    let full_overhead = probe.full_graph()?;
    // The pinned width-1 plan is the reference of the sharded and rows
    // contracts, and its time the base of their ratios.
    let (reference, full_ms) = {
        let inputs = &probe.inputs;
        let mut ws = width1_workspace(inputs);
        let mut call = || {
            inputs
                .model
                .infer_planned_with(&inputs.a_hat, &inputs.x, &mut ws)
                .map(|_| ())
                .map_err(|e| format!("width-1 infer_planned_with: {e}"))
        };
        call()?;
        let ms = median_ms(3, call)?;
        (ws.output().clone(), ms)
    };
    probe.rows(full_ms)?;
    let shard_overhead = probe.shard(&reference, full_ms)?;
    let serve_overhead = probe.serving()?;
    let overhead = match w.kind {
        Kind::Full => full_overhead,
        Kind::Sharded => shard_overhead,
        Kind::Serve { .. } => serve_overhead,
    };
    probe.out.push("trace.overhead_share", overhead, probe.reps);

    let dir = output_dir();
    let path = dir.join(format!("{}.trace.json", w.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, probe.tracer.to_chrome_json(w.name)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "gcnbench: {}: {} spans in {}",
        w.name,
        probe.tracer.spans().len(),
        path.display()
    );
    Ok(probe.out)
}
