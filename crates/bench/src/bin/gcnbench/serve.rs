//! The served workloads: requests through `GcnService::planned` on one lane.
//!
//! *Steady* is an open loop — Poisson due times fixed up front, each request
//! timed from when it was due, not from when it was sent — and gives the
//! latency metrics. *Saturate* is a closed loop that keeps a fixed number of
//! requests outstanding and gives throughput without shedding.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use gcn::RowsWorkspace;
use matrix::DenseMatrix;
use serving::{GcnService, Rejection, Request, Response, ResponseHandle, ServedBy, ServiceConfig};

use crate::closed::bits_equal;
use crate::inputs::{pace_until, poisson_schedule, request_targets, Inputs, SplitMix};
use crate::spec::{Kind, Workload};
use crate::stats::{percentile, quiet, quiet_half_median, sorted, windows};
use crate::trace::Tracer;
use crate::{Outcome, RunArgs};

/// Per-request latency budget the service sheds at.
pub const LATENCY_BUDGET: Duration = Duration::from_secs(2);
/// A request unresolved this long after its budget counts as failed.
const RESOLVE_GRACE: Duration = Duration::from_secs(2);
/// Every n-th response's rows are recomputed directly and compared bitwise.
const CHECK_EVERY: usize = 64;
/// Sleep between polls of an unresolved handle.
const POLL: Duration = Duration::from_micros(100);

/// One lane plus the generator thread equals the two cores of the sizing
/// host; nothing is expected to be refused at this queue depth.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        lanes: 1,
        latency_budget: LATENCY_BUDGET,
        queue_limit: 1024,
        ..ServiceConfig::single_tenant()
    }
}

/// Output rows of the wide warm-up request.
const WARMUP_ROWS: usize = 2048;

/// Starts the service on clones of the inputs and waits for two warm-up
/// requests: one vertex, and one wide subgraph whose gathered
/// neighbourhood is larger than any measured batch's, so that every lazily
/// grown buffer is at its high-water mark before anything is timed (and
/// peak RSS does not depend on the order batches happen to arrive in).
pub fn start(inputs: &Inputs) -> Result<GcnService, String> {
    let svc = GcnService::planned(
        inputs.model.clone(),
        inputs.a_hat.clone(),
        inputs.x.clone(),
        service_config(),
    )
    .map_err(|e| format!("starting the service: {e:?}"))?;
    let n = inputs.vertices();
    let wide: Vec<usize> = (0..WARMUP_ROWS.min(n))
        .map(|i| i * n / WARMUP_ROWS.min(n))
        .collect();
    for warmup in [Request::vertex(0, 0), Request::subgraph(0, wide)] {
        svc.submit(warmup)
            .map_err(|e| format!("warm-up request refused: {e}"))?
            .wait()
            .map_err(|e| format!("warm-up request failed: {e}"))?;
    }
    Ok(svc)
}

/// What one phase measured. Failed requests have no latency sample; they
/// are counted against the attempts.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// Due time (steady) or submit time (saturate) to completion.
    pub latency_ms: Vec<f64>,
    /// Seconds into the phase each of those requests was due (steady) or
    /// submitted (saturate).
    due_s: Vec<f64>,
    pub queued_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub batch_sizes: Vec<f64>,
    /// How late after its due time each request was submitted.
    pub late_ms: Vec<f64>,
    /// First submit to last completion.
    pub wall_s: f64,
    /// Queue depth half-way through and at the end of the send phase.
    pub depth_half: usize,
    pub depth_end: usize,
    /// Every [`CHECK_EVERY`]-th response, for the output check.
    kept: Vec<(Vec<usize>, DenseMatrix)>,
}

impl Phase {
    fn refuse(&mut self, workload: &str, why: &Rejection) {
        if self.failed == 0 {
            eprintln!("gcnbench: {workload}: request failed: {why}");
        }
        self.failed += 1;
    }

    /// The latencies and seconds of the phase's quiet windows. An open
    /// loop's requests belong to the window they were due in, a closed
    /// loop's to the one they completed in (so a window's length over its
    /// requests is the rate they completed at).
    fn quiet(&self, by_completion: bool) -> (Vec<f64>, f64) {
        let mut events: Vec<(f64, f64)> = self
            .due_s
            .iter()
            .zip(&self.latency_ms)
            .map(|(&due, &ms)| (due + if by_completion { ms / 1e3 } else { 0.0 }, ms))
            .collect();
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        quiet(windows(events))
    }

    /// Accounts one resolved request that was due `due` into the phase and
    /// sent `late` after that.
    fn settle(
        &mut self,
        workload: &str,
        targets: Vec<usize>,
        due: Duration,
        late: Duration,
        outcome: Option<Result<Response, Rejection>>,
    ) -> Option<(Duration, Duration, usize)> {
        match outcome {
            None => {
                if self.failed == 0 {
                    eprintln!("gcnbench: {workload}: request unresolved past its budget");
                }
                self.failed += 1;
                None
            }
            Some(Err(why)) => {
                self.refuse(workload, &why);
                None
            }
            Some(Ok(r)) if r.degraded.is_some() || r.served_by != ServedBy::Planned => {
                if self.failed == 0 {
                    eprintln!("gcnbench: {workload}: response degraded or failed over");
                }
                self.failed += 1;
                None
            }
            Some(Ok(r)) => {
                self.latency_ms.push((late + r.total).as_secs_f64() * 1e3);
                self.due_s.push(due.as_secs_f64());
                self.queued_ms.push(r.queued.as_secs_f64() * 1e3);
                self.service_ms
                    .push(r.total.saturating_sub(r.queued).as_secs_f64() * 1e3);
                self.batch_sizes.push(r.batch_size as f64);
                self.late_ms.push(late.as_secs_f64() * 1e3);
                if self.latency_ms.len().is_multiple_of(CHECK_EVERY) {
                    self.kept.push((targets, r.rows));
                }
                Some((r.queued, r.total, r.batch_size))
            }
        }
    }
}

/// A one-target request is the service's single-vertex kind.
fn request(rows: &[usize]) -> Request {
    match rows {
        [v] => Request::vertex(0, *v),
        _ => Request::subgraph(0, rows.to_vec()),
    }
}

/// Polls until the handle resolves or `deadline` passes.
fn resolve(handle: &ResponseHandle, deadline: Instant) -> Option<Result<Response, Rejection>> {
    loop {
        if let Some(outcome) = handle.try_take() {
            return Some(outcome);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(POLL);
    }
}

/// One stream of requests against a running service.
pub struct Load<'a> {
    pub workload: &'a str,
    pub svc: &'a GcnService,
    pub inputs: &'a Inputs,
    /// Output rows per request.
    pub targets: usize,
    pub seed: u64,
}

impl Load<'_> {
    /// Open loop: submits `n` requests at Poisson due times of `rate` per
    /// second, then collects them. With an enabled tracer every request
    /// gets a `serving.request` span (due to completion) with
    /// `serving.submit`, `serving.queue` and `serving.service` children,
    /// the last two synthesised from the response's own timings.
    pub fn steady(&self, rate: f64, n: usize, tracer: &mut Tracer) -> Phase {
        let schedule = poisson_schedule(&mut SplitMix::new(self.seed, "arrivals"), rate, n);
        let mut pick = SplitMix::new(self.seed, "targets");
        let mut phase = Phase::default();
        let mut sent = Vec::with_capacity(n);
        let start = Instant::now();
        for (i, offset) in schedule.iter().enumerate() {
            let rows = request_targets(&mut pick, &self.inputs.a_hat, self.targets);
            let due = start + *offset;
            pace_until(due);
            let submit = Instant::now();
            let handle = self.svc.submit(request(&rows));
            sent.push((due, submit, Instant::now(), rows, handle));
            if i + 1 == n / 2 {
                phase.depth_half = self.svc.queue_depth();
            }
        }
        phase.depth_end = self.svc.queue_depth();
        for (op, (due, submit, submitted, rows, handle)) in sent.into_iter().enumerate() {
            phase.attempted += 1;
            let n_rows = rows.len() as u64;
            let handle = match handle {
                Ok(h) => h,
                Err(why) => {
                    phase.refuse(self.workload, &why);
                    continue;
                }
            };
            let outcome = resolve(&handle, due + LATENCY_BUDGET + RESOLVE_GRACE);
            let late = submit.saturating_duration_since(due);
            let Some((queued, total, batch)) =
                phase.settle(self.workload, rows, due - start, late, outcome)
            else {
                continue;
            };
            let op = op as u64;
            let counts = [("rows", n_rows), ("batch_size", batch as u64)];
            let root = tracer.record("serving.request", None, op, due, submit + total, &counts);
            tracer.record("serving.submit", root, op, submit, submitted, &[]);
            tracer.record("serving.queue", root, op, submit, submit + queued, &[]);
            tracer.record(
                "serving.service",
                root,
                op,
                submit + queued,
                submit + total,
                &counts,
            );
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        phase
    }

    /// Closed loop: keeps `outstanding` requests in flight for `duration`
    /// (and until at least `outstanding` were sent), then drains.
    pub fn saturate(&self, outstanding: usize, duration: Duration) -> Phase {
        let mut pick = SplitMix::new(self.seed, "saturate-targets");
        let mut phase = Phase::default();
        let mut inflight = VecDeque::with_capacity(outstanding);
        let start = Instant::now();
        loop {
            while inflight.len() < outstanding
                && (start.elapsed() < duration || phase.attempted < outstanding as u64)
            {
                let rows = request_targets(&mut pick, &self.inputs.a_hat, self.targets);
                phase.attempted += 1;
                let submit = Instant::now();
                match self.svc.submit(request(&rows)) {
                    Ok(handle) => inflight.push_back((submit, rows, handle)),
                    Err(why) => phase.refuse(self.workload, &why),
                }
            }
            let Some((submit, rows, handle)) = inflight.pop_front() else {
                break;
            };
            let outcome = resolve(&handle, submit + LATENCY_BUDGET + RESOLVE_GRACE);
            phase.settle(self.workload, rows, submit - start, Duration::ZERO, outcome);
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        phase
    }
}

/// Recomputes every kept response's rows with one direct
/// `infer_rows_planned_into` call (coalescing never changes a bit, so one
/// call checks them all) and returns how many responses disagree.
pub fn verify(inputs: &Inputs, phases: &[&Phase]) -> Result<u64, String> {
    let kept: Vec<&(Vec<usize>, DenseMatrix)> = phases.iter().flat_map(|p| &p.kept).collect();
    let all: Vec<usize> = kept.iter().flat_map(|(t, _)| t.iter().copied()).collect();
    let mut want = DenseMatrix::default();
    inputs
        .model
        .infer_rows_planned_into(
            &inputs.a_hat,
            &inputs.x,
            &all,
            &mut RowsWorkspace::new(),
            &mut want,
        )
        .map_err(|e| format!("direct infer_rows_planned_into: {e}"))?;
    let mut row = 0;
    let mut wrong = 0;
    for (targets, got) in kept {
        let same = got.rows() == targets.len()
            && (0..targets.len()).all(|i| bits_equal(got.row(i), want.row(row + i)));
        wrong += u64::from(!same);
        row += targets.len();
    }
    Ok(wrong)
}

/// The untraced pass: repeated set-up, steady phase, saturate phase, check.
pub fn run(w: &Workload, args: &RunArgs) -> Result<Outcome, String> {
    let Kind::Serve {
        targets,
        rate,
        outstanding,
    } = w.kind
    else {
        return Err(format!("{} is not a served workload", w.name));
    };
    let mut setup_s = Vec::new();
    let mut state: Option<(Inputs, GcnService)> = None;
    for _ in 0..args.setup_repeats() {
        if let Some((_, svc)) = state.take() {
            svc.shutdown();
        }
        let t = Instant::now();
        let inputs = Inputs::build(w, args.seed, args.smoke)?;
        let svc = start(&inputs)?;
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some((inputs, svc));
    }
    let (inputs, svc) = state.expect("at least one set-up ran");

    let half = args.seconds / 2.0;
    let n_steady = ((rate * half) as usize).max(if args.smoke { 20 } else { 100 });
    let load = Load {
        workload: w.name,
        svc: &svc,
        inputs: &inputs,
        targets,
        seed: args.seed,
    };
    let steady = load.steady(rate, n_steady, &mut Tracer::new(false));
    let saturate = load.saturate(outstanding, Duration::from_secs_f64(half));
    let metrics = svc.shutdown();
    let mut failed = steady.failed + saturate.failed;
    if metrics.shed + metrics.failovers + metrics.brownout_batches > 0 {
        eprintln!(
            "gcnbench: {}: service shed {} / failed over {} / browned out {}",
            w.name, metrics.shed, metrics.failovers, metrics.brownout_batches
        );
    }
    let wrong = verify(&inputs, &[&steady, &saturate])?;
    if wrong > 0 {
        eprintln!("gcnbench: {}: {wrong} checked responses differ", w.name);
    }
    failed += wrong;
    if steady.latency_ms.is_empty() || saturate.latency_ms.is_empty() {
        return Err(format!("{}: a phase completed no request", w.name));
    }

    let late = sorted(steady.late_ms.clone());
    eprintln!(
        "gcnbench: {}: generator ran late by p50 {:.3} / p99 {:.3} / max {:.3} ms",
        w.name,
        percentile(&late, 50.0),
        percentile(&late, 99.0),
        late[late.len() - 1]
    );
    let (lat, _) = steady.quiet(false);
    let (completed, completed_s) = saturate.quiet(true);
    eprintln!(
        "gcnbench: {}: {} of {} steady and {} of {} saturate requests in quiet windows; over all of them p50 {:.3} ms, {:.3} ops/s",
        w.name,
        lat.len(),
        steady.latency_ms.len(),
        completed.len(),
        saturate.latency_ms.len(),
        percentile(&sorted(steady.latency_ms), 50.0),
        saturate.latency_ms.len() as f64 / saturate.wall_s
    );
    let mut out = Outcome::new(steady.attempted + saturate.attempted, failed);
    out.push("setup_s", quiet_half_median(&setup_s), setup_s.len());
    out.push("latency_ms_p50", percentile(&lat, 50.0), lat.len());
    out.push("latency_ms_p90", percentile(&lat, 90.0), lat.len());
    out.push(
        "throughput_ops_s",
        completed.len() as f64 / completed_s,
        completed.len(),
    );
    Ok(out)
}
