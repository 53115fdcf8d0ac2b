//! Seeded chaos soak harness: kill/heal schedules over the fault points.
//!
//! A soak run drives a live [`GcnService`] through an alternating
//! schedule of **clean** and **faulted** phases. Each [`FaultWindow`]
//! arms one fault-point prefix (e.g. `shard.task` panics at 5%) for a
//! fixed duration, then heals (disarms) and lets the service recover
//! through a clean cooldown. Throughout, the harness submits a steady
//! paced stream of single-vertex requests and reaps every handle,
//! classifying each outcome:
//!
//! * **ok-bitwise** — a full-precision response whose row equals the
//!   reference output bit for bit (the recovery contract);
//! * **degraded** — a browned-out response (typed
//!   [`crate::request::Brownout`] annotation; not bitwise-comparable);
//! * **mismatched** — a full-precision response that differs from the
//!   reference (a recovery-soundness bug: the soak gate is zero);
//! * **shed** — a typed [`Rejection`], counted by cause;
//! * **hung** — a handle that never resolved within the drain budget
//!   (a liveness bug: the soak gate is zero).
//!
//! The per-window [`WindowReport`] additionally measures **recovery
//! latency** (heal → first ok response submitted after the heal),
//! **goodput dip** depth/duration during the fault, and post-recovery
//! goodput — the numbers `results/BENCH_recovery.json` is built from.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use matrix::DenseMatrix;
use resilience::fault::{self, FaultConfig, FaultKind};

use crate::request::{Rejection, Response, ResponseHandle};
use crate::service::GcnService;

/// One armed fault phase in a soak schedule.
#[derive(Debug, Clone)]
pub struct FaultWindow {
    /// Human label for reports (e.g. `"kill shard.task"`).
    pub label: String,
    /// Fault-point prefix to arm (e.g. `shard.task`, `shard.exchange`,
    /// `serving.batch`).
    pub site: String,
    /// Failure mode injected at matched sites.
    pub kind: FaultKind,
    /// Per-visit firing probability while the window is armed.
    pub rate: f64,
    /// How long the window stays armed before healing.
    pub duration: Duration,
}

impl FaultWindow {
    /// A window of `duration` injecting `kind` at `rate` on sites
    /// prefixed by `site`.
    pub fn new(site: &str, kind: FaultKind, rate: f64, duration: Duration) -> Self {
        FaultWindow {
            label: format!("{kind:?} {site} @{rate}"),
            site: site.to_string(),
            kind,
            rate,
            duration,
        }
    }
}

/// Tunables for one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Seed for the deterministic fault-firing decisions.
    pub seed: u64,
    /// Gap between request submissions (the offered-load pacing).
    pub pacing: Duration,
    /// Clean phase before the first window — establishes the pre-fault
    /// steady-state goodput baseline.
    pub warmup: Duration,
    /// Clean phase after each window — the recovery measurement span.
    pub cooldown: Duration,
    /// The kill/heal schedule, run in order.
    pub windows: Vec<FaultWindow>,
    /// Goodput bucketing interval for dip depth/duration.
    pub bucket: Duration,
    /// How long to wait for outstanding handles after the schedule ends
    /// before declaring them hung.
    pub drain: Duration,
}

impl SoakConfig {
    /// A fast schedule suitable for tests: sub-second phases, 50 ms
    /// goodput buckets, and no windows (add them with
    /// [`SoakConfig::window`]).
    pub fn quick(seed: u64) -> Self {
        SoakConfig {
            seed,
            pacing: Duration::from_micros(300),
            warmup: Duration::from_millis(200),
            cooldown: Duration::from_millis(300),
            windows: Vec::new(),
            bucket: Duration::from_millis(50),
            drain: Duration::from_secs(10),
        }
    }

    /// Append a fault window to the schedule.
    pub fn window(mut self, site: &str, kind: FaultKind, rate: f64, duration: Duration) -> Self {
        self.windows
            .push(FaultWindow::new(site, kind, rate, duration));
        self
    }
}

/// Outcome tallies for one scope (a window, or the whole run).
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Requests submitted in the scope.
    pub submitted: u64,
    /// Full-precision responses bitwise-equal to the reference.
    pub ok_bitwise: u64,
    /// Browned-out responses (typed degradation, not compared bitwise).
    pub degraded: u64,
    /// Full-precision responses that differ from the reference.
    pub mismatched: u64,
    /// Handles unresolved at the end of the drain budget.
    pub hung: u64,
    /// Typed rejections by cause name.
    pub shed: BTreeMap<String, u64>,
}

impl Tally {
    fn absorb_ok(&mut self, bitwise: bool, degraded: bool) {
        if degraded {
            self.degraded += 1;
        } else if bitwise {
            self.ok_bitwise += 1;
        } else {
            self.mismatched += 1;
        }
    }

    fn absorb_shed(&mut self, r: &Rejection) {
        *self.shed.entry(shed_cause(r).to_string()).or_insert(0) += 1;
    }

    /// Total typed sheds across causes.
    pub fn shed_total(&self) -> u64 {
        self.shed.values().sum()
    }
}

/// Measurements for one fault window plus its recovery cooldown.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// The window that was armed.
    pub window: FaultWindow,
    /// Outcomes for requests submitted while the window was armed or
    /// recovering (window + its cooldown).
    pub tally: Tally,
    /// Heal → first ok (bitwise or degraded) response that was submitted
    /// after the heal. `None` when no post-heal request succeeded.
    pub recovery_latency: Option<Duration>,
    /// Worst goodput dip during the window relative to the pre-fault
    /// steady state, in `[0, 1]` (0 = no dip, 1 = full outage).
    pub dip_depth: f64,
    /// Total time (in buckets) goodput sat below 90% of steady state
    /// during the window span.
    pub dip_duration: Duration,
    /// Goodput over the second half of the cooldown (responses/s) — the
    /// post-recovery figure gated against the steady state.
    pub post_goodput: f64,
}

/// The full result of [`run_soak`].
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Seed the schedule ran under.
    pub seed: u64,
    /// Pre-fault steady-state goodput (ok responses/s during warmup).
    pub steady_goodput: f64,
    /// Per-window measurements, in schedule order.
    pub windows: Vec<WindowReport>,
    /// Whole-run outcome tallies (warmup included).
    pub totals: Tally,
}

impl SoakReport {
    /// `true` when every handle resolved typed and every full-precision
    /// response was bitwise-correct — the chaos-soak gate.
    pub fn clean(&self) -> bool {
        self.totals.hung == 0 && self.totals.mismatched == 0
    }

    /// Render the report as the `BENCH_recovery.json` document.
    pub fn to_json(&self) -> String {
        let mut windows = String::new();
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                windows.push(',');
            }
            windows.push_str(&format!(
                concat!(
                    "{{\"label\":{label:?},\"site\":{site:?},\"rate\":{rate},",
                    "\"duration_ms\":{dur},{tally},",
                    "\"recovery_latency_ms\":{rec},",
                    "\"dip_depth\":{depth:.4},\"dip_duration_ms\":{dd},",
                    "\"post_goodput\":{post:.2}}}"
                ),
                label = w.window.label,
                site = w.window.site,
                rate = w.window.rate,
                dur = w.window.duration.as_millis(),
                tally = tally_json(&w.tally),
                rec = w
                    .recovery_latency
                    .map_or("null".to_string(), |d| d.as_millis().to_string()),
                depth = w.dip_depth,
                dd = w.dip_duration.as_millis(),
                post = w.post_goodput,
            ));
        }
        format!(
            concat!(
                "{{\"bench\":\"chaos_soak\",\"seed\":{seed},",
                "\"steady_goodput\":{steady:.2},",
                "\"windows\":[{windows}],",
                "\"totals\":{{{totals}}}}}"
            ),
            seed = self.seed,
            steady = self.steady_goodput,
            windows = windows,
            totals = tally_json(&self.totals),
        )
    }
}

fn tally_json(t: &Tally) -> String {
    let mut shed = String::new();
    for (i, (cause, n)) in t.shed.iter().enumerate() {
        if i > 0 {
            shed.push(',');
        }
        shed.push_str(&format!("{cause:?}:{n}"));
    }
    format!(
        concat!(
            "\"submitted\":{sub},\"ok_bitwise\":{ok},\"degraded\":{deg},",
            "\"mismatched\":{mis},\"hung\":{hung},",
            "\"shed\":{{{shed}}},\"shed_total\":{shed_total}"
        ),
        sub = t.submitted,
        ok = t.ok_bitwise,
        deg = t.degraded,
        mis = t.mismatched,
        hung = t.hung,
        shed = shed,
        shed_total = t.shed_total(),
    )
}

/// Short cause name for a typed rejection (the shed-by-cause key).
fn shed_cause(r: &Rejection) -> &'static str {
    match r {
        Rejection::QueueFull { .. } => "queue_full",
        Rejection::DeadlineExceeded { .. } => "deadline",
        Rejection::TenantOverLimit { .. } => "tenant",
        Rejection::UnknownTenant { .. } => "unknown_tenant",
        Rejection::Shutdown => "shutdown",
        Rejection::Stopped(_) => "stopped",
        Rejection::Faulted { .. } => "faulted",
        Rejection::Inference(_) => "inference",
    }
}

/// Which schedule phase a request was submitted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Window(usize),
    Cooldown(usize),
}

impl Phase {
    fn window_scope(self) -> Option<usize> {
        match self {
            Phase::Warmup => None,
            Phase::Window(i) | Phase::Cooldown(i) => Some(i),
        }
    }
}

struct InFlight {
    handle: ResponseHandle,
    vertex: usize,
    phase: Phase,
    submitted: Duration,
}

struct SoakState<'a> {
    reference: &'a DenseMatrix,
    start: Instant,
    inflight: Vec<InFlight>,
    /// Completion offsets of ok (bitwise or degraded) responses.
    ok_times: Vec<Duration>,
    totals: Tally,
    per_window: Vec<Tally>,
    /// Earliest heal→ok latency observed per window.
    recovery: Vec<Option<Duration>>,
    /// Heal offset per window (set when the window's guard drops).
    heal_at: Vec<Option<Duration>>,
}

impl SoakState<'_> {
    fn scope_tallies(&mut self, phase: Phase) -> &mut Tally {
        match phase.window_scope() {
            // BTreeMap-free shortcut: warmup outcomes only hit totals.
            None => &mut self.totals,
            Some(i) => &mut self.per_window[i],
        }
    }

    fn classify_ok(&mut self, s: &InFlight, resp: &Response, completed: Duration) {
        let degraded = resp.degraded.is_some();
        let bitwise = resp.rows.rows() == 1 && resp.rows.row(0) == self.reference.row(s.vertex);
        self.ok_times.push(completed);
        self.totals.absorb_ok(bitwise, degraded);
        if let Some(i) = s.phase.window_scope() {
            self.per_window[i].absorb_ok(bitwise, degraded);
            if let Some(heal) = self.heal_at[i] {
                if s.submitted >= heal {
                    let lat = completed.saturating_sub(heal);
                    let slot = &mut self.recovery[i];
                    if slot.is_none_or(|prev| lat < prev) {
                        *slot = Some(lat);
                    }
                }
            }
        }
    }

    fn classify_shed(&mut self, phase: Phase, r: &Rejection) {
        self.totals.absorb_shed(r);
        if let Some(i) = phase.window_scope() {
            self.per_window[i].absorb_shed(r);
        }
    }

    /// Take every resolved handle out of the in-flight set and classify.
    fn reap(&mut self) {
        let mut i = 0;
        while i < self.inflight.len() {
            match self.inflight[i].handle.try_take() {
                None => i += 1,
                Some(outcome) => {
                    let s = self.inflight.swap_remove(i);
                    let completed = self.start.elapsed();
                    match outcome {
                        Ok(resp) => self.classify_ok(&s, &resp, completed),
                        Err(r) => self.classify_shed(s.phase, &r),
                    }
                }
            }
        }
    }
}

/// Run the soak schedule against a live service.
///
/// `reference` is the full single-node `infer_planned_with` output over every
/// graph vertex — row `v` is the expected (bitwise) response for vertex
/// `v`. The harness arms each window's fault config in turn (clean
/// phases arm a zero-rate config so environment fault settings cannot
/// leak in), paces single-vertex submissions round-robin over the
/// graph, and classifies every handle. See the module docs for the
/// outcome taxonomy.
pub fn run_soak(svc: &GcnService, reference: &DenseMatrix, cfg: &SoakConfig) -> SoakReport {
    let n = reference.rows().max(1);
    let start = Instant::now();
    let mut st = SoakState {
        reference,
        start,
        inflight: Vec::new(),
        ok_times: Vec::new(),
        totals: Tally::default(),
        per_window: vec![Tally::default(); cfg.windows.len()],
        recovery: vec![None; cfg.windows.len()],
        heal_at: vec![None; cfg.windows.len()],
    };
    let mut next_vertex = 0usize;
    let mut window_spans: Vec<(Duration, Duration)> = Vec::new();
    let mut cooldown_spans: Vec<(Duration, Duration)> = Vec::new();

    let run_phase = |st: &mut SoakState<'_>,
                     next_vertex: &mut usize,
                     phase: Phase,
                     dur: Duration,
                     armed: FaultConfig| {
        // Arming blocks on the process-wide arm lock (another soak's phase
        // may hold it): start the phase clock only once this phase owns it,
        // or a short phase can expire while waiting and submit nothing.
        let guard = fault::arm(armed);
        let phase_start = start.elapsed();
        while start.elapsed().saturating_sub(phase_start) < dur {
            let v = *next_vertex % n;
            *next_vertex += 1;
            let submitted = start.elapsed();
            st.scope_tallies(phase).submitted += 1;
            if phase.window_scope().is_some() {
                st.totals.submitted += 1;
            }
            match svc.submit_vertex(0, v) {
                Ok(handle) => st.inflight.push(InFlight {
                    handle,
                    vertex: v,
                    phase,
                    submitted,
                }),
                Err(r) => st.classify_shed(phase, &r),
            }
            st.reap();
            std::thread::sleep(cfg.pacing);
        }
        drop(guard);
        (phase_start, start.elapsed())
    };

    // Warmup: steady-state baseline under a zero-rate armed config.
    let (warm_start, warm_end) = run_phase(
        &mut st,
        &mut next_vertex,
        Phase::Warmup,
        cfg.warmup,
        FaultConfig::new(cfg.seed),
    );

    for (i, w) in cfg.windows.iter().enumerate() {
        let armed = FaultConfig::new(cfg.seed).point(&w.site, w.kind, w.rate);
        let span = run_phase(
            &mut st,
            &mut next_vertex,
            Phase::Window(i),
            w.duration,
            armed,
        );
        window_spans.push(span);
        st.heal_at[i] = Some(span.1);
        let cd = run_phase(
            &mut st,
            &mut next_vertex,
            Phase::Cooldown(i),
            cfg.cooldown,
            FaultConfig::new(cfg.seed),
        );
        cooldown_spans.push(cd);
    }

    // Drain: everything still outstanding must resolve within the
    // budget or it is a hang.
    let drain_deadline = start.elapsed() + cfg.drain;
    while !st.inflight.is_empty() && start.elapsed() < drain_deadline {
        st.reap();
        if !st.inflight.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    st.reap();
    for s in std::mem::take(&mut st.inflight) {
        st.totals.hung += 1;
        if let Some(i) = s.phase.window_scope() {
            st.per_window[i].hung += 1;
        }
    }

    let steady = goodput(&st.ok_times, warm_start, warm_end);
    let windows = cfg
        .windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let (ws, we) = window_spans[i];
            let (cs, ce) = cooldown_spans[i];
            let (dip_depth, dip_duration) = dip(&st.ok_times, ws, we, steady, cfg.bucket);
            // Post-recovery goodput over the second half of the cooldown.
            let mid = cs + ce.saturating_sub(cs) / 2;
            WindowReport {
                window: w.clone(),
                tally: st.per_window[i].clone(),
                recovery_latency: st.recovery[i],
                dip_depth,
                dip_duration,
                post_goodput: goodput(&st.ok_times, mid, ce),
            }
        })
        .collect();

    SoakReport {
        seed: cfg.seed,
        steady_goodput: steady,
        windows,
        totals: st.totals,
    }
}

/// Ok responses per second completing inside `[from, to)`.
fn goodput(ok_times: &[Duration], from: Duration, to: Duration) -> f64 {
    let span = to.saturating_sub(from).as_secs_f64();
    if span <= 0.0 {
        return 0.0;
    }
    let n = ok_times.iter().filter(|&&t| t >= from && t < to).count();
    n as f64 / span
}

/// Bucketed goodput dip over `[from, to)` relative to `steady`:
/// (worst-bucket depth in `[0, 1]`, total time below 90% of steady).
fn dip(
    ok_times: &[Duration],
    from: Duration,
    to: Duration,
    steady: f64,
    bucket: Duration,
) -> (f64, Duration) {
    if steady <= 0.0 || bucket.is_zero() || to <= from {
        return (0.0, Duration::ZERO);
    }
    let mut worst = 0.0f64;
    let mut below = Duration::ZERO;
    let mut b0 = from;
    while b0 < to {
        let b1 = (b0 + bucket).min(to);
        let rate = goodput(ok_times, b0, b1);
        let depth = (1.0 - rate / steady).clamp(0.0, 1.0);
        if depth > worst {
            worst = depth;
        }
        if rate < 0.9 * steady {
            below += b1.saturating_sub(b0);
        }
        b0 = b1;
    }
    (worst, below)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_classification_and_json_render() {
        let mut t = Tally::default();
        t.submitted = 5;
        t.absorb_ok(true, false);
        t.absorb_ok(true, true);
        t.absorb_ok(false, false);
        t.absorb_shed(&Rejection::Shutdown);
        t.absorb_shed(&Rejection::Faulted {
            site: "shard.task".into(),
            shard: Some(1),
        });
        assert_eq!(t.ok_bitwise, 1);
        assert_eq!(t.degraded, 1);
        assert_eq!(t.mismatched, 1);
        assert_eq!(t.shed_total(), 2);
        let report = SoakReport {
            seed: 42,
            steady_goodput: 100.0,
            windows: vec![WindowReport {
                window: FaultWindow::new(
                    "shard.task",
                    FaultKind::Panic,
                    0.05,
                    Duration::from_millis(100),
                ),
                tally: t.clone(),
                recovery_latency: Some(Duration::from_millis(7)),
                dip_depth: 0.25,
                dip_duration: Duration::from_millis(50),
                post_goodput: 95.0,
            }],
            totals: t,
        };
        assert!(!report.clean(), "a mismatch fails the gate");
        let json = report.to_json();
        assert!(json.contains("\"bench\":\"chaos_soak\""));
        assert!(json.contains("\"recovery_latency_ms\":7"));
        assert!(json.contains("\"faulted\":1"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn goodput_and_dip_math() {
        let ms = Duration::from_millis;
        // 10 completions evenly over [0, 100ms), then silence.
        let ok: Vec<Duration> = (0..10).map(|i| ms(i * 10)).collect();
        let steady = goodput(&ok, ms(0), ms(100));
        assert!((steady - 100.0).abs() < 1e-9);
        let (depth, below) = dip(&ok, ms(100), ms(200), steady, ms(50));
        assert!((depth - 1.0).abs() < 1e-9, "full outage after 100ms");
        assert_eq!(below, ms(100));
        let (depth, below) = dip(&ok, ms(0), ms(100), steady, ms(50));
        assert!(depth.abs() < 1e-9, "no dip during the steady span");
        assert_eq!(below, Duration::ZERO);
    }
}
