//! Service observability: latency histograms and shed/throughput counters.
//!
//! All record paths are lock-free single atomic adds — they are called
//! from the admission/dispatch hot path (L009 closure) and must not
//! allocate or panic. Aggregation (quantiles, snapshots) walks the
//! buckets with plain loads and is only called from control-plane code.
//!
//! The histogram is log-linear (HDR-style): 8 linear sub-buckets per
//! power-of-two octave of nanoseconds, giving ≤ 12.5% relative error per
//! reported quantile across the full `Duration` range — enough to tell a
//! 2 ms p99 from a 10 ms one without per-sample storage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::request::Rejection;

/// Sub-bucket resolution: 2^3 = 8 linear buckets per octave.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Enough groups for every nanosecond magnitude a `u64` can hold.
const BUCKETS: usize = SUB * 62;

/// Lock-free log-linear latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a nanosecond value.
fn index_of(nanos: u64) -> usize {
    if nanos < SUB as u64 {
        return nanos as usize;
    }
    let top = 63 - nanos.leading_zeros();
    let sub = ((nanos >> (top - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    let grp = (top - SUB_BITS + 1) as usize;
    (grp * SUB + sub).min(BUCKETS - 1)
}

/// Lower-bound nanosecond value of a bucket (inverse of [`index_of`]).
fn value_of(idx: usize) -> u64 {
    let grp = idx / SUB;
    let sub = (idx % SUB) as u64;
    if grp == 0 {
        sub
    } else {
        (SUB as u64 + sub) << (grp - 1)
    }
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, sample: Duration) {
        let nanos = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        if let Some(b) = self.buckets.get(index_of(nanos)) {
            // lint:allow(L006): monotone event counter; quantile readers
            // tolerate eventually-consistent totals.
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            // lint:allow(L006): see record(); snapshot reads are advisory.
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of recorded samples, as the
    /// lower bound of the bucket containing it. Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            // lint:allow(L006): see record().
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Duration::from_nanos(value_of(i));
            }
        }
        Duration::from_nanos(value_of(BUCKETS - 1))
    }
}

/// Batch-size histogram buckets: batch request count `n` lands in bucket
/// `floor(log2(n))`, so bucket `i` covers `[2^i, 2^(i+1))` requests.
pub const BATCH_SIZE_BUCKETS: usize = 16;

/// Counters and histograms for one service instance.
///
/// Sheds are split by cause so the load generator (and CI) can assert
/// *which* admission-control rule fired, not just that something was
/// dropped.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_deadline: AtomicU64,
    shed_shutdown: AtomicU64,
    shed_faulted: AtomicU64,
    shed_inference: AtomicU64,
    batches: AtomicU64,
    batched_rows: AtomicU64,
    brownout_batches: AtomicU64,
    batch_sizes: [AtomicU64; BATCH_SIZE_BUCKETS],
    queue_wait: LatencyHistogram,
    latency: LatencyHistogram,
}

impl ServiceMetrics {
    /// Count one submission attempt (admitted or not).
    pub fn on_submitted(&self) {
        // lint:allow(L006): monotone event counter, no data published.
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one admitted (queued) request.
    pub fn on_admitted(&self) {
        // lint:allow(L006): monotone event counter, no data published.
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one rejection, by cause.
    pub fn on_rejected(&self, why: &Rejection) {
        let counter = match why {
            Rejection::QueueFull { .. } => &self.shed_queue_full,
            Rejection::DeadlineExceeded { .. } | Rejection::Stopped(_) => &self.shed_deadline,
            Rejection::Shutdown => &self.shed_shutdown,
            Rejection::Faulted { .. } => &self.shed_faulted,
            Rejection::Inference(_) => &self.shed_inference,
        };
        // lint:allow(L006): monotone event counter, no data published.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one executed batch of `requests` requests / `rows` output
    /// rows.
    pub fn on_batch(&self, requests: usize, rows: usize) {
        // lint:allow(L006): monotone event counters, no data published.
        self.batches.fetch_add(1, Ordering::Relaxed);
        // lint:allow(L006): see above.
        self.batched_rows.fetch_add(rows as u64, Ordering::Relaxed);
        let idx = (usize::BITS - 1 - requests.max(1).leading_zeros()) as usize;
        if let Some(b) = self.batch_sizes.get(idx.min(BATCH_SIZE_BUCKETS - 1)) {
            // lint:allow(L006): see above.
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one completed request with its queue wait and total latency.
    pub fn on_completed(&self, queued: Duration, total: Duration) {
        // lint:allow(L006): monotone event counter, no data published.
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.queue_wait.record(queued);
        self.latency.record(total);
    }

    /// Count one batch served at degraded (brownout) precision.
    pub fn on_brownout(&self) {
        // lint:allow(L006): monotone event counter, no data published.
        self.brownout_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Aggregate the counters into an owned snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // lint:allow(L006): snapshot reads of monotone counters; the
        // numbers are advisory and need no ordering with anything.
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let shed_queue_full = load(&self.shed_queue_full);
        let shed_deadline = load(&self.shed_deadline);
        let shed_shutdown = load(&self.shed_shutdown);
        let shed_faulted = load(&self.shed_faulted);
        let shed_inference = load(&self.shed_inference);
        let submitted = load(&self.submitted);
        let shed = shed_queue_full + shed_deadline + shed_shutdown + shed_faulted + shed_inference;
        MetricsSnapshot {
            submitted,
            admitted: load(&self.admitted),
            completed: load(&self.completed),
            shed_queue_full,
            shed_deadline,
            shed_shutdown,
            shed_faulted,
            shed_inference,
            shed,
            shed_rate: if submitted == 0 {
                0.0
            } else {
                shed as f64 / submitted as f64
            },
            batches: load(&self.batches),
            batched_rows: load(&self.batched_rows),
            failovers: 0,
            brownout_batches: load(&self.brownout_batches),
            batch_size_hist: self.batch_sizes.iter().map(load).collect(),
            queue_p50: self.queue_wait.quantile(0.50),
            queue_p99: self.queue_wait.quantile(0.99),
            p50: self.latency.quantile(0.50),
            p99: self.latency.quantile(0.99),
            p999: self.latency.quantile(0.999),
        }
    }
}

/// Owned, point-in-time view of a service's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Submission attempts (admitted + rejected at the door).
    pub submitted: u64,
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests completed with a response.
    pub completed: u64,
    /// Sheds: queue at depth limit.
    pub shed_queue_full: u64,
    /// Sheds: latency budget expired before dispatch (or batch stopped).
    pub shed_deadline: u64,
    /// Sheds: service shut down with the request pending.
    pub shed_shutdown: u64,
    /// Sheds: fault (injected or real panic) hit the request's batch.
    pub shed_faulted: u64,
    /// Sheds: backend error (dimension mismatch, bad vertex, kernel).
    pub shed_inference: u64,
    /// All sheds combined.
    pub shed: u64,
    /// `shed / submitted` (0 when nothing was submitted).
    pub shed_rate: f64,
    /// Executed batches.
    pub batches: u64,
    /// Output rows across all executed batches.
    pub batched_rows: u64,
    /// Always 0: the service has one backend and nothing to fail over
    /// to. Kept only because gcnbench reads it (`serving.failovers`); goes
    /// in the next `[benchmark]` PR.
    pub failovers: u64,
    /// Batches served at degraded (brownout) precision.
    pub brownout_batches: u64,
    /// Batch-size histogram: bucket `i` counts batches of
    /// `[2^i, 2^(i+1))` requests.
    pub batch_size_hist: Vec<u64>,
    /// Median queue wait.
    pub queue_p50: Duration,
    /// 99th-percentile queue wait.
    pub queue_p99: Duration,
    /// Median submission-to-completion latency.
    pub p50: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// 99.9th-percentile latency.
    pub p999: Duration,
}

impl MetricsSnapshot {
    /// Mean requests per executed batch (0 when no batches ran).
    pub fn mean_batch_size(&self) -> f64 {
        let total: u64 = self
            .batch_size_hist
            .iter()
            .enumerate()
            .map(|(i, &n)| n * (1u64 << i))
            .sum();
        if self.batches == 0 {
            0.0
        } else {
            // Bucket lower bounds underestimate; good enough for the
            // "did batching happen at all" assertions CI makes.
            total as f64 / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_roundtrip_with_bounded_error() {
        for v in [0u64, 1, 7, 8, 15, 16, 100, 1_000, 123_456, u64::MAX / 2] {
            let idx = index_of(v);
            let lo = value_of(idx);
            assert!(lo <= v, "lower bound {lo} above sample {v}");
            // Log-linear with 8 sub-buckets: ≤ 12.5% relative error.
            assert!(
                (v - lo) as f64 <= v as f64 / 8.0 + 1.0,
                "bucket error too large for {v}: lower bound {lo}"
            );
        }
    }

    #[test]
    fn quantiles_order_and_saturate() {
        let h = LatencyHistogram::default();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!(p50 >= Duration::from_millis(40) && p50 <= Duration::from_millis(56));
        assert!(p99 >= Duration::from_millis(87));
        assert!(p99 <= Duration::from_millis(101));
        assert!(p50 <= p99);
        assert_eq!(LatencyHistogram::default().quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn snapshot_aggregates_sheds_by_cause() {
        let m = ServiceMetrics::default();
        m.on_submitted();
        m.on_submitted();
        m.on_admitted();
        m.on_rejected(&Rejection::QueueFull { depth: 1, limit: 1 });
        m.on_batch(4, 9);
        m.on_completed(Duration::from_micros(5), Duration::from_micros(50));
        m.on_brownout();
        let s = m.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.shed_queue_full, 1);
        assert_eq!(s.shed, 1);
        assert!((s.shed_rate - 0.5).abs() < 1e-9);
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_rows, 9);
        assert_eq!(s.batch_size_hist[2], 1, "4 requests land in bucket 2");
        assert!(s.p99 >= s.p50);
        assert_eq!(s.brownout_batches, 1);
        assert_eq!(s.failovers, 0);
    }

    #[test]
    fn mean_batch_size_reflects_buckets() {
        let m = ServiceMetrics::default();
        m.on_batch(1, 1);
        m.on_batch(8, 8);
        let s = m.snapshot();
        assert!((s.mean_batch_size() - 4.5).abs() < 1e-9);
    }
}
