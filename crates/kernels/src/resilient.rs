//! Retry + graceful-degradation wrapper around the SpMM engine.
//!
//! A resilient run executes a kernel under [`resilience::retry`] (panics
//! become caught failures, attempts are bounded with backoff) and, when a
//! strategy keeps failing, walks a degradation chain toward simpler
//! kernels: Hybrid / EdgeParallel / FeatureParallel → VertexParallel →
//! Sequential (NnzBalanced, like VertexParallel, → Sequential). The
//! sequential kernel touches no pool, no atomics, and no scratch arena, so
//! it is the last resort that a single surviving thread can always
//! execute. Every recovery and fallback is recorded in an
//! [`ExecutionReport`] so callers (and chaos tests) can see exactly how a
//! result was obtained.
//!
//! This is sound to retry because every `*_into` kernel fully overwrites
//! its output: a half-written buffer from a crashed attempt is erased by
//! the next attempt regardless of strategy.

use crate::engine::SpmmStrategy;
use crate::plan::SpmmPlan;
use matrix::microkernel::{self, Backend};
use matrix::{DenseMatrix, MatrixError, Precision};
use resilience::retry::{self, Failure, RetryPolicy};
use sparse::Csr;

/// One strategy fallback taken during a resilient run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Display form of the strategy that failed.
    pub from: String,
    /// Display form of the strategy tried next.
    pub to: String,
    /// Rendering of the failure that forced the fallback.
    pub cause: String,
}

/// How a resilient execution actually completed: attempts, recoveries,
/// strategy fallbacks, and any micro-kernel backend downgrade.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionReport {
    /// Kernel attempts made, including the successful one.
    pub attempts: u32,
    /// Panics caught and retried.
    pub recovered_panics: u32,
    /// Typed errors retried.
    pub recovered_errors: u32,
    /// Strategy fallbacks taken, in order.
    pub degradations: Vec<Degradation>,
    /// `(preferred, chosen)` if the micro-kernel dispatch probe downgraded
    /// the SIMD backend at process start ([`microkernel::probe_fallback`]).
    pub backend_fallback: Option<(Backend, Backend)>,
    /// `(requested, used)` if a narrow storage precision was downgraded —
    /// by the plan-time ISA probe or by an accuracy guard walking
    /// [`Precision::fallback`] (int8 → bf16 → f32).
    pub precision_fallback: Option<(Precision, Precision)>,
    /// Display form of the strategy that finally produced the result.
    pub completed_with: Option<String>,
    /// Originating fault site of the first failure this run degraded
    /// past (e.g. `kernels.exec`), or the rendered panic/error text when
    /// the failure did not come from a named fault point. `None` for
    /// clean runs and runs that recovered purely by retrying.
    pub fault_site: Option<String>,
    /// Shard the failure is attributed to — kernels itself never sets
    /// this; the sharded execution layers fill it in when they surface a
    /// report for a specific shard's work.
    pub shard: Option<usize>,
}

impl ExecutionReport {
    /// An empty report, pre-seeded with the process-wide backend-probe
    /// downgrade (if one was taken).
    pub fn new() -> Self {
        ExecutionReport {
            backend_fallback: microkernel::probe_fallback(),
            ..ExecutionReport::default()
        }
    }

    /// Did this run need any recovery at all (retries, strategy fallback,
    /// a degraded SIMD backend, or a degraded storage precision)?
    pub fn degraded(&self) -> bool {
        self.attempts > 1
            || !self.degradations.is_empty()
            || self.backend_fallback.is_some()
            || self.precision_fallback.is_some()
    }

    fn absorb(&mut self, rec: &retry::Recovery<()>) {
        self.attempts += rec.attempts;
        self.recovered_panics += rec.recovered_panics;
        self.recovered_errors += rec.recovered_errors;
    }
}

/// Next-simpler strategy in the degradation chain (`None` after
/// [`SpmmStrategy::Sequential`]). `Auto` must be resolved before walking
/// the chain.
pub fn fallback_of(s: SpmmStrategy) -> Option<SpmmStrategy> {
    match s {
        SpmmStrategy::Hybrid { threads }
        | SpmmStrategy::EdgeParallel { threads }
        | SpmmStrategy::FeatureParallel { threads } => {
            Some(SpmmStrategy::VertexParallel { threads })
        }
        SpmmStrategy::VertexParallel { .. }
        | SpmmStrategy::NnzBalanced { .. }
        | SpmmStrategy::FeatureTiled { .. } => Some(SpmmStrategy::Sequential),
        SpmmStrategy::Sequential => None,
        SpmmStrategy::Auto => Some(SpmmStrategy::Sequential),
    }
}

/// The fault site (or rendered failure) behind a terminal attempt — the
/// string [`ExecutionReport::fault_site`] carries.
fn failure_site(last: &Failure<MatrixError>) -> String {
    match last {
        Failure::Error(MatrixError::Fault { site }) => (*site).to_string(),
        Failure::Error(e) => e.to_string(),
        Failure::Panic(p) => p.clone(),
    }
}

fn terminal_error(last: Failure<MatrixError>) -> MatrixError {
    match last {
        Failure::Error(e) => e,
        // The payload text is reported through the `Display` of the retry
        // error before we get here; the typed variant keeps the site.
        Failure::Panic(_) => MatrixError::Fault {
            site: "kernels.exec: unrecovered panic",
        },
    }
}

/// Runs `out = a * h` with bounded retry and strategy degradation,
/// returning how the result was obtained.
///
/// `strategy` is resolved (for [`SpmmStrategy::Auto`], by the plan's rule)
/// once up front; each rung of the chain gets `policy.attempts` tries
/// before degrading. The final [`SpmmStrategy::Sequential`] rung failing is
/// the only way this returns `Err`.
///
/// # Errors
///
/// The last rung's typed error (or a [`MatrixError::Fault`] naming an
/// unrecovered panic) once the whole chain is exhausted.
pub fn run_resilient_into(
    a: &Csr,
    h: &DenseMatrix,
    strategy: SpmmStrategy,
    policy: &RetryPolicy,
    out: &mut DenseMatrix,
) -> Result<ExecutionReport, MatrixError> {
    crate::spmm::check("run_resilient_into", a, h)?;
    let mut report = ExecutionReport::new();
    let mut current = match strategy {
        SpmmStrategy::Auto => SpmmPlan::new(a, h.cols()).exec(),
        s => s,
    };
    loop {
        let outcome = retry::run(policy, || -> Result<(), MatrixError> {
            // Typed-error injection site for the whole execution path; the
            // retry loop above recovers it like any kernel failure.
            resilience::fault_point_err!(
                "kernels.exec",
                MatrixError::Fault {
                    site: "kernels.exec",
                }
            );
            current.run_into(a, h, out)
        });
        match outcome {
            Ok(rec) => {
                report.absorb(&rec);
                report.completed_with = Some(current.to_string());
                return Ok(report);
            }
            Err(err) => {
                report.attempts += err.attempts;
                if report.fault_site.is_none() {
                    report.fault_site = Some(failure_site(&err.last));
                }
                let Some(next) = fallback_of(current) else {
                    return Err(terminal_error(err.last));
                };
                report.degradations.push(Degradation {
                    from: current.to_string(),
                    to: next.to_string(),
                    cause: err.last.to_string(),
                });
                current = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience::fault::{self, FaultConfig, FaultKind};
    use sparse::Coo;

    fn small_problem() -> (Csr, DenseMatrix, DenseMatrix) {
        let n = 64;
        let mut coo = Coo::new(n, n);
        for v in 0..n {
            coo.push(v, (v * 7 + 1) % n, 1.0 + v as f32 * 0.25);
            coo.push(v, (v * 3 + 2) % n, 0.5);
        }
        let a = Csr::from_coo(&coo);
        let data = (0..n * 8).map(|i| (i % 23) as f32 * 0.125 - 1.0).collect();
        let h = DenseMatrix::from_vec(n, 8, data).unwrap();
        let expected = SpmmStrategy::Sequential.run(&a, &h).unwrap();
        (a, h, expected)
    }

    #[test]
    fn clean_run_is_not_degraded() {
        let (a, h, expected) = small_problem();
        let mut out = DenseMatrix::default();
        let report = run_resilient_into(
            &a,
            &h,
            SpmmStrategy::Hybrid { threads: 4 },
            &RetryPolicy::immediate(3),
            &mut out,
        )
        .unwrap();
        assert_eq!(report.attempts, 1);
        assert!(!report.degraded() || report.backend_fallback.is_some());
        assert!(expected.max_abs_diff(&out) < 1e-4);
        assert_eq!(report.completed_with.as_deref(), Some("hybrid x4"));
    }

    #[test]
    fn injected_errors_are_retried_and_recovered() {
        let (a, h, expected) = small_problem();
        let mut out = DenseMatrix::default();
        // Fail the first two visits deterministically? Rate 1.0 would fail
        // every attempt; instead pin a mid rate and a seed known to pass
        // within the retry budget — determinism makes this reproducible.
        let _armed = fault::arm(FaultConfig::new(11).point("kernels.exec", FaultKind::Error, 0.5));
        let report = run_resilient_into(
            &a,
            &h,
            SpmmStrategy::VertexParallel { threads: 2 },
            &RetryPolicy::immediate(8),
            &mut out,
        )
        .unwrap();
        assert!(expected.max_abs_diff(&out) < 1e-4);
        assert!(report.attempts >= 1);
        let stats = fault::stats();
        assert!(stats.sites.contains_key("kernels.exec"));
    }

    #[test]
    fn exhausted_strategy_degrades_down_the_chain() {
        let (a, h, expected) = small_problem();
        let mut out = DenseMatrix::default();
        // Error every attempt: each rung exhausts its retries and falls
        // back; the chain must bottom out at Sequential... which also
        // fails, so arm only long enough to kill the first rung? No —
        // deterministic alternative: fail only the *parallel* path by
        // injecting errors at the engine site while the retry budget is 1,
        // and watch the chain walk Hybrid → VertexParallel → Sequential.
        // With the site firing on every visit the terminal error must come
        // back typed.
        let _armed = fault::arm(FaultConfig::new(2).point("kernels.exec", FaultKind::Error, 1.0));
        let err = run_resilient_into(
            &a,
            &h,
            SpmmStrategy::Hybrid { threads: 4 },
            &RetryPolicy::immediate(2),
            &mut out,
        )
        .unwrap_err();
        assert_eq!(
            err,
            MatrixError::Fault {
                site: "kernels.exec"
            }
        );
        drop(_armed);
        // Disarmed, the same call succeeds and reports a clean first try.
        let report = run_resilient_into(
            &a,
            &h,
            SpmmStrategy::Hybrid { threads: 4 },
            &RetryPolicy::immediate(2),
            &mut out,
        )
        .unwrap();
        assert_eq!(report.attempts, 1);
        assert!(expected.max_abs_diff(&out) < 1e-4);
    }

    #[test]
    fn degradation_chain_is_recorded() {
        let (a, h, expected) = small_problem();
        let mut out = DenseMatrix::default();
        // Fail only the hybrid rung: the site fires for the first
        // `attempts` visits then the fallback rung runs clean. Pin the
        // rate to 1.0 and disarm after the first rung by scoping the guard
        // is racy — instead inject errors at a rate of 1.0 but give the
        // chain a bigger budget than the armed visits... simplest reliable
        // setup: arm, run with attempts=1 per rung, observe the terminal
        // typed error and the recorded degradations.
        let _armed = fault::arm(FaultConfig::new(4).point("kernels.exec", FaultKind::Error, 1.0));
        let err = run_resilient_into(
            &a,
            &h,
            SpmmStrategy::Hybrid { threads: 2 },
            &RetryPolicy::immediate(1),
            &mut out,
        );
        drop(_armed);
        let err = err.unwrap_err();
        assert!(matches!(err, MatrixError::Fault { .. }));
        // And with partial failure (fallback succeeds), the report lists
        // the taken fallbacks. The decision hash keys on (seed, site,
        // visit), so probe the real site name: we need a stream that fires
        // on visit 0 (hybrid rung fails, one attempt per rung) and passes
        // on visit 1 or 2 (a fallback rung succeeds).
        let seed = (0..256u64)
            .find(|&s| {
                let _g =
                    fault::arm(FaultConfig::new(s).point("kernels.exec", FaultKind::Error, 0.5));
                let first = fault::should_fail("kernels.exec");
                let second = fault::should_fail("kernels.exec");
                let third = fault::should_fail("kernels.exec");
                first && (!second || !third)
            })
            .expect("some seed fires on visit 0 and passes within the chain");
        let _armed =
            fault::arm(FaultConfig::new(seed).point("kernels.exec", FaultKind::Error, 0.5));
        let report = run_resilient_into(
            &a,
            &h,
            SpmmStrategy::Hybrid { threads: 2 },
            &RetryPolicy::immediate(1),
            &mut out,
        )
        .unwrap();
        assert!(!report.degradations.is_empty());
        assert_eq!(report.degradations[0].from, "hybrid x2");
        assert_eq!(report.degradations[0].to, "vertex-parallel x2");
        assert_eq!(
            report.fault_site.as_deref(),
            Some("kernels.exec"),
            "the report names the originating fault site"
        );
        assert_eq!(report.shard, None, "kernels never attributes a shard");
        assert!(expected.max_abs_diff(&out) < 1e-4);
    }
}
