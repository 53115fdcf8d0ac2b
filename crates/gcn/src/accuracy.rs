//! End-to-end accuracy harness for narrow-precision inference.
//!
//! Low-precision storage only pays off if the model still produces the
//! right answer, so every precision ships with a documented end-to-end
//! error bound and a harness that measures it: run the same planned
//! inference twice — once in `f32`, once at the narrow precision — and
//! report the max-abs and relative-Frobenius deltas of the final GCN
//! output, alongside both wall-clock times.
//!
//! The bounds in [`accuracy_bound`] are deliberately loose ceilings for a
//! three-layer GCN with `O(1)`-magnitude activations (Glorot weights,
//! unit-range features), not tight error analyses: bf16 keeps 8 mantissa
//! bits (per-value relative error `2^-9`), f16 keeps 10 within a narrow
//! exponent range, and int8 spends its 8 bits on a per-row dynamic range.
//! Errors compound across layers roughly linearly (accumulation stays
//! `f32`, so only storage rounding enters per layer). The same bounds
//! drive the resilient precision guard
//! ([`GcnModel::infer_prec_guarded_with`]).

use crate::error::GcnError;
use crate::model::{GcnModel, InferenceWorkspace};
use matrix::{DenseMatrix, Precision};
use sparse::Csr;
use std::time::Instant;

/// Maximum tolerated end-to-end relative Frobenius error
/// `||out_p - out_f32||_F / ||out_f32||_F` for a GCN inference run at
/// storage precision `p`. `f32` is exact by construction (the `F32` path
/// is the reference itself).
pub fn accuracy_bound(p: Precision) -> f32 {
    match p {
        Precision::F32 => 0.0,
        // 8 mantissa bits, ~3 layers of storage rounding.
        Precision::Bf16 => 2e-2,
        // 10 mantissa bits; activations stay inside f16's exponent range.
        Precision::F16 => 5e-3,
        // Per-row 8-bit quantization of each layer's SpMM feature operand.
        Precision::Int8 => 1.5e-1,
    }
}

/// Relative Frobenius distance `||got - reference||_F / ||reference||_F`
/// (`0.0` when both are empty; infinite when only the reference is zero).
pub fn rel_frobenius(got: &DenseMatrix, reference: &DenseMatrix) -> f32 {
    let mut diff_sq = 0.0f64;
    let mut ref_sq = 0.0f64;
    for (g, r) in got.as_slice().iter().zip(reference.as_slice()) {
        let d = (g - r) as f64;
        diff_sq += d * d;
        ref_sq += (*r as f64) * (*r as f64);
    }
    if ref_sq == 0.0 {
        if diff_sq == 0.0 {
            0.0
        } else {
            f32::INFINITY
        }
    } else {
        (diff_sq.sqrt() / ref_sq.sqrt()) as f32
    }
}

/// One dataset x precision accuracy measurement: output deltas vs the
/// `f32` reference plus both wall-clock times.
#[derive(Debug, Clone)]
pub struct AccuracyReport {
    /// Dataset (or fixture) label.
    pub dataset: String,
    /// Requested storage precision.
    pub requested: Precision,
    /// Precision the plan actually ran at (after the ISA probe).
    pub used: Precision,
    /// `max |out_p - out_f32|` over the final GCN output.
    pub max_abs: f32,
    /// `||out_p - out_f32||_F / ||out_f32||_F`.
    pub rel_frobenius: f32,
    /// Wall-clock seconds of the `f32` reference inference.
    pub f32_secs: f64,
    /// Wall-clock seconds of the narrow-precision inference.
    pub prec_secs: f64,
}

impl AccuracyReport {
    /// Whether the measured error sits inside [`accuracy_bound`] for the
    /// precision that actually ran.
    pub fn within_bound(&self) -> bool {
        self.rel_frobenius <= accuracy_bound(self.used)
    }
}

impl std::fmt::Display for AccuracyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<12} {:<5} max_abs={:.3e} rel_frob={:.3e} (bound {:.1e}) f32={:.1}ms prec={:.1}ms",
            self.dataset,
            self.used.name(),
            self.max_abs,
            self.rel_frobenius,
            accuracy_bound(self.used),
            self.f32_secs * 1e3,
            self.prec_secs * 1e3,
        )
    }
}

/// Runs the model end-to-end at `f32` and at `precision` against the same
/// normalized adjacency and features, and reports the output deltas and
/// timings.
///
/// # Errors
///
/// Same conditions as [`GcnModel::infer`].
pub fn evaluate(
    model: &GcnModel,
    a_hat: &Csr,
    features: &DenseMatrix,
    precision: Precision,
    dataset: &str,
) -> Result<AccuracyReport, GcnError> {
    let mut ref_ws = InferenceWorkspace::new();
    let t0 = Instant::now();
    model.infer_planned_with(a_hat, features, &mut ref_ws)?;
    let f32_secs = t0.elapsed().as_secs_f64();

    let mut narrow_ws = InferenceWorkspace::new();
    let t1 = Instant::now();
    narrow_ws.plan_for(a_hat, features.cols(), precision);
    model.infer_planned_with(a_hat, features, &mut narrow_ws)?;
    let prec_secs = t1.elapsed().as_secs_f64();
    let used = narrow_ws.plan().map_or(precision, |p| p.precision());

    Ok(AccuracyReport {
        dataset: dataset.to_string(),
        requested: precision,
        used,
        max_abs: narrow_ws.output().max_abs_diff(ref_ws.output()),
        rel_frobenius: rel_frobenius(narrow_ws.output(), ref_ws.output()),
        f32_secs,
        prec_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcnConfig;
    use graph::rmat::RmatConfig;
    use graph::Graph;

    #[test]
    fn rel_frobenius_basics() {
        let a = DenseMatrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[0.0, 0.0]]).unwrap();
        assert!((rel_frobenius(&a, &a)).abs() < 1e-12);
        // ||a - 0|| / ||0|| is infinite; ||0 - 0|| is zero.
        assert!(rel_frobenius(&a, &b).is_infinite());
        assert_eq!(rel_frobenius(&b, &b), 0.0);
        // ||(3,4)-(0,0)|| / ||(3,4)|| = 1.
        assert!((rel_frobenius(&b, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn f32_report_is_exact_and_within_bound() {
        let g = Graph::rmat(&RmatConfig::power_law(7, 4), 5);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 16, 4), 1);
        let x = g.random_features(8, 2);
        let a_hat = g.normalized_adjacency().unwrap();
        let report = evaluate(&model, &a_hat, &x, Precision::F32, "rmat-7").unwrap();
        assert_eq!(report.max_abs, 0.0);
        assert_eq!(report.rel_frobenius, 0.0);
        assert!(report.within_bound());
    }

    #[test]
    fn every_narrow_precision_is_within_its_documented_bound() {
        let g = Graph::rmat(&RmatConfig::power_law(8, 6), 7);
        let model = GcnModel::new(&GcnConfig::paper_model(16, 32, 8), 3);
        let x = g.random_features(16, 11);
        let a_hat = g.normalized_adjacency().unwrap();
        for p in [Precision::Bf16, Precision::F16, Precision::Int8] {
            let report = evaluate(&model, &a_hat, &x, p, "rmat-8").unwrap();
            assert!(
                report.within_bound(),
                "{p}: rel_frob {:.3e} exceeds bound {:.1e}",
                report.rel_frobenius,
                accuracy_bound(report.used)
            );
            // And the narrow run genuinely differs from f32 (sanity that
            // the quantized path actually ran).
            if report.used.is_narrow() {
                assert!(report.rel_frobenius > 0.0, "{p}: suspiciously exact");
            }
        }
    }
}
