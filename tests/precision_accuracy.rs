//! End-to-end accuracy acceptance for narrow-precision inference: on a
//! scaled synthetic twin of every Table-I dataset, the three-layer paper
//! model run at bf16 / f16 / int8 must stay within the documented
//! end-to-end error bound of the f32 reference ([`gcn::accuracy`]), and
//! the precision-guarded resilient entry must accept each precision
//! without degrading. Each cell is additionally held to the error measured
//! at the last commit that also narrowed the dense update (PR 23): storage
//! precision narrows the SpMM feature operand only, and the error may only
//! shrink from there.

use piuma_gcn::gcn::accuracy::{accuracy_bound, evaluate};
use piuma_gcn::gcn::{GcnConfig, GcnModel, InferenceWorkspace};
use piuma_gcn::graph::OgbDataset;
use piuma_gcn::matrix::Precision;

/// Hidden width for the sweep — small keeps the 9-dataset sweep fast
/// while still exercising ragged (non-multiple-of-8) output panels.
const HIDDEN: usize = 20;

/// Relative-Frobenius error of this file's sweep at PR 23 (ddf37b4), per
/// Table-I twin at bf16 / f16 / int8, last digit rounded up.
const PR23_REL_FROBENIUS: [(&str, [f32; 3]); 9] = [
    ("ddi", [4.134e-3, 4.184e-4, 1.113e-2]),
    ("proteins", [3.052e-3, 5.079e-4, 1.125e-2]),
    ("arxiv", [4.499e-3, 5.365e-4, 1.058e-2]),
    ("collab", [4.499e-3, 5.365e-4, 1.058e-2]),
    ("ppa", [4.234e-3, 4.254e-4, 1.235e-2]),
    ("mag", [4.582e-3, 5.405e-4, 1.063e-2]),
    ("products", [3.260e-3, 3.989e-4, 8.603e-3]),
    ("citation2", [4.582e-3, 5.405e-4, 1.063e-2]),
    ("papers", [4.617e-3, 5.302e-4, 1.050e-2]),
];

#[test]
fn every_precision_is_within_bound_on_every_table1_dataset() {
    for (dataset, (name, pr23)) in OgbDataset::TABLE1.into_iter().zip(PR23_REL_FROBENIUS) {
        let stats = dataset.stats();
        assert_eq!(stats.name, name);
        let g = dataset.materialize_scaled(1 << 9, 0xACC);
        let model = GcnModel::new(
            &GcnConfig::paper_model(stats.input_dim, HIDDEN, stats.output_dim.min(HIDDEN)),
            7,
        );
        let x = g.random_features(stats.input_dim, 3);
        let a_hat = g.normalized_adjacency().unwrap();
        for (precision, cap) in [Precision::Bf16, Precision::F16, Precision::Int8]
            .into_iter()
            .zip(pr23)
        {
            let report = evaluate(&model, &a_hat, &x, precision, stats.name).unwrap();
            assert!(
                report.rel_frobenius <= cap,
                "{} at {}: rel_frobenius {:.3e} over the {:.3e} measured at PR 23",
                stats.name,
                precision,
                report.rel_frobenius,
                cap,
            );
            assert!(
                report.within_bound(),
                "{} at {}: rel_frobenius {:.3e} over bound {:.1e} (max_abs {:.3e})",
                stats.name,
                precision,
                report.rel_frobenius,
                accuracy_bound(report.used),
                report.max_abs,
            );
            assert!(
                report.max_abs.is_finite(),
                "{} at {}: non-finite output delta",
                stats.name,
                precision
            );
        }
    }
}

#[test]
fn precision_guard_accepts_narrow_runs_on_a_table1_twin() {
    let dataset = OgbDataset::Arxiv;
    let stats = dataset.stats();
    let g = dataset.materialize_scaled(1 << 9, 11);
    let model = GcnModel::new(
        &GcnConfig::paper_model(stats.input_dim, HIDDEN, stats.output_dim.min(HIDDEN)),
        5,
    );
    let x = g.random_features(stats.input_dim, 13);
    let a_hat = g.normalized_adjacency().unwrap();
    let mut ws = InferenceWorkspace::new();
    for precision in [Precision::Bf16, Precision::F16, Precision::Int8] {
        let run = model
            .infer_prec_guarded_with(&a_hat, &x, precision, &mut ws)
            .unwrap();
        let err = run.rel_frobenius.expect("the accuracy guard ran");
        assert_eq!(
            (run.used, run.precision_fallback),
            (precision, None),
            "{precision} degraded: rel_frobenius {err:.3e}"
        );
        assert!(err <= accuracy_bound(run.used));
    }
}
