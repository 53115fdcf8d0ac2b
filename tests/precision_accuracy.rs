//! End-to-end accuracy acceptance for narrow-precision inference: on a
//! scaled synthetic twin of every Table-I dataset, the three-layer paper
//! model run at bf16 / f16 / int8 must stay within the documented
//! end-to-end error bound of the f32 reference ([`gcn::accuracy`]), and
//! the precision-guarded resilient entry must accept each precision
//! without degrading.

use piuma_gcn::gcn::accuracy::{accuracy_bound, evaluate};
use piuma_gcn::gcn::{GcnConfig, GcnModel, InferenceWorkspace};
use piuma_gcn::graph::OgbDataset;
use piuma_gcn::matrix::Precision;

/// Hidden width for the sweep — small keeps the 9-dataset sweep fast
/// while still exercising ragged (non-multiple-of-8) output panels.
const HIDDEN: usize = 20;

#[test]
fn every_precision_is_within_bound_on_every_table1_dataset() {
    for dataset in OgbDataset::TABLE1 {
        let stats = dataset.stats();
        let g = dataset.materialize_scaled(1 << 9, 0xACC);
        let model = GcnModel::new(
            &GcnConfig::paper_model(stats.input_dim, HIDDEN, stats.output_dim.min(HIDDEN)),
            7,
        );
        let x = g.random_features(stats.input_dim, 3);
        let a_hat = g.normalized_adjacency().unwrap();
        for precision in [Precision::Bf16, Precision::F16, Precision::Int8] {
            let report = evaluate(&model, &a_hat, &x, precision, stats.name).unwrap();
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
