//! End-to-end checks that reordered and planned inference paths are
//! semantically transparent: relabeling vertices, running the GCN on the
//! reordered graph, and un-permuting the output must reproduce the native
//! result (modulo float summation order), and the cached-plan path must
//! agree with the per-call `Auto` strategy.

use piuma_gcn::prelude::*;

const TOL: f32 = 1e-3;

fn setup(scale: u32, k: usize, classes: usize) -> (Graph, GcnModel, DenseMatrix) {
    let graph = Graph::rmat(&RmatConfig::power_law(scale, 6), 31);
    let model = GcnModel::new(&GcnConfig::paper_model(k, 2 * k, classes), 13);
    let features = graph.random_features(k, 5);
    (graph, model, features)
}

#[test]
fn reordered_inference_matches_native_after_restore() {
    let (graph, model, features) = setup(9, 16, 4);
    let native = model.infer(&graph, &features, SpmmStrategy::Auto).unwrap();
    for kind in [
        ReorderKind::DegreeDescending,
        ReorderKind::Bfs,
        ReorderKind::Rcm,
    ] {
        let reordered = ReorderedGraph::new(&graph, kind);
        let x_perm = reordered.permute_features(&features);
        let out_perm = model
            .infer(reordered.graph(), &x_perm, SpmmStrategy::Auto)
            .unwrap();
        let restored = reordered.restore_rows(&out_perm);
        assert_eq!(restored.shape(), native.shape());
        assert!(
            native.max_abs_diff(&restored) < TOL,
            "{kind} ordering diverged by {}",
            native.max_abs_diff(&restored)
        );
    }
}

#[test]
fn reordered_planned_inference_matches_native() {
    // The full pipeline the bench sells: RCM reorder + cached plan.
    let (graph, model, features) = setup(8, 12, 3);
    let native = model.infer(&graph, &features, SpmmStrategy::Auto).unwrap();
    let reordered = ReorderedGraph::new(&graph, ReorderKind::Rcm);
    let a_hat = reordered.graph().normalized_adjacency().unwrap();
    let x_perm = reordered.permute_features(&features);
    let mut ws = InferenceWorkspace::new();
    let out_perm = model.infer_planned_with(&a_hat, &x_perm, &mut ws).unwrap();
    let restored = reordered.restore_rows(out_perm);
    assert!(
        native.max_abs_diff(&restored) < TOL,
        "planned+reordered diverged by {}",
        native.max_abs_diff(&restored)
    );
    assert!(ws.plan().is_some_and(|p| p.matches(&a_hat)));
}

#[test]
fn planned_inference_matches_auto_across_widths() {
    let graph = Graph::rmat(&RmatConfig::power_law(8, 8), 77);
    let a_hat = graph.normalized_adjacency().unwrap();
    // `Auto` is the plan's own rule: asking for it by name and holding a
    // default workspace are the same path. Layer widths a decade apart
    // exercise per-layer re-resolution from the cached statistics.
    for k in [8usize, 64] {
        let model = GcnModel::new(&GcnConfig::paper_model(k, 4 * k, 4), 3);
        let x = graph.random_features(k, 9);
        let auto = model.infer(&graph, &x, SpmmStrategy::Auto).unwrap();
        let mut ws = InferenceWorkspace::new();
        let planned = model.infer_planned_with(&a_hat, &x, &mut ws).unwrap();
        assert!(
            auto.max_abs_diff(planned) < TOL,
            "k={k} diverged by {}",
            auto.max_abs_diff(planned)
        );
    }
}

#[test]
fn restore_rows_is_exact_inverse_of_permute_features() {
    let (graph, _, features) = setup(7, 10, 2);
    for kind in [
        ReorderKind::DegreeDescending,
        ReorderKind::Bfs,
        ReorderKind::Rcm,
    ] {
        let reordered = ReorderedGraph::new(&graph, kind);
        let round_trip = reordered.restore_rows(&reordered.permute_features(&features));
        assert_eq!(round_trip, features, "{kind}");
    }
}
