//! A reused rows workspace never leaks one batch's rows into the next.
//!
//! The rows path writes every layer's rows at their global ids into
//! buffers it keeps across batches, so a batch finds rows that earlier
//! batches wrote. The levels only guarantee that a layer reads rows the
//! layer below has just written. On an adjacency without self-loops the
//! levels do not nest (a target need not be in the level below it), so a
//! layer that read an unwritten row would pick up a stale value here. One
//! workspace runs disjoint, nested, duplicate-target, whole-graph and
//! single-vertex batches in turn, at `f32`, bf16 and int8; every output
//! must equal, bit for bit, the same batch through a fresh workspace and
//! the width-1 whole-graph reference at that precision.

use gcn::{GcnConfig, GcnModel, InferenceWorkspace};
use kernels::SpmmPlan;
use matrix::{DenseMatrix, Precision};
use sparse::{Coo, Csr};

const N: usize = 300;

/// A directed graph of out-degree three with no self-loops, so no vertex
/// is its own in-neighbour.
fn adjacency() -> Csr {
    let mut coo = Coo::new(N, N);
    for v in 0..N {
        for (i, d) in [1, 17, 101].into_iter().enumerate() {
            let c = (v * 7 + d) % N;
            if c != v {
                coo.push(v, c, 0.2 + 0.1 * i as f32 + (v % 13) as f32 * 0.01);
            }
        }
    }
    let a = Csr::from_coo(&coo);
    assert!((0..N).all(|v| !a.row_cols(v).contains(&(v as u32))));
    a
}

fn features(cols: usize) -> DenseMatrix {
    let data = (0..N * cols)
        .map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0)
        .collect();
    DenseMatrix::from_vec(N, cols, data).unwrap()
}

#[test]
fn a_reused_workspace_matches_a_fresh_one_and_the_full_graph_bitwise() {
    let a = adjacency();
    // 8 -> 12 -> 12 -> 3: two aggregate-first layers, then an update-first
    // one.
    let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 5);
    let x = features(8);
    let batches: Vec<(&str, Vec<usize>)> = vec![
        ("disjoint a", vec![3, 50, 100]),
        ("disjoint b", vec![200, 7, 150]),
        ("nested", vec![50, 3, 100, 200, 7, 150, 9]),
        ("duplicates", vec![9, 9, 3, 9]),
        ("whole graph", (0..N).rev().collect()),
        ("single vertex", vec![42]),
    ];
    for precision in [Precision::F32, Precision::Bf16, Precision::Int8] {
        let mut width1 = InferenceWorkspace::new();
        width1.install_plan(SpmmPlan::with_width(&a, x.cols(), 1).at_precision(precision));
        let full = model.infer_planned_with(&a, &x, &mut width1).unwrap();
        let mut reused = InferenceWorkspace::new();
        reused.plan_for(&a, x.cols(), precision);
        let (mut out, mut fresh_out) = (DenseMatrix::default(), DenseMatrix::default());
        for (name, targets) in &batches {
            let stats = model
                .infer_rows_planned_into(&a, &x, targets, &mut reused, &mut out)
                .unwrap();
            let mut fresh = InferenceWorkspace::new();
            fresh.plan_for(&a, x.cols(), precision);
            let fresh_stats = model
                .infer_rows_planned_into(&a, &x, targets, &mut fresh, &mut fresh_out)
                .unwrap();
            assert_eq!(stats, fresh_stats, "{precision} {name}");
            assert_eq!(
                out, fresh_out,
                "{precision} {name}: reused vs fresh workspace"
            );
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(
                    out.row(i),
                    full.row(t),
                    "{precision} {name}: row {t} vs the full graph"
                );
            }
        }
    }
}
