//! One workspace serves every mode without carrying one call into the next.
//!
//! The whole-graph loop runs in place on `h` + `mid`, the recovering loop
//! adds a spare buffer and swaps it in, and the rows path runs the same
//! loop on row lists over buffers that keep earlier calls' rows. One
//! workspace runs whole-graph → recovering → rows → whole-graph inference,
//! at `f32` and int8; each output must equal, bit for bit, the same call on
//! a fresh workspace at that precision.

use gcn::{GcnConfig, GcnModel, InferenceWorkspace};
use graph::rmat::RmatConfig;
use graph::Graph;
use matrix::{DenseMatrix, Precision};
use resilience::guard::RunGuard;
use sparse::Csr;

fn bits(m: &DenseMatrix) -> (usize, usize, Vec<u32>) {
    let (rows, cols) = m.shape();
    (
        rows,
        cols,
        m.as_slice().iter().map(|v| v.to_bits()).collect(),
    )
}

enum Mode {
    Planned,
    Recovering,
    Rows(Vec<usize>),
}

/// Runs `mode` on `ws` and returns its output.
fn run(
    model: &GcnModel,
    a: &Csr,
    x: &DenseMatrix,
    mode: &Mode,
    ws: &mut InferenceWorkspace,
) -> DenseMatrix {
    match mode {
        Mode::Planned => model.infer_planned_with(a, x, ws).unwrap().clone(),
        Mode::Recovering => {
            let run = model
                .infer_recovering_with(a, x, &RunGuard::unbounded(), ws)
                .unwrap();
            assert!(run.is_complete());
            ws.output().clone()
        }
        Mode::Rows(targets) => {
            let mut out = DenseMatrix::default();
            model
                .infer_rows_planned_into(a, x, targets, ws, &mut out)
                .unwrap();
            out
        }
    }
}

#[test]
fn one_workspace_switches_modes_bitwise() {
    let g = Graph::rmat(&RmatConfig::power_law(9, 8), 31);
    let a = g.normalized_adjacency().unwrap();
    // 16 -> 32 -> 32 -> 8: two aggregate-first layers, then an update-first
    // one.
    let model = GcnModel::new(&GcnConfig::paper_model(16, 32, 8), 3);
    let x = g.random_features(16, 4);
    let targets = vec![300, 7, 7, 511, 42];
    let modes = [
        ("planned", Mode::Planned),
        ("recovering", Mode::Recovering),
        ("rows", Mode::Rows(targets)),
        ("planned again", Mode::Planned),
    ];
    for precision in [Precision::F32, Precision::Int8] {
        let mut shared = InferenceWorkspace::new();
        shared.plan_for(&a, x.cols(), precision);
        for (name, mode) in &modes {
            let got = run(&model, &a, &x, mode, &mut shared);
            let mut fresh = InferenceWorkspace::new();
            fresh.plan_for(&a, x.cols(), precision);
            let want = run(&model, &a, &x, mode, &mut fresh);
            assert!(
                bits(&got) == bits(&want),
                "{precision} {name}: the shared workspace diverged from a fresh one"
            );
        }
    }
}
