//! Bit-parity probe: one FNV-1a hash per inference path's output bits.
//!
//! Uses only long-standing public calls, so the same file compiles in a
//! `git clone` of a parent commit and in the tree; `diff` the two outputs
//! to show a refactor kept every bit:
//!
//! ```text
//! cargo run --release --example output_hashes
//! ```

use piuma_gcn::gcn::accuracy::rel_frobenius;
use piuma_gcn::graph::generators::erdos_renyi;
use piuma_gcn::prelude::*;
use resilience::guard::RunGuard;

fn fnv(m: &DenseMatrix) -> u64 {
    m.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

fn main() {
    let twins = [
        ("rmat", Graph::rmat(&RmatConfig::power_law(10, 8), 13)),
        ("erdos-renyi", erdos_renyi(1500, 12_000, 14)),
    ];
    let model = GcnModel::new(&GcnConfig::paper_model(16, 32, 8), 3);
    for (name, g) in &twins {
        let a_hat = g.normalized_adjacency().unwrap();
        let x = g.random_features(16, 21);
        // All four strategies. The atomic-accumulating arm runs on one
        // thread: its bits depend on arrival order otherwise. `Auto`
        // resolves at pool width; every arm but edge-parallel is row-local,
        // so its bits do not depend on the width either.
        for strategy in [
            SpmmStrategy::Sequential,
            SpmmStrategy::VertexParallel { threads: 3 },
            SpmmStrategy::EdgeParallel { threads: 1 },
            SpmmStrategy::Auto,
        ] {
            let out = model.infer(g, &x, strategy).unwrap();
            println!("{name} infer {strategy}: {:016x}", fnv(&out));
        }
        // `Precision::all()` starts at f32, which is the reference the
        // narrow lines report their relative-Frobenius error against. The
        // narrow hashes are expected to differ from parents before PR 24
        // (the dense update stopped narrowing there); their error must not
        // be larger than the parent's.
        let mut f32_out = DenseMatrix::default();
        for precision in Precision::all() {
            let mut ws = InferenceWorkspace::new();
            ws.install_plan(SpmmPlan::with_width(&a_hat, 16, 1).at_precision(precision));
            let out = model.infer_planned_with(&a_hat, &x, &mut ws).unwrap();
            let hash = fnv(out);
            if precision == Precision::F32 {
                f32_out = out.clone();
                println!("{name} planned {precision}: {hash:016x}");
            } else {
                let err = rel_frobenius(out, &f32_out);
                println!(
                    "{name} planned {precision} (expected to differ from parents before PR 24): \
                     {hash:016x} rel-frobenius vs f32 {err:.3e}"
                );
            }
        }
        // The recovering loop (in place like the plain one; a retry
        // recomputes an overwritten input) must give the plain loop's bits.
        for precision in [Precision::F32, Precision::Int8] {
            let mut ws = InferenceWorkspace::new();
            ws.install_plan(SpmmPlan::with_width(&a_hat, 16, 1).at_precision(precision));
            model
                .infer_recovering_with(&a_hat, &x, &RunGuard::unbounded(), &mut ws)
                .unwrap();
            println!("{name} recovering {precision}: {:016x}", fnv(ws.output()));
        }
        // Served rows at f32 and at two narrow precisions (carried by the
        // workspace's plan), each sequence through one workspace: a single
        // vertex, a spread batch, the whole graph, then a batch after it
        // (which must not read a row the whole-graph batch left behind).
        let n = a_hat.nrows();
        let batches: [Vec<usize>; 4] = [
            vec![5],
            (0..64).map(|i| i * 7 % 1024).collect(),
            (0..n).rev().collect(),
            vec![900, 3, 77, 3],
        ];
        for precision in [Precision::F32, Precision::Bf16, Precision::Int8] {
            let mut ws = InferenceWorkspace::new();
            ws.plan_for(&a_hat, 16, precision);
            let mut out = DenseMatrix::default();
            for targets in &batches {
                model
                    .infer_rows_planned_into(&a_hat, &x, targets, &mut ws, &mut out)
                    .unwrap();
                let size = targets.len();
                println!("{name} rows {precision} x{size}: {:016x}", fnv(&out));
            }
        }
    }
}
