//! Measure (on this host) how the hidden embedding dimension shifts real
//! GCN inference time between aggregation and update — the architectural
//! knob the paper sweeps throughout.
//!
//! ```text
//! cargo run --release --example embedding_sweep
//! ```

use kernels::fused::gcn_layer_planned_into;
use matrix::microkernel::{matmul_packed_with, KernelDispatch};
use matrix::QuantMatrix;
use piuma_gcn::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = OgbDataset::Products.materialize_scaled(1 << 13, 3);
    let a_hat = g.normalized_adjacency()?;
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    println!(
        "scaled products twin: {} vertices, {} edges, {threads} host threads",
        g.vertices(),
        g.edges()
    );

    println!(
        "\n{:>5} {:>14} {:>14} {:>14} {:>10}",
        "K", "spmm ms", "dense ms", "total ms", "spmm %"
    );
    let strategy = SpmmStrategy::VertexParallel { threads };
    let (mut upd, mut mid, mut fused) = (
        DenseMatrix::default(),
        DenseMatrix::default(),
        DenseMatrix::default(),
    );
    let mut qbuf = QuantMatrix::new();
    for k in [8usize, 16, 32, 64, 128, 256] {
        let x = g.random_features(k, 5);
        let w = WeightInit::Glorot.build(k, k, &mut rand::rngs::mock::StepRng::new(1, 7));

        // Time the two phases separately...
        let t0 = Instant::now();
        let agg = strategy.run(&a_hat, &x)?;
        let spmm_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        matmul_packed_with(KernelDispatch::get(), &agg, &w, threads, &mut upd)?;
        let dense_ms = t1.elapsed().as_secs_f64() * 1e3;

        // ...and the layer end to end, on a plan pinned to the same kernel.
        let plan = SpmmPlan::pinned(&a_hat, k, strategy);
        let t2 = Instant::now();
        gcn_layer_planned_into(
            &a_hat,
            &x,
            &w,
            None,
            Activation::Relu,
            &plan,
            &mut qbuf,
            &mut mid,
            &mut fused,
        )?;
        let total_ms = t2.elapsed().as_secs_f64() * 1e3;
        assert_eq!(fused.shape(), upd.shape());

        println!(
            "{k:>5} {spmm_ms:>14.2} {dense_ms:>14.2} {total_ms:>14.2} {:>9.0}%",
            spmm_ms / (spmm_ms + dense_ms) * 100.0
        );
    }
    println!("\nAs on the paper's CPU baseline, aggregation (SpMM) dominates and");
    println!("its share grows with K once the feature matrix outgrows the caches.");
    Ok(())
}
