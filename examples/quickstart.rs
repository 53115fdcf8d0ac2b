//! Quickstart: build a graph, run GCN inference with every host kernel,
//! then simulate the aggregation on a PIUMA machine.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use piuma_gcn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A power-law graph: 2^10 vertices, ~8 edges per vertex.
    let g = Graph::rmat(&RmatConfig::power_law(10, 8), 42);
    let stats = g.degree_stats();
    println!(
        "graph: {} vertices, {} edges, avg degree {:.1}, max degree {}",
        g.vertices(),
        g.edges(),
        stats.mean,
        stats.max
    );

    // 2. A 3-layer GCN (the paper's model): input 32, hidden 64, output 8.
    let model = GcnModel::new(&GcnConfig::paper_model(32, 64, 8), 7);
    let x = g.random_features(32, 9);

    // 3. Inference with each SpMM strategy; all must agree. The parallel
    //    strategies share the persistent `kernels::pool` thread pool.
    let reference = model.infer(&g, &x, SpmmStrategy::Sequential)?;
    for strategy in [
        SpmmStrategy::VertexParallel { threads: 4 },
        SpmmStrategy::NnzBalanced { threads: 4 },
        SpmmStrategy::EdgeParallel { threads: 4 },
        SpmmStrategy::Hybrid { threads: 4 },
        SpmmStrategy::Auto,
    ] {
        let out = model.infer(&g, &x, strategy)?;
        println!(
            "{strategy}: output {}x{}, max diff vs sequential {:.2e}",
            out.rows(),
            out.cols(),
            reference.max_abs_diff(&out)
        );
    }
    println!(
        "auto resolves to `{}` for this graph at K=32 (pool width {})",
        SpmmPlan::new(&g.normalized_adjacency()?, 32).exec(),
        kernels::pool::global().width()
    );

    // 4. Simulate the aggregation kernel on PIUMA: DMA vs loop-unrolled.
    for cores in [1usize, 4, 8] {
        let config = MachineConfig::node(cores);
        for variant in [SpmmVariant::Dma, SpmmVariant::LoopUnrolled] {
            let run = SpmmSimulation::new(config.clone(), variant).run(g.adjacency(), 64)?;
            println!(
                "piuma {cores:2} cores, {variant:>13}: {:7.2} GFLOP/s ({:.0}% of bandwidth model)",
                run.gflops,
                run.model_fraction() * 100.0
            );
        }
    }

    // 5. Where would this workload land on the paper's platforms?
    let w = GcnWorkload::paper_model(g.vertices(), g.edges(), 32, 64, 8);
    let cpu = XeonModel::default().gcn_times_full(&w);
    let gpu = GpuModel::default().gcn_times(&w);
    let piuma = PiumaModel::default().gcn_times(&w);
    println!("cpu   model: {cpu}");
    println!("gpu   model: {gpu}");
    println!("piuma model: {piuma}");
    println!(
        "piuma speedup over cpu: {:.2}x, gpu over cpu: {:.2}x",
        piuma.speedup_over(&cpu),
        gpu.speedup_over(&cpu)
    );
    Ok(())
}
