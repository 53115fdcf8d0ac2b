//! Quickstart: run the async inference service against a Cora-scale
//! graph and drive it with a small open-loop load.
//!
//! Cora itself (2708 vertices, 1433 features, 7 classes) is not in the
//! Table-I catalog, so this builds an RMAT twin at Cora's shape and runs
//! a 2-layer GCN service over it: single-vertex requests from two
//! tenants with different deficit-round-robin weights, coalesced by a
//! 1 ms batching window into single planned SpMM+GEMM calls.
//!
//! ```sh
//! cargo run --release --example serve_cora
//! ```

use piuma_gcn::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Cora-scale twin: exactly 2708 vertices with power-law degrees
    // (an RMAT scale-12 edge set restricted to the first 2708 vertices).
    let seed_graph = Graph::rmat(&RmatConfig::power_law(12, 4), 42);
    let adj = seed_graph.adjacency();
    let mut edges = Vec::new();
    for r in 0..2708.min(adj.nrows()) {
        for &c in adj.row_cols(r) {
            if (c as usize) < 2708 && (c as usize) > r {
                edges.push((r, c as usize));
            }
        }
    }
    let g = Graph::from_undirected_edges(2708, &edges);
    let a_hat = g.normalized_adjacency()?;
    let n = a_hat.nrows();
    let x = g.random_features(1433, 9);
    let model = GcnModel::new(&GcnConfig::paper_model(1433, 16, 2), 7);

    // Two tenants: tenant 0 gets 3x the dispatch weight of tenant 1, and
    // both are capped at 512 in-flight output rows.
    let cfg = ServiceConfig {
        max_batch: 64,
        max_batch_rows: 4096,
        batch_window: Duration::from_millis(1),
        queue_limit: 512,
        latency_budget: Duration::from_secs(3),
        lanes: 2,
        tenants: vec![
            TenantSpec {
                weight: 3,
                quota_rows: 512,
            },
            TenantSpec {
                weight: 1,
                quota_rows: 512,
            },
        ],
        ..ServiceConfig::single_tenant()
    };
    let svc = GcnService::planned(model, a_hat, x, cfg)?;

    // Open-loop burst: 200 requests, alternating tenants, ~2k req/s —
    // fast enough that the 1 ms window coalesces real batches, slow
    // enough that a 1433-feature Cora model keeps up within budget.
    let mut handles = Vec::new();
    let mut shed = 0u64;
    for i in 0..200usize {
        std::thread::sleep(Duration::from_micros(500));
        match svc.submit_vertex((i % 2) as u32, (i * 131) % n) {
            Ok(h) => handles.push(h),
            Err(Rejection::QueueFull { .. } | Rejection::TenantOverLimit { .. }) => shed += 1,
            Err(other) => return Err(other.into()),
        }
    }
    let mut served = 0u64;
    for h in handles {
        match h.wait() {
            Ok(_) => served += 1,
            Err(Rejection::DeadlineExceeded { .. }) => {}
            Err(other) => return Err(other.into()),
        }
    }
    let m = svc.shutdown();
    println!("served {served} of 200 requests ({shed} shed at the door)");
    println!(
        "batches: {} (mean batch {:.1}), shed rate {:.1}%",
        m.batches,
        m.mean_batch_size(),
        m.shed_rate * 100.0
    );
    println!(
        "latency: p50 {:?}, p99 {:?} (queue wait p99 {:?})",
        m.p50, m.p99, m.queue_p99
    );

    // --- Degraded-mode quickstart -------------------------------------
    // Under sustained overload the service degrades precision before it
    // sheds: a zero high-water mark marks every batch overloaded, so each
    // response comes back annotated with the precision that served it
    // instead of silently at lower fidelity.
    let g2 = Graph::from_undirected_edges(2708, &edges);
    let a_hat2 = g2.normalized_adjacency()?;
    let x2 = g2.random_features(1433, 9);
    let model2 = GcnModel::new(&GcnConfig::paper_model(1433, 16, 2), 7);
    let mut brown_cfg = ServiceConfig::single_tenant();
    brown_cfg.brownout.queue_high_water = 0;
    let svc = GcnService::planned(model2, a_hat2, x2, brown_cfg)?;
    let resp = svc.submit_vertex(0, 0)?.wait()?;
    match &resp.degraded {
        Some(b) => println!(
            "degraded mode: served at {:?} (queue at its high-water mark)",
            b.precision
        ),
        None => println!("degraded mode: response unexpectedly full-precision"),
    }
    let m = svc.shutdown();
    println!(
        "brownout batches: {} (metrics export: ServiceMetrics::snapshot_json)",
        m.brownout_batches
    );
    Ok(())
}
