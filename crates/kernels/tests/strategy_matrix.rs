//! Cross-strategy correctness matrix: every `SpmmStrategy` (including
//! `Auto`) must agree with the sequential reference on both a skewed
//! (RMAT power-law) and a near-uniform (Erdős–Rényi) graph, across the
//! thread counts and embedding widths the paper's sweeps exercise.

use graph::generators::erdos_renyi;
use graph::rmat::RmatConfig;
use graph::Graph;
use kernels::spmm::spmm_sequential;
use kernels::SpmmStrategy;
use matrix::DenseMatrix;
use sparse::Csr;

const THREADS: [usize; 4] = [1, 2, 7, 16];
const WIDTHS: [usize; 3] = [1, 8, 300];

fn fixtures() -> Vec<(&'static str, Csr, Graph)> {
    let skewed = Graph::rmat(&RmatConfig::power_law(8, 8), 13);
    let uniform = erdos_renyi(300, 1800, 14);
    [("rmat-power-law", skewed), ("erdos-renyi", uniform)]
        .into_iter()
        .map(|(name, g)| {
            let a_hat = g.normalized_adjacency().unwrap();
            (name, a_hat, g)
        })
        .collect()
}

#[test]
fn every_strategy_matches_sequential_across_graphs_threads_and_widths() {
    for (name, a_hat, graph) in fixtures() {
        for k in WIDTHS {
            let h = graph.random_features(k, 99);
            let reference = spmm_sequential(&a_hat, &h).unwrap();
            for threads in THREADS {
                let strategies = [
                    SpmmStrategy::VertexParallel { threads },
                    SpmmStrategy::EdgeParallel { threads },
                ];
                for strategy in strategies {
                    let got = strategy.run(&a_hat, &h).unwrap();
                    assert!(
                        reference.max_abs_diff(&got) < 1e-3,
                        "{name} k={k} {strategy} diverged by {}",
                        reference.max_abs_diff(&got)
                    );
                }
            }
            // Auto resolves from the operands, independent of a thread knob.
            let got = SpmmStrategy::Auto.run(&a_hat, &h).unwrap();
            assert!(
                reference.max_abs_diff(&got) < 1e-3,
                "{name} k={k} auto ({}) diverged",
                kernels::SpmmPlan::new(&a_hat, k).exec()
            );
        }
    }
}

#[test]
fn auto_reuses_one_buffer_across_heterogeneous_shapes() {
    // Auto may switch kernels between calls; the shared output buffer must
    // still come back exact each time.
    let mut buf = DenseMatrix::filled(4, 4, f32::NAN);
    for (_, a_hat, graph) in fixtures() {
        for k in WIDTHS {
            let h = graph.random_features(k, 7);
            let reference = spmm_sequential(&a_hat, &h).unwrap();
            SpmmStrategy::Auto.run_into(&a_hat, &h, &mut buf).unwrap();
            assert!(reference.max_abs_diff(&buf) < 1e-3);
        }
    }
}
