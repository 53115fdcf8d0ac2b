//! Mini-batch GCN inference through neighbourhood sampling.
//!
//! When a graph does not fit in a device's memory, inference falls back to
//! sampling: for each batch of target vertices, expand their L-hop
//! neighbourhood (L = number of layers), run the model on the induced
//! subgraph, and keep only the target rows. The paper's GPU baseline uses
//! exactly this *full-neighbourhood* scheme on `papers` (Section III-C) —
//! sampling cost is what buries the GPU there — and its Discussion section
//! points at fixed-fanout (GraphSAGE-style) sampling as future work.
//!
//! Full-neighbourhood sampling computes *exactly* what full-graph inference
//! computes for the target vertices (a test pins this): the rows a target
//! depends on are aggregated with the parent graph's normalized adjacency,
//! degrees and all — which is the rows path
//! ([`GcnModel::infer_rows_planned_into`]), so that arm calls it. Running
//! the model on the *induced* subgraph instead renormalizes it, truncating
//! the degrees of the outermost hop; that is what fixed-fanout sampling,
//! the cheaper approximation, does by design.

use crate::error::GcnError;
use crate::model::GcnModel;
use crate::rows::RowsWorkspace;
use graph::sampling::{full_neighborhood, sample_neighbors, Subgraph};
use graph::Graph;
use kernels::SpmmStrategy;
use matrix::DenseMatrix;

/// How a mini-batch neighbourhood is formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingScheme {
    /// Every in-neighbour at every hop — exact, but the neighbourhood can
    /// explode (the `papers` problem).
    FullNeighborhood,
    /// At most `fanout` sampled in-neighbours per vertex per hop.
    FixedFanout {
        /// Neighbours kept per vertex per hop.
        fanout: usize,
        /// RNG seed for reproducibility.
        seed: u64,
    },
}

/// Result of one sampled mini-batch inference.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledBatch {
    /// Model output for the batch vertices, in batch order.
    pub output: DenseMatrix,
    /// The sampled subgraph the batch ran on (exposes neighbourhood size —
    /// the quantity whose explosion the paper measures as "sampling" cost).
    pub subgraph: Subgraph,
}

impl GcnModel {
    /// Runs inference for `batch` only, by sampling its L-hop neighbourhood
    /// (L = layer count). [`SamplingScheme::FullNeighborhood`] is exact: it
    /// runs the rows path against the parent's normalized adjacency (one
    /// pool-width vertex-parallel plan per layer, whatever `strategy` says)
    /// and reports the neighbourhood it read.
    /// [`SamplingScheme::FixedFanout`] runs the model, under `strategy`, on
    /// the renormalized induced subgraph.
    ///
    /// `features` is the *full* feature matrix; rows for the sampled
    /// vertices are gathered from it. Output row `i` corresponds to
    /// `batch[i]`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the kernels; see [`GcnModel::infer`].
    ///
    /// # Panics
    ///
    /// Panics if a batch vertex is out of range (mirrors the sampler).
    pub fn infer_sampled(
        &self,
        graph: &Graph,
        features: &DenseMatrix,
        batch: &[usize],
        scheme: SamplingScheme,
        strategy: SpmmStrategy,
    ) -> Result<SampledBatch, GcnError> {
        let hops = self.layers().len();
        let subgraph = match scheme {
            SamplingScheme::FullNeighborhood => {
                let subgraph = full_neighborhood(graph, batch, hops);
                let a_hat = graph.normalized_adjacency()?;
                let mut output = DenseMatrix::default();
                let mut ws = RowsWorkspace::new();
                self.infer_rows_planned_into(&a_hat, features, batch, &mut ws, &mut output)?;
                return Ok(SampledBatch { output, subgraph });
            }
            SamplingScheme::FixedFanout { fanout, seed } => {
                sample_neighbors(graph, batch, hops, fanout, seed)
            }
        };

        // Gather features for the sampled vertices.
        let k = features.cols();
        let mut local_features = DenseMatrix::zeros(subgraph.len(), k);
        for (local, &parent) in subgraph.vertices.iter().enumerate() {
            local_features
                .row_mut(local)
                .copy_from_slice(features.row(parent));
        }

        let local_graph = Graph::from_adjacency(subgraph.adjacency.clone());
        let full = self.infer(&local_graph, &local_features, strategy)?;

        // Batch vertices are seeds-first in the sampler's ordering, but
        // duplicates were deduplicated — map explicitly.
        let out_dim = full.cols();
        let mut output = DenseMatrix::zeros(batch.len(), out_dim);
        for (i, &parent) in batch.iter().enumerate() {
            let local = subgraph
                .local_id(parent)
                .expect("batch vertex is in its own sample");
            output.row_mut(i).copy_from_slice(full.row(local));
        }
        Ok(SampledBatch { output, subgraph })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcnConfig;
    use graph::rmat::RmatConfig;

    fn setup_at(scale: u32) -> (Graph, GcnModel, DenseMatrix) {
        let g = Graph::rmat(&RmatConfig::power_law(scale, 6), 21);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 4);
        let x = g.random_features(8, 6);
        (g, model, x)
    }

    fn setup() -> (Graph, GcnModel, DenseMatrix) {
        setup_at(7)
    }

    #[test]
    fn full_neighborhood_sampling_is_exact() {
        // The L-hop receptive field of a vertex fully determines its L-layer
        // GCN output, so full-neighbourhood mini-batch inference must equal
        // the full-graph result on the batch rows — at a scale where the
        // batch's 3-hop ball does not cover its component, so boundary
        // vertices have neighbours outside the sample and a renormalized
        // induced subgraph would truncate their degrees.
        let (g, model, x) = setup_at(10);
        let full = model.infer(&g, &x, SpmmStrategy::Sequential).unwrap();
        let batch = [3usize, 17, 42];
        let sampled = model
            .infer_sampled(
                &g,
                &x,
                &batch,
                SamplingScheme::FullNeighborhood,
                SpmmStrategy::Sequential,
            )
            .unwrap();
        assert!(sampled.subgraph.len() < g.vertices());
        for (i, &v) in batch.iter().enumerate() {
            let expected = full.row(v);
            let got = sampled.output.row(i);
            let scale = expected.iter().fold(0.0f32, |m, e| m.max(e.abs()));
            let diff = expected
                .iter()
                .zip(got)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(diff <= 1e-6 * scale, "vertex {v}: diff {diff} on {scale}");
        }
    }

    #[test]
    fn fanout_sampling_shrinks_the_neighbourhood() {
        let (g, model, x) = setup();
        let batch: Vec<usize> = (0..8).collect();
        let full = model
            .infer_sampled(
                &g,
                &x,
                &batch,
                SamplingScheme::FullNeighborhood,
                SpmmStrategy::Sequential,
            )
            .unwrap();
        let sampled = model
            .infer_sampled(
                &g,
                &x,
                &batch,
                SamplingScheme::FixedFanout { fanout: 2, seed: 3 },
                SpmmStrategy::Sequential,
            )
            .unwrap();
        assert!(sampled.subgraph.len() <= full.subgraph.len());
        assert_eq!(sampled.output.shape(), (batch.len(), 3));
        assert!(sampled.output.all_finite());
    }

    #[test]
    fn batch_order_is_preserved() {
        let (g, model, x) = setup();
        let forward = model
            .infer_sampled(
                &g,
                &x,
                &[5, 9],
                SamplingScheme::FullNeighborhood,
                SpmmStrategy::Sequential,
            )
            .unwrap();
        let reversed = model
            .infer_sampled(
                &g,
                &x,
                &[9, 5],
                SamplingScheme::FullNeighborhood,
                SpmmStrategy::Sequential,
            )
            .unwrap();
        // A row's bits do not depend on the batch it rode in.
        assert_eq!(forward.output.row(0), reversed.output.row(1));
        assert_eq!(forward.output.row(1), reversed.output.row(0));
    }

    #[test]
    fn sampled_inference_works_with_parallel_kernels() {
        let (g, model, x) = setup();
        // The same seeded sample twice: only the kernel differs.
        let batch = [1usize, 2, 3];
        let seq = model
            .infer_sampled(
                &g,
                &x,
                &batch,
                SamplingScheme::FixedFanout { fanout: 3, seed: 5 },
                SpmmStrategy::Sequential,
            )
            .unwrap();
        let par = model
            .infer_sampled(
                &g,
                &x,
                &batch,
                SamplingScheme::FixedFanout { fanout: 3, seed: 5 },
                SpmmStrategy::EdgeParallel { threads: 4 },
            )
            .unwrap();
        assert!(seq.output.max_abs_diff(&par.output) < 1e-3);
    }
}
