//! The GCN model: layers, construction, and inference.

use crate::config::GcnConfig;
use crate::error::GcnError;
use crate::resilient::{Degradation, InferenceRun};
use graph::Graph;
use kernels::fused::gcn_layer_planned_into;
use kernels::{SpmmPlan, SpmmStrategy};
use matrix::{Activation, DenseMatrix, MatrixError, Precision, QuantMatrix, WeightInit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use resilience::guard::RunGuard;
use resilience::retry::{self, Failure, RetryPolicy};
use sparse::Csr;

/// The buffers the layer loop ([`GcnModel::run_layers`]) ping-pongs
/// through: its input is read from `h`, each layer writes into `next` and
/// the pair is swapped, so after the loop `h` holds the output. After the
/// first call sizes them, later calls on same-shaped inputs perform no
/// output-sized allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct LayerBuffers {
    /// Current activations: the loop's input, then its output.
    pub(crate) h: DenseMatrix,
    /// Spare activation buffer written by the next layer.
    next: DenseMatrix,
    /// Intermediate product inside the layer.
    mid: DenseMatrix,
    /// Narrow-storage staging buffer: under a narrow plan each layer
    /// encodes its SpMM feature operand here (bf16 / f16 / int8) and the
    /// buffer is reused across layers and calls; untouched at `f32`.
    qbuf: QuantMatrix,
}

/// Reusable state for [`GcnModel::infer_planned_with`]: the layer loop's
/// activation buffers (two ping-pong matrices plus the layer's
/// intermediate — no fresh activation matrix per layer in steady state)
/// and the one [`SpmmPlan`] inference aggregates on, built by the first
/// inference against an adjacency and reused by every later layer / epoch
/// / call after an `O(1)` fingerprint check. The plan says *how* to run —
/// strategy (resolved or pinned), width, precision, SIMD backend — so no
/// inference entry point takes those as arguments.
#[derive(Debug, Clone, Default)]
pub struct InferenceWorkspace {
    bufs: LayerBuffers,
    /// Cached execution plan, keyed by the adjacency's structural
    /// fingerprint.
    plan: Option<SpmmPlan>,
}

impl InferenceWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// The activations produced by the most recent inference call.
    pub fn output(&self) -> &DenseMatrix {
        &self.bufs.h
    }

    /// The cached execution plan, if an inference has run or one was
    /// installed.
    pub fn plan(&self) -> Option<&SpmmPlan> {
        self.plan.as_ref()
    }

    /// Installs `plan` as the cached execution plan. Inference keeps any
    /// installed plan whose fingerprint matches the adjacency, so this is
    /// how a caller chooses how to aggregate: a machine-independent width-1
    /// plan (tests, the sharded runner), or one pinned to an
    /// explicit strategy ([`SpmmPlan::pinned`]).
    pub fn install_plan(&mut self, plan: SpmmPlan) {
        self.plan = Some(plan);
    }

    /// The workspace's one plan-cache lookup, keyed on the adjacency's
    /// structural fingerprint plus the *requested* storage precision: a
    /// cached plan for `a_hat` is kept and (only if it was asked for a
    /// different precision) re-targeted in `O(1)` via
    /// [`SpmmPlan::at_precision`]; a plan for a different graph is
    /// replaced by a fresh pool-width one. The precision probe may
    /// downgrade along [`Precision::fallback`] — inspect the returned plan
    /// for the recorded downgrade.
    pub fn plan_for(&mut self, a_hat: &Csr, k: usize, precision: Precision) -> &SpmmPlan {
        let plan = match self.plan.take() {
            Some(p) if p.matches(a_hat) => p,
            _ => SpmmPlan::new(a_hat, k),
        };
        self.plan.insert(plan.at_precision(precision))
    }
}

/// One GCN layer: a weight matrix, an optional bias, and an activation.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnLayer {
    /// Weight matrix `W_t` of shape `(in_dim, out_dim)`.
    pub weight: DenseMatrix,
    /// Optional bias of length `out_dim`.
    pub bias: Option<Vec<f32>>,
    /// Activation applied after the update.
    pub activation: Activation,
}

impl GcnLayer {
    /// Input feature dimension of this layer.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output feature dimension of this layer.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }
}

/// A multi-layer GCN model with learned (here: randomly initialized)
/// weights, executing inference along any [`SpmmPlan`].
///
/// # Examples
///
/// ```
/// use gcn::{GcnConfig, GcnModel};
///
/// let model = GcnModel::new(&GcnConfig::paper_model(16, 32, 4), 0);
/// assert_eq!(model.layers().len(), 3);
/// assert_eq!(model.layers()[0].weight.shape(), (16, 32));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GcnModel {
    layers: Vec<GcnLayer>,
}

impl GcnModel {
    /// Builds a model with Glorot-initialized weights, seeded for
    /// reproducibility.
    pub fn new(config: &GcnConfig, seed: u64) -> Self {
        Self::with_init(config, WeightInit::Glorot, seed)
    }

    /// Builds a model with an explicit weight-initialization scheme.
    pub fn with_init(config: &GcnConfig, init: WeightInit, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = config.num_layers();
        let layers = (0..n)
            .map(|t| {
                let (i, o) = config.layer_dims(t);
                GcnLayer {
                    weight: init.build(i, o, &mut rng),
                    bias: config.bias.then(|| vec![0.0; o]),
                    activation: if t + 1 == n {
                        Activation::Identity
                    } else {
                        config.hidden_activation
                    },
                }
            })
            .collect();
        GcnModel { layers }
    }

    /// The layers, in execution order.
    pub fn layers(&self) -> &[GcnLayer] {
        &self.layers
    }

    /// Mutable access to the layers (for tests that pin weights).
    pub fn layers_mut(&mut self) -> &mut [GcnLayer] {
        &mut self.layers
    }

    /// Input feature dimension expected by the first layer.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, GcnLayer::in_dim)
    }

    /// Runs full-graph inference with an explicit SpMM strategy — the one
    /// convenience wrapper: normalizes the adjacency, pins a plan to
    /// `strategy` ([`SpmmPlan::pinned`]) and runs
    /// [`GcnModel::infer_planned_with`] in a fresh workspace. Callers that
    /// infer repeatedly hold the adjacency and a workspace instead.
    ///
    /// # Errors
    ///
    /// Returns [`GcnError::FeatureDimMismatch`] / [`GcnError::VertexCountMismatch`]
    /// for malformed inputs, and propagates kernel errors.
    pub fn infer(
        &self,
        graph: &Graph,
        features: &DenseMatrix,
        strategy: SpmmStrategy,
    ) -> Result<DenseMatrix, GcnError> {
        let a_hat = graph.normalized_adjacency()?;
        let mut workspace = InferenceWorkspace::new();
        workspace.install_plan(SpmmPlan::pinned(&a_hat, features.cols(), strategy));
        self.infer_planned_with(&a_hat, features, &mut workspace)?;
        Ok(workspace.bufs.h)
    }

    /// Runs inference against a pre-normalized adjacency, entirely inside a
    /// caller-owned [`InferenceWorkspace`], along the workspace's
    /// [`SpmmPlan`]: the first call against a graph builds one at pool
    /// width (unless a matching plan was installed) and every later layer
    /// and call reuses it. Under a resolved plan only the strategy
    /// *resolution* (a handful of comparisons against the cached
    /// statistics) runs per layer, so layers with different feature widths
    /// still pick the right kernel; a pinned plan runs its strategy at
    /// every layer.
    ///
    /// Precision is carried by the plan the workspace holds: an empty
    /// workspace runs `f32`; after [`InferenceWorkspace::plan_for`] (or an
    /// installed plan) at bf16 / f16 / int8, every layer stores its SpMM
    /// feature operand at that precision while accumulating in `f32`; the
    /// dense update is the same `f32` GEMM at every precision.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GcnModel::infer`].
    pub fn infer_planned_with<'w>(
        &self,
        a_hat: &Csr,
        features: &DenseMatrix,
        workspace: &'w mut InferenceWorkspace,
    ) -> Result<&'w DenseMatrix, GcnError> {
        self.check_shapes(a_hat, features)?;
        self.run_whole_graph(a_hat, features, &RunGuard::unbounded(), None, workspace)?;
        Ok(&workspace.bufs.h)
    }

    /// Whole-graph inference along the workspace's plan: resolves the plan
    /// for `a_hat` at the precision the workspace was asked for, copies
    /// `features` in, and runs every layer on that one `(a_hat, plan)` pair.
    /// The workspace's own plan is never modified; the report carries the
    /// precision it ran at and its ISA-probe downgrade, if any.
    pub(crate) fn run_whole_graph(
        &self,
        a_hat: &Csr,
        features: &DenseMatrix,
        guard: &RunGuard,
        policy: Option<&RetryPolicy>,
        workspace: &mut InferenceWorkspace,
    ) -> Result<InferenceRun, GcnError> {
        let precision = workspace
            .plan
            .as_ref()
            .map_or(Precision::F32, SpmmPlan::requested_precision);
        workspace.plan_for(a_hat, features.cols(), precision);
        let InferenceWorkspace { bufs, plan } = workspace;
        let plan = plan.as_ref().expect("plan populated above");
        bufs.h.copy_from(features);
        let mut run = self.run_layers(&[(a_hat, plan)], guard, policy, bufs)?;
        run.used = plan.precision();
        run.precision_fallback = plan.precision_fallback();
        Ok(run)
    }

    /// The layer loop every inference entry point runs, over the input
    /// already in `bufs.h`. Layer `t` aggregates on `ops[t]` — its
    /// (possibly rectangular) adjacency operand and that operand's plan; a
    /// one-entry `ops` is broadcast to every layer (whole-graph inference),
    /// one entry per layer is the rows path's frontier stack. A fired
    /// `guard` (checked before each layer) ends the run with the buffers at
    /// the last completed layer. Without a `policy` each layer is one direct
    /// call. With one, this is the workspace's only retry-then-degrade walk:
    /// the layer runs under [`retry::run`] — the `gcn.layer` fault site
    /// inside the retried attempt — and on exhausting its attempts steps to
    /// a copy of that layer's plan re-pinned one rung down
    /// [`SpmmStrategy::fallback`], recording the rung in the report. Every
    /// layer starts back at its own plan.
    pub(crate) fn run_layers(
        &self,
        ops: &[(&Csr, &SpmmPlan)],
        guard: &RunGuard,
        policy: Option<&RetryPolicy>,
        bufs: &mut LayerBuffers,
    ) -> Result<InferenceRun, GcnError> {
        let LayerBuffers { h, next, mid, qbuf } = bufs;
        let mut run = InferenceRun {
            total_layers: self.layers.len(),
            backend_fallback: matrix::microkernel::probe_fallback(),
            ..InferenceRun::default()
        };
        for (t, layer) in self.layers.iter().enumerate() {
            if let Some(reason) = guard.should_stop() {
                run.stopped = Some(reason);
                return Ok(run);
            }
            let (a_hat, base) = ops[t.min(ops.len() - 1)];
            let mut attempt = |plan: &SpmmPlan| {
                gcn_layer_planned_into(
                    a_hat,
                    h,
                    &layer.weight,
                    layer.bias.as_deref(),
                    layer.activation,
                    plan,
                    qbuf,
                    mid,
                    next,
                )
                .map(|_| ())
            };
            if let Some(policy) = policy {
                let mut rung: Option<SpmmPlan> = None;
                loop {
                    let current = rung.as_ref().unwrap_or(base);
                    let outcome = retry::run(policy, || -> Result<(), MatrixError> {
                        resilience::fault_point_err!(
                            "gcn.layer",
                            MatrixError::Fault { site: "gcn.layer" }
                        );
                        attempt(current)
                    });
                    let err = match outcome {
                        Ok(rec) => {
                            run.attempts += rec.attempts;
                            run.recovered_panics += rec.recovered_panics;
                            run.recovered_errors += rec.recovered_errors;
                            break;
                        }
                        Err(err) => err,
                    };
                    run.attempts += err.attempts;
                    let from = current.exec();
                    let Some(to) = from.fallback() else {
                        return Err(GcnError::Kernel(match err.last {
                            Failure::Error(e) => e,
                            Failure::Panic(_) => MatrixError::Fault {
                                site: "gcn.layer: unrecovered panic",
                            },
                        }));
                    };
                    run.degradations.push(Degradation {
                        layer: Some(t),
                        from: from.to_string(),
                        to: to.to_string(),
                        cause: err.last.to_string(),
                    });
                    rung = Some(base.clone().pin(to));
                    if let Some(reason) = guard.should_stop() {
                        run.stopped = Some(reason);
                        return Ok(run);
                    }
                }
            } else {
                attempt(base)?;
            }
            std::mem::swap(h, next);
            run.layers_done += 1;
        }
        Ok(run)
    }

    /// The shape contract every inference entry point shares: one feature
    /// row per vertex, as wide as the first layer expects.
    pub(crate) fn check_shapes(&self, a_hat: &Csr, features: &DenseMatrix) -> Result<(), GcnError> {
        if features.cols() != self.input_dim() {
            return Err(GcnError::FeatureDimMismatch {
                expected: self.input_dim(),
                actual: features.cols(),
            });
        }
        if features.rows() != a_hat.nrows() {
            return Err(GcnError::VertexCountMismatch {
                graph: a_hat.nrows(),
                features: features.rows(),
            });
        }
        Ok(())
    }

    /// Reference inference: unfused, sequential, aggregation always first.
    /// Exists purely as an oracle for tests.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GcnModel::infer`].
    pub fn infer_reference(
        &self,
        graph: &Graph,
        features: &DenseMatrix,
    ) -> Result<DenseMatrix, GcnError> {
        let a_hat = graph.normalized_adjacency()?;
        let mut h = features.clone();
        for layer in &self.layers {
            let agg = kernels::spmm::spmm_sequential(&a_hat, &h)?;
            let mut upd = matrix::gemm::matmul_naive(&agg, &layer.weight)?;
            if let Some(b) = &layer.bias {
                upd.add_row_bias(b)?;
            }
            upd.apply_activation(layer.activation);
            h = upd;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::rmat::RmatConfig;

    fn small_graph() -> Graph {
        Graph::rmat(&RmatConfig::power_law(6, 4), 11)
    }

    #[test]
    fn inference_shapes_follow_config() {
        let g = small_graph();
        let model = GcnModel::new(&GcnConfig::paper_model(12, 24, 5), 1);
        let x = g.random_features(12, 2);
        let out = model.infer(&g, &x, SpmmStrategy::Sequential).unwrap();
        assert_eq!(out.shape(), (g.vertices(), 5));
        assert!(out.all_finite());
    }

    #[test]
    fn fused_inference_matches_reference_for_all_strategies() {
        let g = small_graph();
        let model = GcnModel::new(&GcnConfig::paper_model(8, 16, 4), 3);
        let x = g.random_features(8, 4);
        let reference = model.infer_reference(&g, &x).unwrap();
        for strategy in [
            SpmmStrategy::Sequential,
            SpmmStrategy::VertexParallel { threads: 4 },
            SpmmStrategy::EdgeParallel { threads: 4 },
        ] {
            let got = model.infer(&g, &x, strategy).unwrap();
            assert!(
                reference.max_abs_diff(&got) < 1e-3,
                "strategy {strategy} diverged by {}",
                reference.max_abs_diff(&got)
            );
        }
    }

    #[test]
    fn wrong_feature_dim_is_rejected() {
        let g = small_graph();
        let model = GcnModel::new(&GcnConfig::paper_model(8, 16, 4), 3);
        let x = g.random_features(9, 4);
        assert!(matches!(
            model.infer(&g, &x, SpmmStrategy::Sequential),
            Err(GcnError::FeatureDimMismatch {
                expected: 8,
                actual: 9
            })
        ));
    }

    #[test]
    fn wrong_vertex_count_is_rejected() {
        let g = small_graph();
        let model = GcnModel::new(&GcnConfig::paper_model(8, 16, 4), 3);
        let x = DenseMatrix::zeros(g.vertices() + 1, 8);
        assert!(matches!(
            model.infer(&g, &x, SpmmStrategy::Sequential),
            Err(GcnError::VertexCountMismatch { .. })
        ));
    }

    #[test]
    fn identity_weights_propagate_neighbourhood_means() {
        // With identity weights, no bias and identity activations, one layer
        // computes exactly A_hat * X.
        let g = Graph::from_undirected_edges(2, &[(0, 1)]);
        let mut model = GcnModel::new(&GcnConfig::from_dims(vec![2, 2]), 0);
        model.layers_mut()[0].weight = DenseMatrix::identity(2);
        model.layers_mut()[0].bias = None;
        model.layers_mut()[0].activation = Activation::Identity;
        let x = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let out = model.infer(&g, &x, SpmmStrategy::Sequential).unwrap();
        // A_hat for an edge graph with self loops: all entries 1/2.
        for v in out.as_slice() {
            assert!((v - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn pinned_workspace_matches_fresh_normalization() {
        // `infer` is normalize + pin + the loop: holding the normalized
        // adjacency and a pinned workspace gives the same bits.
        let g = small_graph();
        let model = GcnModel::new(&GcnConfig::paper_model(8, 8, 8), 5);
        let x = g.random_features(8, 6);
        let a_hat = g.normalized_adjacency().unwrap();
        let a = model.infer(&g, &x, SpmmStrategy::Sequential).unwrap();
        let mut ws = InferenceWorkspace::new();
        ws.install_plan(SpmmPlan::pinned(&a_hat, 8, SpmmStrategy::Sequential));
        let b = model.infer_planned_with(&a_hat, &x, &mut ws).unwrap();
        assert_eq!(a, *b);
        // The pin survives the call: the loop never replaces a matching plan.
        assert_eq!(ws.plan().unwrap().exec(), SpmmStrategy::Sequential);
    }

    #[test]
    fn planned_inference_matches_reference() {
        let g = Graph::rmat(&RmatConfig::power_law(9, 8), 23);
        let model = GcnModel::new(&GcnConfig::paper_model(16, 32, 8), 9);
        let x = g.random_features(16, 7);
        let reference = model.infer_reference(&g, &x).unwrap();
        let a_hat = g.normalized_adjacency().unwrap();
        let mut ws = InferenceWorkspace::new();
        let planned = model.infer_planned_with(&a_hat, &x, &mut ws).unwrap();
        assert!(
            reference.max_abs_diff(planned) < 1e-3,
            "planned inference diverged by {}",
            reference.max_abs_diff(planned)
        );
    }

    #[test]
    fn workspace_reuses_plan_across_calls() {
        let g = small_graph();
        let model = GcnModel::new(&GcnConfig::paper_model(8, 16, 4), 3);
        let x = g.random_features(8, 4);
        let a_hat = g.normalized_adjacency().unwrap();
        let mut ws = InferenceWorkspace::new();
        assert!(ws.plan().is_none());
        model.infer_planned_with(&a_hat, &x, &mut ws).unwrap();
        let fingerprint = ws.plan().expect("plan cached").fingerprint_value();
        model.infer_planned_with(&a_hat, &x, &mut ws).unwrap();
        assert_eq!(
            ws.plan().expect("plan retained").fingerprint_value(),
            fingerprint
        );
        // A different graph invalidates the cache.
        let g2 = Graph::rmat(&RmatConfig::power_law(7, 4), 99);
        let a2 = g2.normalized_adjacency().unwrap();
        let x2 = g2.random_features(8, 4);
        model.infer_planned_with(&a2, &x2, &mut ws).unwrap();
        assert!(ws.plan().expect("plan rebuilt").matches(&a2));
        assert!(!ws.plan().expect("plan rebuilt").matches(&a_hat));
    }

    #[test]
    fn planned_with_matches_auto_strategy() {
        let g = Graph::rmat(&RmatConfig::power_law(8, 6), 41);
        let model = GcnModel::new(&GcnConfig::paper_model(12, 12, 12), 2);
        let x = g.random_features(12, 5);
        let a_hat = g.normalized_adjacency().unwrap();
        let auto = model.infer(&g, &x, SpmmStrategy::Auto).unwrap();
        let mut ws = InferenceWorkspace::new();
        let planned = model.infer_planned_with(&a_hat, &x, &mut ws).unwrap();
        assert!(auto.max_abs_diff(planned) < 1e-3);
    }

    #[test]
    fn seeded_models_are_reproducible() {
        let c = GcnConfig::paper_model(8, 8, 2);
        assert_eq!(GcnModel::new(&c, 7), GcnModel::new(&c, 7));
        assert_ne!(GcnModel::new(&c, 7), GcnModel::new(&c, 8));
    }
}
