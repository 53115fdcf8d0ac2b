//! The GCN model: layers, construction, and inference.

use crate::config::GcnConfig;
use crate::error::GcnError;
use crate::resilient::{Degradation, InferenceRun};
use graph::Graph;
use kernels::fused::gcn_layer_planned_into;
use kernels::plan::{nnz_balanced_partition_of, RowLists, PLAN_SLOTS_PER_THREAD};
use kernels::{SpmmPlan, SpmmStrategy};
use matrix::{Activation, DenseMatrix, MatrixError, Precision, QuantMatrix, WeightInit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use resilience::guard::RunGuard;
use resilience::retry::{self, Failure};
use sparse::Csr;

/// The one workspace every inference entry point runs in: the layer
/// loop's activation buffers, the [`SpmmPlan`] it aggregates on, and —
/// allocated only by a rows call ([`GcnModel::infer_rows_planned_into`]) —
/// the visited marks, the levels and the row-list partition.
///
/// The loop runs **in place**: layer 0 reads the features and writes `h`,
/// every later layer reads `h` and overwrites it (each layer reads its
/// input once, into `mid`, before it writes its output), so every run —
/// plain or recovering — holds two activation buffers. A recovering run
/// ([`GcnModel::infer_recovering_with`]) keeps no spare copy of a layer's
/// input: a retry after an attempt that overwrote it rebuilds it by
/// re-running the earlier layers (see [`crate::resilient`]), on the rungs
/// the workspace records for the layers that stepped down. Every buffer
/// is sized once, for the widest layer, before layer 0, and is reused at
/// its high-water mark, so later calls on same-shaped inputs perform no
/// output-sized allocation.
///
/// The plan is built by the first inference against an adjacency and
/// reused by every later layer / epoch / call after an `O(1)` fingerprint
/// check. It says *how* to run — strategy (resolved or pinned), width,
/// precision, SIMD backend — so no inference entry point takes those as
/// arguments.
#[derive(Debug, Clone, Default)]
pub struct InferenceWorkspace {
    /// Current activations: the loop's input, then its output.
    pub(crate) h: DenseMatrix,
    /// Intermediate product inside the layer.
    pub(crate) mid: DenseMatrix,
    /// Narrow-storage staging buffer: under a narrow plan each layer
    /// encodes its SpMM feature operand here (bf16 / f16 / int8) and the
    /// buffer is reused across layers and calls; untouched at `f32`.
    qbuf: QuantMatrix,
    /// Cached execution plan, keyed by the adjacency's structural
    /// fingerprint.
    plan: Option<SpmmPlan>,
    /// Recovering runs: each layer so far that completed on a rung below
    /// the plan, with that rung and its depth down the ladder, so a lost
    /// input is rebuilt on the same rungs. Empty, and never allocated,
    /// while no layer steps down.
    degraded: Vec<(usize, usize, SpmmStrategy)>,
    /// Rows calls: `mark[v] == epoch` ⇔ vertex `v` is in the level being
    /// collected.
    pub(crate) mark: Vec<u32>,
    pub(crate) epoch: u32,
    /// Rows calls: `levels[l]` = `V_l`, ascending.
    pub(crate) levels: Vec<Vec<usize>>,
    /// Rows calls: the current layer's NNZ partition, as positions in its
    /// row list.
    pub(crate) slots: Vec<usize>,
}

impl InferenceWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// The activations produced by the most recent whole-graph inference
    /// call (after an `Err` they are unspecified; after a rows call they
    /// hold its level rows at their global ids).
    pub fn output(&self) -> &DenseMatrix {
        &self.h
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
    /// for the recorded downgrade. Every later inference call, whole-graph
    /// or rows, runs at the precision asked for here.
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
        Ok(workspace.h)
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
        self.run_layers(
            a_hat,
            features,
            None,
            &RunGuard::unbounded(),
            false,
            workspace,
        )?;
        Ok(&workspace.h)
    }

    /// The one layer loop. It resolves the workspace's plan for `a_hat` at
    /// the precision the workspace was asked for, and runs every layer on
    /// that one `(a_hat, plan)` pair: on every row (`levels` `None`), or on
    /// row lists — layer `t` computes the rows `levels[t + 1]` from its
    /// input's rows `levels[t]`, at global ids, on an NNZ partition of the
    /// list at pool width. Layer 0 reads `features` in place; they are
    /// copied into the output only when no layer completed (a zero-layer
    /// model, or a guard that fired first).
    ///
    /// Every layer after the first runs in place on `h`. With `recover`
    /// (whole-graph runs only) this is the workspace's only
    /// retry-then-degrade walk: each layer runs under [`retry::run`] — the
    /// `gcn.layer` fault site at the top of the retried attempt — and on
    /// exhausting its [`retry::ATTEMPTS`] attempts steps to a copy of the
    /// plan re-pinned one rung down [`SpmmStrategy::fallback`], recording
    /// the rung in the report; every layer starts back at the workspace's
    /// plan. Once an attempt at layer `t` has reached its kernel, `h` may no
    /// longer hold `t`'s input, so each later attempt first rebuilds it:
    /// layers `0..t` again from `features`, in place, each on the rung that
    /// completed it (or on the lower rung layer `t` has stepped down to),
    /// without visiting the `gcn.layer` site. A fired `guard`
    /// (checked before each layer and rung) ends the run with `h` at the
    /// last completed layer, rebuilt first if an attempt overwrote it;
    /// after an `Err` the output is unspecified. The workspace's plan is
    /// never modified; the report carries the precision it ran at and its
    /// ISA-probe downgrade, if any.
    pub(crate) fn run_layers(
        &self,
        a_hat: &Csr,
        features: &DenseMatrix,
        levels: Option<&[Vec<usize>]>,
        guard: &RunGuard,
        recover: bool,
        workspace: &mut InferenceWorkspace,
    ) -> Result<InferenceRun, GcnError> {
        let precision = workspace
            .plan
            .as_ref()
            .map_or(Precision::F32, SpmmPlan::requested_precision);
        workspace.plan_for(a_hat, features.cols(), precision);
        let InferenceWorkspace {
            h,
            mid,
            qbuf,
            plan,
            slots,
            degraded,
            ..
        } = workspace;
        let base = plan.as_ref().expect("plan populated above");
        // Sized once for the widest layer, so no buffer grows and moves
        // mid-run: a moved buffer leaves a freed hole the heap keeps.
        let n = a_hat.nrows();
        let widest = |f: fn(&GcnLayer) -> usize| self.layers.iter().map(f).max().unwrap_or(0);
        h.resize_for_overwrite(n, widest(GcnLayer::out_dim));
        mid.resize_for_overwrite(n, widest(|l| l.in_dim().min(l.out_dim())));
        degraded.clear();
        let shares = kernels::pool::global().width() * PLAN_SLOTS_PER_THREAD;
        let mut run = InferenceRun {
            total_layers: self.layers.len(),
            backend_fallback: matrix::microkernel::probe_fallback(),
            ..InferenceRun::default()
        };
        // Layer `s` on `plan`: it reads the features at layer 0 and runs in
        // place on `h` after.
        let layer_into = |s: usize,
                          plan: &SpmmPlan,
                          lists: Option<RowLists>,
                          qbuf: &mut QuantMatrix,
                          mid: &mut DenseMatrix,
                          h: &mut DenseMatrix| {
            let layer = &self.layers[s];
            gcn_layer_planned_into(
                a_hat,
                (s == 0).then_some(features),
                &layer.weight,
                layer.bias.as_deref(),
                layer.activation,
                plan,
                lists,
                qbuf,
                mid,
                h,
            )
            .map(|_| ())
        };
        // Rebuilds layer `t`'s lost input: layers `0..t` again from the
        // features, in place, each on the rung that completed it or on
        // `current`, the rung `depth` steps down that layer `t` has
        // reached, whichever is lower — every row-local rung gives the same
        // bits, and a rung down exists to get away from a failing kernel.
        // Counts every layer it re-runs.
        let rebuild = |t: usize,
                       degraded: &[(usize, usize, SpmmStrategy)],
                       current: &SpmmPlan,
                       depth: usize,
                       qbuf: &mut QuantMatrix,
                       mid: &mut DenseMatrix,
                       h: &mut DenseMatrix,
                       rebuilt: &mut usize| {
            for s in 0..t {
                let pinned;
                let plan = match degraded.iter().find(|d| d.0 == s) {
                    Some(&(_, below, to)) if below > depth => {
                        pinned = base.clone().pin(to);
                        &pinned
                    }
                    _ => current,
                };
                layer_into(s, plan, None, qbuf, mid, h)?;
                *rebuilt += 1;
            }
            Ok::<(), MatrixError>(())
        };
        'layers: for t in 0..self.layers.len() {
            if let Some(reason) = guard.should_stop() {
                run.stopped = Some(reason);
                break;
            }
            let lists = match levels {
                Some(levels) => {
                    let (rows, reads) = (&levels[t + 1][..], &levels[t][..]);
                    nnz_balanced_partition_of(a_hat, rows, shares, slots);
                    Some(RowLists {
                        rows,
                        reads,
                        partition: slots,
                    })
                }
                None => None,
            };
            if !recover {
                layer_into(t, base, lists, qbuf, mid, h)?;
                run.layers_done += 1;
                continue;
            }
            debug_assert!(levels.is_none(), "a recovering run is whole-graph");
            let attempts_before = run.attempts;
            let mut rung: Option<SpmmPlan> = None;
            let mut depth = 0;
            // Set once an attempt reached the layer kernel, which overwrites
            // `h` — this layer's input — in place; from then on every
            // attempt first rebuilds it. An attempt stopped at the
            // `gcn.layer` site never touched `h`.
            let mut lost = false;
            loop {
                let current = rung.as_ref().unwrap_or(base);
                let outcome = retry::run(|| -> Result<(), MatrixError> {
                    resilience::fault_point_err!(
                        "gcn.layer",
                        MatrixError::Fault { site: "gcn.layer" }
                    );
                    if lost {
                        let rebuilt = &mut run.rebuilt_layers;
                        rebuild(t, degraded, current, depth, qbuf, mid, h, rebuilt)?;
                    }
                    lost = t > 0;
                    layer_into(t, current, lists, qbuf, mid, h)
                });
                let err = match outcome {
                    Ok(rec) => {
                        run.attempts += rec.attempts;
                        run.recovered_panics += rec.recovered_panics;
                        run.recovered_errors += rec.recovered_errors;
                        if run.attempts - attempts_before > 1 {
                            run.recovered_layers += 1;
                        }
                        break;
                    }
                    Err(err) => err,
                };
                run.attempts += err.attempts;
                let from = current.exec();
                let Some(to) = from.fallback() else {
                    return Err(unrecovered(err.last));
                };
                run.degradations.push(Degradation {
                    layer: Some(t),
                    from: from.to_string(),
                    to: to.to_string(),
                    cause: err.last.to_string(),
                });
                rung = Some(base.clone().pin(to));
                depth += 1;
                if let Some(reason) = guard.should_stop() {
                    // The run ends at the last completed layer: rebuild
                    // its output first if an attempt overwrote it.
                    if lost {
                        let current = rung.as_ref().unwrap_or(base);
                        let rebuilt = &mut run.rebuilt_layers;
                        let rec = retry::run(|| {
                            rebuild(t, degraded, current, depth, qbuf, mid, h, rebuilt)
                        })
                        .map_err(|err| unrecovered(err.last))?;
                        run.recovered_panics += rec.recovered_panics;
                        run.recovered_errors += rec.recovered_errors;
                    }
                    run.stopped = Some(reason);
                    break 'layers;
                }
            }
            if let Some(rung) = &rung {
                degraded.push((t, depth, rung.exec()));
            }
            run.layers_done += 1;
        }
        if run.layers_done == 0 {
            h.copy_from(features);
        }
        run.used = base.precision();
        run.precision_fallback = base.precision_fallback();
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

/// The typed error of a step whose retries all failed.
fn unrecovered(last: Failure<MatrixError>) -> GcnError {
    GcnError::Kernel(match last {
        Failure::Error(e) => e,
        Failure::Panic(_) => MatrixError::Fault {
            site: "gcn.layer: unrecovered panic",
        },
    })
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
