//! Guarded and fault-tolerant inference entry points, and the one report
//! they share. How a run falls back is data on the plan, not a second
//! executor:
//!
//! * **Rungs.** A plan's strategy steps down
//!   [`kernels::SpmmStrategy::fallback`] and its storage precision down
//!   [`matrix::Precision::fallback`]; a rung down is a copy of the plan
//!   re-pinned or re-targeted; the workspace's plan is never modified.
//! * **One walk.** [`GcnModel::infer_resilient_with`] validates inputs
//!   (shapes, then a NaN/Inf sweep over features and weights) and hands a
//!   retry policy and a [`resilience::guard::RunGuard`] to the layer loop
//!   behind [`GcnModel::infer_planned_with`], whose policy arm is the only
//!   retry-then-degrade walk. The guard (wall-clock budget and/or
//!   cancellation) is checked between layers and between rungs; a fired
//!   guard is a typed partial result with the workspace at the last
//!   *completed* layer. A guard alone is `RetryPolicy::immediate(1)`.
//! * **One report.** Both entry points return an [`InferenceRun`].
//!
//! Deliberately *not* folded into the walk: the precision guard
//! ([`GcnModel::infer_prec_guarded_with`]) keeps its own short outer loop.
//! Its trigger is *acceptance of a completed run against an `f32`
//! reference*, not failure of an attempt — the failure walk would need an
//! error variant that smuggles a measurement — and it propagates kernel
//! errors instead of degrading past them.
//!
//! Retrying a layer is sound because the layer kernel fully overwrites its
//! two output buffers; a crashed attempt leaves no state a later attempt
//! can observe.

use crate::accuracy::{accuracy_bound, rel_frobenius};
use crate::error::GcnError;
use crate::model::{GcnModel, InferenceWorkspace};
use matrix::microkernel::Backend;
use matrix::{DenseMatrix, MatrixError, Precision};
use resilience::guard::{RunGuard, StopReason};
use resilience::retry::RetryPolicy;
use sparse::Csr;

/// One rung taken down a degradation ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Layer whose attempts were exhausted (a strategy rung), or `None`
    /// for a whole-run precision rung.
    pub layer: Option<usize>,
    /// Display form of the strategy or precision stepped down from.
    pub from: String,
    /// Display form of the rung tried next.
    pub to: String,
    /// Why: the rendered failure, the failed ISA probe, or the accuracy
    /// guard's measurement.
    pub cause: String,
}

/// How an inference output was obtained — the one report of
/// [`GcnModel::infer_resilient_with`] and
/// [`GcnModel::infer_prec_guarded_with`].
#[derive(Debug, Clone, Default)]
pub struct InferenceRun {
    /// Layers fully executed; the workspace output reflects exactly these.
    pub layers_done: usize,
    /// Layers the model has in total.
    pub total_layers: usize,
    /// Why the run stopped early, if it did.
    pub stopped: Option<StopReason>,
    /// Layer attempts made across all layers and rungs, including the
    /// successful ones (`0` when no retry policy ran).
    pub attempts: u32,
    /// Panics caught and retried.
    pub recovered_panics: u32,
    /// Typed errors retried.
    pub recovered_errors: u32,
    /// Rungs taken, in order: strategy rungs tagged with their layer,
    /// precision rungs (ISA probe, accuracy guard) with `layer == None`.
    pub degradations: Vec<Degradation>,
    /// `(preferred, chosen)` if the micro-kernel dispatch probe downgraded
    /// the SIMD backend at process start
    /// ([`matrix::microkernel::probe_fallback`]).
    pub backend_fallback: Option<(Backend, Backend)>,
    /// Storage precision the workspace output was produced at.
    pub used: Precision,
    /// `(requested, used)` if that is not the precision asked for — the
    /// plan's ISA probe or the accuracy guard stepped down
    /// [`Precision::fallback`].
    pub precision_fallback: Option<(Precision, Precision)>,
    /// Measured `||out - out_f32||_F / ||out_f32||_F` of the accepted
    /// output, when an accuracy guard ran.
    pub rel_frobenius: Option<f32>,
}

impl InferenceRun {
    /// Did every layer run to completion?
    pub fn is_complete(&self) -> bool {
        self.stopped.is_none() && self.layers_done == self.total_layers
    }
}

impl GcnModel {
    /// Shape and finiteness validation shared by the hardened entry
    /// points: dimension checks — including each bias against its layer's
    /// output width and each layer's output against the next one's input —
    /// then a NaN/Inf sweep over the feature matrix and every layer's
    /// weights and bias. A model that fails here runs no kernel, so it is
    /// never retried or stepped down a degradation rung.
    ///
    /// # Errors
    ///
    /// [`GcnError::FeatureDimMismatch`] / [`GcnError::VertexCountMismatch`]
    /// on shape violations; [`GcnError::Kernel`] wrapping
    /// [`MatrixError::DimensionMismatch`] (`op` `"layer bias"` or
    /// `"layer chain"`) on a mis-shaped bias or layer stack;
    /// [`GcnError::Normalize`] if the adjacency fails its structural check
    /// ([`Csr::validate`]); [`GcnError::Kernel`] wrapping
    /// [`MatrixError::NonFinite`] naming the first offending entry.
    pub fn validate_inputs(&self, a_hat: &Csr, features: &DenseMatrix) -> Result<(), GcnError> {
        self.check_shapes(a_hat, features)?;
        for (layer, next) in self.layers().iter().zip(self.layers().iter().skip(1)) {
            if layer.out_dim() != next.in_dim() {
                return Err(GcnError::Kernel(MatrixError::DimensionMismatch {
                    op: "layer chain",
                    lhs: layer.weight.shape(),
                    rhs: next.weight.shape(),
                }));
            }
        }
        for layer in self.layers() {
            if let Some(bias) = layer.bias.as_ref().filter(|b| b.len() != layer.out_dim()) {
                return Err(GcnError::Kernel(MatrixError::DimensionMismatch {
                    op: "layer bias",
                    lhs: layer.weight.shape(),
                    rhs: (1, bias.len()),
                }));
            }
        }
        a_hat.validate()?;
        features.validate_finite("features")?;
        for (t, layer) in self.layers().iter().enumerate() {
            layer.weight.validate_finite("layer weight")?;
            if let Some(bias) = &layer.bias {
                if let Some(col) = bias.iter().position(|b| !b.is_finite()) {
                    return Err(GcnError::Kernel(MatrixError::NonFinite {
                        what: "layer bias",
                        row: t,
                        col,
                    }));
                }
            }
        }
        Ok(())
    }

    /// Fully hardened inference along the workspace's plan (as in
    /// [`GcnModel::infer_planned_with`]): validated inputs, per-layer
    /// bounded retry with panic capture, strategy degradation on persistent
    /// failure, and a [`RunGuard`] checked between layers (and between
    /// degradation rungs). Returns an [`InferenceRun`] describing exactly
    /// how the result was obtained; the output lands in the workspace. A
    /// fired guard is *not* an error: the run returns with
    /// [`InferenceRun::stopped`] set and the workspace output at the last
    /// completed layer.
    ///
    /// # Errors
    ///
    /// Validation errors as in [`GcnModel::validate_inputs`], or the final
    /// rung's typed error once a layer has exhausted retry *and* the
    /// entire degradation chain.
    pub fn infer_resilient_with(
        &self,
        a_hat: &Csr,
        features: &DenseMatrix,
        policy: &RetryPolicy,
        guard: &RunGuard,
        workspace: &mut InferenceWorkspace,
    ) -> Result<InferenceRun, GcnError> {
        self.validate_inputs(a_hat, features)?;
        self.run_whole_graph(a_hat, features, guard, Some(policy), workspace)
    }

    /// Narrow-precision inference with an end-to-end accuracy guard:
    /// runs planned inference at `precision`, measures the output against
    /// a full `f32` reference run, and walks [`Precision::fallback`]
    /// (int8 → bf16 → f32) until the measured relative Frobenius error
    /// sits inside [`accuracy_bound`]. ISA-probe downgrades made at plan
    /// build time are folded into the same degradation trail.
    ///
    /// The guard always terminates: the `f32` rung reproduces the
    /// reference bitwise, so its error is exactly zero.
    ///
    /// The accepted output lands in the workspace
    /// ([`InferenceWorkspace::output`]); the returned [`InferenceRun`]
    /// says which precision produced it ([`InferenceRun::used`]) and how
    /// far it strayed ([`InferenceRun::rel_frobenius`]).
    ///
    /// # Errors
    ///
    /// Validation errors as in [`GcnModel::validate_inputs`], plus any
    /// kernel error from the underlying planned inference.
    pub fn infer_prec_guarded_with(
        &self,
        a_hat: &Csr,
        features: &DenseMatrix,
        precision: Precision,
        workspace: &mut InferenceWorkspace,
    ) -> Result<InferenceRun, GcnError> {
        self.infer_prec_guarded_inner(a_hat, features, precision, accuracy_bound, workspace)
    }

    /// [`GcnModel::infer_prec_guarded_with`] with an injectable bound
    /// function, so tests can force the guard to reject a rung
    /// deterministically.
    fn infer_prec_guarded_inner(
        &self,
        a_hat: &Csr,
        features: &DenseMatrix,
        precision: Precision,
        bound: impl Fn(Precision) -> f32,
        workspace: &mut InferenceWorkspace,
    ) -> Result<InferenceRun, GcnError> {
        self.validate_inputs(a_hat, features)?;
        let mut reference_ws = InferenceWorkspace::new();
        self.infer_planned_with(a_hat, features, &mut reference_ws)?;
        let unguarded = RunGuard::unbounded();
        let rung = |from: Precision, to: Precision, cause: String| Degradation {
            layer: None,
            from: from.to_string(),
            to: to.to_string(),
            cause,
        };
        let mut trail = Vec::new();
        let mut current = precision;
        loop {
            workspace.plan_for(a_hat, features.cols(), current);
            let mut run = self.run_whole_graph(a_hat, features, &unguarded, None, workspace)?;
            if let Some((from, to)) = run.precision_fallback {
                trail.push(rung(from, to, "precision ISA probe failed".to_string()));
            }
            let err = rel_frobenius(workspace.output(), reference_ws.output());
            if err <= bound(run.used) {
                run.precision_fallback = (run.used != precision).then_some((precision, run.used));
                run.rel_frobenius = Some(err);
                run.degradations = trail;
                return Ok(run);
            }
            // f32 reproduces the reference exactly (err == 0), so a rung
            // with no fallback can only be reached if the bound function
            // rejects an exact match — surface that as a kernel fault
            // rather than looping.
            let Some(next) = run.used.fallback() else {
                return Err(GcnError::Kernel(MatrixError::Fault {
                    site: "gcn.precision_guard: f32 rung rejected",
                }));
            };
            let cause = format!("accuracy guard: rel_frobenius {err:.3e} over bound");
            trail.push(rung(run.used, next, cause));
            current = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcnConfig;
    use graph::rmat::RmatConfig;
    use graph::Graph;
    use kernels::{SpmmPlan, SpmmStrategy};
    use resilience::fault::{self, FaultConfig, FaultKind};
    use resilience::guard::CancelToken;
    use std::time::Duration;

    // Tests that arm nothing but reach `gcn.layer` or an ISA probe hold the
    // arm lock with a config that fires nowhere (`_quiet`), so the faults a
    // neighbouring test arms stay out of their runs.

    fn setup() -> (Csr, DenseMatrix, GcnModel) {
        let g = Graph::rmat(&RmatConfig::power_law(7, 4), 13);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 16, 4), 3);
        let x = g.random_features(8, 5);
        let a_hat = g.normalized_adjacency().unwrap();
        (a_hat, x, model)
    }

    /// A workspace whose plan is pinned to `strategy`.
    fn pinned(a_hat: &Csr, x: &DenseMatrix, strategy: SpmmStrategy) -> InferenceWorkspace {
        let mut ws = InferenceWorkspace::new();
        ws.install_plan(SpmmPlan::pinned(a_hat, x.cols(), strategy));
        ws
    }

    /// The undisturbed output under a plan pinned to `Sequential`.
    fn sequential_reference(a_hat: &Csr, x: &DenseMatrix, model: &GcnModel) -> DenseMatrix {
        let mut ws = pinned(a_hat, x, SpmmStrategy::Sequential);
        model.infer_planned_with(a_hat, x, &mut ws).unwrap().clone()
    }

    /// A guard alone: the resilient entry point with one attempt per rung.
    fn guarded(
        model: &GcnModel,
        a_hat: &Csr,
        x: &DenseMatrix,
        guard: &RunGuard,
        ws: &mut InferenceWorkspace,
    ) -> Result<InferenceRun, GcnError> {
        model.infer_resilient_with(a_hat, x, &RetryPolicy::immediate(1), guard, ws)
    }

    #[test]
    fn unbounded_guard_completes_and_matches_plain_inference() {
        let _quiet = fault::arm(FaultConfig::new(0));
        let (a_hat, x, model) = setup();
        let expected = sequential_reference(&a_hat, &x, &model);
        let mut ws = pinned(&a_hat, &x, SpmmStrategy::Sequential);
        let run = guarded(&model, &a_hat, &x, &RunGuard::unbounded(), &mut ws).unwrap();
        assert!(run.is_complete());
        assert_eq!((run.layers_done, run.stopped), (3, None));
        // One attempt per layer, nothing recovered, nothing stepped down.
        assert_eq!((run.attempts, run.recovered_errors), (3, 0));
        assert!(run.degradations.is_empty());
        assert_eq!(run.backend_fallback, matrix::microkernel::probe_fallback());
        assert_eq!((run.used, run.precision_fallback), (Precision::F32, None));
        assert_eq!(run.rel_frobenius, None, "no accuracy guard ran");
        assert_eq!(expected, *ws.output());
    }

    #[test]
    fn cancelled_token_yields_typed_partial_result() {
        let (a_hat, x, model) = setup();
        let token = CancelToken::new();
        token.cancel();
        let mut ws = InferenceWorkspace::new();
        let run = guarded(&model, &a_hat, &x, &RunGuard::with_token(token), &mut ws).unwrap();
        assert!(!run.is_complete());
        assert_eq!(
            (run.layers_done, run.stopped),
            (0, Some(StopReason::Cancelled))
        );
        // Zero layers ran: the workspace still holds the input features.
        assert_eq!(*ws.output(), x);
    }

    #[test]
    fn zero_budget_stops_before_the_first_layer() {
        let (a_hat, x, model) = setup();
        let mut ws = InferenceWorkspace::new();
        let guard = RunGuard::with_budget(Duration::ZERO);
        let run = guarded(&model, &a_hat, &x, &guard, &mut ws).unwrap();
        assert_eq!(
            (run.layers_done, run.stopped),
            (0, Some(StopReason::BudgetExceeded))
        );
    }

    #[test]
    fn non_finite_features_are_rejected_before_any_kernel_runs() {
        let (a_hat, mut x, model) = setup();
        x.as_mut_slice()[7] = f32::NAN;
        let mut ws = InferenceWorkspace::new();
        let err = guarded(&model, &a_hat, &x, &RunGuard::unbounded(), &mut ws).unwrap_err();
        assert!(matches!(
            err,
            GcnError::Kernel(MatrixError::NonFinite {
                what: "features",
                ..
            })
        ));
    }

    #[test]
    fn non_finite_weights_are_rejected() {
        let (a_hat, x, mut model) = setup();
        model.layers_mut()[1].weight.as_mut_slice()[0] = f32::INFINITY;
        assert!(matches!(
            model.validate_inputs(&a_hat, &x),
            Err(GcnError::Kernel(MatrixError::NonFinite {
                what: "layer weight",
                ..
            }))
        ));
    }

    #[test]
    fn misshaped_bias_and_layer_stack_are_rejected_before_any_kernel_runs() {
        let (a_hat, x, model) = setup();
        let mut short_bias = model.clone();
        short_bias.layers_mut()[1].bias = Some(vec![0.0; 3]);
        let mut broken_chain = model;
        broken_chain.layers_mut()[2].weight = DenseMatrix::zeros(5, 4);
        for (model, want) in [(short_bias, "layer bias"), (broken_chain, "layer chain")] {
            let mut ws = InferenceWorkspace::new();
            let policy = RetryPolicy::immediate(3);
            let err = model
                .infer_resilient_with(&a_hat, &x, &policy, &RunGuard::unbounded(), &mut ws)
                .unwrap_err();
            assert!(
                matches!(err, GcnError::Kernel(MatrixError::DimensionMismatch { op, .. }) if op == want),
                "{want}: {err}"
            );
            // No plan was built, so no layer was attempted, retried or
            // stepped down a rung.
            assert!(ws.plan().is_none(), "{want}");
        }
    }

    #[test]
    fn resilient_inference_recovers_injected_layer_faults() {
        let (a_hat, x, model) = setup();
        let expected = sequential_reference(&a_hat, &x, &model);
        let _armed = fault::arm(FaultConfig::new(17).point("gcn.layer", FaultKind::Error, 0.4));
        let mut ws = pinned(&a_hat, &x, SpmmStrategy::Sequential);
        let run = model
            .infer_resilient_with(
                &a_hat,
                &x,
                &RetryPolicy::immediate(10),
                &RunGuard::unbounded(),
                &mut ws,
            )
            .unwrap();
        assert!(run.is_complete());
        assert_eq!(run.layers_done, 3);
        assert!(run.recovered_errors > 0, "seed 17 fires at least once");
        assert_eq!(run.attempts, 3 + run.recovered_errors);
        assert_eq!(run.recovered_panics, 0);
        // Retries re-run the same deterministic kernel, so the recovered
        // result is bitwise identical to an undisturbed run.
        assert_eq!(expected, *ws.output());
    }

    #[test]
    fn resilient_inference_degrades_strategy_and_reports_it() {
        let (a_hat, x, model) = setup();
        let expected = sequential_reference(&a_hat, &x, &model);
        // Find a seed whose decision stream (probed on the real site name,
        // which keys the hash) lets every layer finish within its
        // degradation chain while forcing at least one fallback. Each
        // layer walks hybrid → vertex-parallel → sequential with one
        // attempt per rung, consuming one decision per attempt.
        let seed = (0..256u64)
            .find(|&s| {
                let _g = fault::arm(FaultConfig::new(s).point("gcn.layer", FaultKind::Error, 0.5));
                let mut fires = [false; 16];
                for f in fires.iter_mut() {
                    *f = fault::should_fail("gcn.layer");
                }
                let mut i = 0;
                let mut any_fire = false;
                let all_layers_ok = (0..3).all(|_| {
                    for rung in 0..3 {
                        let fired = fires[i];
                        i += 1;
                        if !fired {
                            return true;
                        }
                        any_fire = true;
                        if rung == 2 {
                            return false;
                        }
                    }
                    false
                });
                all_layers_ok && any_fire
            })
            .expect("some seed degrades at least one layer yet completes");
        let _armed = fault::arm(FaultConfig::new(seed).point("gcn.layer", FaultKind::Error, 0.5));
        let mut ws = pinned(&a_hat, &x, SpmmStrategy::Hybrid { threads: 2 });
        let run = model
            .infer_resilient_with(
                &a_hat,
                &x,
                &RetryPolicy::immediate(1),
                &RunGuard::unbounded(),
                &mut ws,
            )
            .unwrap();
        assert!(run.is_complete());
        assert!(!run.degradations.is_empty());
        assert_eq!(run.degradations[0].from, "hybrid x2");
        assert_eq!(run.degradations[0].to, "vertex-parallel x2");
        assert!(run.degradations.iter().all(|d| d.layer.is_some()));
        assert!(expected.max_abs_diff(ws.output()) < 1e-4);
        // Degradation re-pins a copy: the workspace keeps its own plan.
        assert_eq!(
            ws.plan().unwrap().exec(),
            SpmmStrategy::Hybrid { threads: 2 }
        );
    }

    #[test]
    fn precision_guard_accepts_every_precision_within_bounds() {
        let _quiet = fault::arm(FaultConfig::new(0));
        let (a_hat, x, model) = setup();
        for p in Precision::all() {
            let mut ws = InferenceWorkspace::new();
            let run = model
                .infer_prec_guarded_with(&a_hat, &x, p, &mut ws)
                .unwrap();
            assert!(run.is_complete());
            assert_eq!(
                (run.used, run.precision_fallback),
                (p, None),
                "{p} unexpectedly degraded"
            );
            assert!(run.degradations.is_empty());
            let err = run.rel_frobenius.expect("the accuracy guard ran");
            assert!(
                err <= accuracy_bound(run.used),
                "{p}: accepted error {err:.3e} over bound"
            );
        }
    }

    #[test]
    fn rejecting_bound_walks_the_full_precision_chain_to_f32() {
        let _quiet = fault::arm(FaultConfig::new(0));
        let (a_hat, x, model) = setup();
        let expected = model
            .infer_planned_with(&a_hat, &x, &mut InferenceWorkspace::new())
            .unwrap()
            .clone();
        let mut ws = InferenceWorkspace::new();
        // A bound that accepts only a bitwise-exact match forces every
        // narrow rung to fail, so the run must land on f32.
        let run = model
            .infer_prec_guarded_inner(
                &a_hat,
                &x,
                Precision::Int8,
                |p| if p == Precision::F32 { 0.0 } else { -1.0 },
                &mut ws,
            )
            .unwrap();
        assert_eq!(run.used, Precision::F32);
        assert_eq!(
            run.precision_fallback,
            Some((Precision::Int8, Precision::F32))
        );
        // Two whole-run guard rungs: int8 → bf16, bf16 → f32.
        let rungs: Vec<_> = run
            .degradations
            .iter()
            .map(|d| (d.layer, d.from.as_str(), d.to.as_str()))
            .collect();
        assert_eq!(rungs, [(None, "int8", "bf16"), (None, "bf16", "f32")]);
        assert!(run.is_complete());
        assert_eq!(run.rel_frobenius, Some(0.0));
        assert_eq!(expected, *ws.output());
    }

    #[test]
    fn failed_isa_probe_degrades_precision_and_is_reported() {
        let (a_hat, x, model) = setup();
        let _armed =
            fault::arm(FaultConfig::new(3).point("microkernel.probe.int8", FaultKind::Error, 1.0));
        let mut ws = InferenceWorkspace::new();
        let run = model
            .infer_prec_guarded_with(&a_hat, &x, Precision::Int8, &mut ws)
            .unwrap();
        assert_eq!(run.used, Precision::Bf16);
        assert_eq!(
            run.precision_fallback,
            Some((Precision::Int8, Precision::Bf16))
        );
        assert!(run
            .degradations
            .iter()
            .any(|d| d.layer.is_none() && d.cause.contains("ISA probe")));
    }

    #[test]
    fn exhausted_chain_surfaces_the_typed_error() {
        let (a_hat, x, model) = setup();
        let _armed = fault::arm(FaultConfig::new(5).point("gcn.layer", FaultKind::Error, 1.0));
        let mut ws = pinned(&a_hat, &x, SpmmStrategy::Hybrid { threads: 2 });
        let err = model
            .infer_resilient_with(
                &a_hat,
                &x,
                &RetryPolicy::immediate(2),
                &RunGuard::unbounded(),
                &mut ws,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            GcnError::Kernel(MatrixError::Fault { site: "gcn.layer" })
        ));
    }
}
