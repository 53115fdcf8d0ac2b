//! Batched per-vertex inference: gather the requested rows' k-hop
//! neighbourhood once and run the planned layer stack on the induced
//! sub-problem, instead of running the full graph per request.
//!
//! This is the kernel the serving batcher calls. A batch of target
//! vertices expands to its L-hop in-neighbourhood over the *normalized*
//! adjacency (L = layer count), the touched rows of `A_hat` and the
//! feature matrix are gathered into a compact sub-problem, and the
//! ordinary planned layer loop runs on it. Vertices keep their relative
//! (ascending global) order under renumbering and every per-shard kernel
//! runs a width-1 (sequential) plan, so each target row's floating-point
//! sequence is **bitwise identical** to full-graph
//! [`GcnModel::infer_planned_with`] under an installed width-1 plan — the same
//! machine-independent contract the sharded runner pins (see
//! `crates/shard`). Coalescing requests into one batch therefore never
//! changes a single bit of any request's result, which is what lets the
//! serving layer batch aggressively.
//!
//! Storage precision is an argument, not a second path: a narrow
//! (brownout) batch runs the *same* width-1 plans
//! [`SpmmPlan::at_precision`], and because narrowing is row-local
//! (element-wise for bf16 / f16, per-row scales for int8, per-column GEMM
//! scales taken from the weights) the bitwise contract above holds at
//! every precision against the full-graph run at that precision.
//!
//! When the expansion saturates (the neighbourhood reaches every vertex —
//! common for small-diameter graphs and multi-layer models), the gather is
//! skipped entirely and the batch runs against the **cached full-graph
//! plan** held by the workspace, paying the plan build once per adjacency
//! rather than once per batch.

use crate::error::GcnError;
use crate::model::{GcnModel, InferenceWorkspace};
use kernels::SpmmPlan;
use matrix::{DenseMatrix, Precision};
use sparse::Csr;

/// Statistics of one gathered-batch inference call (fed into the serving
/// metrics: neighbourhood size is the real unit of work a batch costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowsBatchStats {
    /// Requested target rows (including duplicates, in caller order).
    pub targets: usize,
    /// Unique vertices in the gathered L-hop neighbourhood.
    pub gathered: usize,
    /// Non-zeros of the induced sub-adjacency (0 on the full-graph path).
    pub sub_nnz: usize,
    /// Hops expanded (= model layer count).
    pub hops: usize,
    /// The expansion saturated and the batch ran the cached full-graph
    /// plan instead of a gathered sub-problem.
    pub full_graph: bool,
}

/// Reusable buffers for [`GcnModel::infer_rows_planned_into`]: the
/// epoch-stamped visited marks and vertex list of the frontier expansion,
/// the recycled sub-CSR arrays, the gathered feature block, and two
/// [`InferenceWorkspace`]s — one for sub-problems (plan rebuilt per batch)
/// and one holding the cached width-1 full-graph plan for saturated
/// batches, re-targeted in `O(1)` when a batch asks for another storage
/// precision. After the first call on a given adjacency, steady-state
/// calls reuse every buffer at its high-water mark.
#[derive(Debug, Default)]
pub struct RowsWorkspace {
    /// `mark[v] == epoch` ⇔ vertex `v` is in the current neighbourhood.
    mark: Vec<u32>,
    epoch: u32,
    /// Gathered vertices; sorted ascending before the sub-CSR is built.
    verts: Vec<usize>,
    /// Recycled sub-CSR arrays (taken by `Csr::from_raw`, returned by
    /// `Csr::into_raw` after the batch).
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
    /// Gathered feature rows for the sub-problem.
    feat: DenseMatrix,
    /// Workspace for sub-problem inference (fresh plan per batch).
    sub_ws: InferenceWorkspace,
    /// Workspace for saturated batches: caches one width-1 full-graph
    /// plan per adjacency across calls.
    full_ws: InferenceWorkspace,
}

impl RowsWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// The unique vertices gathered by the most recent call, ascending.
    /// Empty after a saturated (full-graph) batch. The sharded backend
    /// uses this to count halo rows — gathered vertices owned by other
    /// shards.
    pub fn gathered(&self) -> &[usize] {
        &self.verts
    }

    /// Bumps the visited-mark epoch, resetting the mark array on wrap.
    fn next_epoch(&mut self, n: usize) -> u32 {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

impl GcnModel {
    /// Batched per-vertex planned inference: computes the model output for
    /// exactly the rows in `targets` (output row `i` corresponds to
    /// `targets[i]`; duplicates are allowed and each gets its own output
    /// row), gathering the targets' L-hop in-neighbourhood once for the
    /// whole batch.
    ///
    /// The result is bitwise identical to running full-graph
    /// [`GcnModel::infer_planned_with`] under an installed width-1 plan
    /// and reading the target rows — regardless of how requests are
    /// coalesced into batches (see the module docs for the argument).
    ///
    /// Returns per-batch [`RowsBatchStats`]; `out` is resized to
    /// `targets.len() x out_dim`.
    ///
    /// # Errors
    ///
    /// [`GcnError::VertexOutOfRange`] for a target outside the graph,
    /// plus the same conditions as [`GcnModel::infer`].
    pub fn infer_rows_planned_into(
        &self,
        a_hat: &Csr,
        features: &DenseMatrix,
        targets: &[usize],
        ws: &mut RowsWorkspace,
        out: &mut DenseMatrix,
    ) -> Result<RowsBatchStats, GcnError> {
        self.infer_rows_planned_prec_into(a_hat, features, targets, Precision::F32, ws, out)
    }

    /// [`GcnModel::infer_rows_planned_into`] at a chosen storage precision
    /// — narrow ones are the serving brownout path. Gather, saturation and
    /// plans are the same at every precision (the installed width-1 sub-plan,
    /// the cached width-1 full-graph plan, both
    /// [`SpmmPlan::at_precision`]), so narrow batches keep the
    /// coalescing-invariance of the `f32` path: a target row's bits do not
    /// depend on which batch it rode in. Narrow outputs carry the
    /// precision's quantization error and are **not** bitwise-comparable
    /// to the `f32` path (callers must annotate responses accordingly).
    ///
    /// # Errors
    ///
    /// Same conditions as [`GcnModel::infer_rows_planned_into`].
    pub fn infer_rows_planned_prec_into(
        &self,
        a_hat: &Csr,
        features: &DenseMatrix,
        targets: &[usize],
        precision: Precision,
        ws: &mut RowsWorkspace,
        out: &mut DenseMatrix,
    ) -> Result<RowsBatchStats, GcnError> {
        self.check_shapes(a_hat, features)?;
        let n = a_hat.nrows();
        let hops = self.layers().len();
        let out_dim = self
            .layers()
            .last()
            .map_or(features.cols(), |l| l.out_dim());
        out.resize_for_overwrite(targets.len(), out_dim);
        if targets.is_empty() {
            ws.verts.clear();
            return Ok(RowsBatchStats {
                targets: 0,
                gathered: 0,
                sub_nnz: 0,
                hops,
                full_graph: false,
            });
        }

        // --- Expansion: L-hop in-neighbourhood of the target set. -------
        let epoch = ws.next_epoch(n);
        ws.verts.clear();
        for &t in targets {
            if t >= n {
                return Err(GcnError::VertexOutOfRange {
                    vertex: t,
                    vertices: n,
                });
            }
            if ws.mark[t] != epoch {
                ws.mark[t] = epoch;
                ws.verts.push(t);
            }
        }
        let mut level = 0;
        for _ in 0..hops {
            let hi = ws.verts.len();
            if hi == n {
                break;
            }
            for i in level..hi {
                let v = ws.verts[i];
                for &c in a_hat.row_cols(v) {
                    let c = c as usize;
                    if ws.mark[c] != epoch {
                        ws.mark[c] = epoch;
                        ws.verts.push(c);
                    }
                }
            }
            if ws.verts.len() == hi {
                break; // fixed point: no new vertices reachable
            }
            level = hi;
        }

        // --- Saturated: run the cached width-1 full-graph plan. ---------
        if ws.verts.len() == n {
            if !ws.full_ws.plan().is_some_and(|p| p.matches(a_hat)) {
                ws.full_ws
                    .install_plan(SpmmPlan::with_width(a_hat, features.cols(), 1));
            }
            ws.full_ws.plan_for(a_hat, features.cols(), precision);
            let h = self.infer_planned_with(a_hat, features, &mut ws.full_ws)?;
            for (i, &t) in targets.iter().enumerate() {
                out.row_mut(i).copy_from_slice(h.row(t));
            }
            ws.verts.clear();
            return Ok(RowsBatchStats {
                targets: targets.len(),
                gathered: n,
                sub_nnz: 0,
                hops,
                full_graph: true,
            });
        }

        // --- Gather: induced sub-CSR + feature block, global order kept.
        // Sorting keeps renumbered columns ascending, so every gathered
        // row walks its non-zeros in the exact global order and
        // `Csr::from_raw`'s strictly-increasing-column invariant holds.
        ws.verts.sort_unstable();
        let m = ws.verts.len();
        let k = features.cols();
        ws.row_ptr.clear();
        ws.col_idx.clear();
        ws.values.clear();
        ws.row_ptr.push(0);
        ws.feat.resize_for_overwrite(m, k);
        for (local, &g) in ws.verts.iter().enumerate() {
            let cols = a_hat.row_cols(g);
            let vals = a_hat.row_values(g);
            for (&c, &v) in cols.iter().zip(vals) {
                let cu = c as usize;
                if ws.mark[cu] == epoch {
                    let lc = ws
                        .verts
                        .binary_search(&cu)
                        .expect("marked vertex is in the sorted gather list");
                    ws.col_idx.push(lc as u32);
                    ws.values.push(v);
                }
            }
            ws.row_ptr.push(ws.col_idx.len());
            ws.feat.row_mut(local).copy_from_slice(features.row(g));
        }
        let sub = Csr::from_raw(
            m,
            m,
            std::mem::take(&mut ws.row_ptr),
            std::mem::take(&mut ws.col_idx),
            std::mem::take(&mut ws.values),
        )?;
        let sub_nnz = sub.nnz();

        // Width 1 ⇒ always sequential: batch parallelism comes from the
        // serving lanes, never from inside a batch, which keeps the
        // per-row floating-point order independent of batch composition.
        ws.sub_ws
            .install_plan(SpmmPlan::with_width(&sub, k, 1).at_precision(precision));
        let run = self.infer_planned_with(&sub, &ws.feat, &mut ws.sub_ws);
        // Recycle the sub-CSR arrays before propagating any error.
        let scatter = match run {
            Ok(h) => {
                for (i, &t) in targets.iter().enumerate() {
                    let local = ws
                        .verts
                        .binary_search(&t)
                        .expect("every target seeds its own gather");
                    out.row_mut(i).copy_from_slice(h.row(local));
                }
                Ok(())
            }
            Err(e) => Err(e),
        };
        let (rp, ci, vs) = sub.into_raw();
        ws.row_ptr = rp;
        ws.col_idx = ci;
        ws.values = vs;
        scatter?;
        Ok(RowsBatchStats {
            targets: targets.len(),
            gathered: m,
            sub_nnz,
            hops,
            full_graph: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcnConfig;
    use graph::rmat::RmatConfig;
    use graph::Graph;

    fn setup(scale: u32) -> (Csr, GcnModel, DenseMatrix) {
        let g = Graph::rmat(&RmatConfig::power_law(scale, 6), 77);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 4);
        let x = g.random_features(8, 6);
        let a_hat = g.normalized_adjacency().unwrap();
        (a_hat, model, x)
    }

    /// Full-graph reference under the installed width-1 plan — the bitwise
    /// contract both the sharded runner and the rows path share.
    fn reference(a_hat: &Csr, model: &GcnModel, x: &DenseMatrix) -> DenseMatrix {
        let mut ws = InferenceWorkspace::new();
        ws.install_plan(SpmmPlan::with_width(a_hat, x.cols(), 1));
        model.infer_planned_with(a_hat, x, &mut ws).unwrap().clone()
    }

    #[test]
    fn batched_rows_match_full_graph_bitwise() {
        let (a_hat, model, x) = setup(9);
        let full = reference(&a_hat, &model, &x);
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        let targets = [3usize, 99, 400, 3, 17];
        let stats = model
            .infer_rows_planned_into(&a_hat, &x, &targets, &mut ws, &mut out)
            .unwrap();
        assert_eq!(out.shape(), (targets.len(), 3));
        assert_eq!(stats.targets, 5);
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(out.row(i), full.row(t), "row {t} diverged");
        }
    }

    #[test]
    fn narrow_batched_rows_match_serial_and_full_graph_bitwise() {
        // The narrow rows path shares the f32 path's plans — installed
        // width-1 sub-plan, width-1 full-graph plan — so the same bitwise
        // contract holds at every precision: per-row encode scales and the
        // ascending-order gather keep each target row's sequence
        // independent of the batch it rides in.
        let (a_hat, model, x) = setup(9);
        let targets = [3usize, 99, 400, 3, 17];
        for p in [Precision::Bf16, Precision::F16, Precision::Int8] {
            let mut full_ws = InferenceWorkspace::new();
            full_ws.install_plan(SpmmPlan::with_width(&a_hat, x.cols(), 1).at_precision(p));
            let full = model.infer_planned_with(&a_hat, &x, &mut full_ws).unwrap();
            let mut ws = RowsWorkspace::new();
            let (mut all, mut one) = (DenseMatrix::default(), DenseMatrix::default());
            let stats = model
                .infer_rows_planned_prec_into(&a_hat, &x, &targets, p, &mut ws, &mut all)
                .unwrap();
            assert!(!stats.full_graph, "{p}: expected a gathered sub-problem");
            assert_eq!(ws.sub_ws.plan().unwrap().precision(), p);
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(all.row(i), full.row(t), "{p}: row {t} vs full graph");
                model
                    .infer_rows_planned_prec_into(&a_hat, &x, &[t], p, &mut ws, &mut one)
                    .unwrap();
                assert_eq!(
                    one.row(0),
                    all.row(i),
                    "{p}: row {t} changed under coalescing"
                );
            }
        }
    }

    #[test]
    fn saturated_batches_retarget_one_cached_plan_across_precisions() {
        // Alternating f32 / narrow saturated batches share one width-1
        // full-graph plan: the precision switch is an O(1) re-target, never
        // a rebuild at pool width, and each answer matches the full-graph
        // run at its own precision.
        let g = Graph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 4);
        let x = g.random_features(8, 6);
        let a_hat = g.normalized_adjacency().unwrap();
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        for p in [
            Precision::F32,
            Precision::Bf16,
            Precision::F32,
            Precision::Int8,
        ] {
            let stats = model
                .infer_rows_planned_prec_into(&a_hat, &x, &[2, 0], p, &mut ws, &mut out)
                .unwrap();
            assert!(stats.full_graph);
            let plan = ws.full_ws.plan().unwrap();
            assert_eq!(plan.precision(), p);
            assert_eq!(plan.exec(), kernels::SpmmStrategy::Sequential);
            let mut full_ws = InferenceWorkspace::new();
            full_ws.install_plan(SpmmPlan::with_width(&a_hat, x.cols(), 1).at_precision(p));
            let full = model.infer_planned_with(&a_hat, &x, &mut full_ws).unwrap();
            assert_eq!(out.row(0), full.row(2), "{p}");
            assert_eq!(out.row(1), full.row(0), "{p}");
        }
    }

    #[test]
    fn saturated_expansion_uses_cached_full_plan() {
        // A tiny dense graph saturates in one hop of a 3-layer model.
        let g = Graph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 4);
        let x = g.random_features(8, 6);
        let a_hat = g.normalized_adjacency().unwrap();
        let full = reference(&a_hat, &model, &x);
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        let stats = model
            .infer_rows_planned_into(&a_hat, &x, &[2, 0], &mut ws, &mut out)
            .unwrap();
        assert!(stats.full_graph);
        assert_eq!(stats.gathered, 4);
        assert_eq!(out.row(0), full.row(2));
        assert_eq!(out.row(1), full.row(0));
        // The cached full plan survives into the next call.
        let fp = ws.full_ws.plan().unwrap().fingerprint_value();
        model
            .infer_rows_planned_into(&a_hat, &x, &[1], &mut ws, &mut out)
            .unwrap();
        assert_eq!(ws.full_ws.plan().unwrap().fingerprint_value(), fp);
    }

    #[test]
    fn coalescing_is_bitwise_invariant() {
        let (a_hat, model, x) = setup(8);
        let mut ws = RowsWorkspace::new();
        let mut one = DenseMatrix::default();
        let mut all = DenseMatrix::default();
        let targets: Vec<usize> = vec![5, 41, 7, 120, 200, 5];
        model
            .infer_rows_planned_into(&a_hat, &x, &targets, &mut ws, &mut all)
            .unwrap();
        for (i, &t) in targets.iter().enumerate() {
            model
                .infer_rows_planned_into(&a_hat, &x, &[t], &mut ws, &mut one)
                .unwrap();
            assert_eq!(
                one.row(0),
                all.row(i),
                "target {t} changed under coalescing"
            );
        }
    }

    #[test]
    fn out_of_range_target_is_typed() {
        let (a_hat, model, x) = setup(6);
        let n = a_hat.nrows();
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        assert!(matches!(
            model.infer_rows_planned_into(&a_hat, &x, &[n], &mut ws, &mut out),
            Err(GcnError::VertexOutOfRange { vertex, vertices }) if vertex == n && vertices == n
        ));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (a_hat, model, x) = setup(6);
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::filled(3, 3, 7.0);
        let stats = model
            .infer_rows_planned_into(&a_hat, &x, &[], &mut ws, &mut out)
            .unwrap();
        assert_eq!(stats.gathered, 0);
        assert_eq!(out.rows(), 0);
    }
}
