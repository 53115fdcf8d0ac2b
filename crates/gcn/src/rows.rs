//! Batched per-vertex inference over layer-wise shrinking frontiers: a
//! served vertex computes only the rows its answer depends on.
//!
//! This is the kernel the serving batcher calls. An `L`-layer model's
//! output at a vertex reads layer `L-1`'s output at that vertex's
//! in-neighbours, which read layer `L-2`'s at theirs, and so on, so a batch
//! is a stack of **levels** over the *normalized* adjacency `A_hat`:
//!
//! * `V_L` — the batch's unique targets, ascending;
//! * `V_{l-1}` — the ascending union of the column ids of `A_hat`'s rows
//!   `V_l` (with self-loops the levels nest, `V_l ⊆ V_{l-1}`; nothing below
//!   relies on that).
//!
//! Layer `l` produces `|V_l|` rows from `|V_{l-1}|`: its operand is the
//! rectangular `|V_l| x |V_{l-1}|` matrix whose row for `v` is `A_hat`'s
//! row `v` **in full** — every non-zero, same order, same values, column
//! ids renumbered by rank in `V_{l-1}`. Only `X[V_0]` is gathered, and the
//! one layer loop (`GcnModel::run_layers`) runs the stack, one operand
//! and one `Sequential`-pinned [`kernels::SpmmPlan`] per layer.
//!
//! **Why the bits do not change.** Each kept row walks exactly `A_hat`'s
//! non-zeros in ascending global column order (ranking is monotone) through
//! the same row kernel; the packed `f32` GEMM and the narrow encodes of the
//! SpMM operand (element-wise for bf16 / f16, per-row scales for int8) are
//! row-local, and GEMM output does not depend on the thread count. So every target row is **bitwise identical** to
//! full-graph [`GcnModel::infer_planned_with`] under an installed width-1
//! plan at the same storage precision — the machine-independent contract
//! the sharded runner also pins (see `crates/shard`) — whatever batch the
//! row rode in, which is what lets the serving layer coalesce freely.
//! Precision is an argument, not a second path
//! ([`kernels::SpmmPlan::at_precision`]).
//!
//! A level that is the whole vertex set is the identity case of the same
//! code: two adjacent whole levels aggregate on `A_hat` itself, in place.
//!
//! [`RowsBatchStats`] counts the work: `gathered = |V_0|` (feature rows
//! read), `sub_nnz` = the non-zeros of all `L` operands (`Σ_l Σ_{v ∈ V_l}
//! deg(v)`), and `full_graph` only when every level — the targets included
//! — is the whole vertex set.

use crate::error::GcnError;
use crate::model::{GcnModel, LayerBuffers};
use kernels::{SpmmPlan, SpmmStrategy};
use matrix::{DenseMatrix, Precision};
use resilience::guard::RunGuard;
use sparse::Csr;

/// Statistics of one batched rows call (fed into the serving metrics: the
/// frontier sizes are the real unit of work a batch costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowsBatchStats {
    /// Requested target rows (including duplicates, in caller order).
    pub targets: usize,
    /// `|V_0|`: unique vertices whose feature rows the batch reads.
    pub gathered: usize,
    /// Non-zeros aggregated over, summed over the per-layer operands.
    pub sub_nnz: usize,
    /// Hops expanded (= model layer count).
    pub hops: usize,
    /// Every level was the whole vertex set: the batch was a full-graph
    /// inference.
    pub full_graph: bool,
}

/// Reusable buffers for [`GcnModel::infer_rows_planned_into`]: epoch-stamped
/// visited marks, the levels, the rank table, the per-layer operand arrays
/// and the layer loop's activation buffers. Steady-state calls reuse every
/// one at its high-water mark; only the per-layer plans are rebuilt.
#[derive(Debug, Default)]
pub struct RowsWorkspace {
    /// `mark[v] == epoch` ⇔ vertex `v` is in the level being collected.
    mark: Vec<u32>,
    epoch: u32,
    /// `local[v]` = rank of `v` in the level ranked last.
    local: Vec<u32>,
    /// `levels[l]` = `V_l`, ascending.
    levels: Vec<Vec<usize>>,
    /// `subs[l]` = layer `l + 1`'s operand (rows `V_{l+1}`, columns `V_l`),
    /// rebuilt per batch in its own recycled arrays; `None` when both
    /// levels are whole and the layer aggregates on `a_hat` in place.
    subs: Vec<Option<Csr>>,
    plans: Vec<SpmmPlan>,
    bufs: LayerBuffers,
}

impl RowsWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts collecting a level: bumps the visited-mark epoch, resetting
    /// the mark array on wrap.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Writes each member's rank in the ascending `level` into `local`.
fn rank(level: &[usize], local: &mut [u32]) {
    for (r, &v) in level.iter().enumerate() {
        local[v] = r as u32;
    }
}

/// Rebuilds `sub` as `a`'s rows `rows` in full, column ids renumbered
/// through `local` (monotone, so `Csr::from_raw`'s increasing-column
/// invariant holds), recycling `sub`'s arrays.
fn gather_rows(
    a: &Csr,
    rows: &[usize],
    ncols: usize,
    local: &[u32],
    sub: &mut Option<Csr>,
) -> Result<(), GcnError> {
    let (mut row_ptr, mut col_idx, mut values) = sub.take().map(Csr::into_raw).unwrap_or_default();
    row_ptr.clear();
    col_idx.clear();
    values.clear();
    row_ptr.push(0);
    for &v in rows {
        col_idx.extend(a.row_cols(v).iter().map(|&c| local[c as usize]));
        values.extend_from_slice(a.row_values(v));
        row_ptr.push(col_idx.len());
    }
    *sub = Some(Csr::from_raw(rows.len(), ncols, row_ptr, col_idx, values)?);
    Ok(())
}

impl GcnModel {
    /// Batched per-vertex planned inference: computes the model output for
    /// exactly the rows in `targets` (output row `i` corresponds to
    /// `targets[i]`; duplicates are allowed and each gets its own output
    /// row), computing at each layer only the rows the targets depend on.
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
    /// — narrow ones are the serving brownout path. Levels and operands are
    /// the same at every precision and each layer's plan is re-targeted
    /// with [`SpmmPlan::at_precision`], so narrow batches keep the
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
        if let Some(&t) = targets.iter().find(|&&t| t >= n) {
            return Err(GcnError::VertexOutOfRange {
                vertex: t,
                vertices: n,
            });
        }
        if ws.mark.len() < n {
            ws.mark.resize(n, 0);
            ws.local.resize(n, 0);
        }
        ws.levels.resize_with(hops + 1, Vec::new);
        ws.subs.resize_with(hops, || None);

        // --- Levels, top down; each operand is built as soon as its
        // column level is ranked, so one `local` table serves them all.
        let epoch = ws.next_epoch();
        ws.levels[hops].clear();
        for &t in targets {
            if ws.mark[t] != epoch {
                ws.mark[t] = epoch;
                ws.levels[hops].push(t);
            }
        }
        ws.levels[hops].sort_unstable();
        let mut sub_nnz = 0;
        for l in (0..hops).rev() {
            let epoch = ws.next_epoch();
            let (below, above) = ws.levels.split_at_mut(l + 1);
            let (below, above) = (&mut below[l], &above[0]);
            below.clear();
            for &v in above {
                sub_nnz += a_hat.row_nnz(v);
                for &c in a_hat.row_cols(v) {
                    let c = c as usize;
                    if ws.mark[c] != epoch {
                        ws.mark[c] = epoch;
                        below.push(c);
                    }
                }
            }
            below.sort_unstable();
            rank(below, &mut ws.local);
            if above.len() < n || below.len() < n {
                gather_rows(a_hat, above, below.len(), &ws.local, &mut ws.subs[l])?;
            } else {
                ws.subs[l] = None;
            }
        }

        // --- One Sequential-pinned plan per operand: batch parallelism
        // comes from the serving lanes, never from inside a batch, and a
        // pin never re-resolves at another K or widens the dense update.
        let RowsWorkspace {
            levels,
            subs,
            plans,
            bufs,
            local,
            ..
        } = ws;
        let operand = |l: usize| subs[l].as_ref().unwrap_or(a_hat);
        plans.clear();
        for (l, layer) in self.layers().iter().enumerate() {
            let plan = SpmmPlan::pinned(operand(l), layer.in_dim(), SpmmStrategy::Sequential);
            plans.push(plan.at_precision(precision));
        }
        let ops: Vec<_> = (0..hops).map(|l| (operand(l), &plans[l])).collect();

        // --- Gather `X[V_0]` straight into the loop's input, run, scatter.
        bufs.h
            .resize_for_overwrite(levels[0].len(), features.cols());
        for (r, &v) in levels[0].iter().enumerate() {
            bufs.h.row_mut(r).copy_from_slice(features.row(v));
        }
        self.run_layers(&ops, &RunGuard::unbounded(), None, bufs)?;
        rank(&levels[hops], local);
        for (i, &t) in targets.iter().enumerate() {
            out.row_mut(i)
                .copy_from_slice(bufs.h.row(local[t] as usize));
        }
        Ok(RowsBatchStats {
            targets: targets.len(),
            gathered: levels[0].len(),
            sub_nnz,
            hops,
            full_graph: levels.iter().all(|level| level.len() == n),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcnConfig;
    use crate::model::InferenceWorkspace;
    use graph::rmat::RmatConfig;
    use graph::Graph;

    fn setup(scale: u32) -> (Csr, GcnModel, DenseMatrix) {
        let g = Graph::rmat(&RmatConfig::power_law(scale, 6), 77);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 4);
        let x = g.random_features(8, 6);
        let a_hat = g.normalized_adjacency().unwrap();
        (a_hat, model, x)
    }

    /// A 4-vertex graph dense enough that, under the 3-layer model, every
    /// level below the targets is the whole vertex set.
    fn tiny() -> (Csr, GcnModel, DenseMatrix) {
        let g = Graph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 4);
        let x = g.random_features(8, 6);
        (g.normalized_adjacency().unwrap(), model, x)
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
        // The narrow rows path is the f32 path with re-targeted plans, so
        // the same bitwise contract holds at every precision: per-row
        // encode scales and the ascending-order levels keep each target
        // row's sequence independent of the batch it rides in.
        let (a_hat, model, x) = setup(9);
        let targets = [3usize, 99, 400, 3, 17];
        for p in [Precision::Bf16, Precision::F16, Precision::Int8] {
            let mut width1_ws = InferenceWorkspace::new();
            width1_ws.install_plan(SpmmPlan::with_width(&a_hat, x.cols(), 1).at_precision(p));
            let full = model
                .infer_planned_with(&a_hat, &x, &mut width1_ws)
                .unwrap();
            let mut ws = RowsWorkspace::new();
            let (mut all, mut one) = (DenseMatrix::default(), DenseMatrix::default());
            let stats = model
                .infer_rows_planned_prec_into(&a_hat, &x, &targets, p, &mut ws, &mut all)
                .unwrap();
            assert!(!stats.full_graph, "{p}: expected shrinking frontiers");
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
    fn saturated_lower_levels_match_full_graph_across_precisions() {
        // The lower levels are the whole vertex set (layers aggregating on
        // `a_hat` in place), the top one is not. Alternating f32 / narrow batches through one
        // workspace each match the full-graph run at their own precision.
        let (a_hat, model, x) = tiny();
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
            assert_eq!((stats.gathered, stats.full_graph), (4, false));
            let mut width1_ws = InferenceWorkspace::new();
            width1_ws.install_plan(SpmmPlan::with_width(&a_hat, x.cols(), 1).at_precision(p));
            let full = model
                .infer_planned_with(&a_hat, &x, &mut width1_ws)
                .unwrap();
            assert_eq!(out.row(0), full.row(2), "{p}");
            assert_eq!(out.row(1), full.row(0), "{p}");
        }
    }

    #[test]
    fn every_vertex_as_target_is_a_full_graph_batch() {
        let (a_hat, model, x) = tiny();
        let full = reference(&a_hat, &model, &x);
        let mut ws = RowsWorkspace::new();
        let mut out = DenseMatrix::default();
        let stats = model
            .infer_rows_planned_into(&a_hat, &x, &[2, 0, 3, 1], &mut ws, &mut out)
            .unwrap();
        assert!(stats.full_graph);
        assert_eq!((stats.gathered, stats.sub_nnz), (4, 3 * a_hat.nnz()));
        assert_eq!(out.row(0), full.row(2));
        assert_eq!(out.row(3), full.row(1));
        // A narrower batch through the same workspace shrinks again.
        let stats = model
            .infer_rows_planned_into(&a_hat, &x, &[1], &mut ws, &mut out)
            .unwrap();
        assert!(!stats.full_graph);
        assert_eq!(out.row(0), full.row(1));
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
