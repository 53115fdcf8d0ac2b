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
//! **Rows on global ids.** A batch is the one layer loop
//! (`GcnModel::run_layers`, behind [`GcnModel::infer_planned_with`]) on row
//! lists ([`kernels::plan::RowLists`]): layer `l` computes `A_hat`'s own
//! rows `V_l` from its input's rows `V_{l-1}`, read at global column ids.
//! Layer 1 reads `X` in place; every layer writes its rows at their ids
//! into the workspace's `n`-row buffer `h`, which the next layer reads and
//! overwrites in place (the intermediate product takes `mid`). So a batch
//! gathers, renumbers and plans nothing: the layers run on the workspace's
//! one plan, the SpMM's NNZ partition is an `O(|V_l|)` prefix walk over
//! the list ([`kernels::plan::nnz_balanced_partition_of`]), and a narrow
//! precision encodes only the level's rows. The lists ascend, so each pool
//! share owns a contiguous range of output rows. A buffer row outside the
//! level may hold an earlier call's value; no layer reads one, as every
//! column of a row in `V_l` is in `V_{l-1}`, just written below. The
//! buffers take each layer's width in turn without re-zeroing
//! ([`matrix::DenseMatrix::resize_for_overwrite`] keeps their most
//! elements), so a steady batch writes only its own rows — its cost follows
//! its levels, not `n`.
//!
//! **Why the bits do not change.** Each kept row walks exactly `A_hat`'s
//! non-zeros in ascending column order through the same row kernel
//! (`fill_row`), reading the same operand values; the packed `f32` GEMM and
//! the narrow encodes (element-wise for bf16 / f16, per-row scales for
//! int8) are row-local, whatever the thread count or a row's tile
//! neighbours. So every target row is **bitwise identical** to full-graph
//! [`GcnModel::infer_planned_with`] under an installed width-1 plan at the
//! same storage precision — the contract the sharded runner also pins —
//! whatever batch the row rode in and whatever earlier calls left in the
//! workspace, which is what lets the serving layer coalesce freely.
//!
//! [`RowsBatchStats`] counts the work: `gathered = |V_0|` (feature rows
//! read), `sub_nnz` = the non-zeros of all `L` row lists (`Σ_l Σ_{v ∈ V_l}
//! deg(v)`), and `full_graph` only when every level — the targets included
//! — is the whole vertex set.

use crate::error::GcnError;
use crate::model::{GcnModel, InferenceWorkspace};
use matrix::DenseMatrix;
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
    /// Non-zeros aggregated over, summed over the layers' row lists.
    pub sub_nnz: usize,
    /// Hops expanded (= model layer count).
    pub hops: usize,
    /// Every level was the whole vertex set: the batch was a full-graph
    /// inference.
    pub full_graph: bool,
}

/// The rows path's workspace is the one [`InferenceWorkspace`]; the name
/// is kept for callers that spell it this way.
pub type RowsWorkspace = InferenceWorkspace;

impl InferenceWorkspace {
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
    /// Precision rides on the workspace's plan, as for the whole graph: a
    /// fresh workspace runs `f32`; after [`InferenceWorkspace::plan_for`]
    /// at a narrow precision (the serving brownout path) every batch runs
    /// at it. Narrow outputs carry the precision's quantization error and
    /// are **not** bitwise-comparable to the `f32` path.
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
        ws: &mut InferenceWorkspace,
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
        }
        ws.levels.resize_with(hops + 1, Vec::new);

        // --- Levels, top down.
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
        }

        // --- The layer loop on the levels, then the targets' rows.
        let levels = std::mem::take(&mut ws.levels);
        let run = self.run_layers(
            a_hat,
            features,
            Some(&levels),
            &RunGuard::unbounded(),
            false,
            ws,
        );
        ws.levels = levels;
        run?;
        for (i, &t) in targets.iter().enumerate() {
            out.row_mut(i).copy_from_slice(ws.h.row(t));
        }
        Ok(RowsBatchStats {
            targets: targets.len(),
            gathered: ws.levels[0].len(),
            sub_nnz,
            hops,
            full_graph: ws.levels.iter().all(|level| level.len() == n),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GcnConfig;
    use graph::rmat::RmatConfig;
    use graph::Graph;
    use kernels::plan::{nnz_balanced_partition_of, PLAN_SLOTS_PER_THREAD};
    use kernels::SpmmPlan;
    use matrix::Precision;

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
        let mut ws = InferenceWorkspace::new();
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
        // The narrow rows path is the f32 path on a re-targeted plan, so
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
            let mut ws = InferenceWorkspace::new();
            ws.plan_for(&a_hat, x.cols(), p);
            let (mut all, mut one) = (DenseMatrix::default(), DenseMatrix::default());
            let stats = model
                .infer_rows_planned_into(&a_hat, &x, &targets, &mut ws, &mut all)
                .unwrap();
            assert!(!stats.full_graph, "{p}: expected shrinking frontiers");
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(all.row(i), full.row(t), "{p}: row {t} vs full graph");
                model
                    .infer_rows_planned_into(&a_hat, &x, &[t], &mut ws, &mut one)
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
        let mut ws = InferenceWorkspace::new();
        let mut out = DenseMatrix::default();
        for p in [
            Precision::F32,
            Precision::Bf16,
            Precision::F32,
            Precision::Int8,
        ] {
            ws.plan_for(&a_hat, x.cols(), p);
            let stats = model
                .infer_rows_planned_into(&a_hat, &x, &[2, 0], &mut ws, &mut out)
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
        let mut ws = InferenceWorkspace::new();
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
    fn a_hub_batch_runs_pool_width_vertex_parallel_bitwise() {
        // A star with self-loops: every layer's row list is split into at
        // most the pool's slots, the hub's row is never split and forms a
        // share of its own, and the last layer ran exactly that partition.
        let n = 1024;
        let edges: Vec<_> = (1..n).map(|v| (0, v)).collect();
        let g = Graph::from_undirected_edges(n, &edges);
        let (a_hat, x) = (g.normalized_adjacency().unwrap(), g.random_features(8, 6));
        let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 4);
        let full = reference(&a_hat, &model, &x);
        let mut ws = InferenceWorkspace::new();
        let mut out = DenseMatrix::default();
        let targets = [5usize, 0, 17, n - 1, 0];
        model
            .infer_rows_planned_into(&a_hat, &x, &targets, &mut ws, &mut out)
            .unwrap();
        let slots = kernels::pool::global().width() * PLAN_SLOTS_PER_THREAD;
        let hops = model.layers().len();
        let mut p = Vec::new();
        for l in 1..=hops {
            let rows = &ws.levels[l];
            nnz_balanced_partition_of(&a_hat, rows, slots, &mut p);
            assert!(p.len() - 1 <= slots, "layer {l}: {} shares", p.len() - 1);
            let hub = rows.binary_search(&0).unwrap();
            assert!(
                p.windows(2).any(|w| w == [hub, hub + 1]),
                "layer {l}: {p:?}"
            );
        }
        assert_eq!(ws.slots, p, "the last layer ran the pool-width partition");
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(out.row(i), full.row(t), "row {t} diverged");
        }
    }

    #[test]
    fn a_steady_batch_writes_only_its_level_rows() {
        // After a warm-up batch both global-id buffers are poisoned with
        // NaN over their whole storage. A one-vertex batch on a ring
        // (levels of 1, 3, 5 and 7 vertices) still matches the full graph,
        // so it read no row it did not write, and it leaves poisoned all
        // but a few elements per level row: the buffers took each layer's
        // width (8 to 12 to 3 wide) without being re-zeroed, so the batch's
        // work follows its levels, not `n`.
        let n = 1024;
        let edges: Vec<_> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = Graph::from_undirected_edges(n, &edges);
        let (a_hat, x) = (g.normalized_adjacency().unwrap(), g.random_features(8, 6));
        let model = GcnModel::new(&GcnConfig::paper_model(8, 12, 3), 4);
        let full = reference(&a_hat, &model, &x);
        let mut ws = InferenceWorkspace::new();
        let mut out = DenseMatrix::default();
        model
            .infer_rows_planned_into(&a_hat, &x, &[3, 99, 400, 17], &mut ws, &mut out)
            .unwrap();
        let widest = 12;
        for buffer in [&mut ws.h, &mut ws.mid] {
            buffer.resize_for_overwrite(n, widest);
            buffer.as_mut_slice().fill(f32::NAN);
        }
        let stats = model
            .infer_rows_planned_into(&a_hat, &x, &[500], &mut ws, &mut out)
            .unwrap();
        assert_eq!(stats.gathered, 7);
        assert_eq!(out.row(0), full.row(500));
        // Each layer writes at most its two levels' rows into a buffer.
        let level_rows: usize = ws.levels.windows(2).map(|w| w[0].len() + w[1].len()).sum();
        for (name, buffer) in [("h", &mut ws.h), ("mid", &mut ws.mid)] {
            buffer.resize_for_overwrite(n, widest);
            let written = buffer.as_slice().iter().filter(|x| !x.is_nan()).count();
            assert!(
                written <= level_rows * widest,
                "{name}: {written} elements written, levels hold {level_rows} rows"
            );
        }
    }

    #[test]
    fn coalescing_is_bitwise_invariant() {
        let (a_hat, model, x) = setup(8);
        let mut ws = InferenceWorkspace::new();
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
        let mut ws = InferenceWorkspace::new();
        let mut out = DenseMatrix::default();
        assert!(matches!(
            model.infer_rows_planned_into(&a_hat, &x, &[n], &mut ws, &mut out),
            Err(GcnError::VertexOutOfRange { vertex, vertices }) if vertex == n && vertices == n
        ));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (a_hat, model, x) = setup(6);
        let mut ws = InferenceWorkspace::new();
        let mut out = DenseMatrix::filled(3, 3, 7.0);
        let stats = model
            .infer_rows_planned_into(&a_hat, &x, &[], &mut ws, &mut out)
            .unwrap();
        assert_eq!(stats.gathered, 0);
        assert_eq!(out.rows(), 0);
    }
}
