//! NNZ-balanced row-block partitioning of a CSR adjacency across workers.
//!
//! A [`ShardPlan`] cuts a square adjacency into `workers` contiguous row
//! blocks, with boundaries found by the same merge-path binary search the
//! single-node planner uses ([`kernels::plan::nnz_balanced_partition`]).
//! Each block gets a **local CSR** over only the columns it references,
//! plus a **halo map**: the referenced rows whose activations live on
//! another worker and must be fetched before the block can aggregate.
//!
//! Ownership follows the PIUMA DGAS layout: global activation row `r`
//! lives on the worker whose row range contains `r`, so every row has
//! exactly one home and a block's halo is its references outside its own
//! row range.

use kernels::fused::FusedOrder;
use kernels::plan::nnz_balanced_partition;
use sparse::Csr;

use crate::ShardError;

/// How the adjacency is cut across workers. There is one partition, the
/// row block; the argument stays only because gcnbench passes it to
/// [`ShardPlan::new`] and [`crate::ShardedGcn::new`], and goes in the next
/// `[benchmark]` PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// `N` contiguous NNZ-balanced row blocks (each worker owns whole
    /// rows and gathers every referenced column).
    Rows1D,
}

/// Exactly-`parts` boundary wrapper over
/// [`kernels::plan::nnz_balanced_partition`].
///
/// The underlying merge-path split returns *at most* `parts + 1` strictly
/// increasing boundaries — a hub row that swallows several targets, or
/// fewer rows than parts, collapses slots. Sharding needs a fixed worker
/// count, so this pads the boundary vector with trailing copies of
/// `nrows`: the result always has `parts + 1` non-decreasing entries,
/// starts at 0, ends at `nrows`, and workers past the realized split own
/// empty (zero-row) shards.
pub fn shard_bounds(row_ptr: &[usize], parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let n = row_ptr.len().saturating_sub(1);
    let mut bounds = nnz_balanced_partition(row_ptr, parts);
    while bounds.len() < parts + 1 {
        bounds.push(n);
    }
    bounds
}

/// Row-block boundaries balanced on the *fused-layer* work of each row:
/// its non-zeros (aggregation cost) plus one mean-degree unit (dense
/// update cost, which is per-row). Runs [`shard_bounds`] over the scaled
/// prefix `row_ptr[i] * nrows + i * nnz`, so a pure-power-law hub block
/// doesn't starve its GEMM while a tail block drowns in rows — on
/// uniform-degree graphs this is exactly the NNZ split.
pub fn row_work_bounds(row_ptr: &[usize], parts: usize) -> Vec<usize> {
    let n = row_ptr.len().saturating_sub(1);
    let nnz = row_ptr.last().copied().unwrap_or(0);
    let mut prefix = vec![0usize; n + 1];
    for (i, p) in prefix.iter_mut().enumerate() {
        *p = row_ptr[i] * n.max(1) + i * nnz.max(1);
    }
    shard_bounds(&prefix, parts)
}

/// One worker's block of the partitioned adjacency.
#[derive(Debug, Clone)]
pub struct ShardBlock {
    /// Global row range `[row_start, row_end)` this block owns and
    /// aggregates into.
    pub row_start: usize,
    /// End of the global row range (exclusive).
    pub row_end: usize,
    /// Local CSR: `(row_end - row_start)` rows over `refs.len()` columns;
    /// local column `l` is global column `refs[l]`.
    pub local: Csr,
    /// Referenced global columns, ascending — the rows whose features
    /// this block needs staged before it can aggregate.
    pub refs: Vec<u32>,
    /// The halo: the subset of `refs` outside this block's own row range,
    /// owned by other workers, whose features must cross the network.
    pub halo: Vec<u32>,
}

impl ShardBlock {
    /// Rows this block owns (`row_end - row_start`).
    pub fn rows(&self) -> usize {
        self.row_end - self.row_start
    }

    /// Non-zeros in the local CSR block.
    pub fn nnz(&self) -> usize {
        self.local.nnz()
    }
}

/// Static communication cost of one sharded GCN layer.
///
/// Derived from the partition alone (it does not depend on feature
/// values), so the same ledger drives both the runtime counters and the
/// `piuma-sim` mirror.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerExchange {
    /// Association order the fused layer picks for these widths.
    pub order: FusedOrder,
    /// Feature width of the aggregation (`k_in` aggregate-first, `k_out`
    /// update-first).
    pub agg_width: usize,
    /// Halo rows fetched across workers, summed over blocks.
    pub halo_rows: usize,
    /// Referenced rows staged (local + halo), summed over blocks.
    pub referenced_rows: usize,
    /// Bytes of remote feature rows gathered before aggregation — the
    /// only bytes a row-block layer moves across workers.
    pub gather_bytes: u64,
}

/// An NNZ-balanced row-block partition of one square adjacency.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    row_bounds: Vec<usize>,
    blocks: Vec<ShardBlock>,
    nrows: usize,
    nnz: usize,
}

impl ShardPlan {
    /// Partitions `a` across `workers` row blocks (`_kind` names the one
    /// partition there is).
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::NotSquare`] for a non-square adjacency (the
    /// DGAS ownership map needs row and column index spaces to coincide)
    /// and [`ShardError::ZeroWorkers`] for `workers == 0`.
    pub fn new(a: &Csr, workers: usize, _kind: PartitionKind) -> Result<ShardPlan, ShardError> {
        if a.nrows() != a.ncols() {
            return Err(ShardError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        if workers == 0 {
            return Err(ShardError::ZeroWorkers);
        }
        let row_bounds = row_work_bounds(a.row_ptr(), workers);
        let blocks = row_bounds
            .windows(2)
            .map(|w| build_block(a, w[0], w[1]))
            .collect::<Result<_, _>>()?;
        Ok(ShardPlan {
            row_bounds,
            blocks,
            nrows: a.nrows(),
            nnz: a.nnz(),
        })
    }

    /// Number of workers (= blocks).
    pub fn workers(&self) -> usize {
        self.blocks.len()
    }

    /// Row-block boundaries (`workers + 1` non-decreasing entries).
    pub fn row_bounds(&self) -> &[usize] {
        &self.row_bounds
    }

    /// The blocks, in row order: block `b` owns rows
    /// `row_bounds[b]..row_bounds[b + 1]`.
    pub fn blocks(&self) -> &[ShardBlock] {
        &self.blocks
    }

    /// Vertex count of the partitioned adjacency.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Non-zeros of the partitioned adjacency (the blocks tile it, so
    /// their local nnz sums to this).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Per-worker non-zero counts, block order.
    pub fn shard_nnz(&self) -> Vec<usize> {
        self.blocks.iter().map(ShardBlock::nnz).collect()
    }

    /// `max_shard_nnz / (nnz / workers)` — 1.0 is a perfect split.
    pub fn imbalance(&self) -> f64 {
        let ideal = self.nnz as f64 / self.workers() as f64;
        if ideal <= 0.0 {
            return 1.0;
        }
        let max = self.blocks.iter().map(ShardBlock::nnz).max().unwrap_or(0);
        max as f64 / ideal
    }

    /// Total halo rows across blocks (rows fetched from other workers).
    pub fn halo_rows(&self) -> usize {
        self.blocks.iter().map(|b| b.halo.len()).sum()
    }

    /// Total referenced rows across blocks (staged local + halo).
    pub fn referenced_rows(&self) -> usize {
        self.blocks.iter().map(|b| b.refs.len()).sum()
    }

    /// `halo_rows / referenced_rows` — the fraction of staged feature
    /// rows that actually cross the network.
    pub fn halo_fraction(&self) -> f64 {
        let refs = self.referenced_rows();
        if refs == 0 {
            return 0.0;
        }
        self.halo_rows() as f64 / refs as f64
    }

    /// The static exchange ledger of one GCN layer with weight shape
    /// `(k_in, k_out)`, mirroring the fused layer's association order.
    pub fn layer_exchange(&self, k_in: usize, k_out: usize) -> LayerExchange {
        let order = if k_in <= k_out {
            FusedOrder::AggregateFirst
        } else {
            FusedOrder::UpdateFirst
        };
        let agg_width = match order {
            FusedOrder::AggregateFirst => k_in,
            FusedOrder::UpdateFirst => k_out,
        };
        let halo_rows = self.halo_rows();
        LayerExchange {
            order,
            agg_width,
            halo_rows,
            referenced_rows: self.referenced_rows(),
            gather_bytes: (halo_rows * agg_width * 4) as u64,
        }
    }
}

/// Builds the block owning rows `row_start..row_end`: local CSR over the
/// referenced columns plus the halo map.
fn build_block(a: &Csr, row_start: usize, row_end: usize) -> Result<ShardBlock, ShardError> {
    let mut refs: Vec<u32> = Vec::new();
    for u in row_start..row_end {
        refs.extend_from_slice(a.row_cols(u));
    }
    refs.sort_unstable();
    refs.dedup();

    let mut row_ptr = Vec::with_capacity(row_end - row_start + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for u in row_start..row_end {
        for (&col, &v) in a.row_cols(u).iter().zip(a.row_values(u)) {
            let l = refs
                .binary_search(&col)
                .expect("column collected into refs above");
            col_idx.push(l as u32);
            values.push(v);
        }
        row_ptr.push(col_idx.len());
    }
    let local = Csr::from_raw(row_end - row_start, refs.len(), row_ptr, col_idx, values)
        .map_err(|e| ShardError::Partition(e.to_string()))?;
    let halo = refs
        .iter()
        .copied()
        .filter(|&g| (g as usize) < row_start || (g as usize) >= row_end)
        .collect();
    Ok(ShardBlock {
        row_start,
        row_end,
        local,
        refs,
        halo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::rmat::RmatConfig;
    use graph::Graph;

    fn twin(scale: u32, seed: u64) -> Csr {
        Graph::rmat(&RmatConfig::power_law(scale, 6), seed)
            .normalized_adjacency()
            .unwrap()
    }

    #[test]
    fn shard_bounds_always_returns_exactly_n_plus_one() {
        let a = twin(8, 3);
        for parts in [1usize, 2, 3, 8, 300, 1000] {
            let b = shard_bounds(a.row_ptr(), parts);
            assert_eq!(b.len(), parts + 1, "parts={parts}");
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), a.nrows());
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn more_workers_than_rows_yields_empty_trailing_shards() {
        let a = twin(4, 1); // 16 rows
        let plan = ShardPlan::new(&a, 300, PartitionKind::Rows1D).unwrap();
        assert_eq!(plan.workers(), 300);
        let nonempty = plan.blocks().iter().filter(|b| b.rows() > 0).count();
        assert!(nonempty <= 16);
        assert_eq!(plan.shard_nnz().iter().sum::<usize>(), a.nnz());
    }

    #[test]
    fn blocks_tile_the_adjacency_exactly() {
        let a = twin(9, 7);
        for n in [1usize, 2, 4, 8] {
            let plan = ShardPlan::new(&a, n, PartitionKind::Rows1D).unwrap();
            assert_eq!(plan.workers(), n);
            // NNZ conservation.
            assert_eq!(plan.shard_nnz().iter().sum::<usize>(), a.nnz(), "n={n}");
            // Row coverage: row bounds tile [0, nrows].
            assert_eq!(plan.row_bounds()[0], 0);
            assert_eq!(*plan.row_bounds().last().unwrap(), a.nrows());
            // Every local entry decodes back to the original value.
            for b in plan.blocks() {
                for lu in 0..b.local.nrows() {
                    let gu = b.row_start + lu;
                    for (&lc, &v) in b.local.row_cols(lu).iter().zip(b.local.row_values(lu)) {
                        let gc = b.refs[lc as usize];
                        let pos = a.row_cols(gu).binary_search(&gc).unwrap();
                        assert_eq!(a.row_values(gu)[pos], v);
                    }
                }
            }
        }
    }

    #[test]
    fn every_row_has_exactly_one_owner() {
        let a = twin(8, 19);
        for n in [1usize, 2, 4, 6, 8] {
            let plan = ShardPlan::new(&a, n, PartitionKind::Rows1D).unwrap();
            for row in 0..a.nrows() {
                let owners = plan
                    .blocks()
                    .iter()
                    .filter(|b| (b.row_start..b.row_end).contains(&row))
                    .count();
                assert_eq!(owners, 1, "row {row} n={n}");
            }
        }
    }

    #[test]
    fn halo_is_exactly_the_non_owned_references() {
        let a = twin(8, 11);
        let plan = ShardPlan::new(&a, 4, PartitionKind::Rows1D).unwrap();
        for b in plan.blocks() {
            for &g in &b.halo {
                assert!((g as usize) < b.row_start || (g as usize) >= b.row_end);
            }
            let local_refs = b.refs.len() - b.halo.len();
            let in_range = b
                .refs
                .iter()
                .filter(|&&g| (g as usize) >= b.row_start && (g as usize) < b.row_end)
                .count();
            assert_eq!(local_refs, in_range);
        }
        assert!(plan.halo_fraction() > 0.0);
        assert!(plan.halo_fraction() <= 1.0);
    }

    #[test]
    fn single_worker_plan_is_the_identity_partition() {
        let a = twin(7, 5);
        let plan = ShardPlan::new(&a, 1, PartitionKind::Rows1D).unwrap();
        assert_eq!(plan.workers(), 1);
        let b = &plan.blocks()[0];
        assert_eq!((b.row_start, b.row_end), (0, a.nrows()));
        assert_eq!(b.nnz(), a.nnz());
        assert!(b.halo.is_empty(), "one worker owns everything");
        assert_eq!(plan.halo_rows(), 0);
        assert!((plan.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ledger_mirrors_association_order() {
        let a = twin(8, 13);
        let plan = ShardPlan::new(&a, 4, PartitionKind::Rows1D).unwrap();
        let agg_first = plan.layer_exchange(16, 64);
        assert_eq!(agg_first.order, FusedOrder::AggregateFirst);
        assert_eq!(agg_first.agg_width, 16);
        let upd_first = plan.layer_exchange(64, 16);
        assert_eq!(upd_first.order, FusedOrder::UpdateFirst);
        assert_eq!(upd_first.agg_width, 16);
        // Only the halo crosses workers, at the aggregation width.
        assert_eq!(agg_first.gather_bytes, (plan.halo_rows() * 16 * 4) as u64);
        assert_eq!(upd_first.gather_bytes, agg_first.gather_bytes);
    }

    #[test]
    fn non_square_matrices_are_rejected() {
        let mut coo = sparse::Coo::new(4, 5);
        coo.push(0, 4, 1.0);
        let rect = Csr::from_coo(&coo);
        assert!(matches!(
            ShardPlan::new(&rect, 2, PartitionKind::Rows1D),
            Err(ShardError::NotSquare { .. })
        ));
        let sq = twin(4, 2);
        assert!(matches!(
            ShardPlan::new(&sq, 0, PartitionKind::Rows1D),
            Err(ShardError::ZeroWorkers)
        ));
    }
}
