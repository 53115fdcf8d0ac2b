//! Property tests: the shard partition tiles the original adjacency
//! exactly, on arbitrary random graphs, at every worker count.
//!
//! "Tiles exactly" means: every non-zero `(r, c, v)` of the original CSR
//! appears in exactly one block, read from the plan's adjacency at its
//! global column id, and nothing else appears anywhere — so NNZ is conserved,
//! row ranges cover `[0, n)` without overlap, and degenerate shapes
//! (more workers than rows, one worker) fall out as empty blocks and the
//! identity partition respectively.

use proptest::prelude::*;
use shard::{PartitionKind, ShardPlan};
use sparse::{Coo, Csr};

fn build_csr(n: usize, edges: &[(usize, usize)]) -> Csr {
    let mut coo = Coo::new(n, n);
    for (k, &(r, c)) in edges.iter().enumerate() {
        coo.push(r % n, c % n, 1.0 + (k % 7) as f32);
    }
    Csr::from_coo(&coo)
}

/// Reassembles the adjacency block by block: every non-zero of every
/// block's rows, at its global column id, which the block's `refs` must
/// list.
fn decode(plan: &ShardPlan) -> Vec<(usize, usize, f32)> {
    let adj = plan.adjacency();
    let mut entries = Vec::new();
    for blk in plan.blocks() {
        for r in blk.row_start..blk.row_end {
            for (&c, &v) in adj.row_cols(r).iter().zip(adj.row_values(r)) {
                assert!(blk.refs.binary_search(&c).is_ok(), "column {c} in refs");
                entries.push((r, c as usize, v));
            }
        }
    }
    entries.sort_by_key(|e| (e.0, e.1));
    entries
}

fn flatten(a: &Csr) -> Vec<(usize, usize, f32)> {
    let mut entries = Vec::new();
    for r in 0..a.nrows() {
        for p in a.row_ptr()[r]..a.row_ptr()[r + 1] {
            entries.push((r, a.col_idx()[p] as usize, a.values()[p]));
        }
    }
    entries
}

proptest! {
    /// Blocks tile the original exactly: same entry multiset, NNZ
    /// conserved, row bounds strictly cover `[0, n)`.
    #[test]
    fn blocks_tile_the_original(
        n in 1usize..48,
        edges in proptest::collection::vec((0usize..64, 0usize..64), 0..256),
        workers in 1usize..9,
    ) {
        let a = build_csr(n, &edges);
        let plan = ShardPlan::new(&a, workers, PartitionKind::Rows1D)
            .expect("square matrix partitions");

        prop_assert_eq!(plan.workers(), workers);
        let bounds = plan.row_bounds();
        prop_assert_eq!(bounds[0], 0);
        prop_assert_eq!(*bounds.last().expect("bounds non-empty"), n);
        prop_assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "row bounds must be monotone");

        let nnz_sum: usize = plan.blocks().iter().map(|b| b.nnz()).sum();
        prop_assert_eq!(nnz_sum, a.nnz());
        prop_assert_eq!(decode(&plan), flatten(&a));
    }

    /// More workers than rows: the partition still builds, trailing row
    /// blocks are empty, and the tiling still holds.
    #[test]
    fn more_workers_than_rows_leaves_empty_shards(
        n in 1usize..6,
        edges in proptest::collection::vec((0usize..8, 0usize..8), 0..24),
    ) {
        let a = build_csr(n, &edges);
        let plan = ShardPlan::new(&a, 8, PartitionKind::Rows1D).expect("partition builds");
        prop_assert_eq!(plan.row_bounds().len(), 9);
        let occupied = plan.blocks().iter().filter(|b| b.rows() > 0).count();
        prop_assert!(occupied <= n, "at most one non-empty block per row");
        prop_assert_eq!(decode(&plan), flatten(&a));
    }

    /// One worker is the identity partition: a single block holding the
    /// whole matrix with no halo.
    #[test]
    fn single_worker_is_identity(
        n in 1usize..32,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..128),
    ) {
        let a = build_csr(n, &edges);
        let plan = ShardPlan::new(&a, 1, PartitionKind::Rows1D).expect("partition builds");
        prop_assert_eq!(plan.blocks().len(), 1);
        let blk = &plan.blocks()[0];
        prop_assert_eq!((blk.row_start, blk.row_end), (0, n));
        prop_assert_eq!(blk.nnz(), a.nnz());
        prop_assert!(blk.halo.is_empty(), "one worker owns every referenced row");
        prop_assert_eq!(plan.halo_rows(), 0);
    }

    /// A deliberately planted hub row (dense row 0) never breaks the
    /// tiling or the halo accounting.
    #[test]
    fn hub_rows_partition_cleanly(
        n in 8usize..40,
        workers in 2usize..9,
        tail in proptest::collection::vec((0usize..40, 0usize..40), 0..64),
    ) {
        let mut edges: Vec<(usize, usize)> = (0..n).map(|c| (0, c)).collect();
        edges.extend(tail);
        let a = build_csr(n, &edges);
        let plan = ShardPlan::new(&a, workers, PartitionKind::Rows1D).expect("partition builds");
        prop_assert_eq!(decode(&plan), flatten(&a));
        for blk in plan.blocks() {
            // Every halo row is referenced but not owned by its block.
            for &h in &blk.halo {
                let h = h as usize;
                prop_assert!(
                    h < blk.row_start || h >= blk.row_end,
                    "halo row {h} is owned by its own block"
                );
            }
            // The ascending refs split into below / inside / above the
            // owned rows, and the halo is exactly the outer two parts.
            prop_assert!(blk.refs.windows(2).all(|w| w[0] < w[1]), "refs ascend");
            let lo = blk.refs.partition_point(|&g| (g as usize) < blk.row_start);
            let hi = blk.refs.partition_point(|&g| (g as usize) < blk.row_end);
            let outer: Vec<u32> = blk.refs[..lo].iter().chain(&blk.refs[hi..]).copied().collect();
            prop_assert_eq!(&blk.halo, &outer);
        }
    }
}
