//! Feature-tiled SpMM: cache blocking over the embedding dimension.
//!
//! At large K the paper's CPU baseline degrades because each random feature
//! row is a cache-line burst that evicts other rows (Section III-C). A
//! standard mitigation — used by Graphite \[9\] and GE-SpMM \[11\] — is to tile
//! the *feature* dimension: process the sparse structure once per K-tile,
//! so the working set per pass shrinks from `|V| * K` to `|V| * T` floats.
//! The trade-off is re-reading the CSR arrays once per tile; tiling wins
//! when features dominate traffic (K large) and loses when the CSR re-reads
//! dominate (K small) — a crossover the benches expose.
//!
//! These are design-space kernels, selected only by name
//! ([`crate::SpmmStrategy::FeatureTiled`] / `FeatureParallel`): neither
//! `Auto` nor an [`crate::SpmmPlan`] resolves to them. Since the row kernel
//! keeps a whole output row in registers
//! ([`matrix::microkernel::KernelDispatch::fill_row`]), splitting columns
//! only adds CSR re-reads and, for the parallel form, an `n x k` scratch
//! grid; the NNZ-balanced row partition won at every width measured
//! (EXPERIMENTS.md, "Row kernel").

use matrix::{DenseMatrix, MatrixError};
use sparse::Csr;
use std::sync::atomic::Ordering;

use crate::spmm::{check, FeatureOperand};

// BOUNDS: indexing here touches CSR arrays validated by `Csr::from_coo`,
// tile ranges clamped to `..k` where they are derived, and a scratch grid sized
// `n * k` by `with_zeroed_u32` immediately before use; `check()` ties the
// operand shapes together at every entry point.

/// Default feature-tile width in elements (256 floats = 1 KB per row: small
/// enough that tens of thousands of hot rows fit in an L2 slice).
pub const DEFAULT_TILE: usize = 256;

/// Sequential feature-tiled SpMM: `out = A * H`, processed in K-tiles of
/// width `tile`, over any [`FeatureOperand`], writing into a caller-owned
/// output matrix (reshaped with [`DenseMatrix::resize_zeroed`];
/// allocation-free at capacity). Over narrow storage, tiling and narrowing
/// compound: a tile's working set shrinks by the tile factor *and* the
/// storage ratio.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] on shape mismatch; a zero
/// `tile` is promoted to [`DEFAULT_TILE`].
pub fn spmm_feature_tiled_into<F: FeatureOperand>(
    a: &Csr,
    h: &F,
    tile: usize,
    out: &mut DenseMatrix,
) -> Result<(), MatrixError> {
    check("spmm_feature_tiled", a, h)?;
    let k = h.shape().1;
    let tile = if tile == 0 { DEFAULT_TILE } else { tile };
    out.resize_zeroed(a.nrows(), k);
    let kd = matrix::microkernel::KernelDispatch::get();
    let mut t0 = 0;
    while t0 < k {
        let t1 = (t0 + tile).min(k);
        for u in 0..a.nrows() {
            let row_out = &mut out.row_mut(u)[t0..t1];
            for (&v, &w) in a.row_cols(u).iter().zip(a.row_values(u)) {
                h.axpy_range(kd, row_out, w, v as usize, t0..t1);
            }
        }
        t0 = t1;
    }
    Ok(())
}

/// Parallel feature-tiled SpMM: each worker owns a disjoint K-tile of the
/// output, so all threads share the sparse structure reads but never write
/// the same cache lines. Complements the row-parallel kernels when `K >>
/// thread count` — and is the layout GE-SpMM's coalesced row caching
/// exploits on GPUs.
///
/// Runs on the persistent global pool. Column tiles cannot be handed out
/// as `&mut` slices of a row-major matrix, so tiles accumulate into the
/// pool's reusable [`pool::ScratchArena`] grid — each `(row, column)` cell
/// belongs to exactly one tile, so plain relaxed load/store suffices (no
/// compare-exchange) — and the grid is copied into `out` afterwards. In
/// steady state no allocation is proportional to the output size.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] on shape mismatch and
/// [`MatrixError::ZeroThreads`] if `threads == 0`.
pub fn spmm_feature_parallel_into(
    a: &Csr,
    h: &DenseMatrix,
    threads: usize,
    out: &mut DenseMatrix,
) -> Result<(), MatrixError> {
    check("spmm_feature_parallel", a, h)?;
    if threads == 0 {
        return Err(MatrixError::ZeroThreads);
    }
    let n = a.nrows();
    let k = h.cols();
    let tile = k.div_ceil(threads.min(k).max(1)).max(1);
    let tiles = k.div_ceil(tile);
    if threads == 1 || k == 0 || n == 0 || tiles < 2 {
        return spmm_feature_tiled_into(a, h, 0, out);
    }
    out.resize_for_overwrite(n, k);

    let pool = pool::global();
    let out_slice = out.as_mut_slice();
    pool.scratch().with_zeroed_u32(n * k, |grid| {
        pool.broadcast(threads.min(tiles), tiles, |t| {
            let (t0, t1) = (t * tile, ((t + 1) * tile).min(k));
            for u in 0..n {
                let base = u * k;
                for (&v, &w) in a.row_cols(u).iter().zip(a.row_values(u)) {
                    let feat = &h.row(v as usize)[t0..t1];
                    for (j, f) in (t0..t1).zip(feat) {
                        let cell = &grid[base + j];
                        // Exclusive per-tile ownership of the cell: a plain
                        // read-modify-write is race-free.
                        // lint:allow(L006): single-writer cell — no other
                        // thread reads it until the pool barrier.
                        let cur = f32::from_bits(cell.load(Ordering::Relaxed));
                        // lint:allow(L006): same single-writer argument;
                        // publication happens at the pool barrier.
                        cell.store((cur + w * f).to_bits(), Ordering::Relaxed);
                    }
                }
            }
        });
        for (dst, cell) in out_slice.iter_mut().zip(grid) {
            // lint:allow(L006): the pool barrier at broadcast() return is
            // the acquire edge; every cell is final before this read.
            *dst = f32::from_bits(cell.load(Ordering::Relaxed));
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::spmm_sequential;
    use crate::SpmmStrategy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparse::Coo;

    fn random_inputs(n: usize, nnz: usize, k: usize, seed: u64) -> (Csr, DenseMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = Coo::new(n, n);
        for _ in 0..nnz {
            coo.push(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-1.0..1.0),
            );
        }
        let data = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (
            Csr::from_coo(&coo),
            DenseMatrix::from_vec(n, k, data).unwrap(),
        )
    }

    fn feature_tiled(a: &Csr, h: &DenseMatrix, tile: usize) -> Result<DenseMatrix, MatrixError> {
        SpmmStrategy::FeatureTiled { tile }.run(a, h)
    }

    fn feature_parallel(
        a: &Csr,
        h: &DenseMatrix,
        threads: usize,
    ) -> Result<DenseMatrix, MatrixError> {
        SpmmStrategy::FeatureParallel { threads }.run(a, h)
    }

    #[test]
    fn tiled_matches_reference_for_many_tile_sizes() {
        let (a, h) = random_inputs(60, 500, 37, 1);
        let reference = spmm_sequential(&a, &h).unwrap();
        for tile in [1, 2, 7, 16, 37, 64, 0] {
            let got = feature_tiled(&a, &h, tile).unwrap();
            assert!(reference.max_abs_diff(&got) < 1e-4, "tile={tile} diverged");
        }
    }

    #[test]
    fn feature_parallel_matches_reference() {
        let (a, h) = random_inputs(80, 900, 48, 2);
        let reference = spmm_sequential(&a, &h).unwrap();
        for threads in [1, 2, 3, 5, 48, 100] {
            let got = feature_parallel(&a, &h, threads).unwrap();
            assert!(
                reference.max_abs_diff(&got) < 1e-4,
                "threads={threads} diverged"
            );
        }
    }

    #[test]
    fn narrow_k_is_handled() {
        let (a, h) = random_inputs(20, 60, 1, 3);
        let reference = spmm_sequential(&a, &h).unwrap();
        assert!(reference.max_abs_diff(&feature_parallel(&a, &h, 8).unwrap()) < 1e-5);
    }

    #[test]
    fn shape_and_thread_errors_are_reported() {
        let a = Csr::empty(3, 3);
        let h = DenseMatrix::zeros(4, 2);
        assert!(feature_tiled(&a, &h, 4).is_err());
        assert!(feature_parallel(&a, &h, 2).is_err());
        let h = DenseMatrix::zeros(3, 2);
        assert!(matches!(
            feature_parallel(&a, &h, 0),
            Err(MatrixError::ZeroThreads)
        ));
    }

    #[test]
    fn empty_inputs_give_zero_output() {
        let a = Csr::empty(4, 4);
        let h = DenseMatrix::zeros(4, 0);
        let out = feature_parallel(&a, &h, 3).unwrap();
        assert_eq!(out.shape(), (4, 0));
    }
}
