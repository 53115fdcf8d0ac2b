//! SpMM kernel implementations (Algorithm 1 and Algorithm 2 of the paper).
//!
//! All parallel kernels execute on the process-wide persistent thread pool
//! ([`pool::global`]): threads are spawned once and reused across calls,
//! so per-invocation cost is one job publication instead of N thread
//! spawns. Every kernel writes into a caller-owned
//! [`matrix::DenseMatrix`], which the GCN inference path uses to ping-pong
//! between two activation buffers without per-layer allocation; the
//! allocating form of any of them is [`crate::SpmmStrategy::run`].

use matrix::microkernel::KernelDispatch;
use matrix::{DenseMatrix, MatrixError, QuantMatrix};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};

use sparse::Csr;

// BOUNDS: all `[]` indexing in this module is over CSR arrays validated at
// construction (`Csr::from_coo` checks row_ptr monotonicity and col_idx <
// ncols) plus output slices sized to `n * k` by the `resize_*` call before
// the kernels run; `check()` ties the two shapes together at every entry point.

/// Row-chunk size handed to a worker at a time by the vertex-parallel
/// kernel's dynamic scheduler. Small enough to balance power-law rows,
/// large enough to amortize the claim.
pub(crate) const VERTEX_CHUNK: usize = 64;

/// The dense right-hand side of an SpMM, abstracted over storage: the
/// kernels in this crate are written once against this trait and
/// monomorphised for full-precision [`DenseMatrix`] rows and for
/// narrow-storage [`QuantMatrix`] rows (bf16 / f16 / int8, decoded on the
/// fly while the arithmetic stays `f32`). Storage width is an operand of
/// one memory-bound kernel — exactly how the paper's traffic model treats
/// it — not a second copy of the kernel.
pub trait FeatureOperand: Sync {
    /// Shape as `(rows, cols)`.
    fn shape(&self) -> (usize, usize);

    /// `y += sum_i weights[i] * self[cols[i], :]`, in non-zero order.
    fn accumulate_row(&self, kd: KernelDispatch, y: &mut [f32], cols: &[u32], weights: &[f32]);

    /// Computes one whole output row, `y = sum_i weights[i] *
    /// self[cols[i], :]`, for callers that own the row's entire non-zero
    /// loop. Overwrites `y` whatever it held — an empty row writes zeros.
    fn fill_row(&self, kd: KernelDispatch, y: &mut [f32], cols: &[u32], weights: &[f32]);

    /// The operand as full-precision rows, for the one kernel that exists
    /// only over `f32` storage (edge-parallel). Narrow storage
    /// is [`MatrixError::UnsupportedPrecision`] naming `op` — an error,
    /// never a silent `f32` run.
    fn f32_rows(&self, op: &'static str) -> Result<&DenseMatrix, MatrixError>;
}

impl FeatureOperand for DenseMatrix {
    fn shape(&self) -> (usize, usize) {
        DenseMatrix::shape(self)
    }

    /// The register-tiled row kernel ([`KernelDispatch::accumulate_row`]):
    /// the output row lives in registers across its non-zeros, bitwise
    /// equal to one widened AXPY per non-zero.
    #[inline]
    fn accumulate_row(&self, kd: KernelDispatch, y: &mut [f32], cols: &[u32], weights: &[f32]) {
        kd.accumulate_row(y, cols, weights, self);
    }

    #[inline]
    fn fill_row(&self, kd: KernelDispatch, y: &mut [f32], cols: &[u32], weights: &[f32]) {
        kd.fill_row(y, cols, weights, self);
    }

    fn f32_rows(&self, _op: &'static str) -> Result<&DenseMatrix, MatrixError> {
        Ok(self)
    }
}

impl FeatureOperand for QuantMatrix {
    fn shape(&self) -> (usize, usize) {
        QuantMatrix::shape(self)
    }

    /// The same row kernel over narrow loads
    /// ([`KernelDispatch::accumulate_row_quant`]): the traffic saving (2-4x
    /// fewer feature bytes per non-zero) is exactly the paper's
    /// memory-bound SpMM lever.
    #[inline]
    fn accumulate_row(&self, kd: KernelDispatch, y: &mut [f32], cols: &[u32], weights: &[f32]) {
        kd.accumulate_row_quant(y, cols, weights, self);
    }

    #[inline]
    fn fill_row(&self, kd: KernelDispatch, y: &mut [f32], cols: &[u32], weights: &[f32]) {
        kd.fill_row_quant(y, cols, weights, self);
    }

    fn f32_rows(&self, op: &'static str) -> Result<&DenseMatrix, MatrixError> {
        Err(MatrixError::UnsupportedPrecision {
            op,
            precision: self.precision().name(),
        })
    }
}

pub(crate) fn check<F: FeatureOperand>(
    op: &'static str,
    a: &Csr,
    h: &F,
) -> Result<(), MatrixError> {
    if a.ncols() != h.shape().0 {
        return Err(MatrixError::DimensionMismatch {
            op,
            lhs: a.shape(),
            rhs: h.shape(),
        });
    }
    Ok(())
}

/// Computes rows `[row_start, row_end)` of `A * H` into `out_rows`
/// (row-major, `(row_end - row_start) * k` elements, overwritten) on an explicit
/// [`KernelDispatch`]. The shared inner loop of the sequential,
/// vertex-parallel, NNZ-balanced and hybrid kernels: one
/// [`FeatureOperand::fill_row`] per output row.
pub(crate) fn spmm_rows_with<F: FeatureOperand>(
    kd: KernelDispatch,
    a: &Csr,
    h: &F,
    out_rows: &mut [f32],
    row_start: usize,
    row_end: usize,
    k: usize,
) {
    debug_assert_eq!(out_rows.len(), (row_end - row_start) * k);
    for u in row_start..row_end {
        let row_out = &mut out_rows[(u - row_start) * k..(u - row_start + 1) * k];
        h.fill_row(kd, row_out, a.row_cols(u), a.row_values(u));
    }
}

/// Sequential SpMM reference: `out = A * H` (Algorithm 1).
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `a.ncols() != h.rows()`.
pub fn spmm_sequential(a: &Csr, h: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
    let mut out = DenseMatrix::default();
    spmm_sequential_into(a, h, &mut out)?;
    Ok(out)
}

/// [`spmm_sequential`] over any [`FeatureOperand`], writing into a
/// caller-owned output matrix (allocation-free at capacity).
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `a.ncols() != h.rows()`.
pub fn spmm_sequential_into<F: FeatureOperand>(
    a: &Csr,
    h: &F,
    out: &mut DenseMatrix,
) -> Result<(), MatrixError> {
    check("spmm_sequential", a, h)?;
    let (n, k) = (a.nrows(), h.shape().1);
    out.resize_for_overwrite(n, k);
    spmm_rows_with(KernelDispatch::get(), a, h, out.as_mut_slice(), 0, n, k);
    Ok(())
}

/// Vertex-parallel SpMM with dynamic load balancing, over any
/// [`FeatureOperand`].
///
/// Output rows are split into [`VERTEX_CHUNK`]-row chunks; pool workers
/// claim chunks from the job's shared counter (the moral equivalent of
/// OpenMP `schedule(dynamic)`, which Section V-A reports as the fastest
/// CPU configuration). Each chunk is owned exclusively by one worker, so
/// no atomics touch the output; the chunks cover every row and the row
/// kernel overwrites, so `out` is reshaped without a memset and without
/// allocating once it has reached capacity.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] on shape mismatch and
/// [`MatrixError::ZeroThreads`] if `threads == 0`.
pub fn spmm_vertex_parallel_into<F: FeatureOperand>(
    a: &Csr,
    h: &F,
    threads: usize,
    out: &mut DenseMatrix,
) -> Result<(), MatrixError> {
    check("spmm_vertex_parallel", a, h)?;
    if threads == 0 {
        return Err(MatrixError::ZeroThreads);
    }
    let (n, k) = (a.nrows(), h.shape().1);
    out.resize_for_overwrite(n, k);
    // k == 0 would make the chunk size below zero-sized (a panic in
    // `chunks_mut`), and there is nothing to compute anyway.
    if n == 0 || k == 0 {
        return Ok(());
    }
    let kd = KernelDispatch::get();
    if threads == 1 {
        spmm_rows_with(kd, a, h, out.as_mut_slice(), 0, n, k);
        return Ok(());
    }

    // Pre-split the output into chunk slices. Share index == chunk index,
    // and each share locks only its own chunk, so the mutexes never
    // contend — they exist to hand `&mut` slices through a `Fn` closure.
    let chunks: Vec<Mutex<&mut [f32]>> = out
        .as_mut_slice()
        .chunks_mut(VERTEX_CHUNK * k)
        .map(Mutex::new)
        // lint:allow(L005): per-call chunk table of n/64 pointers — orders
        // of magnitude below the counting-allocator activation budget.
        .collect();
    pool::global().broadcast(threads.min(n), chunks.len(), |ci| {
        let mut slice = chunks[ci].lock();
        let row_start = ci * VERTEX_CHUNK;
        let row_end = (row_start + VERTEX_CHUNK).min(n);
        spmm_rows_with(kd, a, h, &mut slice, row_start, row_end, k);
    });
    Ok(())
}

/// Edge-parallel SpMM (Algorithm 2 of the paper).
///
/// The `|E|` non-zeros are split into equal shares. Each pool worker
/// binary-searches `row_ptr` for the row containing its first edge, then
/// walks its share accumulating into a local `K`-wide buffer, flushing the
/// buffer with atomic adds whenever it crosses a row boundary. Rows split
/// across workers are updated correctly because *all* flushes are atomic.
///
/// This is the strategy PIUMA's cheap remote atomics make attractive; on
/// CPUs the atomic traffic makes it slower than vertex-parallel, which is
/// exactly the contrast the paper draws.
///
/// The `n * k` atomic accumulation grid comes from the global pool's
/// [`pool::ScratchArena`] instead of a fresh `Vec<AtomicU32>` per call, so
/// in steady state the kernel performs no allocation proportional to the
/// output size.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] on shape mismatch and
/// [`MatrixError::ZeroThreads`] if `threads == 0`.
pub fn spmm_edge_parallel_into(
    a: &Csr,
    h: &DenseMatrix,
    threads: usize,
    out: &mut DenseMatrix,
) -> Result<(), MatrixError> {
    check("spmm_edge_parallel", a, h)?;
    if threads == 0 {
        return Err(MatrixError::ZeroThreads);
    }
    let (n, k) = (a.nrows(), h.cols());
    let nnz = a.nnz();
    out.resize_zeroed(n, k);
    // k == 0: nothing to accumulate, and the per-share flush math below
    // assumes non-empty rows of output.
    if k == 0 || nnz == 0 {
        return Ok(());
    }
    // Resolve the micro-kernel backend once, outside the broadcast.
    let kd = KernelDispatch::get();
    if threads == 1 {
        spmm_rows_with(kd, a, h, out.as_mut_slice(), 0, n, k);
        return Ok(());
    }

    // Equal-|E| shares, one per executor (Algorithm 2's static partition).
    let shares = threads.min(nnz);
    let pool = pool::global();
    let out_slice = out.as_mut_slice();
    pool.scratch().with_zeroed_u32(n * k, |out_atomic| {
        pool.broadcast(shares, shares, |t| {
            let start = t * nnz / shares;
            let end = (t + 1) * nnz / shares;
            if start >= end {
                return;
            }
            // Binary search: first row u with row_ptr[u+1] > start.
            let row_ptr = a.row_ptr();
            let mut u = row_ptr.partition_point(|&p| p <= start);
            u = u.saturating_sub(1);
            while row_ptr[u + 1] <= start {
                u += 1;
            }

            let cols = a.col_idx();
            let vals = a.values();
            // lint:allow(L005): K-wide per-share accumulator kept
            // thread-local on purpose; K is the feature width (tens of
            // floats), negligible against the activation budget.
            let mut acc = vec![0.0f32; k];
            for e in start..end {
                while e >= row_ptr[u + 1] {
                    flush_row(out_atomic, u, k, &mut acc);
                    u += 1;
                }
                let v = cols[e] as usize;
                let w = vals[e];
                kd.axpy(&mut acc, w, h.row(v));
            }
            flush_row(out_atomic, u, k, &mut acc);
        });
        for (dst, cell) in out_slice.iter_mut().zip(out_atomic) {
            // lint:allow(L006): the pool barrier at broadcast() return is
            // the acquire edge; after it each cell has its final value and
            // this read needs no further ordering.
            *dst = f32::from_bits(cell.load(Ordering::Relaxed));
        }
    });
    Ok(())
}

/// Atomically adds the accumulation buffer into output row `u` and clears it.
fn flush_row(out: &[AtomicU32], u: usize, k: usize, acc: &mut [f32]) {
    let base = u * k;
    for (j, a) in acc.iter_mut().enumerate() {
        if *a != 0.0 {
            atomic_add_f32(&out[base + j], *a);
            *a = 0.0;
        }
    }
}

/// Lock-free `f32` add via compare-exchange on the bit pattern.
pub(crate) fn atomic_add_f32(cell: &AtomicU32, add: f32) {
    // lint:allow(L006): pure value accumulation — no other memory is
    // published through these cells, so the CAS needs no ordering; the
    // pool's job-completion barrier sequences the final readback.
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f32::from_bits(cur) + add).to_bits();
        // lint:allow(L006): same argument as the load above — the CAS only
        // has to be atomic, not ordered, for value-only accumulation.
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpmmStrategy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparse::Coo;

    fn random_csr(rng: &mut StdRng, n: usize, m: usize, nnz: usize) -> Csr {
        let mut coo = Coo::new(n, m);
        for _ in 0..nnz {
            coo.push(
                rng.gen_range(0..n),
                rng.gen_range(0..m),
                rng.gen_range(-1.0..1.0),
            );
        }
        Csr::from_coo(&coo)
    }

    fn random_dense(rng: &mut StdRng, r: usize, c: usize) -> DenseMatrix {
        let data = (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
        DenseMatrix::from_vec(r, c, data).unwrap()
    }

    fn vertex_parallel(
        a: &Csr,
        h: &DenseMatrix,
        threads: usize,
    ) -> Result<DenseMatrix, MatrixError> {
        SpmmStrategy::VertexParallel { threads }.run(a, h)
    }

    fn edge_parallel(a: &Csr, h: &DenseMatrix, threads: usize) -> Result<DenseMatrix, MatrixError> {
        SpmmStrategy::EdgeParallel { threads }.run(a, h)
    }

    #[test]
    fn sequential_matches_dense_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_csr(&mut rng, 20, 15, 60);
        let h = random_dense(&mut rng, 15, 7);
        let sparse_result = spmm_sequential(&a, &h).unwrap();
        let dense_result = a.to_dense().matmul(&h).unwrap();
        assert!(sparse_result.max_abs_diff(&dense_result) < 1e-4);
    }

    #[test]
    fn vertex_parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_csr(&mut rng, 300, 300, 3000);
        let h = random_dense(&mut rng, 300, 16);
        let reference = spmm_sequential(&a, &h).unwrap();
        for threads in [1, 2, 4, 7, 32] {
            let got = vertex_parallel(&a, &h, threads).unwrap();
            assert!(
                reference.max_abs_diff(&got) < 1e-4,
                "threads={threads} diverged"
            );
        }
    }

    #[test]
    fn edge_parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_csr(&mut rng, 200, 200, 2500);
        let h = random_dense(&mut rng, 200, 9);
        let reference = spmm_sequential(&a, &h).unwrap();
        for threads in [1, 2, 3, 8, 16] {
            let got = edge_parallel(&a, &h, threads).unwrap();
            assert!(
                reference.max_abs_diff(&got) < 1e-3,
                "threads={threads} diverged"
            );
        }
    }

    #[test]
    fn edge_parallel_handles_empty_rows_and_skew() {
        // A star graph: row 0 has all edges, remaining rows are empty, which
        // stresses the binary search and row-advance logic.
        let mut coo = Coo::new(64, 64);
        for v in 1..64 {
            coo.push(0, v, 1.0);
        }
        coo.push(63, 0, 2.0);
        let a = Csr::from_coo(&coo);
        let mut rng = StdRng::seed_from_u64(4);
        let h = random_dense(&mut rng, 64, 5);
        let reference = spmm_sequential(&a, &h).unwrap();
        for threads in [2, 5, 13] {
            let got = edge_parallel(&a, &h, threads).unwrap();
            assert!(reference.max_abs_diff(&got) < 1e-4);
        }
    }

    #[test]
    fn more_threads_than_edges_is_fine() {
        let mut coo = Coo::new(4, 4);
        coo.push(1, 2, 1.5);
        let a = Csr::from_coo(&coo);
        let h = DenseMatrix::filled(4, 3, 1.0);
        let got = edge_parallel(&a, &h, 64).unwrap();
        assert_eq!(got.row(1), &[1.5, 1.5, 1.5]);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = Csr::empty(3, 4);
        let h = DenseMatrix::zeros(5, 2);
        assert!(spmm_sequential(&a, &h).is_err());
        assert!(vertex_parallel(&a, &h, 2).is_err());
        assert!(edge_parallel(&a, &h, 2).is_err());
    }

    #[test]
    fn zero_threads_is_rejected() {
        let a = Csr::empty(2, 2);
        let h = DenseMatrix::zeros(2, 2);
        assert!(matches!(
            vertex_parallel(&a, &h, 0),
            Err(MatrixError::ZeroThreads)
        ));
        assert!(matches!(
            edge_parallel(&a, &h, 0),
            Err(MatrixError::ZeroThreads)
        ));
    }

    #[test]
    fn zero_feature_columns_do_not_panic() {
        // Regression test: `chunks_mut(VERTEX_CHUNK * 0)` used to panic in
        // the vertex-parallel kernel, and the edge-parallel share math
        // assumed k > 0.
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_csr(&mut rng, 100, 100, 400);
        let h = DenseMatrix::zeros(100, 0);
        for threads in [1, 2, 8] {
            let v = vertex_parallel(&a, &h, threads).unwrap();
            assert_eq!(v.shape(), (100, 0));
            let e = edge_parallel(&a, &h, threads).unwrap();
            assert_eq!(e.shape(), (100, 0));
        }
    }

    #[test]
    fn into_variants_leave_no_stale_values() {
        let mut rng = StdRng::seed_from_u64(10);
        // First call: large matrix. Second call: smaller shape into the
        // same buffer — every element must be recomputed, none inherited.
        let a_big = random_csr(&mut rng, 120, 120, 900);
        let h_big = random_dense(&mut rng, 120, 33);
        let a_small = random_csr(&mut rng, 40, 40, 150);
        let h_small = random_dense(&mut rng, 40, 8);
        let reference = spmm_sequential(&a_small, &h_small).unwrap();

        type IntoKernel =
            fn(&Csr, &DenseMatrix, usize, &mut DenseMatrix) -> Result<(), MatrixError>;
        let kernels: [(&str, IntoKernel); 2] = [
            ("vertex", spmm_vertex_parallel_into),
            ("edge", spmm_edge_parallel_into),
        ];
        for (name, kernel) in kernels {
            let mut buf = DenseMatrix::default();
            kernel(&a_big, &h_big, 4, &mut buf).unwrap();
            kernel(&a_small, &h_small, 4, &mut buf).unwrap();
            assert!(
                reference.max_abs_diff(&buf) < 1e-4,
                "{name}_into left stale values on buffer reuse"
            );
        }
        // Sequential _into as well.
        let mut buf = DenseMatrix::filled(200, 200, f32::NAN);
        spmm_sequential_into(&a_small, &h_small, &mut buf).unwrap();
        assert!(reference.max_abs_diff(&buf) < 1e-4);
    }

    #[test]
    fn empty_matrix_gives_zero_output() {
        let a = Csr::empty(3, 3);
        let h = DenseMatrix::filled(3, 4, 2.0);
        for result in [
            spmm_sequential(&a, &h).unwrap(),
            vertex_parallel(&a, &h, 4).unwrap(),
            edge_parallel(&a, &h, 4).unwrap(),
        ] {
            assert!(result.as_slice().iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn atomic_add_accumulates_under_contention() {
        let cell = AtomicU32::new(0f32.to_bits());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        atomic_add_f32(&cell, 1.0);
                    }
                });
            }
        });
        assert_eq!(f32::from_bits(cell.into_inner()), 8000.0);
    }
}
