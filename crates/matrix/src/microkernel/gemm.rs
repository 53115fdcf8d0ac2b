//! The packed GEMM and its epilogue: 6x16 register tiles that broadcast
//! `A` in place against a packed `B` micro-panel and write `C` straight
//! from the tile — `0.0 + acc` on the first depth block, `c + acc` after,
//! then `+ bias[j]` and the activation on the last.

// BOUNDS: all `[]` indexing here is over (a) the packed B buffer sliced as
// `[jr * kc * NR .. (jr + 1) * kc * NR]` from a buffer sized `>= panels *
// kc * NR` at the single `with_f32` call, (b) operand rows via
// `DenseMatrix::row` (length-checked by construction) sliced to the depth
// block `[pc, pe)` with `pe <= a.cols()`, (c) the fixed `[[f32; NR]; MR]`
// accumulator tile, (d) output chunks carved by `chunks_mut(rows_per * n)`
// from a buffer sized `m * n`, written at tile coordinates clamped to the
// chunk's rows and to `n`, and (e) the bias, whose length `n` is checked
// at the entry point; `check_shapes` ties the operand dimensions together.

use super::{Backend, KernelDispatch};
use crate::activation::Activation;
use crate::dense::DenseMatrix;
use crate::error::MatrixError;
use crate::gemm::check_shapes;
use crate::Result;
use resilience::audit;
use std::sync::Mutex;

/// Register-tile height: rows of `A` (and `C`) per micro-kernel call. Six
/// rows of two YMM accumulators = twelve of the sixteen registers, leaving
/// two for the `B` vectors and one for the broadcast.
pub const MR: usize = 6;

/// Register-tile width: columns of `B` (and `C`) per micro-kernel call.
/// Sixteen `f32` = two 256-bit vectors, so each broadcast of `A` feeds two
/// FMAs and a depth step issues 8 loads for 12 FMAs.
pub const NR: usize = 16;

/// Depth (`k`) block: how many B lanes are packed per panel. 256 keeps a
/// 16-lane B micro-panel at 16 KB — resident in L1 across all tiles of an
/// `MC` block.
const KC: usize = 256;

/// Row block: rows of `A` swept per `B` micro-panel. `MC * KC` floats =
/// 72 KB of `A` (twelve tiles), sized for L2.
const MC: usize = 72;

/// Column block: columns of `B` packed per depth block (bounds the shared
/// B panel at `KC * NC` floats = 512 KB).
const NC: usize = 512;

/// Where a register tile lands in the output: chunk-local row `row0`,
/// global column `j0`, and the `rows x cols` corner of the tile that falls
/// inside `C`.
#[derive(Clone, Copy)]
struct TileAt {
    row0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
}

/// How a tile's accumulators reach `C` for one depth block.
#[derive(Clone, Copy)]
struct WriteBack<'a> {
    /// Output row stride.
    n: usize,
    /// First depth block: store `0.0 + acc` over the stale output — the
    /// bits an add into a zeroed output gives, `-0.0` mapped to `+0.0`.
    first: bool,
    /// Last depth block: add `bias[j]`, then apply `act`.
    last: bool,
    bias: Option<&'a [f32]>,
    act: Activation,
}

impl KernelDispatch {
    /// Runs one 6x16 register tile over depth `a[0].len()` — `a` holds the
    /// tile's six `A` row slices, `bp` its packed `B` micro-panel — and
    /// writes the `at` corner of it into `c` as `wb` says.
    #[inline]
    fn tile(self, a: &[&[f32]; MR], bp: &[f32], c: &mut [f32], at: TileAt, wb: &WriteBack) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2Fma => {
                let kc = a[0].len();
                let c_end = (at.row0 + at.rows.max(1) - 1) * wb.n + at.j0 + at.cols;
                assert!(
                    a.iter().all(|r| r.len() == kc)
                        && bp.len() >= kc * NR
                        && (1..=MR).contains(&at.rows)
                        && at.cols <= NR
                        && at.j0 + at.cols <= wb.n
                        && c_end <= c.len()
                        && wb.bias.is_none_or(|b| b.len() >= wb.n),
                    "gemm tile outside its operands"
                );
                // SAFETY: the struct invariant guarantees `Avx2Fma` is only
                // present when `avx2_available()` held at construction, and
                // the assertion above is `tile_avx2`'s bounds contract.
                unsafe { tile_avx2(a, bp, c, at, wb) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2Fma => write_back(&tile_portable(a, bp), c, at, wb),
            Backend::Portable => write_back(&tile_portable(a, bp), c, at, wb),
            Backend::Scalar => write_back(&tile_scalar(a, bp), c, at, wb),
        }
    }
}

/// Portable register tile: fixed 16-wide inner trip counts over the packed
/// `B` panel, so LLVM autovectorizes the mul + add; returns the
/// accumulators for [`write_back`].
fn tile_portable(a: &[&[f32]; MR], bp: &[f32]) -> [[f32; NR]; MR] {
    let kc = a[0].len();
    let mut acc = [[0.0f32; NR]; MR];
    for (p, b) in bp.chunks_exact(NR).take(kc).enumerate() {
        for (row, ar) in acc.iter_mut().zip(a) {
            let ar = ar[p];
            for (c, &bv) in row.iter_mut().zip(b) {
                *c += ar * bv;
            }
        }
    }
    acc
}

/// Scalar register-tile reference: index arithmetic kept deliberately
/// plain so it stays the easy-to-audit baseline of the agreement tests.
// The indexed form *is* the point here — it mirrors the textbook loop.
#[allow(clippy::needless_range_loop)]
fn tile_scalar(a: &[&[f32]; MR], bp: &[f32]) -> [[f32; NR]; MR] {
    let kc = a[0].len();
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        for r in 0..MR {
            let ar = a[r][p];
            for j in 0..NR {
                acc[r][j] += ar * bp[p * NR + j];
            }
        }
    }
    acc
}

/// Writes the `at` corner of a finished accumulator tile into `c`, per
/// element in the order the unfused `matmul_packed_with` → `add_row_bias`
/// → `apply_activation` runs (the portable and scalar epilogue).
fn write_back(acc: &[[f32; NR]; MR], c: &mut [f32], at: TileAt, wb: &WriteBack) {
    for (r, row) in acc.iter().enumerate().take(at.rows) {
        let base = (at.row0 + r) * wb.n + at.j0;
        for (j, (d, &v)) in c[base..base + at.cols].iter_mut().zip(row).enumerate() {
            let v = if wb.first { 0.0 + v } else { *d + v };
            *d = if wb.last {
                wb.act.apply(wb.bias.map_or(v, |b| v + b[at.j0 + j]))
            } else {
                v
            };
        }
    }
}

/// AVX2 + FMA register tile: 12 YMM accumulators (two per `A` row); each
/// depth step loads two `B` vectors and broadcasts six `A` elements
/// straight from their rows for 12 FMAs. A full-width tile writes back on
/// the registers: `0.0 + acc` or `c + acc`, then on the last depth block
/// `+ bias` and a vector ReLU (`max(v, 0)`, NaN → 0 like `f32::max`; the
/// sum is never `-0.0`, so the sign of a zero cannot differ). A column-edge
/// tile, or a last block under another activation, spills the accumulators
/// to the portable [`write_back`].
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX2 and FMA (the
/// [`KernelDispatch`] invariant); that every `a[r]` has the length `kc` of
/// `a[0]` and `bp.len() >= kc * NR`; that `1 <= at.rows <= MR`,
/// `at.cols <= NR` and `at.j0 + at.cols <= wb.n`; that `c` holds row
/// `at.row0 + at.rows - 1` of stride `wb.n` through column
/// `at.j0 + at.cols`; and that a bias, if any, holds `wb.n` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: `unsafe fn` for `#[target_feature]` and the bounds contract
// above; `KernelDispatch::tile` asserts the bounds before calling.
unsafe fn tile_avx2(a: &[&[f32]; MR], bp: &[f32], c: &mut [f32], at: TileAt, wb: &WriteBack) {
    use std::arch::x86_64::*;
    let kc = a[0].len();
    let ap = a.map(<[f32]>::as_ptr);
    let b_ptr = bp.as_ptr();
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for p in 0..kc {
        // SAFETY: `p < kc`, every `A` row holds `kc` floats and the panel
        // `kc * NR` (caller contract), so every read is in bounds.
        unsafe {
            let b0 = _mm256_loadu_ps(b_ptr.add(p * NR));
            let b1 = _mm256_loadu_ps(b_ptr.add(p * NR + 8));
            for (row, &ar) in acc.iter_mut().zip(&ap) {
                let av = _mm256_broadcast_ss(&*ar.add(p));
                row[0] = _mm256_fmadd_ps(av, b0, row[0]);
                row[1] = _mm256_fmadd_ps(av, b1, row[1]);
            }
        }
    }
    let vector_act = matches!(wb.act, Activation::Relu | Activation::Identity);
    if at.cols < NR || (wb.last && !vector_act) {
        let mut tile = [[0.0f32; NR]; MR];
        for (dst, row) in tile.iter_mut().zip(&acc) {
            // SAFETY: each row of `tile` holds exactly two vectors.
            unsafe {
                _mm256_storeu_ps(dst.as_mut_ptr(), row[0]);
                _mm256_storeu_ps(dst.as_mut_ptr().add(8), row[1]);
            }
        }
        return write_back(&tile, c, at, wb);
    }
    let zero = _mm256_setzero_ps();
    for (r, row) in acc.iter().enumerate().take(at.rows) {
        let base = (at.row0 + r) * wb.n + at.j0;
        for (half, &v) in row.iter().enumerate() {
            // SAFETY: the tile is full width, so the eight lanes at
            // `j0 + 8 * half` lie inside both `c`'s row and the bias
            // (caller contract).
            unsafe {
                let cp = c.as_mut_ptr().add(base + half * 8);
                let prior = if wb.first { zero } else { _mm256_loadu_ps(cp) };
                let mut v = _mm256_add_ps(prior, v);
                if wb.last {
                    if let Some(b) = wb.bias {
                        v = _mm256_add_ps(v, _mm256_loadu_ps(b.as_ptr().add(at.j0 + half * 8)));
                    }
                    if wb.act == Activation::Relu {
                        v = _mm256_max_ps(v, zero);
                    }
                }
                _mm256_storeu_ps(cp, v);
            }
        }
    }
}

/// Packs depth `[pc, pe)` x columns `[jc, je)` of `b` into row-major B
/// micro-panels: element `(p, j)` of micro-panel `jr` lands at
/// `jr * kc * NR + p * NR + j`. Columns beyond `je` are zero-padded.
fn pack_b_block(b: &DenseMatrix, pc: usize, pe: usize, jc: usize, je: usize, dst: &mut [f32]) {
    let kc = pe - pc;
    let panels = (je - jc).div_ceil(NR);
    for jr in 0..panels {
        let panel = &mut dst[jr * kc * NR..(jr + 1) * kc * NR];
        let j0 = jc + jr * NR;
        let cols = (je - j0).min(NR);
        if cols < NR {
            panel.fill(0.0);
        }
        for p in 0..kc {
            let brow = &b.row(pc + p)[j0..j0 + cols];
            panel[p * NR..p * NR + cols].copy_from_slice(brow);
        }
    }
}

/// A half-open index range `[start, end)` of rows, columns or depth.
type Span = (usize, usize);

/// One executor's work for one `(cols, depth)` block: every register tile
/// of its row range, `MC` rows at a time, against the shared packed B
/// panel, reading its `A` rows in place.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    kd: KernelDispatch,
    a: &DenseMatrix,
    c_chunk: &mut [f32],
    (row_start, row_end): Span,
    (jc, je): Span,
    (pc, pe): Span,
    bpanel: &[f32],
    wb: &WriteBack,
) {
    let pslot = (pe - pc) * NR;
    let jpanels = (je - jc).div_ceil(NR);
    let mut ic = row_start;
    while ic < row_end {
        let ie = (ic + MC).min(row_end);
        // B micro-panel outermost: it stays hot in L1 across every tile of
        // this MC block.
        for jr in 0..jpanels {
            let bp = &bpanel[jr * pslot..(jr + 1) * pslot];
            let j0 = jc + jr * NR;
            let cols = (je - j0).min(NR);
            let mut i0 = ic;
            while i0 < ie {
                let rows = (ie - i0).min(MR);
                // A short edge tile repeats its last row; the write-back
                // masks the copies.
                let arows = std::array::from_fn(|r| &a.row(i0 + r.min(rows - 1))[pc..pe]);
                let at = TileAt {
                    row0: i0 - row_start,
                    j0,
                    rows,
                    cols,
                };
                kd.tile(&arows, bp, c_chunk, at, wb);
                i0 += rows;
            }
        }
        ic = ie;
    }
}

/// The dense update of a GCN layer in one pass, `C = act(A * W + bias)`,
/// on the cache-blocked, `B`-packed, register-tiled GEMM running its tiles
/// on an explicit [`KernelDispatch`].
///
/// Rows of `A` are split contiguously across `threads` pool executors,
/// each reading its rows of `A` in place; the `W` panel for the current
/// `(jc, pc)` block is packed once into pool-owned, 64-byte-aligned
/// scratch and shared read-only. Each tile writes `C` directly: the first
/// depth block stores, later ones add, and the last one adds `bias[j]` and
/// applies `act`. `c` is reshaped with
/// [`DenseMatrix::resize_for_overwrite`], so steady-state calls at fixed
/// shapes neither allocate nor clear the output. Per element the result is
/// bitwise equal to [`matmul_packed_with`] followed by
/// [`DenseMatrix::add_row_bias`] and [`DenseMatrix::apply_activation`].
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `a.cols() != w.rows()` or
/// a bias is not `w.cols()` long, and [`MatrixError::ZeroThreads`] if
/// `threads == 0` — all before any work.
pub fn dense_update_with(
    kd: KernelDispatch,
    a: &DenseMatrix,
    w: &DenseMatrix,
    bias: Option<&[f32]>,
    act: Activation,
    threads: usize,
    c: &mut DenseMatrix,
) -> Result<()> {
    check_shapes("dense_update", a, w)?;
    if threads == 0 {
        return Err(MatrixError::ZeroThreads);
    }
    let (m, k) = a.shape();
    let n = w.cols();
    if let Some(b) = bias.filter(|b| b.len() != n) {
        return Err(MatrixError::DimensionMismatch {
            op: "dense_update bias",
            lhs: (m, n),
            rhs: (1, b.len()),
        });
    }
    c.resize_for_overwrite(m, n);
    if m == 0 || n == 0 {
        return Ok(());
    }

    let pool = pool::global();
    let executors = threads.clamp(1, pool.width()).min(m);
    let rows_per = m.div_ceil(executors);
    // Each executor owns a contiguous row range of C exclusively; the
    // mutexes never contend, they only hand `&mut` slices through `Fn`.
    let chunks: Vec<Mutex<&mut [f32]>> = c
        .as_mut_slice()
        .chunks_mut(rows_per * n)
        .map(Mutex::new)
        // lint:allow(L005): per-call chunk table of <= threads pointers —
        // orders of magnitude below the counting-allocator budget.
        .collect();
    let executors = chunks.len();

    let bp_len = KC.min(k) * (NC.min(n)).div_ceil(NR) * NR;
    pool.scratch().with_f32(bp_len, |bpanel| {
        let mut jc = 0;
        while jc < n {
            let je = (jc + NC).min(n);
            let mut pc = 0;
            // Do-while: an empty reduction still runs one zero-depth block,
            // so every tile is finished with the bias and activation.
            loop {
                let pe = (pc + KC).min(k);
                pack_b_block(w, pc, pe, jc, je, bpanel);
                let bp: &[f32] = bpanel;
                let wb = WriteBack {
                    n,
                    first: pc == 0,
                    last: pe == k,
                    bias,
                    act,
                };
                pool.broadcast(executors, executors, |t| {
                    let row_start = t * rows_per;
                    let row_end = (row_start + rows_per).min(m);
                    // Share index t locks only its own chunk, so the lock
                    // never contends; a poisoned lock only means another
                    // worker panicked and the guarded slice is still
                    // structurally valid to hand back.
                    let mut chunk = audit::recover("gemm.chunk", &chunks[t]);
                    let rows = (row_start, row_end);
                    gemm_block(kd, a, &mut chunk, rows, (jc, je), (pc, pe), bp, &wb);
                });
                pc = pe;
                if pc == k {
                    break;
                }
            }
            jc = je;
        }
    });
    Ok(())
}

/// Cache-blocked, panel-packed GEMM `C = A * B` running its inner tiles on
/// an explicit [`KernelDispatch`]: [`dense_update_with`] with no bias and
/// [`Activation::Identity`] — the one `f32` GEMM every layer runs,
/// whatever storage width its SpMM feature operand has.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `a.cols() != b.rows()` and
/// [`MatrixError::ZeroThreads`] if `threads == 0`.
pub fn matmul_packed_with(
    kd: KernelDispatch,
    a: &DenseMatrix,
    b: &DenseMatrix,
    threads: usize,
    c: &mut DenseMatrix,
) -> Result<()> {
    dense_update_with(kd, a, b, None, Activation::Identity, threads, c)
}

#[cfg(test)]
mod tests {
    use super::super::test_backends as all_backends;
    use super::*;
    use crate::gemm::matmul_naive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> DenseMatrix {
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn packed_matches_naive_across_shapes_and_backends() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (8, 8, 8),
            (6, 16, 16),
            (3, 5, 7),
            (17, 0, 9),
            (65, 129, 33),
            (100, 300, 50),
            (70, 64, 1),
        ] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let reference = matmul_naive(&a, &b).unwrap();
            for kd in all_backends() {
                for threads in [1, 4] {
                    let mut c = DenseMatrix::filled(3, 3, f32::NAN);
                    matmul_packed_with(kd, &a, &b, threads, &mut c).unwrap();
                    assert!(
                        reference.max_abs_diff(&c) < 1e-4,
                        "({m},{k},{n}) backend={} threads={threads}",
                        kd.backend().name()
                    );
                }
            }
        }
    }

    #[test]
    fn misshaped_bias_is_rejected_before_the_output_is_touched() {
        let mut rng = StdRng::seed_from_u64(12);
        let (a, w) = (random_matrix(&mut rng, 9, 4), random_matrix(&mut rng, 4, 5));
        let mut c = DenseMatrix::filled(2, 2, 7.0);
        let err = dense_update_with(
            KernelDispatch::get(),
            &a,
            &w,
            Some(&[0.0; 4]),
            Activation::Relu,
            1,
            &mut c,
        );
        assert!(matches!(err, Err(MatrixError::DimensionMismatch { .. })));
        assert_eq!(c, DenseMatrix::filled(2, 2, 7.0));
    }
}
