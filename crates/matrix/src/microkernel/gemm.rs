//! The packed GEMM and its epilogue: 6x16 register tiles (6x32 over two
//! adjacent panels under AVX-512) that broadcast `A` in place against the
//! packed `B` micro-panels and write `C` straight from the tile — `0.0 +
//! acc` on the first depth block, `c + acc` after, then `+ bias[j]` and
//! the activation on the last.

// BOUNDS: all `[]` indexing here is over (a) the packed B buffer sliced as
// `[jr * kc * NR .. (jr + panels) * kc * NR]` with `jr + panels` at most
// the block's panel count, from a buffer sized `>= panels * kc * NR` at
// the single `with_f32` call, (b) operand rows via `DenseMatrix::row`
// (length-checked by construction) sliced to the depth block `[pc, pe)`
// with `pe <= a.cols()`, (c) the fixed `[[f32; NR]; MR]` accumulator tile
// and a SIMD tile's `[_; 2]` accumulator rows, read at `half < 2`, (d) the
// row list, read at positions below its length, and output chunks carved
// at the global rows of their shares' first and last list entries from a
// buffer sized `a.rows() * n` (the entry point checks the list is
// ascending and inside `a`), written at tile row offsets inside the chunk
// and columns clamped to `n`, (e) the bias, whose length `n` is checked at
// the entry point, and (f) a row block's tile table, of which `MC` rows
// fill at most `MC / MR` entries (`MC` is a multiple of `MR`, asserted at
// compile time); `check_shapes` ties the operand dimensions together.

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

/// Register-tile width: columns of `B` (and `C`) per packed micro-panel.
/// Sixteen `f32` = two 256-bit vectors, so each broadcast of `A` feeds two
/// FMAs and a depth step issues 8 loads for 12 FMAs. The AVX-512 tile reads
/// two adjacent panels as one 16-lane vector each: 6x32, the same 8 loads
/// for 12 FMAs of twice the width.
pub const NR: usize = 16;

/// Depth (`k`) block: how many B lanes are packed per panel. 256 keeps a
/// 16-lane B micro-panel at 16 KB — resident in L1 across all tiles of an
/// `MC` block, as are the 32 KB of the two panels a 6x32 tile reads.
const KC: usize = 256;

/// Row block: rows of `A` swept per `B` micro-panel. `MC * KC` floats =
/// 72 KB of `A` (twelve tiles), sized for L2.
const MC: usize = 72;

// A row block is a whole number of tiles: `gemm_block`'s tile table holds
// `MC / MR` entries.
const _: () = assert!(MC.is_multiple_of(MR));

/// Column block: columns of `B` packed per depth block (bounds the shared
/// B panel at `KC * NC` floats = 512 KB).
const NC: usize = 512;

/// Where a register tile lands in the output: the chunk offset of each
/// tile row's first element (`C`'s rows need not be adjacent; borrowed from
/// the row block's tile table, which measured faster than copying the six
/// offsets into every call), global column `j0`, and the `rows x cols`
/// corner of the tile that falls inside `C`.
#[derive(Clone, Copy)]
pub(super) struct TileAt<'r> {
    pub(super) c_rows: &'r [usize; MR],
    pub(super) j0: usize,
    pub(super) rows: usize,
    pub(super) cols: usize,
}

/// How a tile's accumulators reach `C` for one depth block.
#[derive(Clone, Copy)]
pub(super) struct WriteBack<'a> {
    /// Output row stride.
    pub(super) n: usize,
    /// First depth block: store `0.0 + acc` over the stale output — the
    /// bits an add into a zeroed output gives, `-0.0` mapped to `+0.0`.
    pub(super) first: bool,
    /// Last depth block: add `bias[j]`, then apply `act`.
    pub(super) last: bool,
    pub(super) bias: Option<&'a [f32]>,
    pub(super) act: Activation,
}

impl KernelDispatch {
    /// Packed `B` micro-panels one register tile reads side by side: two
    /// for [`Backend::Avx512`]'s 6x32 tile, one for every 6x16 tile.
    pub(super) fn tile_panels(self) -> usize {
        if self.backend == Backend::Avx512 {
            2
        } else {
            1
        }
    }

    /// Runs one register tile over depth `a[0].len()` — `a` holds the
    /// tile's six `A` row slices, `bp` its packed `B` micro-panels, one
    /// for `at.cols <= NR` and two (at most [`KernelDispatch::tile_panels`])
    /// past it — and writes the `at` corner of it into `c` as `wb` says.
    #[inline]
    pub(super) fn tile(
        self,
        a: &[&[f32]; MR],
        bp: &[f32],
        c: &mut [f32],
        at: TileAt,
        wb: &WriteBack,
    ) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2Fma | Backend::Avx512 => {
                let kc = a[0].len();
                let panels = at.cols.div_ceil(NR);
                assert!(
                    a.iter().all(|r| r.len() == kc)
                        && panels <= self.tile_panels()
                        && bp.len() >= kc * NR * panels
                        && (1..=MR).contains(&at.rows)
                        && at.j0 + at.cols <= wb.n
                        && at.c_rows[..at.rows]
                            .iter()
                            .all(|&o| o + at.j0 + at.cols <= c.len())
                        && wb.bias.is_none_or(|b| b.len() >= wb.n),
                    "gemm tile outside its operands"
                );
                if panels == 2 {
                    // SAFETY: two panels pass the assertion only under
                    // `Avx512`, which the struct invariant allows only when
                    // `avx512_available()` held at construction; the
                    // assertion is `tile_avx512`'s bounds contract.
                    unsafe { tile_avx512(a, bp, c, at, wb) }
                } else {
                    // SAFETY: the struct invariant guarantees `Avx2Fma` and
                    // `Avx512` are only present when AVX2 + FMA were
                    // detected at construction, and the assertion (one
                    // panel, so `at.cols <= NR`) is `tile_avx2`'s bounds
                    // contract.
                    unsafe { tile_avx2(a, bp, c, at, wb) }
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2Fma | Backend::Avx512 => write_back(&tile_portable(a, bp), c, at, wb),
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
    for (row, &c_row) in acc.iter().zip(at.c_rows).take(at.rows) {
        let base = c_row + at.j0;
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
/// straight from their rows for 12 FMAs, then [`write_back_avx2`].
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX2 and FMA (the
/// [`KernelDispatch`] invariant); that every `a[r]` has the length `kc` of
/// `a[0]` and `bp.len() >= kc * NR`; that `1 <= at.rows <= MR`,
/// `at.cols <= NR` and `at.j0 + at.cols <= wb.n`; that `c` holds
/// `at.c_rows[r] + at.j0 + at.cols` floats for every tile row
/// `r < at.rows`; and that a bias, if any, holds `wb.n` floats.
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
    // SAFETY: the caller's contract is `write_back_avx2`'s.
    unsafe { write_back_avx2(&acc, c, at, wb) }
}

/// Writes a 6x16 tile's accumulators (two YMM per row) into `c` for one
/// depth block. A full-width tile writes back on the registers: `0.0 +
/// acc` or `c + acc`, then on the last depth block `+ bias` and a vector
/// ReLU (`max(v, 0)`, NaN → 0 like `f32::max`; the sum is never `-0.0`, so
/// the sign of a zero cannot differ). A column-edge tile, or a last block
/// under another activation, spills the accumulators to the portable
/// [`write_back`].
///
/// # Safety
///
/// The caller must run under AVX2 (both tile kernels enable it, and this
/// inlines into them); that `1 <= at.rows <= MR`, `at.cols <= NR` and
/// `at.j0 + at.cols <= wb.n`; that `c` holds `at.c_rows[r] + at.j0 +
/// at.cols` floats for every tile row `r < at.rows`; and that a bias, if
/// any, holds `wb.n` floats.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// SAFETY: `unsafe fn` for the ISA and bounds contract above, which both
// tile kernels pass on from theirs.
unsafe fn write_back_avx2(
    acc: &[[std::arch::x86_64::__m256; 2]; MR],
    c: &mut [f32],
    at: TileAt,
    wb: &WriteBack,
) {
    use std::arch::x86_64::*;
    let vector_act = matches!(wb.act, Activation::Relu | Activation::Identity);
    if at.cols < NR || (wb.last && !vector_act) {
        let mut tile = [[0.0f32; NR]; MR];
        for (dst, row) in tile.iter_mut().zip(acc) {
            // SAFETY: each row of `tile` holds exactly two vectors.
            unsafe {
                _mm256_storeu_ps(dst.as_mut_ptr(), row[0]);
                _mm256_storeu_ps(dst.as_mut_ptr().add(8), row[1]);
            }
        }
        return write_back(&tile, c, at, wb);
    }
    // SAFETY: AVX2 (hence AVX) is enabled by the caller's contract.
    let zero = unsafe { _mm256_setzero_ps() };
    for (row, &c_row) in acc.iter().zip(at.c_rows).take(at.rows) {
        let base = c_row + at.j0;
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

/// AVX-512F register tile over two adjacent packed `B` micro-panels, 6x32:
/// 12 ZMM accumulators (one per `A` row and panel); each depth step loads
/// one 16-lane vector from each panel and broadcasts six `A` elements
/// straight from their rows for 12 FMAs. Every lane fuses the multiply-add
/// of the matching [`tile_avx2`] lane in the same depth order, and each
/// panel's half goes through the 6x16 tile's [`write_back_avx2`], so every
/// output element carries the bits of the two 6x16 tiles it replaces.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX-512F, AVX2 and FMA (the
/// [`KernelDispatch`] invariant); that every `a[r]` has the length `kc` of
/// `a[0]` and `bp.len() >= 2 * kc * NR`; that `1 <= at.rows <= MR`,
/// `NR < at.cols <= 2 * NR` and `at.j0 + at.cols <= wb.n`; that `c` holds
/// `at.c_rows[r] + at.j0 + at.cols` floats for every tile row
/// `r < at.rows`; and that a bias, if any, holds `wb.n` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
// SAFETY: `unsafe fn` for `#[target_feature]` and the bounds contract
// above; `KernelDispatch::tile` asserts the bounds before calling.
unsafe fn tile_avx512(a: &[&[f32]; MR], bp: &[f32], c: &mut [f32], at: TileAt, wb: &WriteBack) {
    use std::arch::x86_64::*;
    let kc = a[0].len();
    let ap = a.map(<[f32]>::as_ptr);
    let b_ptr = bp.as_ptr();
    let mut acc = [[_mm512_setzero_ps(); 2]; MR];
    for p in 0..kc {
        // SAFETY: `p < kc`, every `A` row holds `kc` floats and the two
        // panels `2 * kc * NR` (caller contract), the second starting at
        // `kc * NR`, so every read is in bounds.
        unsafe {
            let b0 = _mm512_loadu_ps(b_ptr.add(p * NR));
            let b1 = _mm512_loadu_ps(b_ptr.add((kc + p) * NR));
            for (row, &ar) in acc.iter_mut().zip(&ap) {
                let av = _mm512_set1_ps(*ar.add(p));
                row[0] = _mm512_fmadd_ps(av, b0, row[0]);
                row[1] = _mm512_fmadd_ps(av, b1, row[1]);
            }
        }
    }
    for half in 0..2 {
        // This panel's half of the tile as the 6x16 tile holds it: two
        // 8-lane quarters per row (bit moves only).
        let mut quarters = [[_mm256_setzero_ps(); 2]; MR];
        for (q, row) in quarters.iter_mut().zip(&acc) {
            let v = row[half];
            let hi = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v));
            *q = [_mm512_castps512_ps256(v), _mm256_castpd_ps(hi)];
        }
        let at = TileAt {
            j0: at.j0 + half * NR,
            cols: (at.cols - half * NR).min(NR),
            ..at
        };
        // SAFETY: the half's `at` lies inside the tile's, so the caller's
        // contract covers `write_back_avx2`'s, and AVX2 is enabled here.
        unsafe { write_back_avx2(&quarters, c, at, wb) }
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
/// of its positions `[row_start, row_end)` in the row list `ids`, `MC` rows
/// at a time, against the shared packed B panel, reading each `A` row in
/// place at its global id and writing `C`'s row at the same id into the
/// executor's chunk, which starts at the global row of its first id.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    kd: KernelDispatch,
    a: &DenseMatrix,
    ids: Option<&[usize]>,
    c_chunk: &mut [f32],
    (row_start, row_end): Span,
    (jc, je): Span,
    (pc, pe): Span,
    bpanel: &[f32],
    wb: &WriteBack,
) {
    let id = |i: usize| ids.map_or(i, |ids| ids[i]);
    let row0 = id(row_start);
    let pslot = (pe - pc) * NR;
    let jpanels = (je - jc).div_ceil(NR);
    let mut ic = row_start;
    while ic < row_end {
        let ie = (ic + MC).min(row_end);
        // The block's tiles — their `A` rows, `C` offsets and heights — are
        // the same against every B micro-panel, so they are resolved once.
        // A short edge tile repeats its last row; the write-back masks the
        // copies.
        let mut tiles = [([&[] as &[f32]; MR], [0usize; MR], 0usize); MC / MR];
        let (mut count, mut i0) = (0, ic);
        while i0 < ie {
            let rows = (ie - i0).min(MR);
            let tile: [usize; MR] = std::array::from_fn(|r| id(i0 + r.min(rows - 1)));
            tiles[count] = (
                tile.map(|v| &a.row(v)[pc..pe]),
                tile.map(|v| (v - row0) * wb.n),
                rows,
            );
            (count, i0) = (count + 1, i0 + rows);
        }
        // B micro-panels outermost, as many side by side as the tile reads
        // (a leftover one alone): they stay hot in L1 across every tile of
        // this MC block.
        let mut jr = 0;
        while jr < jpanels {
            let panels = kd.tile_panels().min(jpanels - jr);
            let bp = &bpanel[jr * pslot..(jr + panels) * pslot];
            let j0 = jc + jr * NR;
            let cols = (je - j0).min(panels * NR);
            for (arows, c_rows, rows) in &tiles[..count] {
                let at = TileAt {
                    c_rows,
                    j0,
                    rows: *rows,
                    cols,
                };
                kd.tile(arows, bp, c_chunk, at, wb);
            }
            jr += panels;
        }
        ic = ie;
    }
}

/// The dense update of a GCN layer in one pass, `C = act(A * W + bias)`,
/// on the cache-blocked, `B`-packed, register-tiled GEMM running its tiles
/// on an explicit [`KernelDispatch`], over the rows `rows` of `A` and `C`:
/// an ascending list of row ids, or every row for `None`. Row `v` of `C`
/// is computed from row `v` of `A`, so a list reads `A` and writes `C` in
/// place at global ids; `C`'s rows outside it are left as they were.
///
/// The list is split into contiguous position ranges across `threads`
/// pool executors, each reading its rows of `A` in place and owning the
/// rows of `C` between its first and last id; the `W` panel for the
/// current `(jc, pc)` block is packed once into pool-owned, 64-byte-aligned
/// scratch and shared read-only. Each tile writes `C` directly: the first
/// depth block stores, later ones add, and the last one adds `bias[j]` and
/// applies `act`. `c` is reshaped to `a.rows() x w.cols()` with
/// [`DenseMatrix::resize_for_overwrite`], so steady-state calls at fixed
/// shapes neither allocate nor clear the output. Per element the result is
/// bitwise equal to [`matmul_packed_with`] followed by
/// [`DenseMatrix::add_row_bias`] and [`DenseMatrix::apply_activation`],
/// whatever the list, the thread count or the row's neighbours.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `a.cols() != w.rows()`, a
/// bias is not `w.cols()` long, or `rows` does not ascend strictly inside
/// `a`, and [`MatrixError::ZeroThreads`] if `threads == 0` — all before any
/// work.
#[allow(clippy::too_many_arguments)]
pub fn dense_update_with(
    kd: KernelDispatch,
    a: &DenseMatrix,
    w: &DenseMatrix,
    bias: Option<&[f32]>,
    act: Activation,
    threads: usize,
    rows: Option<&[usize]>,
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
    if let Some(ids) = rows.filter(|ids| !ascending_below(ids, m)) {
        return Err(MatrixError::DimensionMismatch {
            op: "dense_update rows",
            lhs: (m, k),
            rhs: (ids.len(), 1),
        });
    }
    c.resize_for_overwrite(m, n);
    let len = rows.map_or(m, <[usize]>::len);
    if len == 0 || n == 0 {
        return Ok(());
    }

    let pool = pool::global();
    let per = len.div_ceil(threads.clamp(1, pool.width()).min(len));
    let executors = len.div_ceil(per);
    let id = |i: usize| rows.map_or(i, |ids| ids[i]);
    // Each executor owns the rows of C from its first id through its last
    // exclusively (the list ascends); the mutexes never contend, they only
    // hand `&mut` slices through `Fn`.
    let span = |t: usize| (t * per, ((t + 1) * per).min(len));
    let (mut rest, mut at) = (c.as_mut_slice(), 0);
    let chunks: Vec<Mutex<&mut [f32]>> = (0..executors)
        .map(|t| {
            let (start, end) = span(t);
            let (row0, row_end) = (id(start), id(end - 1) + 1);
            let (_, tail) = std::mem::take(&mut rest).split_at_mut((row0 - at) * n);
            let (chunk, tail) = tail.split_at_mut((row_end - row0) * n);
            (rest, at) = (tail, row_end);
            Mutex::new(chunk)
        })
        // lint:allow(L005): per-call chunk table of <= threads pointers —
        // orders of magnitude below the counting-allocator budget.
        .collect();

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
                    // Share index t locks only its own chunk, so the lock
                    // never contends; a poisoned lock only means another
                    // worker panicked and the guarded slice is still
                    // structurally valid to hand back.
                    let mut chunk = audit::recover("gemm.chunk", &chunks[t]);
                    gemm_block(
                        kd,
                        a,
                        rows,
                        &mut chunk,
                        span(t),
                        (jc, je),
                        (pc, pe),
                        bp,
                        &wb,
                    );
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

/// Whether `ids` is a row list the list-taking kernels accept for a
/// matrix of `n` rows: strictly ascending, every id below `n`. The one
/// check behind the row lists of [`dense_update_with`],
/// [`QuantMatrix::encode`](crate::QuantMatrix::encode) and the SpMM.
pub fn ascending_below(ids: &[usize], n: usize) -> bool {
    ids.windows(2).all(|w| w[0] < w[1]) && ids.last().is_none_or(|&v| v < n)
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
    dense_update_with(kd, a, b, None, Activation::Identity, threads, None, c)
}

#[cfg(test)]
mod tests {
    use super::super::avx512_available;
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
    fn the_6x32_tile_carries_the_6x16_tiles_bits() {
        // Odd panel counts, pair edges and `NC` blocks (n); empty, short
        // and `KC`-straddling depths (k); edge tiles and `MC` blocks (m).
        // Each shape runs one combination of activation, bias, row list
        // and executor count, stepping through all 60 along the grid.
        if !avx512_available() {
            return;
        }
        let (wide, narrow) = (
            KernelDispatch::with_backend(Backend::Avx512),
            KernelDispatch::with_backend(Backend::Avx2Fma),
        );
        let acts = [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ];
        let mut rng = StdRng::seed_from_u64(14);
        let mut combo = 0usize;
        for n in [
            1, 15, 16, 17, 31, 32, 33, 40, 47, 48, 64, 100, 256, 513, 1040,
        ] {
            for k in [0, 1, 255, 256, 257, 600] {
                let w = random_matrix(&mut rng, k, n);
                let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                for m in [1, 5, 6, 7, 72, 73, 150] {
                    let a = random_matrix(&mut rng, m, k);
                    let gapped: Vec<usize> = (0..m).filter(|v| v % 3 != 1).collect();
                    let act = acts[combo % 5];
                    let b = (combo / 5).is_multiple_of(2).then_some(&bias[..]);
                    let rows = (combo / 10).is_multiple_of(2).then_some(&gapped[..]);
                    let threads = [1, 2, 4][combo / 20 % 3];
                    combo += 1;
                    let run = |kd| {
                        let mut c = DenseMatrix::filled(m, n, f32::NAN);
                        dense_update_with(kd, &a, &w, b, act, threads, rows, &mut c).unwrap();
                        c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    };
                    assert!(
                        run(wide) == run(narrow),
                        "m={m} k={k} n={n} {act:?} bias={} rows={} threads={threads}",
                        b.is_some(),
                        rows.is_some()
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
            None,
            &mut c,
        );
        assert!(matches!(err, Err(MatrixError::DimensionMismatch { .. })));
        assert_eq!(c, DenseMatrix::filled(2, 2, 7.0));
    }

    #[test]
    fn a_row_list_writes_exactly_its_rows_bitwise() {
        // Listed rows carry the whole-matrix call's bits on every backend
        // and executor count (edge tiles, gaps between the shares' rows);
        // every other row of `C` keeps what it held. A list that does not
        // ascend inside `A` is rejected before `C` is touched.
        let mut rng = StdRng::seed_from_u64(13);
        let (a, w) = (
            random_matrix(&mut rng, 40, 20),
            random_matrix(&mut rng, 20, 19),
        );
        let bias: Vec<f32> = (0..19).map(|j| j as f32 * 0.1 - 1.0).collect();
        let ids = [0usize, 3, 4, 5, 9, 17, 18, 30, 31, 32, 33, 39];
        for kd in all_backends() {
            let mut whole = DenseMatrix::default();
            let b = Some(&bias[..]);
            dense_update_with(kd, &a, &w, b, Activation::Relu, 1, None, &mut whole).unwrap();
            for threads in [1, 2, 4, 9] {
                let mut c = DenseMatrix::filled(40, 19, f32::NAN);
                let act = Activation::Relu;
                dense_update_with(kd, &a, &w, b, act, threads, Some(&ids), &mut c).unwrap();
                for v in 0..40 {
                    if ids.contains(&v) {
                        assert_eq!(c.row(v), whole.row(v), "row {v} threads={threads}");
                    } else {
                        assert!(c.row(v).iter().all(|x| x.is_nan()), "row {v} touched");
                    }
                }
            }
            for bad in [&[3usize, 3][..], &[5, 4], &[39, 40]] {
                let mut c = DenseMatrix::filled(2, 2, 7.0);
                let act = Activation::Identity;
                let err = dense_update_with(kd, &a, &w, None, act, 2, Some(bad), &mut c);
                assert!(matches!(err, Err(MatrixError::DimensionMismatch { .. })));
                assert_eq!(c, DenseMatrix::filled(2, 2, 7.0));
            }
        }
    }
}
