//! The SpMM row kernel and its operands: the widened AXPY backends, the
//! register-tiled row accumulation over every storage width, and the
//! per-width decoders it is monomorphized over.

// BOUNDS: all `[]` indexing here is over (a) operand slices truncated to
// their common length before the loop, and (b) raw feature payload rows
// carved as `[v * stride .. (v + 1) * stride]` and int8 scales indexed by
// the same `v`, with `v < Rows::rows(stride)` checked per non-zero.

#[cfg(target_arch = "x86_64")]
use super::tail_mask;
use super::{f16c_available, Backend, KernelDispatch};
use crate::dense::DenseMatrix;
use crate::quant::{bf16_to_f32, f16_to_f32, Precision, QuantMatrix};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m256;

/// Output lanes held in registers per tile of the SpMM row kernel
/// ([`KernelDispatch::fill_row`]): 64 `f32` = eight YMM accumulators, the
/// same register budget as the GEMM tile.
pub const ACC_LANES: usize = 64;

/// How many non-zeros ahead the SpMM row kernel prefetches the feature-row
/// payload. The rows land at graph-random addresses the hardware
/// prefetcher cannot predict — without the hint every edge eats a demand
/// miss per cache line of the tile.
const PREFETCH_AHEAD: usize = 4;

impl KernelDispatch {
    /// Widened AXPY over a feature panel: `y[j] += alpha * x[j]` for
    /// `j < min(y.len(), x.len())`. This is the SpMM inner loop — one call
    /// per non-zero, vectorized over the feature width.
    #[inline]
    pub fn axpy(self, y: &mut [f32], alpha: f32, x: &[f32]) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the struct invariant guarantees `Avx2Fma` is only
            // present when `avx2_available()` held at construction, so the
            // target features of `axpy_avx2` are supported here.
            Backend::Avx2Fma => unsafe { axpy_avx2(y, alpha, x) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2Fma => axpy_portable(y, alpha, x),
            Backend::Portable => axpy_portable(y, alpha, x),
            Backend::Scalar => axpy_scalar(y, alpha, x),
        }
    }

    /// The non-AVX2 narrow AXPY: decode each stored element, then
    /// multiply-add, autovectorizable unless the backend is the scalar
    /// reference.
    #[inline(always)]
    fn axpy_narrow<T: Copy>(self, y: &mut [f32], alpha: f32, x: &[T], dec: impl Fn(T) -> f32) {
        match self.backend {
            Backend::Scalar => axpy_decoded_scalar(y, alpha, x, dec),
            _ => axpy_decoded(y, alpha, x, dec),
        }
    }

    /// Accumulates one SpMM output row over `f32` features:
    /// `y[j] += sum_i weights[i] * x[cols[i], j]`, in non-zero order.
    ///
    /// On the AVX2+FMA backend the row is processed in [`ACC_LANES`]-wide
    /// register tiles held in YMM accumulators across the *whole* non-zero
    /// loop, so each output lane round-trips to memory once per row instead
    /// of once per non-zero — the one write per output row the paper's
    /// traffic model (Eq. 3) charges. Every lane sees the arithmetic of one
    /// [`KernelDispatch::axpy`] per non-zero (vector lanes FMA, the
    /// `len % 8` tail lanes multiply-then-add), so the result is bitwise
    /// equal to that sequence. Other backends run that sequence itself.
    /// Column ids at or beyond `x.rows()` are skipped.
    pub fn accumulate_row(self, y: &mut [f32], cols: &[u32], weights: &[f32], x: &DenseMatrix) {
        self.row::<true>(y, cols, weights, Rows::F32(x.as_slice()), x.cols());
    }

    /// [`KernelDispatch::accumulate_row`] with overwrite semantics:
    /// `y[j] = sum_i weights[i] * x[cols[i], j]`, ignoring `y`'s prior
    /// contents. When the caller owns a row's entire non-zero loop (the
    /// whole-row SpMM kernels do), this elides the initial tile load and
    /// any pre-zeroing of the output.
    pub fn fill_row(self, y: &mut [f32], cols: &[u32], weights: &[f32], x: &DenseMatrix) {
        self.row::<false>(y, cols, weights, Rows::F32(x.as_slice()), x.cols());
    }

    /// [`KernelDispatch::accumulate_row`] over quantized features:
    /// `y[j] += sum_i weights[i] * decode(Q[cols[i], j])`. Same kernel,
    /// narrower loads — per-edge cost is pure decode + FMA, which is what
    /// lets narrow storage run bandwidth-bound instead of issue-bound.
    /// F16 without F16C takes one decoded AXPY per non-zero even on the
    /// AVX2 backend.
    pub fn accumulate_row_quant(
        self,
        y: &mut [f32],
        cols: &[u32],
        weights: &[f32],
        q: &QuantMatrix,
    ) {
        self.row::<true>(y, cols, weights, Rows::of(q), q.cols());
    }

    /// [`KernelDispatch::fill_row`] over quantized features.
    pub fn fill_row_quant(self, y: &mut [f32], cols: &[u32], weights: &[f32], q: &QuantMatrix) {
        self.row::<false>(y, cols, weights, Rows::of(q), q.cols());
    }

    /// The one SpMM row routine behind the four entry points above: the
    /// register-tiled kernel where the backend has it, one widened AXPY
    /// per non-zero (behind a zero fill when overwriting) where it does
    /// not. `stride` is the payload's row length.
    pub(super) fn row<const LOAD_Y: bool>(
        self,
        y: &mut [f32],
        cols: &[u32],
        weights: &[f32],
        src: Rows<'_>,
        stride: usize,
    ) {
        let rows = src.rows(stride);
        #[cfg(target_arch = "x86_64")]
        if self.backend == Backend::Avx2Fma && (!matches!(src, Rows::F16(_)) || f16c_available()) {
            // SAFETY: the struct invariant guarantees `Avx2Fma` is only
            // present when `avx2_available()` held at construction, and the
            // guard verifies F16C before the one arm whose shell needs it.
            unsafe {
                match src {
                    Rows::F32(x) => {
                        acc_row_avx2::<_, LOAD_Y>(F32Rows, y, cols, weights, x, stride, rows)
                    }
                    Rows::Bf16(x) => {
                        acc_row_avx2::<_, LOAD_Y>(Bf16Rows, y, cols, weights, x, stride, rows)
                    }
                    Rows::F16(x) => acc_row_f16c::<LOAD_Y>(y, cols, weights, x, stride, rows),
                    Rows::Int8(x, s) => {
                        acc_row_avx2::<_, LOAD_Y>(I8Rows(s), y, cols, weights, x, stride, rows)
                    }
                }
            }
            return;
        }
        if !LOAD_Y {
            y.fill(0.0);
        }
        for (&v, &w) in cols.iter().zip(weights) {
            let vi = v as usize;
            if vi >= rows {
                continue;
            }
            let at = vi * stride..(vi + 1) * stride;
            match src {
                Rows::F32(x) => self.axpy(y, w, &x[at]),
                Rows::Bf16(x) => self.axpy_narrow(y, w, &x[at], bf16_to_f32),
                Rows::F16(x) => self.axpy_narrow(y, w, &x[at], f16_to_f32),
                Rows::Int8(x, scales) => self.axpy_narrow(y, w * scales[vi], &x[at], |q| q as f32),
            }
        }
    }
}

/// Autovectorizable AXPY: fixed 8-wide chunks so LLVM emits vector
/// mul/add at whatever width the build targets.
fn axpy_portable(y: &mut [f32], alpha: f32, x: &[f32]) {
    // Truncate both sides to the common length up front: the two
    // `chunks_exact` remainders only describe the same lanes when the
    // slices are equally long.
    let n = y.len().min(x.len());
    let (y, x) = (&mut y[..n], &x[..n]);
    let mut yc = y.chunks_exact_mut(8);
    let mut xc = x.chunks_exact(8);
    for (yv, xv) in yc.by_ref().zip(xc.by_ref()) {
        for (yi, &xi) in yv.iter_mut().zip(xv) {
            *yi += alpha * xi;
        }
    }
    for (yi, &xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += alpha * xi;
    }
}

/// Plain scalar AXPY reference.
fn axpy_scalar(y: &mut [f32], alpha: f32, x: &[f32]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// AVX2 + FMA AXPY: 8-float vectors with a scalar tail.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX2 and FMA (the
/// [`KernelDispatch`] invariant).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: `unsafe fn` purely for `#[target_feature]`; callers uphold the
// `# Safety` contract above via the `KernelDispatch` backend invariant.
unsafe fn axpy_avx2(y: &mut [f32], alpha: f32, x: &[f32]) {
    use std::arch::x86_64::*;
    let n = y.len().min(x.len());
    let av = _mm256_set1_ps(alpha);
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n <= y.len()` and `n <= x.len()`, so both
        // 8-float loads and the store stay inside their slices.
        unsafe {
            let xv = _mm256_loadu_ps(x.as_ptr().add(i));
            let yv = _mm256_loadu_ps(y.as_ptr().add(i));
            _mm256_storeu_ps(y.as_mut_ptr().add(i), _mm256_fmadd_ps(av, xv, yv));
        }
        i += 8;
    }
    for (yi, &xi) in y[i..n].iter_mut().zip(&x[i..n]) {
        *yi += alpha * xi;
    }
}

/// Shared shape of the narrow portable AXPY backends: decode each stored
/// element to `f32`, then `y += alpha * decoded`, in fixed 8-wide chunks
/// so LLVM can vectorize the decode + FMA together. Monomorphized per
/// decoder, so the `decode` call inlines.
#[inline(always)]
fn axpy_decoded<T: Copy>(y: &mut [f32], alpha: f32, x: &[T], decode: impl Fn(T) -> f32) {
    let n = y.len().min(x.len());
    let (y, x) = (&mut y[..n], &x[..n]);
    let mut yc = y.chunks_exact_mut(8);
    let mut xc = x.chunks_exact(8);
    for (yv, xv) in yc.by_ref().zip(xc.by_ref()) {
        for (yi, &xi) in yv.iter_mut().zip(xv) {
            *yi += alpha * decode(xi);
        }
    }
    for (yi, &xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += alpha * decode(xi);
    }
}

/// Plain scalar reference for the narrow AXPYs.
#[inline(always)]
fn axpy_decoded_scalar<T: Copy>(y: &mut [f32], alpha: f32, x: &[T], decode: impl Fn(T) -> f32) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * decode(xi);
    }
}

/// A whole row-major feature payload at its storage width — the operand of
/// [`KernelDispatch::row`]. Int8 carries its per-row scales.
#[derive(Clone, Copy)]
pub(super) enum Rows<'a> {
    F32(&'a [f32]),
    Bf16(&'a [u16]),
    F16(&'a [u16]),
    Int8(&'a [i8], &'a [f32]),
}

impl<'a> Rows<'a> {
    /// Payload rows of `stride` elements that may be read (none when the
    /// payload has no columns).
    fn rows(self, stride: usize) -> usize {
        let (len, cap) = match self {
            Rows::F32(x) => (x.len(), usize::MAX),
            Rows::Bf16(x) | Rows::F16(x) => (x.len(), usize::MAX),
            Rows::Int8(x, scales) => (x.len(), scales.len()),
        };
        len.checked_div(stride).unwrap_or(0).min(cap)
    }

    fn of(q: &'a QuantMatrix) -> Rows<'a> {
        match q.precision() {
            Precision::Int8 => {
                let (data, scales) = q.int8_payload();
                Rows::Int8(data, scales)
            }
            Precision::F16 => Rows::F16(q.wide_payload()),
            // Bf16 is also the decode of an (unreachable in the kernels)
            // F32-tagged container, as in `QuantMatrix::decode`.
            _ => Rows::Bf16(q.wide_payload()),
        }
    }
}

/// How [`acc_row`] reads one storage width: the only lines of the row
/// kernel that differ between f32, bf16, f16 and int8.
#[cfg(target_arch = "x86_64")]
trait RowDecode: Copy {
    /// Stored element.
    type Elem: Copy + Default;

    /// Decodes the eight stored lanes at `p` to `f32`.
    ///
    /// # Safety
    ///
    /// `p` must be readable for eight elements, and the caller must run
    /// under the target features of the shell it was inlined into.
    // SAFETY: `unsafe fn` for the raw read and the ISA contract above.
    unsafe fn load8(self, p: *const Self::Elem) -> __m256;

    /// Decodes the first `rem < 8` lanes at `p`; the other lanes read zero.
    ///
    /// # Safety
    ///
    /// As [`RowDecode::load8`], with `p` readable for `rem` elements only.
    #[inline(always)]
    // SAFETY: `unsafe fn` for the raw read and the ISA contract above.
    unsafe fn load_tail(self, p: *const Self::Elem, rem: usize) -> __m256 {
        let mut lanes = [Self::Elem::default(); 8];
        // SAFETY: `p` is readable for `rem <= 8` elements (caller), `lanes`
        // holds eight, and a fresh stack array cannot overlap the payload.
        unsafe {
            std::ptr::copy_nonoverlapping(p, lanes.as_mut_ptr(), rem.min(8));
            self.load8(lanes.as_ptr())
        }
    }

    /// FMA coefficient of a non-zero of weight `w` reading payload row
    /// `vi`; int8 folds the row's dequantization scale in here.
    #[inline(always)]
    fn coeff(self, w: f32, _vi: usize) -> f32 {
        w
    }
}

#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct F32Rows;
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Bf16Rows;
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct F16Rows;
/// Int8 rows with their per-row dequantization scales.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct I8Rows<'a>(&'a [f32]);

#[cfg(target_arch = "x86_64")]
impl RowDecode for F32Rows {
    type Elem = f32;

    #[inline(always)]
    // SAFETY: contract inherited from `RowDecode::load8`.
    unsafe fn load8(self, p: *const f32) -> __m256 {
        // SAFETY: `p` is readable for eight floats (caller).
        unsafe { std::arch::x86_64::_mm256_loadu_ps(p) }
    }

    #[inline(always)]
    // SAFETY: contract inherited from `RowDecode::load_tail`.
    unsafe fn load_tail(self, p: *const f32, rem: usize) -> __m256 {
        // SAFETY: a masked load touches only the `rem` selected lanes,
        // which the caller guarantees readable.
        unsafe { std::arch::x86_64::_mm256_maskload_ps(p, tail_mask(rem)) }
    }
}

#[cfg(target_arch = "x86_64")]
impl RowDecode for Bf16Rows {
    type Elem = u16;

    /// bf16 is a bit-prefix of f32: widen to `u32`, shift left 16.
    #[inline(always)]
    // SAFETY: contract inherited from `RowDecode::load8`.
    unsafe fn load8(self, p: *const u16) -> __m256 {
        use std::arch::x86_64::*;
        // SAFETY: `p` is readable for eight `u16` = 16 bytes (caller).
        unsafe {
            let raw = _mm_loadu_si128(p as *const __m128i);
            _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16))
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl RowDecode for F16Rows {
    type Elem = u16;

    /// `vcvtph2ps`: only ever inlined into the F16C shell.
    #[inline(always)]
    // SAFETY: contract inherited from `RowDecode::load8`.
    unsafe fn load8(self, p: *const u16) -> __m256 {
        use std::arch::x86_64::*;
        // SAFETY: `p` is readable for eight `u16` = 16 bytes (caller).
        unsafe { _mm256_cvtph_ps(_mm_loadu_si128(p as *const __m128i)) }
    }
}

#[cfg(target_arch = "x86_64")]
impl RowDecode for I8Rows<'_> {
    type Elem = i8;

    /// Sign-extend to `i32`, convert; the scale rides on the coefficient.
    #[inline(always)]
    // SAFETY: contract inherited from `RowDecode::load8`.
    unsafe fn load8(self, p: *const i8) -> __m256 {
        use std::arch::x86_64::*;
        // SAFETY: `p` is readable for eight bytes (caller).
        unsafe { _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(p as *const __m128i))) }
    }

    #[inline(always)]
    fn coeff(self, w: f32, vi: usize) -> f32 {
        w * self.0[vi]
    }
}

/// One register tile of the row kernel, and the only non-zero loop in it:
/// `G` full 8-lane groups plus `tail < 8` further lanes of the output at
/// `yp` stay in YMM accumulators across every non-zero of the row, so each
/// non-zero costs one decode + FMA per group and the output is loaded (if
/// `LOAD_Y`) and stored once. Full groups FMA; the tail lanes multiply,
/// then add — lane for lane the arithmetic of one `axpy_avx2` call per
/// non-zero, which is what keeps every sharded, gathered and replayed path
/// bitwise equal to the per-non-zero sequence. The payload row
/// [`PREFETCH_AHEAD`] non-zeros on is prefetched one hint per cache line of
/// the tile: rows land at graph-random addresses.
///
/// # Safety
///
/// The caller must run under `D`'s target features, `yp` must be valid for
/// `G * 8 + tail` floats, and `xp` must point at the tile's first lane in
/// payload row 0, with rows `stride` elements apart, at least `rows` of
/// them, each valid for `G * 8 + tail` elements from there.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// SAFETY: `unsafe fn` for the pointer and ISA contract above.
unsafe fn row_tile<D: RowDecode, const LOAD_Y: bool, const G: usize>(
    d: D,
    yp: *mut f32,
    tail: usize,
    cols: &[u32],
    weights: &[f32],
    xp: *const D::Elem,
    stride: usize,
    rows: usize,
) {
    use std::arch::x86_64::*;
    let elem = size_of::<D::Elem>();
    // SAFETY: every `yp` access covers `[0, G * 8 + tail)` (the tail ones
    // masked to `tail` lanes); every payload read is in a row `vi < rows`
    // at lanes `[0, G * 8 + tail)`; prefetch hints never fault.
    unsafe {
        let mask = tail_mask(tail);
        let mut acc = [_mm256_setzero_ps(); G];
        let mut tacc = _mm256_setzero_ps();
        if LOAD_Y {
            for (g, slot) in acc.iter_mut().enumerate() {
                *slot = _mm256_loadu_ps(yp.add(g * 8));
            }
            if tail != 0 {
                tacc = _mm256_maskload_ps(yp.add(G * 8), mask);
            }
        }
        for (idx, (&v, &w)) in cols.iter().zip(weights).enumerate() {
            let vi = v as usize;
            if vi >= rows {
                continue;
            }
            if let Some(&nv) = cols.get(idx + PREFETCH_AHEAD) {
                if (nv as usize) < rows {
                    let np = xp.add(nv as usize * stride) as *const i8;
                    for line in 0..(G * 8 * elem).div_ceil(64) {
                        _mm_prefetch(np.add(line * 64), _MM_HINT_T0);
                    }
                    _mm_prefetch(np.add((G * 8 + tail) * elem - 1), _MM_HINT_T0);
                }
            }
            let av = _mm256_set1_ps(d.coeff(w, vi));
            let rp = xp.add(vi * stride);
            for (g, slot) in acc.iter_mut().enumerate() {
                *slot = _mm256_fmadd_ps(av, d.load8(rp.add(g * 8)), *slot);
            }
            if tail != 0 {
                let xv = d.load_tail(rp.add(G * 8), tail);
                tacc = _mm256_add_ps(tacc, _mm256_mul_ps(av, xv));
            }
        }
        for (g, slot) in acc.iter().enumerate() {
            _mm256_storeu_ps(yp.add(g * 8), *slot);
        }
        if tail != 0 {
            _mm256_maskstore_ps(yp.add(G * 8), mask, tacc);
        }
    }
}

/// The register-tiled SpMM row kernel for every storage width: walks the
/// output row in [`ACC_LANES`]-wide tiles, then one last pass over the
/// `K / 8 % 8` remaining full groups and the `K % 8` tail lanes together.
/// Column ids at or past `rows` (clamped to what `x` holds) are skipped, so
/// no caller-side bounds contract is needed.
///
/// # Safety
///
/// The caller must run under `D`'s target features — the reason this body
/// is `#[inline(always)]` into a `#[target_feature]` shell.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// SAFETY: `unsafe fn` purely for the ISA contract above.
unsafe fn acc_row<D: RowDecode, const LOAD_Y: bool>(
    d: D,
    y: &mut [f32],
    cols: &[u32],
    weights: &[f32],
    x: &[D::Elem],
    stride: usize,
    rows: usize,
) {
    let k = y.len().min(stride);
    if k == 0 {
        return;
    }
    let rows = rows.min(x.len() / stride);
    let mut c0 = 0;
    while c0 < k {
        let lanes = (k - c0).min(ACC_LANES);
        let tail = lanes % 8;
        // SAFETY: `c0 + lanes <= k <= y.len()` bounds the output tile, and
        // `(vi + 1) * stride <= x.len()` for every `vi < rows` with
        // `c0 + lanes <= stride` bounds each payload row's tile.
        unsafe {
            let (yp, xp) = (y.as_mut_ptr().add(c0), x.as_ptr().add(c0));
            macro_rules! tile {
                ($g:literal, $tail:expr) => {
                    row_tile::<D, LOAD_Y, $g>(d, yp, $tail, cols, weights, xp, stride, rows)
                };
            }
            match lanes / 8 {
                8 => tile!(8, 0),
                7 => tile!(7, tail),
                6 => tile!(6, tail),
                5 => tile!(5, tail),
                4 => tile!(4, tail),
                3 => tile!(3, tail),
                2 => tile!(2, tail),
                1 => tile!(1, tail),
                _ => tile!(0, tail),
            }
        }
        c0 += lanes;
    }
}

/// AVX2+FMA shell of [`acc_row`] (f32, bf16, int8).
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX2 and FMA (the
/// [`KernelDispatch`] invariant), and must not instantiate it with
/// [`F16Rows`], whose decode needs [`acc_row_f16c`]'s extra feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: `unsafe fn` purely for `#[target_feature]`; callers uphold the
// `# Safety` contract above via the `KernelDispatch` backend invariant.
unsafe fn acc_row_avx2<D: RowDecode, const LOAD_Y: bool>(
    d: D,
    y: &mut [f32],
    cols: &[u32],
    weights: &[f32],
    x: &[D::Elem],
    stride: usize,
    rows: usize,
) {
    // SAFETY: AVX2+FMA hold by this function's own contract.
    unsafe { acc_row::<D, LOAD_Y>(d, y, cols, weights, x, stride, rows) }
}

/// AVX2+FMA+F16C shell of [`acc_row`] for IEEE binary16 rows.
///
/// # Safety
///
/// The caller must guarantee AVX2, FMA, *and* F16C (the dispatch checks
/// [`f16c_available`] before routing here).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
// SAFETY: `unsafe fn` purely for `#[target_feature]`; callers uphold the
// `# Safety` contract above (backend invariant + F16C guard).
unsafe fn acc_row_f16c<const LOAD_Y: bool>(
    y: &mut [f32],
    cols: &[u32],
    weights: &[f32],
    x: &[u16],
    stride: usize,
    rows: usize,
) {
    // SAFETY: AVX2+FMA+F16C hold by this function's own contract.
    unsafe { acc_row::<F16Rows, LOAD_Y>(F16Rows, y, cols, weights, x, stride, rows) }
}

#[cfg(test)]
mod tests {
    use super::super::test_backends as all_backends;
    use super::*;
    use crate::quant::{calibrate_scale, f32_to_bf16, f32_to_f16, saturating_cast_i8};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn axpy_backends_agree_including_tails() {
        let mut rng = StdRng::seed_from_u64(12);
        // Mismatched (y_len, x_len) pairs included on purpose: the update
        // covers only the common prefix, and the vector remainders must
        // still pair identical lanes when the lengths differ.
        for (y_len, x_len) in [
            (0usize, 0usize),
            (1, 1),
            (7, 7),
            (8, 8),
            (9, 9),
            (31, 31),
            (64, 64),
            (100, 100),
            (58, 69),
            (69, 58),
            (10, 3),
        ] {
            let x: Vec<f32> = (0..x_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let base: Vec<f32> = (0..y_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let alpha = rng.gen_range(-2.0..2.0);
            let mut want = base.clone();
            axpy_scalar(&mut want, alpha, &x);
            for kd in all_backends() {
                let mut y = base.clone();
                kd.axpy(&mut y, alpha, &x);
                for (w, g) in want.iter().zip(&y) {
                    assert!(
                        (w - g).abs() < 1e-5,
                        "y_len={y_len} x_len={x_len} backend={}",
                        kd.backend().name()
                    );
                }
            }
        }
    }

    #[test]
    fn narrow_axpy_backends_agree_with_scalar_decode() {
        let mut rng = StdRng::seed_from_u64(15);
        for len in [0usize, 1, 7, 8, 9, 31, 64, 100] {
            let x: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let base: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let alpha = 1.5f32;
            let bf: Vec<u16> = x.iter().map(|&v| f32_to_bf16(v)).collect();
            let hf: Vec<u16> = x.iter().map(|&v| f32_to_f16(v)).collect();
            let scale = calibrate_scale(&x);
            let i8s: Vec<i8> = x.iter().map(|&v| saturating_cast_i8(v / scale)).collect();
            for kd in all_backends() {
                let mut want = base.clone();
                axpy_decoded_scalar(&mut want, alpha, &bf, bf16_to_f32);
                let mut y = base.clone();
                kd.row::<true>(&mut y, &[0], &[alpha], Rows::Bf16(&bf), len);
                for (w, g) in want.iter().zip(&y) {
                    assert!(
                        (w - g).abs() < 1e-5,
                        "bf16 len={len} {}",
                        kd.backend().name()
                    );
                }
                let mut want = base.clone();
                axpy_decoded_scalar(&mut want, alpha, &hf, f16_to_f32);
                let mut y = base.clone();
                kd.row::<true>(&mut y, &[0], &[alpha], Rows::F16(&hf), len);
                for (w, g) in want.iter().zip(&y) {
                    assert!(
                        (w - g).abs() < 1e-5,
                        "f16 len={len} {}",
                        kd.backend().name()
                    );
                }
                let mut want = base.clone();
                axpy_decoded_scalar(&mut want, alpha * scale, &i8s, |v| v as f32);
                let mut y = base.clone();
                kd.row::<true>(&mut y, &[0], &[alpha], Rows::Int8(&i8s, &[scale]), len);
                for (w, g) in want.iter().zip(&y) {
                    assert!(
                        (w - g).abs() < 1e-4,
                        "int8 len={len} {}",
                        kd.backend().name()
                    );
                }
            }
        }
    }
}
