//! Register-tiled SIMD micro-kernels: packed GEMM and widened AXPY.
//!
//! This module is the dense-arithmetic engine behind both pillars of a GCN
//! layer. The paper's characterization makes the case directly: SpMM inner
//! work is dense row accumulation over the feature dimension, and the dense
//! update `H * W` is the second pillar — so one set of micro-kernels can
//! serve both if it exposes (a) a packed, cache-blocked GEMM and (b) a
//! feature-panel AXPY (`y += alpha * x`) for the sparse row loops.
//!
//! The two pillars sit on opposite sides of the roofline, and storage
//! precision follows that: the SpMM row kernel is bandwidth-bound and reads
//! its feature operand at any [`Precision`] (f32 / bf16 / f16 / int8, one
//! loop, four decoders); the GEMM is compute-bound, its operands are `f32`
//! at rest, and it exists once, at `f32` ([`matmul_packed_with`]).
//!
//! # Kernel backends
//!
//! Three implementations of the same 8x8-register-tile contract, selected
//! **once per process** by [`KernelDispatch::get`] and cached:
//!
//! * [`Backend::Avx2Fma`] — `std::arch` intrinsics behind a runtime
//!   `is_x86_feature_detected!("avx2")` + `"fma"` check; 8 YMM accumulators,
//!   one `vbroadcastss` + `vfmadd` per packed A lane.
//! * [`Backend::Portable`] — safe Rust written so LLVM autovectorizes it
//!   (fixed 8-wide inner loops over packed panels); the default everywhere
//!   AVX2 is absent and the forced path in CI's `MICROKERNEL_FORCE=portable`
//!   job.
//! * [`Backend::Scalar`] — the deliberately plain reference used by the
//!   dispatch-agreement tests.
//!
//! The environment variable `MICROKERNEL_FORCE` (`portable` / `scalar` /
//! `avx2`) overrides detection; forcing `avx2` on hardware without it
//! silently falls back to `portable` so a [`KernelDispatch`] can never name
//! an unavailable instruction set — that invariant is what makes calling
//! the `#[target_feature]` functions sound.
//!
//! # Packing layout
//!
//! The blocked GEMM follows the classic Goto/BLIS decomposition: `KC`-deep
//! slices of the operands are packed into pool-owned scratch
//! ([`pool::ScratchArena::with_f32`], 64-byte aligned) as **micro-panels**:
//!
//! * A panels: `MR = 8` rows interleaved lane-major — element `(r, p)` of
//!   the block lands at `p * 8 + r`, so the micro-kernel broadcasts one
//!   contiguous lane group per depth step;
//! * B panels: `NR = 8` columns row-major — element `(p, j)` at `p * 8 + j`,
//!   one aligned 8-float vector load per depth step.
//!
//! Partial edge tiles are zero-padded inside the panels, so the inner
//! kernel always runs the full 8x8 shape and the write-back masks rows and
//! columns that fall outside `C`. `B` is packed once per `(jc, pc)` block
//! and shared read-only by every executor; each executor owns a private A
//! panel carved from the same scratch borrow.
//!
//! [`KernelDispatch`]: crate::microkernel::KernelDispatch
//! [`KernelDispatch::get`]: crate::microkernel::KernelDispatch::get
//! [`Backend::Avx2Fma`]: crate::microkernel::Backend::Avx2Fma
//! [`Backend::Portable`]: crate::microkernel::Backend::Portable
//! [`Backend::Scalar`]: crate::microkernel::Backend::Scalar
//! [`Precision`]: crate::quant::Precision
//! [`matmul_packed_with`]: crate::microkernel::matmul_packed_with

// Explicit SIMD intrinsics are the point of this module; the crate-level
// deny stays in force for everything else in `matrix`.
#![allow(unsafe_code)]

// BOUNDS: all `[]` indexing here is over (a) packed panels sliced as
// `[idx * kc * 8 .. (idx + 1) * kc * 8]` from buffers sized `>= panels * kc
// * 8` at the single `with_f32` call, (b) operand rows via
// `DenseMatrix::row` (length-checked by construction) with sub-ranges
// clamped by `.min(..)` against the operand shape, (c) the fixed
// `[f32; 64]` accumulator tile indexed by `r * 8 + j` with `r, j < 8`,
// (d) output chunks carved by `chunks_mut(rows_per * n)` from a buffer
// sized `m * n`, and (e) raw feature payload rows carved as
// `[v * stride .. (v + 1) * stride]` and int8 scales indexed by the same
// `v`, with `v < Rows::rows(stride)` checked per non-zero;
// `check_shapes` ties the operand dimensions together at every entry
// point.

use crate::dense::DenseMatrix;
use crate::error::MatrixError;
use crate::gemm::check_shapes;
use crate::quant::{
    bf16_to_f32, calibrate_scale, f16_to_f32, f32_to_bf16, f32_to_f16, saturating_cast_i8,
    Precision, QuantMatrix,
};
use crate::Result;
use resilience::audit;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256, __m256i};
use std::sync::{Mutex, OnceLock};

/// Register-tile height: rows of `A` (and `C`) per micro-kernel call. Eight
/// rows = eight YMM accumulators on AVX2, the full logical register budget
/// with room for the broadcast and the `B` vector.
pub const MR: usize = 8;

/// Register-tile width: columns of `B` (and `C`) per micro-kernel call.
/// Eight `f32` = one 256-bit vector, so a tile row is exactly one register.
pub const NR: usize = 8;

/// Depth (`k`) block: how many A/B lanes are packed per panel. 256 keeps an
/// 8-lane B micro-panel at 8 KB — resident in L1 across all A panels of an
/// `MC` block.
const KC: usize = 256;

/// Row block: rows of `A` packed per executor per depth block. `MC * KC`
/// floats = 64 KB of packed A, sized for L2.
const MC: usize = 64;

/// Column block: columns of `B` packed per depth block (bounds the shared
/// B panel at `KC * NC` floats = 512 KB).
const NC: usize = 512;

/// Output lanes held in registers per tile of the SpMM row kernel
/// ([`KernelDispatch::fill_row`]): 64 `f32` = eight YMM accumulators, the
/// same register budget as the GEMM tile.
pub const ACC_LANES: usize = 64;

/// How many non-zeros ahead the SpMM row kernel prefetches the feature-row
/// payload. The rows land at graph-random addresses the hardware
/// prefetcher cannot predict — without the hint every edge eats a demand
/// miss per cache line of the tile.
const PREFETCH_AHEAD: usize = 4;

/// Which micro-kernel implementation a [`KernelDispatch`] routes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `std::arch` AVX2 + FMA intrinsics (runtime-detected, x86-64 only).
    Avx2Fma,
    /// Safe autovectorizable Rust — default wherever AVX2 is unavailable.
    Portable,
    /// Plain scalar reference implementation.
    Scalar,
}

impl Backend {
    /// Detects the best available backend, honouring the
    /// `MICROKERNEL_FORCE` environment variable (`portable` / `scalar` /
    /// `avx2`; unknown values are ignored).
    pub fn detect() -> Backend {
        match std::env::var("MICROKERNEL_FORCE").ok().as_deref() {
            Some("portable") => return Backend::Portable,
            Some("scalar") => return Backend::Scalar,
            // "avx2" falls through to detection: forcing it cannot bypass
            // the hardware check, only request it explicitly.
            _ => {}
        }
        if avx2_available() {
            Backend::Avx2Fma
        } else {
            Backend::Portable
        }
    }

    /// Human-readable backend name (used by benches and reports).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2Fma => "avx2+fma",
            Backend::Portable => "portable",
            Backend::Scalar => "scalar",
        }
    }
}

/// True when the CPU supports AVX2 and FMA (always false off x86-64).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the CPU additionally supports the F16C half-float conversion
/// instructions (`vcvtph2ps`); gates the hardware f16 decode inside the
/// AVX2 paths. Always false off x86-64.
pub fn f16c_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("f16c")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Next backend in the graceful-degradation chain, `None` after the last
/// resort ([`Backend::Scalar`], which has no SIMD or autovectorization
/// assumptions left to violate).
fn downgrade(b: Backend) -> Option<Backend> {
    match b {
        Backend::Avx2Fma => Some(Backend::Portable),
        Backend::Portable => Some(Backend::Scalar),
        Backend::Scalar => None,
    }
}

static PROBE_FALLBACK: OnceLock<Option<(Backend, Backend)>> = OnceLock::new();

/// The `(preferred, chosen)` downgrade the dispatch probe took when
/// [`KernelDispatch::get`] first ran, or `None` if the preferred backend
/// passed its probe (or `get` has not run yet). Surfaced in
/// `gcn::InferenceRun::backend_fallback`.
pub fn probe_fallback() -> Option<(Backend, Backend)> {
    PROBE_FALLBACK.get().copied().flatten()
}

/// Fault-injection hook for the probe, one named site per backend so chaos
/// tests can fail a specific rung of the chain.
fn probe_site(b: Backend) -> Result<()> {
    match b {
        Backend::Avx2Fma => {
            // lint:allow(L008): probe path, runs once per process at
            // dispatch selection — never on the per-call kernel path.
            resilience::fault_point_err!(
                "microkernel.probe.avx2",
                MatrixError::Fault {
                    site: "microkernel.probe.avx2",
                }
            );
        }
        Backend::Portable => {
            // lint:allow(L008): probe path, see above.
            resilience::fault_point_err!(
                "microkernel.probe.portable",
                MatrixError::Fault {
                    site: "microkernel.probe.portable",
                }
            );
        }
        Backend::Scalar => {}
    }
    Ok(())
}

/// `true` when `kd`'s backend survives a tiny correctness probe: a 16-wide
/// AXPY and a 3-non-zero, 20-lane SpMM row fill (two full register groups
/// plus a masked tail — the kernel every f32 aggregation runs), both under
/// `catch_unwind` and checked elementwise against the analytic answer.
/// Panics, wrong values, and non-finite output all fail the probe. Stack
/// arrays only — the probe allocates nothing.
fn probe(kd: KernelDispatch) -> bool {
    if probe_site(kd.backend()).is_err() {
        return false;
    }
    std::panic::catch_unwind(|| {
        let mut y = [1.0f32; 16];
        let mut x = [0.0f32; 16];
        for (j, v) in x.iter_mut().enumerate() {
            *v = j as f32 + 0.5;
        }
        kd.axpy(&mut y, 2.0, &x);
        let axpy_ok = y.iter().enumerate().all(|(j, &v)| {
            let want = 1.0 + 2.0 * (j as f32 + 0.5);
            v.is_finite() && (v - want).abs() <= 1e-5
        });

        // Row r of the 3 x 20 payload holds `r * 32 + j`; the stale NaNs
        // must be overwritten, never accumulated into.
        const K: usize = 20;
        let mut rows = [0.0f32; 3 * K];
        for (i, v) in rows.iter_mut().enumerate() {
            *v = ((i / K) * 32 + i % K) as f32;
        }
        let (cols, weights) = ([2u32, 0, 1], [0.5f32, -2.0, 1.5]);
        let mut out = [f32::NAN; K];
        kd.row::<false>(&mut out, &cols, &weights, Rows::F32(&rows), K);
        let fill_ok = out.iter().enumerate().all(|(j, &v)| {
            let j = j as f32;
            v == 0.5 * (64.0 + j) - 2.0 * j + 1.5 * (32.0 + j)
        });
        axpy_ok && fill_ok
    })
    .unwrap_or(false)
}

/// Run the detection + probe chain from scratch (uncached): the backend
/// [`Backend::detect`] prefers, degraded along [`downgrade`] until a rung
/// passes [`probe`]. Returns the chosen dispatch and the `(preferred,
/// chosen)` pair when a downgrade happened. [`KernelDispatch::get`] calls
/// this once and caches; tests call it directly under armed injection.
pub fn resolve_probed() -> (KernelDispatch, Option<(Backend, Backend)>) {
    let preferred = Backend::detect();
    let mut candidate = preferred;
    loop {
        let kd = KernelDispatch { backend: candidate };
        if probe(kd) {
            let fallback = (candidate != preferred).then_some((preferred, candidate));
            return (kd, fallback);
        }
        match downgrade(candidate) {
            Some(next) => candidate = next,
            // Even a failing scalar probe (only reachable via injection on
            // every rung) must yield a usable dispatch: scalar is the
            // reference implementation.
            None => return (kd, Some((preferred, Backend::Scalar))),
        }
    }
}

/// A resolved micro-kernel selection, cheap to copy and pass down call
/// chains (e.g. cached inside `kernels::plan::SpmmPlan`).
///
/// Invariant: `backend == Backend::Avx2Fma` only when [`avx2_available`]
/// returned true at construction — both constructors enforce it, which is
/// what makes the `unsafe` AVX2 calls below sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDispatch {
    backend: Backend,
}

impl KernelDispatch {
    /// The process-wide dispatch, selected once (detection + env override +
    /// sanity probe) and cached for every later call.
    ///
    /// The preferred backend is *probed* before being cached: a tiny AXPY
    /// and SpMM row fill run under `catch_unwind` and their results are
    /// checked against the analytic answer. A backend that panics or produces wrong/non-finite
    /// values is degraded along the Avx2Fma → Portable → Scalar chain
    /// ([`probe_fallback`] reports a taken downgrade). In practice only
    /// injected faults (`resilience`) trigger this; it exists so a
    /// miscompiled or misdetected SIMD path degrades instead of corrupting
    /// inference.
    pub fn get() -> KernelDispatch {
        static DISPATCH: OnceLock<KernelDispatch> = OnceLock::new();
        *DISPATCH.get_or_init(|| {
            let (kd, fallback) = resolve_probed();
            let _ = PROBE_FALLBACK.set(fallback);
            kd
        })
    }

    /// A dispatch handle for an explicit backend — the hook the
    /// dispatch-agreement tests and the `microkernel` bench use to compare
    /// implementations side by side. Requesting [`Backend::Avx2Fma`] on
    /// hardware without it downgrades to [`Backend::Portable`].
    pub fn with_backend(backend: Backend) -> KernelDispatch {
        let backend = match backend {
            Backend::Avx2Fma if !avx2_available() => Backend::Portable,
            b => b,
        };
        KernelDispatch { backend }
    }

    /// The backend this handle routes to.
    pub fn backend(self) -> Backend {
        self.backend
    }

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
    fn row<const LOAD_Y: bool>(
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

    /// Runs the 8x`kc` register-tiled inner kernel: `acc` is overwritten
    /// with the product of one packed A micro-panel and one packed B
    /// micro-panel (both `kc * 8` elements).
    #[inline]
    fn mk8x8(self, ap: &[f32], bp: &[f32], kc: usize, acc: &mut [f32; MR * NR]) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the struct invariant guarantees `Avx2Fma` is only
            // present when `avx2_available()` held at construction, and the
            // callers below slice `ap`/`bp` to exactly `kc * 8` elements.
            Backend::Avx2Fma => unsafe { mk8x8_avx2(ap, bp, kc, acc) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2Fma => mk8x8_portable(ap, bp, kc, acc),
            Backend::Portable => mk8x8_portable(ap, bp, kc, acc),
            Backend::Scalar => mk8x8_scalar(ap, bp, kc, acc),
        }
    }
}

// ---------------------------------------------------------------------------
// AXPY backends
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Register-tiled SpMM row kernel
// ---------------------------------------------------------------------------

/// A whole row-major feature payload at its storage width — the operand of
/// [`KernelDispatch::row`]. Int8 carries its per-row scales.
#[derive(Clone, Copy)]
enum Rows<'a> {
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

/// Lane mask selecting the first `rem < 8` lanes of a vector.
///
/// # Safety
///
/// The caller must run under AVX (every shell enables AVX2).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
// SAFETY: `unsafe fn` purely for the ISA contract above.
unsafe fn tail_mask(rem: usize) -> __m256i {
    const MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
    // SAFETY: `8 - min(rem, 8)` is in `0..=8`, so the eight lanes read
    // stay inside the sixteen-entry table.
    unsafe { std::arch::x86_64::_mm256_loadu_si256(MASK.as_ptr().add(8 - rem.min(8)).cast()) }
}

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

// ---------------------------------------------------------------------------
// 8x8 register-tile micro-kernels
// ---------------------------------------------------------------------------

/// Portable register-tile kernel: the loops are shaped (fixed 8-wide inner
/// trip counts over contiguous packed panels) so LLVM autovectorizes them.
fn mk8x8_portable(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [f32; MR * NR]) {
    *acc = [0.0; MR * NR];
    for p in 0..kc {
        let a8 = &ap[p * MR..p * MR + MR];
        let b8 = &bp[p * NR..p * NR + NR];
        for (r, &ar) in a8.iter().enumerate() {
            let row = &mut acc[r * NR..r * NR + NR];
            for (c, &bv) in row.iter_mut().zip(b8) {
                *c += ar * bv;
            }
        }
    }
}

/// Scalar register-tile reference: index arithmetic kept deliberately
/// plain so it stays the easy-to-audit baseline of the agreement tests.
// The indexed form *is* the point here — it mirrors the textbook loop.
#[allow(clippy::needless_range_loop)]
fn mk8x8_scalar(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [f32; MR * NR]) {
    *acc = [0.0; MR * NR];
    for p in 0..kc {
        for r in 0..MR {
            let ar = ap[p * MR + r];
            for j in 0..NR {
                acc[r * NR + j] += ar * bp[p * NR + j];
            }
        }
    }
}

/// AVX2 + FMA register-tile kernel: 8 YMM accumulators (one per A lane),
/// one vector load of B and 8 broadcast+FMA per depth step.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX2 and FMA (the
/// [`KernelDispatch`] invariant) and that `ap.len() >= kc * 8` and
/// `bp.len() >= kc * 8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: `unsafe fn` purely for `#[target_feature]`; callers uphold the
// `# Safety` contract above via the `KernelDispatch` backend invariant.
unsafe fn mk8x8_avx2(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [f32; MR * NR]) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut c0 = _mm256_setzero_ps();
    let mut c1 = _mm256_setzero_ps();
    let mut c2 = _mm256_setzero_ps();
    let mut c3 = _mm256_setzero_ps();
    let mut c4 = _mm256_setzero_ps();
    let mut c5 = _mm256_setzero_ps();
    let mut c6 = _mm256_setzero_ps();
    let mut c7 = _mm256_setzero_ps();
    let a_ptr = ap.as_ptr();
    let b_ptr = bp.as_ptr();
    for p in 0..kc {
        // SAFETY: `p < kc` and both panels hold at least `kc * 8` floats
        // (caller contract, debug-asserted above), so every offset below is
        // in bounds.
        unsafe {
            let b = _mm256_loadu_ps(b_ptr.add(p * NR));
            let al = a_ptr.add(p * MR);
            c0 = _mm256_fmadd_ps(_mm256_set1_ps(*al), b, c0);
            c1 = _mm256_fmadd_ps(_mm256_set1_ps(*al.add(1)), b, c1);
            c2 = _mm256_fmadd_ps(_mm256_set1_ps(*al.add(2)), b, c2);
            c3 = _mm256_fmadd_ps(_mm256_set1_ps(*al.add(3)), b, c3);
            c4 = _mm256_fmadd_ps(_mm256_set1_ps(*al.add(4)), b, c4);
            c5 = _mm256_fmadd_ps(_mm256_set1_ps(*al.add(5)), b, c5);
            c6 = _mm256_fmadd_ps(_mm256_set1_ps(*al.add(6)), b, c6);
            c7 = _mm256_fmadd_ps(_mm256_set1_ps(*al.add(7)), b, c7);
        }
    }
    // SAFETY: `acc` is exactly 64 floats; the eight stores cover
    // `[0, 64)` in disjoint 8-float rows.
    unsafe {
        let out = acc.as_mut_ptr();
        _mm256_storeu_ps(out, c0);
        _mm256_storeu_ps(out.add(8), c1);
        _mm256_storeu_ps(out.add(16), c2);
        _mm256_storeu_ps(out.add(24), c3);
        _mm256_storeu_ps(out.add(32), c4);
        _mm256_storeu_ps(out.add(40), c5);
        _mm256_storeu_ps(out.add(48), c6);
        _mm256_storeu_ps(out.add(56), c7);
    }
}

// ---------------------------------------------------------------------------
// Panel packing
// ---------------------------------------------------------------------------

/// Packs rows `[ic, ie)` x depth `[pc, pe)` of `a` into lane-major A
/// micro-panels: element `(r, p)` of micro-panel `ir` lands at
/// `ir * kc * MR + p * MR + r`. Rows beyond `ie` are zero-padded so the
/// inner kernel always sees a full `MR`-lane group.
fn pack_a_block(a: &DenseMatrix, ic: usize, ie: usize, pc: usize, pe: usize, dst: &mut [f32]) {
    let kc = pe - pc;
    let panels = (ie - ic).div_ceil(MR);
    for ir in 0..panels {
        let panel = &mut dst[ir * kc * MR..(ir + 1) * kc * MR];
        let i0 = ic + ir * MR;
        let rows = (ie - i0).min(MR);
        if rows < MR {
            panel.fill(0.0);
        }
        for r in 0..rows {
            let arow = &a.row(i0 + r)[pc..pe];
            for (p, &v) in arow.iter().enumerate() {
                panel[p * MR + r] = v;
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

/// One accumulator register tile.
type Tile = [f32; MR * NR];

/// A half-open index range `[start, end)` of rows, columns or depth.
type Span = (usize, usize);

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

/// Adds the masked corner of a full accumulator tile into the output chunk
/// (`n` is the output row stride).
fn add_tile(c_chunk: &mut [f32], n: usize, at: TileAt, acc: &Tile) {
    for r in 0..at.rows {
        let base = (at.row0 + r) * n + at.j0;
        let dst = &mut c_chunk[base..base + at.cols];
        for (d, &v) in dst.iter_mut().zip(&acc[r * NR..r * NR + at.cols]) {
            *d += v;
        }
    }
}

/// One executor's work for one `(cols, depth)` block: packs its own A
/// panels (`MC` rows at a time) and accumulates every micro-tile of its row
/// range against the shared packed B panel.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    kd: KernelDispatch,
    a: &DenseMatrix,
    c_chunk: &mut [f32],
    n: usize,
    (row_start, row_end): Span,
    (jc, je): Span,
    (pc, pe): Span,
    apanel: &mut [f32],
    bpanel: &[f32],
) {
    let kc = pe - pc;
    let jpanels = (je - jc).div_ceil(NR);
    let (pslot_a, pslot_b) = (kc * MR, kc * NR);
    let mut acc: Tile = [0.0; MR * NR];
    let mut ic = row_start;
    while ic < row_end {
        let ie = (ic + MC).min(row_end);
        pack_a_block(a, ic, ie, pc, pe, apanel);
        let ipanels = (ie - ic).div_ceil(MR);
        // B micro-panel outermost: it stays hot in L1 across every A panel
        // of this MC block.
        for jr in 0..jpanels {
            let bp = &bpanel[jr * pslot_b..(jr + 1) * pslot_b];
            let j0 = jc + jr * NR;
            let cols = (je - j0).min(NR);
            for ir in 0..ipanels {
                let ap = &apanel[ir * pslot_a..(ir + 1) * pslot_a];
                let i0 = ic + ir * MR;
                let rows = (ie - i0).min(MR);
                kd.mk8x8(ap, bp, kc, &mut acc);
                let at = TileAt {
                    row0: i0 - row_start,
                    j0,
                    rows,
                    cols,
                };
                add_tile(c_chunk, n, at, &acc);
            }
        }
        ic = ie;
    }
}

// ---------------------------------------------------------------------------
// Blocked driver
// ---------------------------------------------------------------------------

/// Cache-blocked, panel-packed GEMM `C = A * B` running its inner tiles on
/// an explicit [`KernelDispatch`] — the one dense update every layer runs,
/// whatever storage width its SpMM feature operand has.
///
/// Rows of `A` are split contiguously across `threads` pool executors;
/// each executor packs its own A micro-panels into a private slice of one
/// pool-owned, 64-byte-aligned scratch borrow, while the B panel for the
/// current `(jc, pc)` block is packed once and shared read-only. `c` is
/// reshaped with [`DenseMatrix::resize_zeroed`], so steady-state calls at
/// fixed shapes never touch the allocator for the output.
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
    check_shapes("matmul_packed", a, b)?;
    if threads == 0 {
        return Err(MatrixError::ZeroThreads);
    }
    let (m, k) = a.shape();
    let n = b.cols();
    c.resize_zeroed(m, n);
    if m == 0 || n == 0 || k == 0 {
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

    let kc_max = KC.min(k);
    let bp_len = kc_max * (NC.min(n)).div_ceil(NR) * NR;
    let ap_len = kc_max * MC;
    pool.scratch()
        .with_f32(bp_len + executors * ap_len, |scratch| {
            let (bpanel, ap_all) = scratch.split_at_mut(bp_len);
            let apanels: Vec<Mutex<&mut [f32]>> = ap_all
                .chunks_mut(ap_len)
                .take(executors)
                .map(Mutex::new)
                // lint:allow(L005): per-call panel table of <= threads
                // pointers into the single pool scratch borrow.
                .collect();
            let mut jc = 0;
            while jc < n {
                let je = (jc + NC).min(n);
                let mut pc = 0;
                while pc < k {
                    let pe = (pc + KC).min(k);
                    pack_b_block(b, pc, pe, jc, je, bpanel);
                    let bp: &[f32] = bpanel;
                    pool.broadcast(executors, executors, |t| {
                        let row_start = t * rows_per;
                        let row_end = (row_start + rows_per).min(m);
                        // Share index t locks only its own chunk and panel, so
                        // neither lock ever contends; a poisoned lock only means
                        // another worker panicked and the guarded slice is still
                        // structurally valid to hand back.
                        let mut chunk = audit::recover("gemm.chunk", &chunks[t]);
                        let mut ap = audit::recover("gemm.apanel", &apanels[t]);
                        let rows = (row_start, row_end);
                        gemm_block(kd, a, &mut chunk, n, rows, (jc, je), (pc, pe), &mut ap, bp);
                    });
                    pc = pe;
                }
                jc = je;
            }
        });
    Ok(())
}

// ---------------------------------------------------------------------------
// Precision probing
// ---------------------------------------------------------------------------

/// Fault-injection hook for the precision probe, one named site per
/// narrow precision so chaos tests can fail a specific rung of the
/// f32 ← bf16 ← int8 chain.
fn precision_probe_site(p: Precision) -> Result<()> {
    match p {
        Precision::Bf16 => {
            // lint:allow(L008): probe path, runs at plan construction —
            // never on the per-call kernel path.
            resilience::fault_point_err!(
                "microkernel.probe.bf16",
                MatrixError::Fault {
                    site: "microkernel.probe.bf16",
                }
            );
        }
        Precision::F16 => {
            // lint:allow(L008): probe path, see above.
            resilience::fault_point_err!(
                "microkernel.probe.f16",
                MatrixError::Fault {
                    site: "microkernel.probe.f16",
                }
            );
        }
        Precision::Int8 => {
            // lint:allow(L008): probe path, see above.
            resilience::fault_point_err!(
                "microkernel.probe.int8",
                MatrixError::Fault {
                    site: "microkernel.probe.int8",
                }
            );
        }
        Precision::F32 => {}
    }
    Ok(())
}

/// `true` when `precision` survives a tiny encode → row-kernel probe on
/// `kd`: 16 known values are narrowed into a one-row payload, accumulated
/// through [`KernelDispatch::row`] with a single non-zero, and checked
/// against the analytic answer under `catch_unwind`. Panics, wrong
/// values, and non-finite output all fail the probe; stack arrays only.
fn probe_precision(kd: KernelDispatch, precision: Precision) -> bool {
    if precision_probe_site(precision).is_err() {
        return false;
    }
    if precision == Precision::F32 {
        // The f32 path was already probed at dispatch selection.
        return true;
    }
    std::panic::catch_unwind(move || {
        let mut y = [0.5f32; 16];
        let mut x = [0.0f32; 16];
        for (j, v) in x.iter_mut().enumerate() {
            *v = (j as f32 - 7.5) * 0.25;
        }
        let mut wide = [0u16; 16];
        let mut narrow = [0i8; 16];
        match precision {
            Precision::Bf16 => {
                for (d, &v) in wide.iter_mut().zip(&x) {
                    *d = f32_to_bf16(v);
                }
                kd.row::<true>(&mut y, &[0], &[2.0], Rows::Bf16(&wide), 16);
            }
            Precision::F16 => {
                for (d, &v) in wide.iter_mut().zip(&x) {
                    *d = f32_to_f16(v);
                }
                kd.row::<true>(&mut y, &[0], &[2.0], Rows::F16(&wide), 16);
            }
            _ => {
                let scale = calibrate_scale(&x);
                let inv = 1.0 / scale;
                for (d, &v) in narrow.iter_mut().zip(&x) {
                    *d = saturating_cast_i8(v * inv);
                }
                kd.row::<true>(&mut y, &[0], &[2.0], Rows::Int8(&narrow, &[scale]), 16);
            }
        }
        // Worst case is the int8 grid: step ~0.0148 over this range,
        // doubled by alpha — 0.05 leaves slack without masking a wrong
        // lane (lanes differ by 0.5).
        y.iter().zip(&x).all(|(&v, &xv)| {
            let want = 0.5 + 2.0 * xv;
            v.is_finite() && (v - want).abs() <= 0.05
        })
    })
    .unwrap_or(false)
}

/// Resolves a requested storage precision against the probe chain: the
/// first rung of `requested` → [`Precision::fallback`] → … that passes
/// [`probe_precision`] wins, falling back to [`Precision::F32`] when
/// every narrow rung fails. Returns the chosen precision and the
/// `(requested, chosen)` pair when a downgrade happened — the resilience
/// layer records it as a degradation. In practice only injected faults
/// (`resilience`) fail a rung; the probe exists so a miscompiled or
/// misdetected narrow path degrades instead of corrupting inference.
pub fn resolve_precision(
    kd: KernelDispatch,
    requested: Precision,
) -> (Precision, Option<(Precision, Precision)>) {
    let mut candidate = requested;
    loop {
        if probe_precision(kd, candidate) {
            let fallback = (candidate != requested).then_some((requested, candidate));
            return (candidate, fallback);
        }
        match candidate.fallback() {
            Some(next) => candidate = next,
            None => return (Precision::F32, Some((requested, Precision::F32))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_naive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> DenseMatrix {
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    fn all_backends() -> Vec<KernelDispatch> {
        let mut v = vec![
            KernelDispatch::with_backend(Backend::Portable),
            KernelDispatch::with_backend(Backend::Scalar),
        ];
        if avx2_available() {
            v.push(KernelDispatch::with_backend(Backend::Avx2Fma));
        }
        v
    }

    #[test]
    fn packed_matches_naive_across_shapes_and_backends() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (8, 8, 8),
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

    #[test]
    fn resolve_precision_accepts_every_rung_unfaulted() {
        let kd = KernelDispatch::get();
        for p in Precision::all() {
            let (chosen, fallback) = resolve_precision(kd, p);
            assert_eq!(chosen, p);
            assert!(fallback.is_none());
        }
    }

    #[test]
    fn forced_backend_downgrade_never_yields_unavailable_avx2() {
        let kd = KernelDispatch::with_backend(Backend::Avx2Fma);
        if !avx2_available() {
            assert_eq!(kd.backend(), Backend::Portable);
        } else {
            assert_eq!(kd.backend(), Backend::Avx2Fma);
        }
    }

    #[test]
    fn global_dispatch_is_stable() {
        assert_eq!(KernelDispatch::get(), KernelDispatch::get());
    }
}
