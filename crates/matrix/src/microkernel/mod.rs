//! Register-tiled SIMD micro-kernels: packed GEMM and widened AXPY.
//!
//! This module is the dense-arithmetic engine behind both pillars of a GCN
//! layer: the SpMM inner loop is dense row accumulation over the feature
//! dimension, and the dense update `H * W` is a GEMM. The two sit on
//! opposite sides of the roofline, and storage precision follows that: the
//! bandwidth-bound SpMM row kernel reads its feature operand at any
//! [`Precision`] (one loop, four decoders); the compute-bound GEMM exists
//! once, at `f32` ([`dense_update_with`], of which [`matmul_packed_with`]
//! is the bias-free, identity-activation call).
//!
//! `gemm` holds the tile kernels, the blocked driver and its write-back
//! epilogue; `row` the SpMM row kernel, the AXPY backends and the narrow
//! decoders; `probe` the backend and precision probes. This file holds the
//! dispatch they all route through.
//!
//! # Kernel backends
//!
//! Three implementations of the same 6x16-register-tile contract, selected
//! **once per process** by [`KernelDispatch::get`] and cached:
//!
//! * [`Backend::Avx2Fma`] — `std::arch` intrinsics behind a runtime AVX2 +
//!   FMA check; 12 YMM accumulators, two `B` vector loads and six
//!   broadcasts for twelve FMAs per depth step.
//! * [`Backend::Portable`] — safe Rust written so LLVM autovectorizes it;
//!   the default wherever AVX2 is absent.
//! * [`Backend::Scalar`] — the deliberately plain reference used by the
//!   dispatch-agreement tests.
//!
//! `MICROKERNEL_FORCE` (`portable` / `scalar` / `avx2`) overrides
//! detection; forcing `avx2` on hardware without it falls back to
//! `portable`, so a [`KernelDispatch`] can never name an unavailable
//! instruction set — the invariant that makes the `#[target_feature]`
//! calls sound.
//!
//! # Packing layout
//!
//! The blocked GEMM follows the Goto/BLIS decomposition with one operand
//! packed: `B`, once per `(jc, pc)` block, into pool-owned 64-byte-aligned
//! scratch as `NR = 16`-column row-major micro-panels (element `(p, j)` at
//! `p * 16 + j`, zero-padded past the last column), shared read-only by
//! every executor. `A` is read in place: a tile broadcasts from `MR = 6`
//! row pointers into `A`, a short edge tile repeating its last row, and
//! `MC = 72` rows (twelve tiles) form the L2 block each `B` micro-panel is
//! swept across while it sits in L1.
//!
//! The write-back is the layer's epilogue: the first depth block stores
//! `0.0 + acc` (the bits of an add into a zeroed output, so the output is
//! never cleared), later blocks add into `C`, and the last adds `bias[j]`
//! and applies the activation — per element the sequence
//! `matmul_packed_with` → `add_row_bias` → `apply_activation` runs.
//!
//! [`Precision`]: crate::quant::Precision
//! [`dense_update_with`]: crate::microkernel::dense_update_with
//! [`matmul_packed_with`]: crate::microkernel::matmul_packed_with
//! [`KernelDispatch`]: crate::microkernel::KernelDispatch
//! [`KernelDispatch::get`]: crate::microkernel::KernelDispatch::get
//! [`Backend::Avx2Fma`]: crate::microkernel::Backend::Avx2Fma
//! [`Backend::Portable`]: crate::microkernel::Backend::Portable
//! [`Backend::Scalar`]: crate::microkernel::Backend::Scalar

// Explicit SIMD intrinsics are the point of this module; the crate-level
// deny stays in force for everything else in `matrix`.
#![allow(unsafe_code)]

mod gemm;
mod probe;
mod row;

pub use gemm::{dense_update_with, matmul_packed_with, MR, NR};
pub use probe::{resolve_precision, resolve_probed};
pub use row::ACC_LANES;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m256i;
use std::sync::OnceLock;

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

static PROBE_FALLBACK: OnceLock<Option<(Backend, Backend)>> = OnceLock::new();

/// The `(preferred, chosen)` downgrade the dispatch probe took when
/// [`KernelDispatch::get`] first ran, or `None` if the preferred backend
/// passed its probe (or `get` has not run yet). Surfaced in
/// `gcn::InferenceRun::backend_fallback`.
pub fn probe_fallback() -> Option<(Backend, Backend)> {
    PROBE_FALLBACK.get().copied().flatten()
}

/// A resolved micro-kernel selection, cheap to copy and pass down call
/// chains (e.g. cached inside `kernels::plan::SpmmPlan`).
///
/// Invariant: `backend == Backend::Avx2Fma` only when [`avx2_available`]
/// returned true at construction — both constructors enforce it, which is
/// what makes the `unsafe` AVX2 calls in `gemm` and `row` sound.
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
}

/// Lane mask selecting the first `min(rem, 8)` lanes of a vector.
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

/// Every backend the host can run, for the per-file agreement tests.
#[cfg(test)]
fn test_backends() -> Vec<KernelDispatch> {
    let mut v = vec![
        KernelDispatch::with_backend(Backend::Portable),
        KernelDispatch::with_backend(Backend::Scalar),
    ];
    if avx2_available() {
        v.push(KernelDispatch::with_backend(Backend::Avx2Fma));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

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
