//! The dispatch and precision probes: tiny known-answer runs of the row
//! kernel under `catch_unwind`, each rung fault-pointed, that decide which
//! backend and which storage width a process may trust.

use super::row::Rows;
use super::{Backend, KernelDispatch};
use crate::error::MatrixError;
use crate::quant::{calibrate_scale, f32_to_bf16, f32_to_f16, saturating_cast_i8, Precision};
use crate::Result;

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

    #[test]
    fn resolve_precision_accepts_every_rung_unfaulted() {
        let kd = KernelDispatch::get();
        for p in Precision::all() {
            let (chosen, fallback) = resolve_precision(kd, p);
            assert_eq!(chosen, p);
            assert!(fallback.is_none());
        }
    }
}
