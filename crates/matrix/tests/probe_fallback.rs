//! The dispatch probe must degrade Avx2Fma → Portable → Scalar when a rung
//! fails, and choose the detected backend untouched when probes pass.

use matrix::microkernel::{resolve_probed, Backend};
use resilience::fault::{self, FaultConfig, FaultKind};

#[test]
fn clean_probe_keeps_the_detected_backend() {
    // Fires nowhere, but holds the process-wide arm lock: a neighbour's
    // injected faults cannot land in this run.
    let _quiet = fault::arm(FaultConfig::new(0));
    let (kd, fallback) = resolve_probed();
    assert_eq!(kd.backend(), Backend::detect());
    assert_eq!(fallback, None);
}

#[test]
fn injected_avx2_probe_failure_degrades_one_rung() {
    let _armed =
        fault::arm(FaultConfig::new(5).point("microkernel.probe.avx2", FaultKind::Error, 1.0));
    let (kd, fallback) = resolve_probed();
    let preferred = Backend::detect();
    if preferred == Backend::Avx2Fma {
        assert_eq!(kd.backend(), Backend::Portable);
        assert_eq!(fallback, Some((Backend::Avx2Fma, Backend::Portable)));
    } else {
        // Host without AVX2 (or MICROKERNEL_FORCE): the failed site is
        // never probed, so nothing degrades.
        assert_eq!(kd.backend(), preferred);
        assert_eq!(fallback, None);
    }
}

#[test]
fn probe_chain_bottoms_out_at_scalar() {
    // Fail every probed rung (prefix matches both avx2 and portable sites);
    // scalar is the last resort and has no injection site.
    let _armed = fault::arm(FaultConfig::new(5).point("microkernel.probe.", FaultKind::Error, 1.0));
    let (kd, fallback) = resolve_probed();
    assert_eq!(kd.backend(), Backend::Scalar);
    let preferred = Backend::detect();
    if preferred != Backend::Scalar {
        assert_eq!(fallback, Some((preferred, Backend::Scalar)));
    } else {
        assert_eq!(fallback, None);
    }
}
