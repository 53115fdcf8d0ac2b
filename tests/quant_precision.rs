//! Property tests for the narrow-precision storage layer: conversion
//! round-trips must stay inside the format's half-step, saturating casts
//! must clamp (never wrap) on every edge the IEEE encodings can produce,
//! and the quantized row kernel must agree across dispatch backends on
//! the same degenerate widths the f32 engine is tested on — single-column
//! rows (F == 1) and ragged widths that are not multiples of the 8-lane
//! tile.

use piuma_gcn::matrix::microkernel::{avx2_available, Backend, KernelDispatch};
use piuma_gcn::matrix::quant::{
    bf16_to_f32, f16_to_f32, f32_to_bf16, f32_to_f16, saturating_cast_i8, I8_MAX_Q,
};
use piuma_gcn::matrix::{DenseMatrix, Precision, QuantMatrix};
use proptest::prelude::*;

/// Every backend the host can run (AVX2+FMA only when the CPU has it).
fn backends() -> Vec<KernelDispatch> {
    let mut v = vec![
        KernelDispatch::with_backend(Backend::Scalar),
        KernelDispatch::with_backend(Backend::Portable),
    ];
    if avx2_available() {
        v.push(KernelDispatch::with_backend(Backend::Avx2Fma));
    }
    v
}

const NARROW: [Precision; 3] = [Precision::Bf16, Precision::F16, Precision::Int8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// bf16 keeps an 8-bit significand (7 explicit bits): nearest-even
    /// rounding lands the round-trip within half a ULP, i.e. a relative
    /// error of at most 2^-8.
    #[test]
    fn bf16_round_trip_is_within_half_ulp(v in -1.0e30f32..1.0e30) {
        let back = bf16_to_f32(f32_to_bf16(v));
        prop_assert!(
            (back - v).abs() <= v.abs() / 256.0,
            "v={v} back={back}"
        );
    }

    /// f16 keeps 10 significand bits in its normal range and quantizes
    /// subnormals on the 2^-24 grid; the round-trip stays within half a
    /// step of whichever regime applies.
    #[test]
    fn f16_round_trip_is_within_half_step(v in -60000.0f32..60000.0) {
        let back = f16_to_f32(f32_to_f16(v));
        // Half a normal-range ULP relatively, plus half a subnormal step
        // absolutely for the region below 2^-14.
        let tol = v.abs() / 2048.0 + 3.0e-8;
        prop_assert!((back - v).abs() <= tol, "v={v} back={back}");
    }

    /// Per-row int8 quantization through `QuantMatrix` lands every entry
    /// within half a quantization step of the row's calibrated grid.
    #[test]
    fn int8_row_round_trip_is_within_half_step(
        rows_sel in 0usize..40,
        cols_sel in 0usize..40,
        seed_vals in proptest::collection::vec(-100.0f32..100.0, 1600..1601),
    ) {
        let rows = 1 + rows_sel % 5;
        let cols = 1 + cols_sel % 70;
        let src = DenseMatrix::from_vec(
            rows,
            cols,
            seed_vals[..rows * cols].to_vec(),
        ).unwrap();
        let mut q = QuantMatrix::new();
        q.encode(&src, Precision::Int8).unwrap();
        let mut back = DenseMatrix::default();
        q.decode(&mut back);
        for r in 0..rows {
            let row_max = src.row(r).iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let half_step = row_max / I8_MAX_Q * 0.5 + 1e-9;
            for (a, b) in src.row(r).iter().zip(back.row(r)) {
                prop_assert!(
                    (a - b).abs() <= half_step,
                    "row {r}: {a} -> {b}, half step {half_step}"
                );
            }
        }
    }

    /// The saturating cast clamps to the symmetric ±127 grid and agrees
    /// with round-ties-even inside it — it never wraps.
    #[test]
    fn saturating_cast_clamps_and_rounds_to_even(v in -1.0e6f32..1.0e6) {
        let q = saturating_cast_i8(v);
        prop_assert!((-127..=127).contains(&(q as i32)));
        let want = v.round_ties_even().clamp(-I8_MAX_Q, I8_MAX_Q);
        prop_assert_eq!(q as f32, want);
    }

    /// The quantized row kernel on a one-row payload with a single
    /// non-zero — a quantized AXPY — agrees across backends with a scalar
    /// decode → f32 AXPY reference, for every narrow precision and for
    /// widths covering F == 1 and ragged non-multiple-of-8 tails.
    #[test]
    fn axpy_quant_backends_agree_with_decoded_reference(
        alpha in -4.0f32..4.0,
        x in proptest::collection::vec(-2.0f32..2.0, 1..70),
        y_seed in -2.0f32..2.0,
    ) {
        let row = DenseMatrix::from_vec(1, x.len(), x.clone()).unwrap();
        let mut q = QuantMatrix::new();
        let mut decoded = DenseMatrix::default();
        for precision in NARROW {
            q.encode(&row, precision).unwrap();
            q.decode(&mut decoded);
            let mut expect = vec![y_seed; x.len()];
            for (yj, xj) in expect.iter_mut().zip(decoded.as_slice()) {
                *yj += alpha * *xj;
            }
            for kd in backends() {
                let mut y = vec![y_seed; x.len()];
                kd.accumulate_row_quant(&mut y, &[0], &[alpha], &q);
                for (j, (got, want)) in y.iter().zip(&expect).enumerate() {
                    prop_assert!(
                        (got - want).abs() < 1e-3,
                        "{} backend {} lane {} got {} want {}",
                        precision, kd.backend().name(), j, got, want
                    );
                }
            }
        }
    }
}

/// The non-finite edges are worth pinning exactly, outside the random
/// sweep: NaN quantizes to zero, infinities clamp to the grid ends, and
/// the float formats keep IEEE semantics.
#[test]
fn non_finite_edges_are_pinned() {
    assert_eq!(saturating_cast_i8(f32::NAN), 0);
    assert_eq!(saturating_cast_i8(f32::INFINITY), 127);
    assert_eq!(saturating_cast_i8(f32::NEG_INFINITY), -127);
    assert_eq!(saturating_cast_i8(3.0e38), 127);
    assert_eq!(saturating_cast_i8(-3.0e38), -127);

    assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
    assert_eq!(
        bf16_to_f32(f32_to_bf16(f32::NEG_INFINITY)),
        f32::NEG_INFINITY
    );
    assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());

    assert_eq!(f16_to_f32(f32_to_f16(f32::INFINITY)), f32::INFINITY);
    // f16 overflow saturates to ±inf (binary16 has no 1e6).
    assert_eq!(f16_to_f32(f32_to_f16(1.0e6)), f32::INFINITY);
    assert_eq!(f16_to_f32(f32_to_f16(-1.0e6)), f32::NEG_INFINITY);
    assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
}
