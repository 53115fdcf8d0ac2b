//! Narrow-precision storage for the SpMM feature operand: bf16 / f16 /
//! int8 with round-to-nearest-even conversion, saturating casts, and
//! per-row scale calibration.
//!
//! The paper's characterization shows SpMM aggregation is bandwidth-bound
//! — per-edge cost is the feature-row read — so halving (bf16/f16) or
//! quartering (int8) the bytes moved per feature element is the lever
//! there. The dense update is compute-bound and its operands are `f32` at
//! rest, so it is never narrowed. The contract throughout this module (and
//! the row kernel that consumes its payloads) is **storage narrows,
//! arithmetic does not**:
//!
//! * bf16 / f16 values are decoded to `f32` lanes before every
//!   multiply-accumulate; accumulators are always `f32`;
//! * int8 values carry a per-row scale ([`QuantMatrix`]), folded into the
//!   `f32` FMA coefficient of the row kernel.
//!
//! Conversions round to nearest-even ([`f32_to_bf16`], [`f32_to_f16`],
//! [`saturating_cast_i8`]) and saturate rather than wrap: out-of-range
//! int8 inputs clamp to ±127, NaN quantizes to 0, and f16 overflow goes
//! to ±inf exactly as IEEE 754 binary16 prescribes.
//!
//! [`f32_to_bf16`]: crate::quant::f32_to_bf16
//! [`f32_to_f16`]: crate::quant::f32_to_f16
//! [`saturating_cast_i8`]: crate::quant::saturating_cast_i8

// BOUNDS: all `[]` indexing in this module is over row slices carved as
// `[r * cols .. (r + 1) * cols]` from payload buffers that `encode`
// grows to at least `rows * cols` elements (and `scales` to `rows`), with
// `r < rows` checked by the callers' loop bounds or, for a row list, by
// `encode`'s range check; `decode` writes through
// the same row carving after `resize_zeroed(rows, cols)`.

use crate::dense::DenseMatrix;
use crate::error::MatrixError;
use crate::microkernel::ascending_below;

/// Storage precision of the SpMM feature operand on the inference hot
/// path.
///
/// `F32` is the reference path (no quantization); the narrow variants
/// store 2 or 1 bytes per element and decode/dequantize into `f32`
/// arithmetic inside the micro-kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full-precision `f32` storage — the reference path.
    #[default]
    F32,
    /// bfloat16: the top 16 bits of an `f32`, round-to-nearest-even.
    /// Same exponent range as `f32`, 8-bit significand.
    Bf16,
    /// IEEE 754 binary16: 5-bit exponent, 11-bit significand. Narrow
    /// range (max ~65504) but more mantissa than bf16.
    F16,
    /// Symmetric int8 with per-row scales, folded into the `f32` FMA
    /// coefficient of the SpMM row kernel.
    Int8,
}

impl Precision {
    /// Human-readable name (used by benches, reports, and `parse`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
            Precision::F16 => "f16",
            Precision::Int8 => "int8",
        }
    }

    /// Parses a precision name as produced by [`Precision::name`]
    /// (`"f32"` / `"bf16"` / `"f16"` / `"int8"`); `None` for anything else.
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f32" => Some(Precision::F32),
            "bf16" => Some(Precision::Bf16),
            "f16" => Some(Precision::F16),
            "int8" => Some(Precision::Int8),
            _ => None,
        }
    }

    /// Bytes of storage per element (4 / 2 / 2 / 1).
    pub fn storage_bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::Bf16 | Precision::F16 => 2,
            Precision::Int8 => 1,
        }
    }

    /// True for the narrow (sub-f32) storage variants.
    pub fn is_narrow(self) -> bool {
        self != Precision::F32
    }

    /// Next rung of the graceful-degradation chain, mirroring the kernel
    /// backend chain: int8 falls back to bf16 (wider storage, same
    /// exponent range as f32), bf16 and f16 fall back to full f32, and
    /// f32 is the last resort (`None`).
    pub fn fallback(self) -> Option<Precision> {
        match self {
            Precision::Int8 => Some(Precision::Bf16),
            Precision::Bf16 | Precision::F16 => Some(Precision::F32),
            Precision::F32 => None,
        }
    }

    /// All precisions, widest first — the sweep order used by benches and
    /// the accuracy harness.
    pub fn all() -> [Precision; 4] {
        [
            Precision::F32,
            Precision::Bf16,
            Precision::F16,
            Precision::Int8,
        ]
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Largest int8 magnitude used by the symmetric quantizer. ±127 (not
/// -128) keeps the grid symmetric so negating a value never saturates
/// asymmetrically.
pub const I8_MAX_Q: f32 = 127.0;

// ---------------------------------------------------------------------------
// Scalar conversions
// ---------------------------------------------------------------------------

/// `f32` → bfloat16 with round-to-nearest-even. NaN maps to a quiet NaN
/// (payload top bit forced so the result cannot round to infinity);
/// ±inf is preserved exactly.
#[inline]
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Keep the sign, force a quiet-NaN mantissa bit.
        return ((bits >> 16) as u16) | 0x0040;
    }
    // Round-to-nearest-even at bit 16: add 0x7FFF plus the parity of the
    // bit that will become the LSB; mantissa carries propagate into the
    // exponent exactly as rounding-up requires.
    let round = 0x7FFF + ((bits >> 16) & 1);
    ((bits.wrapping_add(round)) >> 16) as u16
}

/// bfloat16 → `f32` (exact: bf16 is a prefix of the f32 encoding).
#[inline]
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// `2^24` as `f32`, the scale between binary16 subnormal steps and units.
const F16_SUBNORMAL_SCALE: f32 = 16_777_216.0;

/// `f32` → IEEE 754 binary16 with round-to-nearest-even. Values past the
/// half range saturate to ±inf, subnormal halves are rounded on the
/// `2^-24` grid, NaN maps to a quiet NaN with the sign preserved.
#[inline]
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7FFF_FFFF;
    if abs >= 0x7F80_0000 {
        // NaN → quiet NaN; ±inf → ±inf.
        return if abs > 0x7F80_0000 {
            sign | 0x7E00
        } else {
            sign | 0x7C00
        };
    }
    if abs < 0x3880_0000 {
        // |x| < 2^-14: subnormal half (or zero). Count 2^-24 steps with
        // ties-to-even; 1024 steps lands exactly on the smallest normal.
        let q = (f32::from_bits(abs) * F16_SUBNORMAL_SCALE).round_ties_even() as u16;
        return sign | q;
    }
    // Normal range: round the 23-bit mantissa to 10 bits at bit 13, then
    // rebias the exponent (127 → 15). A mantissa carry ripples into the
    // exponent, which also turns values ≥ 65520 into ±inf — the correct
    // nearest-even result at the top of the half range.
    let mant_odd = (abs >> 13) & 1;
    let rounded = abs + 0x0FFF + mant_odd;
    if rounded >= 0x4780_0000 {
        return sign | 0x7C00;
    }
    sign | ((rounded.wrapping_sub(112 << 23) >> 13) as u16)
}

/// IEEE 754 binary16 → `f32` (exact for every half value).
#[inline]
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x03FF) as u32;
    if exp == 0x1F {
        // Inf / NaN: widen the payload into the f32 mantissa.
        return f32::from_bits(sign | 0x7F80_0000 | (man << 13));
    }
    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign); // ±0
        }
        let v = (man as f32) / F16_SUBNORMAL_SCALE;
        return if sign != 0 { -v } else { v };
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

/// Saturating `f32` → int8 on the symmetric grid: round-to-nearest-even,
/// clamp to ±127, NaN → 0, ±inf → ±127.
#[inline]
pub fn saturating_cast_i8(x: f32) -> i8 {
    if x.is_nan() {
        return 0;
    }
    let r = x.round_ties_even();
    if r <= -I8_MAX_Q {
        -127
    } else if r >= I8_MAX_Q {
        127
    } else {
        r as i8
    }
}

/// Calibrates a symmetric int8 scale from data: `max |v| / 127` over the
/// finite entries, or `1.0` when there are none (so all-zero and
/// all-non-finite inputs still get a usable scale). Dequantization is
/// `q * scale`; quantization multiplies by the reciprocal.
pub fn calibrate_scale(values: &[f32]) -> f32 {
    let max_abs = values
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0f32, |m, v| m.max(v.abs()));
    if max_abs > 0.0 {
        max_abs / I8_MAX_Q
    } else {
        1.0
    }
}

/// Quantizes a slice onto the symmetric int8 grid with a precomputed
/// reciprocal scale (`dst[i] = saturating_cast_i8(src[i] * inv_scale)`).
/// Lengths beyond the shorter slice are left untouched.
fn quantize_i8_slice(src: &[f32], inv_scale: f32, dst: &mut [i8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = saturating_cast_i8(s * inv_scale);
    }
}

// ---------------------------------------------------------------------------
// Quantized feature storage
// ---------------------------------------------------------------------------

/// A row-major matrix stored at a narrow [`Precision`], with per-row
/// scales for int8. Buffers are reused across [`QuantMatrix::encode`]
/// calls, so steady-state re-encoding at a fixed shape never touches the
/// allocator — the same contract the pool scratch gives the kernels.
#[derive(Debug, Clone, Default)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    precision: Precision,
    /// bf16 / f16 payload (`rows * cols` entries when active).
    wide: Vec<u16>,
    /// int8 payload (`rows * cols` entries when active).
    narrow: Vec<i8>,
    /// Per-row dequantization scales (int8 only).
    scales: Vec<f32>,
}

impl QuantMatrix {
    /// An empty quantized matrix; [`QuantMatrix::encode`] gives it shape.
    pub fn new() -> QuantMatrix {
        QuantMatrix::default()
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The precision the payload is currently encoded at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Raw bf16/f16 payload (`rows * cols` entries when active, empty for
    /// int8) — the register-tiled SpMM row accumulator indexes rows
    /// directly.
    pub(crate) fn wide_payload(&self) -> &[u16] {
        &self.wide[..self.len().min(self.wide.len())]
    }

    /// Raw int8 payload plus per-row scales (empty for bf16/f16).
    pub(crate) fn int8_payload(&self) -> (&[i8], &[f32]) {
        let narrow = &self.narrow[..self.len().min(self.narrow.len())];
        (narrow, &self.scales[..self.rows.min(self.scales.len())])
    }

    /// Elements of the encoded matrix. The payload vectors keep the most
    /// they ever held at their precision, like
    /// [`DenseMatrix::resize_for_overwrite`], so re-encoding at another
    /// shape does not re-zero them.
    fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Re-encodes `src`'s rows `rows` at `precision`, reusing the payload
    /// buffers: an ascending list of row ids, each encoded at its own row of
    /// a `src.rows() x src.cols()` payload (rows outside the list keep
    /// stale values), or every row for `None`. Each row is encoded on its
    /// own — element-wise for bf16 / f16, calibrated independently for
    /// int8 ([`calibrate_scale`]) — so a row's bits do not depend on the
    /// list it rides in.
    ///
    /// # Errors
    ///
    /// [`MatrixError::UnsupportedPrecision`] when `precision` is
    /// [`Precision::F32`] — full-precision operands stay in their
    /// [`DenseMatrix`]; this container only holds narrowed payloads — and
    /// [`MatrixError::DimensionMismatch`] for a list that does not ascend
    /// strictly inside `src`.
    pub fn encode(
        &mut self,
        src: &DenseMatrix,
        rows: Option<&[usize]>,
        precision: Precision,
    ) -> crate::Result<()> {
        let (n, cols) = src.shape();
        if let Some(ids) = rows.filter(|ids| !ascending_below(ids, n)) {
            return Err(MatrixError::DimensionMismatch {
                op: "quant.encode rows",
                lhs: (n, cols),
                rhs: (ids.len(), 1),
            });
        }
        self.rows = n;
        self.cols = cols;
        self.precision = precision;
        match precision {
            Precision::F32 => Err(MatrixError::UnsupportedPrecision {
                op: "quant.encode",
                precision: precision.name(),
            }),
            Precision::Bf16 => {
                self.narrow.clear();
                self.scales.clear();
                grow(&mut self.wide, n * cols, 0);
                for_each_row(n, rows, |r| {
                    let dst = &mut self.wide[r * cols..(r + 1) * cols];
                    for (d, &s) in dst.iter_mut().zip(src.row(r)) {
                        *d = f32_to_bf16(s);
                    }
                });
                Ok(())
            }
            Precision::F16 => {
                self.narrow.clear();
                self.scales.clear();
                grow(&mut self.wide, n * cols, 0);
                for_each_row(n, rows, |r| {
                    let dst = &mut self.wide[r * cols..(r + 1) * cols];
                    for (d, &s) in dst.iter_mut().zip(src.row(r)) {
                        *d = f32_to_f16(s);
                    }
                });
                Ok(())
            }
            Precision::Int8 => {
                self.wide.clear();
                grow(&mut self.narrow, n * cols, 0);
                grow(&mut self.scales, n, 1.0);
                for_each_row(n, rows, |r| {
                    let src_row = src.row(r);
                    let scale = calibrate_scale(src_row);
                    self.scales[r] = scale;
                    let dst_row = &mut self.narrow[r * cols..(r + 1) * cols];
                    quantize_i8_slice(src_row, 1.0 / scale, dst_row);
                });
                Ok(())
            }
        }
    }

    /// Dequantizes the whole payload back to `f32` (test / harness aid;
    /// the kernels never round-trip through this).
    pub fn decode(&self, out: &mut DenseMatrix) {
        out.resize_zeroed(self.rows, self.cols);
        match self.precision {
            Precision::Int8 => {
                for r in 0..self.rows {
                    let scale = self.scales[r];
                    let src = &self.narrow[r * self.cols..(r + 1) * self.cols];
                    for (d, &q) in out.row_mut(r).iter_mut().zip(src) {
                        *d = q as f32 * scale;
                    }
                }
            }
            Precision::F16 => {
                for (d, &w) in out.as_mut_slice().iter_mut().zip(&self.wide) {
                    *d = f16_to_f32(w);
                }
            }
            _ => {
                for (d, &w) in out.as_mut_slice().iter_mut().zip(&self.wide) {
                    *d = bf16_to_f32(w);
                }
            }
        }
    }
}

/// Lengthens `v` to `len` with `fill`; never shortens it.
fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

/// Calls `f` on each row id of `rows`: the listed ones, or `0..n` for
/// `None`.
fn for_each_row(n: usize, rows: Option<&[usize]>, f: impl FnMut(usize)) {
    match rows {
        None => (0..n).for_each(f),
        Some(ids) => ids.iter().copied().for_each(f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_round_trip_is_exact_for_representable_values() {
        for v in [0.0f32, -0.0, 1.0, -2.5, 0.15625, 3.0e38, -1.0e-30] {
            let b = f32_to_bf16(v);
            let back = bf16_to_f32(b);
            // Representable values (8-bit significand) survive exactly.
            if (v.to_bits() & 0xFFFF) == 0 {
                assert_eq!(back.to_bits(), v.to_bits(), "v={v}");
            }
            assert!((back - v).abs() <= v.abs() / 128.0, "v={v} back={back}");
        }
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1.0 + 2^-9 sits exactly between two bf16 values; ties go to the
        // even mantissa (1.0 here).
        let tie = f32::from_bits(0x3F80_8000);
        assert_eq!(bf16_to_f32(f32_to_bf16(tie)), 1.0);
        // One ULP above the tie rounds up.
        let above = f32::from_bits(0x3F80_8001);
        assert!(bf16_to_f32(f32_to_bf16(above)) > 1.0);
    }

    #[test]
    fn bf16_preserves_inf_and_quiets_nan() {
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(
            bf16_to_f32(f32_to_bf16(f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
    }

    #[test]
    fn f16_round_trip_matches_known_encodings() {
        // Spot-check against the IEEE binary16 table.
        for (v, h) in [
            (0.0f32, 0x0000u16),
            (1.0, 0x3C00),
            (-2.0, 0xC000),
            (65504.0, 0x7BFF),        // largest normal half
            (6.103_515_6e-5, 0x0400), // smallest normal half
            (5.960_464_5e-8, 0x0001), // smallest subnormal half
        ] {
            assert_eq!(f32_to_f16(v), h, "encode {v}");
            assert_eq!(f16_to_f32(h), v, "decode {h:#06x}");
        }
    }

    #[test]
    fn f16_saturates_overflow_and_flushes_tiny_to_zero() {
        assert_eq!(f16_to_f32(f32_to_f16(1.0e6)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(-1.0e6)), f32::NEG_INFINITY);
        // 65520 is the round-to-inf threshold; 65519.996 rounds down.
        assert_eq!(f16_to_f32(f32_to_f16(65520.0)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(65519.0)), 65504.0);
        // Below half the smallest subnormal → zero.
        assert_eq!(f16_to_f32(f32_to_f16(1.0e-9)), 0.0);
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
    }

    #[test]
    fn saturating_cast_handles_edges() {
        assert_eq!(saturating_cast_i8(f32::NAN), 0);
        assert_eq!(saturating_cast_i8(f32::INFINITY), 127);
        assert_eq!(saturating_cast_i8(f32::NEG_INFINITY), -127);
        assert_eq!(saturating_cast_i8(1.0e9), 127);
        assert_eq!(saturating_cast_i8(-1.0e9), -127);
        assert_eq!(saturating_cast_i8(0.5), 0); // ties to even
        assert_eq!(saturating_cast_i8(1.5), 2);
        assert_eq!(saturating_cast_i8(-0.5), 0);
        assert_eq!(saturating_cast_i8(2.4), 2);
    }

    #[test]
    fn calibrate_scale_ignores_non_finite_and_handles_zeros() {
        assert_eq!(calibrate_scale(&[0.0, 0.0]), 1.0);
        assert_eq!(calibrate_scale(&[]), 1.0);
        assert_eq!(calibrate_scale(&[f32::NAN, f32::INFINITY]), 1.0);
        let s = calibrate_scale(&[-254.0, 1.0, f32::NAN]);
        assert!((s - 2.0).abs() < 1e-6);
    }

    #[test]
    fn quant_matrix_round_trip_error_is_bounded() {
        let src = DenseMatrix::from_vec(
            3,
            4,
            vec![
                0.0, 1.0, -1.0, 0.5, 100.0, -50.0, 25.0, -12.5, 1e-3, -2e-3, 3e-3, 0.0,
            ],
        )
        .unwrap();
        let mut q = QuantMatrix::new();
        let mut back = DenseMatrix::default();
        for p in [Precision::Bf16, Precision::F16, Precision::Int8] {
            q.encode(&src, None, p).unwrap();
            assert_eq!(q.shape(), src.shape());
            q.decode(&mut back);
            for r in 0..src.rows() {
                let row_max = src.row(r).iter().fold(0.0f32, |m, v| m.max(v.abs()));
                for (a, b) in src.row(r).iter().zip(back.row(r)) {
                    let tol = match p {
                        // Relative per-element for the float formats …
                        Precision::Bf16 => a.abs() / 128.0 + 1e-9,
                        Precision::F16 => a.abs() / 1024.0 + 1e-9,
                        // … absolute half-step against the row max for int8.
                        _ => row_max / 127.0 * 0.5 + 1e-9,
                    };
                    assert!((a - b).abs() <= tol, "p={p} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn a_row_list_encodes_exactly_its_rows() {
        // Listed rows decode to the whole-matrix encode's bits; a list
        // that does not ascend inside `src` is rejected.
        let data = (0..5 * 3).map(|i| (i as f32 - 7.0) * 0.37).collect();
        let src = DenseMatrix::from_vec(5, 3, data).unwrap();
        let (mut q, mut whole, mut back) = (
            QuantMatrix::new(),
            DenseMatrix::default(),
            DenseMatrix::default(),
        );
        for p in [Precision::Bf16, Precision::F16, Precision::Int8] {
            q.encode(&src, None, p).unwrap();
            q.decode(&mut whole);
            q.encode(&src, Some(&[1, 4]), p).unwrap();
            q.decode(&mut back);
            assert_eq!(q.shape(), src.shape());
            for r in [1, 4] {
                assert_eq!(back.row(r), whole.row(r), "{p} row {r}");
            }
            for bad in [&[2usize, 5][..], &[4, 1], &[3, 3]] {
                assert!(matches!(
                    q.encode(&src, Some(bad), p),
                    Err(MatrixError::DimensionMismatch { .. })
                ));
            }
        }
    }

    #[test]
    fn encode_rejects_f32() {
        let src = DenseMatrix::zeros(2, 2);
        let mut q = QuantMatrix::new();
        assert!(matches!(
            q.encode(&src, None, Precision::F32),
            Err(MatrixError::UnsupportedPrecision { .. })
        ));
    }

    #[test]
    fn precision_parse_and_fallback_chain() {
        for p in Precision::all() {
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::parse("fp64"), None);
        assert_eq!(Precision::Int8.fallback(), Some(Precision::Bf16));
        assert_eq!(Precision::Bf16.fallback(), Some(Precision::F32));
        assert_eq!(Precision::F16.fallback(), Some(Precision::F32));
        assert_eq!(Precision::F32.fallback(), None);
    }
}
