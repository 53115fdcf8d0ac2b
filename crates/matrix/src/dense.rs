//! The [`DenseMatrix`] type: a row-major `f32` matrix.

use crate::activation::Activation;
use crate::error::MatrixError;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32` values.
///
/// Rows are stored contiguously, which matches the access pattern of SpMM
/// (which streams whole feature rows) and GEMM (which walks rows of the
/// left operand).
///
/// # Examples
///
/// ```
/// use matrix::DenseMatrix;
///
/// let mut m = DenseMatrix::zeros(2, 3);
/// m[(0, 1)] = 5.0;
/// assert_eq!(m.row(0), &[0.0, 5.0, 0.0]);
/// assert_eq!(m.shape(), (2, 3));
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            // lint:allow(L009): constructor, not steady-state — hot
            // callers reach this only on setup/planning paths; per-layer
            // reuse goes through resize_for_overwrite on retained buffers.
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major backing vector.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::BufferSize`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::BufferSize {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::RaggedRows`] if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self> {
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(MatrixError::RaggedRows {
                    expected: ncols,
                    row: i,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(DenseMatrix {
            rows: rows.len(),
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrows the row-major backing slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Multiplies `self * rhs` on one thread of the packed register-tiled
    /// GEMM engine ([`crate::microkernel::matmul_packed_with`]) — the
    /// allocating convenience tests use.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if
    /// `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        let mut c = DenseMatrix::default();
        let kd = crate::microkernel::KernelDispatch::get();
        crate::microkernel::matmul_packed_with(kd, self, rhs, 1, &mut c)?;
        Ok(c)
    }

    /// Applies an activation function element-wise, in place.
    pub fn apply_activation(&mut self, act: Activation) {
        act.apply_in_place(&mut self.data);
    }

    /// Adds `bias[j]` to every element of column `j`, in place.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if
    /// `bias.len() != self.cols()`.
    pub fn add_row_bias(&mut self, bias: &[f32]) -> Result<()> {
        if bias.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "add_row_bias",
                lhs: (self.rows, self.cols),
                rhs: (1, bias.len()),
            });
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (x, b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
        Ok(())
    }

    /// Scales every element by `factor`, in place.
    pub fn scale(&mut self, factor: f32) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Reshapes to `(rows, cols)` and fills with zeros, reusing the
    /// existing backing allocation whenever its capacity suffices.
    ///
    /// This is the buffer-recycling primitive behind the `*_into` kernel
    /// variants: in steady state (same shapes every call) it never touches
    /// the allocator.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(len, 0.0);
    }

    /// Reshapes to `(rows, cols)` like [`DenseMatrix::resize_zeroed`] but
    /// leaves any existing element values in place (stale).
    ///
    /// For callers that overwrite every element before reading the result:
    /// a same-shape call in steady state writes nothing at all, skipping the
    /// full-buffer memset `resize_zeroed` would redo on every invocation.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        self.rows = rows;
        self.cols = cols;
        self.data.resize(len, 0.0);
    }

    /// Makes `self` an element-wise copy of `other`, reusing the existing
    /// backing allocation whenever its capacity suffices.
    pub fn copy_from(&mut self, other: &DenseMatrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Largest absolute element-wise difference against `other`.
    ///
    /// Returns `f32::INFINITY` when the shapes differ, so that a shape
    /// mismatch can never masquerade as numerical agreement.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f32 {
        if self.shape() != other.shape() {
            return f32::INFINITY;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Frobenius norm (`sqrt(sum of squares)`).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True when every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Typed-error variant of [`all_finite`](Self::all_finite): `Ok(())`
    /// when every element is finite, otherwise
    /// [`MatrixError::NonFinite`] locating the first offending element.
    /// `what` names the operand in the error (e.g. `"features"`).
    pub fn validate_finite(&self, what: &'static str) -> Result<()> {
        match self.data.iter().position(|x| !x.is_finite()) {
            None => Ok(()),
            Some(flat) => Err(MatrixError::NonFinite {
                what,
                row: flat.checked_div(self.cols).unwrap_or(0),
                col: flat.checked_rem(self.cols).unwrap_or(0),
            }),
        }
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f32;

    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        const MAX_SHOWN: usize = 8;
        for i in 0..self.rows.min(MAX_SHOWN) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(MAX_SHOWN) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            if self.cols > MAX_SHOWN {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > MAX_SHOWN {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Default for DenseMatrix {
    fn default() -> Self {
        DenseMatrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_contents() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_multiplication_is_neutral() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let id = DenseMatrix::identity(3);
        assert_eq!(a.matmul(&id).unwrap(), a);
    }

    #[test]
    fn from_vec_rejects_bad_buffer() {
        let err = DenseMatrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            MatrixError::BufferSize {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, MatrixError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn transpose_round_trips() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn row_accessors_agree_with_indexing() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m[(1, 0)], 7.0);
        assert_eq!(m.row(1), &[7.0, 0.0]);
    }

    #[test]
    fn add_row_bias_applies_per_column() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.add_row_bias(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn add_row_bias_rejects_wrong_length() {
        let mut m = DenseMatrix::zeros(2, 3);
        assert!(m.add_row_bias(&[1.0]).is_err());
    }

    #[test]
    fn max_abs_diff_detects_shape_mismatch() {
        let a = DenseMatrix::zeros(2, 2);
        let b = DenseMatrix::zeros(2, 3);
        assert_eq!(a.max_abs_diff(&b), f32::INFINITY);
    }

    #[test]
    fn max_abs_diff_finds_largest_gap() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[1.5, 0.0]]).unwrap();
        assert_eq!(a.max_abs_diff(&b), 2.0);
    }

    #[test]
    fn frobenius_norm_matches_hand_computation() {
        let a = DenseMatrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn iter_rows_yields_every_row() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let rows: Vec<&[f32]> = a.iter_rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn debug_output_is_nonempty_and_truncated() {
        let big = DenseMatrix::zeros(20, 20);
        let dbg = format!("{:?}", big);
        assert!(dbg.contains("DenseMatrix 20x20"));
        assert!(dbg.contains("..."));
    }

    #[test]
    fn scale_multiplies_all_elements() {
        let mut a = DenseMatrix::filled(2, 2, 2.0);
        a.scale(0.5);
        assert!(a.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn resize_zeroed_reuses_capacity_and_clears_stale_values() {
        let mut m = DenseMatrix::filled(4, 8, 3.5);
        let ptr = m.as_slice().as_ptr();
        m.resize_zeroed(8, 4);
        assert_eq!(m.shape(), (8, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(
            m.as_slice().as_ptr(),
            ptr,
            "same-size reshape must not reallocate"
        );
        m.resize_zeroed(2, 3);
        assert_eq!(m.len(), 6);
        assert_eq!(m.as_slice().as_ptr(), ptr, "shrinking must not reallocate");
    }

    #[test]
    fn copy_from_matches_clone_without_reallocating_at_capacity() {
        let src = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let mut dst = DenseMatrix::filled(3, 3, 9.0);
        let ptr = dst.as_slice().as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = DenseMatrix::zeros(1, 2);
        assert!(a.all_finite());
        a[(0, 1)] = f32::NAN;
        assert!(!a.all_finite());
    }
}
