//! Compressed Sparse Row format — the execution format for SpMM.

use crate::coo::Coo;
use crate::error::SparseError;
use crate::Result;
use matrix::DenseMatrix;
use serde::{Deserialize, Serialize};

/// A sparse matrix in Compressed Sparse Row (CSR) form.
///
/// CSR stores three arrays (the same three the paper's analytical traffic
/// model, Eq. 1, accounts for):
///
/// * `row_ptr` — `nrows + 1` offsets; row `i` occupies
///   `col_idx[row_ptr[i]..row_ptr[i+1]]`,
/// * `col_idx` — column index of each non-zero, sorted within each row,
/// * `values` — the non-zero values.
///
/// # Examples
///
/// ```
/// use sparse::{Coo, Csr};
///
/// let mut coo = Coo::new(2, 3);
/// coo.push(0, 2, 1.0);
/// coo.push(1, 0, 2.0);
/// let csr = Csr::from_coo(&coo);
/// assert_eq!(csr.row_cols(0), &[2]);
/// assert_eq!(csr.row_values(1), &[2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

/// Shared structural-invariant check behind [`Csr::from_raw`] and
/// [`Csr::validate`].
fn check_invariants(
    nrows: usize,
    ncols: usize,
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f32],
) -> Result<()> {
    let invalid = |reason: String| Err(SparseError::InvalidCsr { reason });
    if row_ptr.len() != nrows + 1 {
        return invalid(format!(
            "row_ptr length {} != nrows + 1 = {}",
            row_ptr.len(),
            nrows + 1
        ));
    }
    if row_ptr.first() != Some(&0) {
        return invalid("row_ptr must start at 0".to_string());
    }
    if *row_ptr.last().expect("non-empty row_ptr") != col_idx.len() {
        return invalid(format!(
            "row_ptr must end at nnz = {}, ends at {}",
            col_idx.len(),
            row_ptr.last().expect("non-empty row_ptr")
        ));
    }
    if col_idx.len() != values.len() {
        return invalid(format!(
            "col_idx length {} != values length {}",
            col_idx.len(),
            values.len()
        ));
    }
    for w in row_ptr.windows(2) {
        if w[0] > w[1] {
            return invalid("row_ptr must be non-decreasing".to_string());
        }
    }
    for r in 0..nrows {
        let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
        for pair in row.windows(2) {
            if pair[0] >= pair[1] {
                return invalid(format!("columns in row {r} not strictly increasing"));
            }
        }
        if let Some(&last) = row.last() {
            if last as usize >= ncols {
                return invalid(format!("column {last} out of range in row {r}"));
            }
        }
    }
    Ok(())
}

impl Csr {
    /// Creates an empty (all-zero) CSR matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `ncols` exceeds `u32::MAX` (column indices are stored as
    /// `u32`, which covers every graph in the paper's Table I).
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        assert!(ncols <= u32::MAX as usize, "ncols exceeds u32 index range");
        Csr {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSR matrix from COO triplets, summing duplicates.
    ///
    /// Runs in `O(nnz + nrows)` via counting sort on rows followed by an
    /// in-row sort and merge of duplicate columns.
    ///
    /// # Panics
    ///
    /// Panics if `coo.ncols()` exceeds `u32::MAX`.
    pub fn from_coo(coo: &Coo) -> Self {
        assert!(
            coo.ncols() <= u32::MAX as usize,
            "ncols exceeds u32 index range"
        );
        let (rows, cols, vals) = coo.arrays();
        let nrows = coo.nrows();

        // Counting sort by row.
        let mut counts = vec![0usize; nrows + 1];
        for &r in rows {
            counts[r + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let mut order: Vec<usize> = vec![0; rows.len()];
        {
            let mut next = counts.clone();
            for (idx, &r) in rows.iter().enumerate() {
                order[next[r]] = idx;
                next[r] += 1;
            }
        }

        // Per row: sort by column, merge duplicates.
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx: Vec<u32> = Vec::with_capacity(rows.len());
        let mut values: Vec<f32> = Vec::with_capacity(rows.len());
        row_ptr.push(0);
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for r in 0..nrows {
            scratch.clear();
            for &idx in &order[counts[r]..counts[r + 1]] {
                scratch.push((cols[idx] as u32, vals[idx]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let (c, mut v) = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                col_idx.push(c);
                values.push(v);
                i = j;
            }
            row_ptr.push(col_idx.len());
        }

        Csr {
            nrows,
            ncols: coo.ncols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a CSR matrix from raw arrays, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidCsr`] if `row_ptr` is not monotone,
    /// does not start at 0 / end at `col_idx.len()`, if the index and value
    /// arrays disagree in length, if a column index is out of range, or if
    /// columns within a row are not strictly increasing.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        check_invariants(nrows, ncols, &row_ptr, &col_idx, &values)?;
        Ok(Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Re-checks every structural invariant of this matrix, plus a sweep
    /// for non-finite stored values. Construction through the safe entry
    /// points keeps the structure valid, so this is a boundary check for
    /// matrices arriving from deserialization or untrusted loaders.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidCsr`] naming the violated invariant
    /// (the same conditions as [`Csr::from_raw`], or a NaN/Inf value).
    pub fn validate(&self) -> Result<()> {
        check_invariants(
            self.nrows,
            self.ncols,
            &self.row_ptr,
            &self.col_idx,
            &self.values,
        )?;
        if let Some(i) = self.values.iter().position(|v| !v.is_finite()) {
            return Err(SparseError::InvalidCsr {
                reason: format!("non-finite value at non-zero index {i}"),
            });
        }
        Ok(())
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are non-zero (`nnz / (nrows * ncols)`).
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// The row-pointer array (`nrows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (one entry per non-zero).
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The non-zero value array.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Column indices of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nrows()`.
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nrows()`.
    pub fn row_values(&self, i: usize) -> &[f32] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Number of non-zeros in row `i` (the out-degree for adjacency use).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nrows()`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Looks up entry `(row, col)` by binary search within the row.
    /// Returns `None` for structural zeros or out-of-range coordinates.
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        if row >= self.nrows || col >= self.ncols {
            return None;
        }
        let cols = self.row_cols(row);
        cols.binary_search(&(col as u32))
            .ok()
            .map(|k| self.values[self.row_ptr[row] + k])
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            self.row_cols(r)
                .iter()
                .zip(self.row_values(r))
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Returns the transpose (equivalently: reinterprets the matrix as CSC).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut next = counts;
        for r in 0..self.nrows {
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                let dst = next[c as usize];
                col_idx[dst] = r as u32;
                values[dst] = v;
                next[c as usize] += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Materializes the matrix as dense. Intended for tests on small inputs.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            m[(r, c)] += v;
        }
        m
    }

    /// Total bytes of the three CSR arrays as laid out by this
    /// implementation (`usize` row pointers, `u32` columns, `f32` values).
    pub fn storage_bytes(&self) -> usize {
        self.row_ptr.len() * size_of::<usize>()
            + self.col_idx.len() * size_of::<u32>()
            + self.values.len() * size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [ 0 1 0 ]
        // [ 2 0 3 ]
        // [ 0 0 0 ]
        let mut coo = Coo::new(3, 3);
        coo.push(1, 2, 3.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 2.0);
        Csr::from_coo(&coo)
    }

    #[test]
    fn from_coo_sorts_rows_and_columns() {
        let csr = sample();
        assert_eq!(csr.row_ptr(), &[0, 1, 3, 3]);
        assert_eq!(csr.row_cols(1), &[0, 2]);
        assert_eq!(csr.row_values(1), &[2.0, 3.0]);
        csr.validate().unwrap();
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.5);
        coo.push(1, 1, -1.0);
        let csr = Csr::from_coo(&coo);
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 0), Some(3.5));
    }

    #[test]
    fn get_returns_none_for_structural_zero() {
        let csr = sample();
        assert_eq!(csr.get(0, 0), None);
        assert_eq!(csr.get(2, 2), None);
        assert_eq!(csr.get(5, 5), None);
        assert_eq!(csr.get(0, 1), Some(1.0));
    }

    #[test]
    fn transpose_flips_coordinates() {
        let csr = sample();
        let t = csr.transpose();
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(t.get(1, 0), Some(1.0));
        assert_eq!(t.get(0, 1), Some(2.0));
        assert_eq!(t.get(2, 1), Some(3.0));
        t.validate().unwrap();
    }

    #[test]
    fn transpose_twice_is_identity() {
        let csr = sample();
        assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn to_dense_matches_triplets() {
        let csr = sample();
        let d = csr.to_dense();
        assert_eq!(d[(0, 1)], 1.0);
        assert_eq!(d[(1, 0)], 2.0);
        assert_eq!(d[(1, 2)], 3.0);
        assert_eq!(d[(2, 2)], 0.0);
    }

    #[test]
    fn density_is_nnz_over_size() {
        let csr = sample();
        assert!((csr.density() - 3.0 / 9.0).abs() < 1e-12);
        assert_eq!(Csr::empty(0, 0).density(), 0.0);
    }

    #[test]
    fn from_raw_rejects_bad_row_ptr() {
        assert!(Csr::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(Csr::from_raw(2, 2, vec![1, 1, 1], vec![0], vec![1.0]).is_err());
        assert!(Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn from_raw_rejects_unsorted_or_out_of_range_columns() {
        // duplicate column in one row
        assert!(Csr::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
        // decreasing columns
        assert!(Csr::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        // column out of range
        assert!(Csr::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
    }

    #[test]
    fn from_raw_accepts_valid_input() {
        let csr = Csr::from_raw(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(1, 1), Some(3.0));
    }

    #[test]
    fn empty_matrix_behaves() {
        let csr = Csr::empty(4, 4);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.row_nnz(3), 0);
        csr.validate().unwrap();
    }

    #[test]
    fn storage_bytes_counts_all_arrays() {
        let csr = sample();
        let expected = 4 * 8 + 3 * 4 + 3 * 4;
        assert_eq!(csr.storage_bytes(), expected);
    }

    #[test]
    fn iter_visits_row_major() {
        let csr = sample();
        let triplets: Vec<_> = csr.iter().collect();
        assert_eq!(triplets, vec![(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0)]);
    }
}
