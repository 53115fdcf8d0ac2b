//! Coordinate (triplet) sparse format — the builder format.

use crate::error::SparseError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A sparse matrix in coordinate (COO) form: a bag of `(row, col, value)`
/// triplets. COO is the natural output of graph generators and edge-list
/// readers; convert to [`crate::Csr`] before running kernels.
///
/// Duplicate coordinates are allowed and are *summed* during CSR conversion,
/// matching the multi-edge semantics of RMAT generators.
///
/// # Examples
///
/// ```
/// use sparse::Coo;
///
/// let mut coo = Coo::new(4, 4);
/// coo.push(0, 1, 1.0);
/// coo.push(3, 2, -2.0);
/// assert_eq!(coo.nnz(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    values: Vec<f32>,
}

impl Coo {
    /// Creates an empty COO matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty COO matrix with capacity for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Coo {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Appends a triplet without bounds checking beyond a debug assertion.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinate is out of bounds; use
    /// [`Coo::try_push`] for checked insertion.
    pub fn push(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.rows.push(row);
        self.cols.push(col);
        self.values.push(value);
    }

    /// Appends a triplet, validating the coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] for coordinates outside the
    /// declared shape.
    pub fn try_push(&mut self, row: usize, col: usize, value: f32) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                shape: (self.nrows, self.ncols),
            });
        }
        self.push(row, col, value);
        Ok(())
    }

    /// Number of stored triplets (including duplicates).
    pub fn nnz(&self) -> usize {
        self.values.len()
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

    /// Iterates over stored triplets as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Borrowed views of the three triplet arrays `(rows, cols, values)`.
    pub fn arrays(&self) -> (&[usize], &[usize], &[f32]) {
        (&self.rows, &self.cols, &self.values)
    }
}

impl Extend<(usize, usize, f32)> for Coo {
    fn extend<I: IntoIterator<Item = (usize, usize, f32)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let coo = Coo::new(5, 5);
        assert_eq!(coo.nnz(), 0);
        assert_eq!(coo.shape(), (5, 5));
    }

    #[test]
    fn try_push_rejects_out_of_bounds() {
        let mut coo = Coo::new(2, 2);
        assert!(coo.try_push(2, 0, 1.0).is_err());
        assert!(coo.try_push(0, 2, 1.0).is_err());
        assert!(coo.try_push(1, 1, 1.0).is_ok());
        assert_eq!(coo.nnz(), 1);
    }

    #[test]
    fn iter_round_trips_triplets() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(2, 2, 3.0);
        let triplets: Vec<_> = coo.iter().collect();
        assert_eq!(triplets, vec![(0, 1, 1.0), (2, 2, 3.0)]);
    }

    #[test]
    fn extend_appends_triplets() {
        let mut coo = Coo::new(4, 4);
        coo.extend(vec![(0, 0, 1.0), (1, 2, 2.0)]);
        assert_eq!(coo.nnz(), 2);
    }
}
