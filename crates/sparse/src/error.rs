//! Error types for sparse-matrix operations.

use std::error::Error;
use std::fmt;

/// Error produced by sparse-matrix construction, normalization and permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A coordinate was outside the declared matrix shape.
    IndexOutOfBounds {
        /// The offending row index.
        row: usize,
        /// The offending column index.
        col: usize,
        /// Matrix shape as `(rows, cols)`.
        shape: (usize, usize),
    },
    /// Raw CSR arrays failed an invariant check.
    InvalidCsr {
        /// Which invariant was violated.
        reason: String,
    },
    /// Normalization requires a square adjacency matrix.
    NotSquare {
        /// The actual shape.
        shape: (usize, usize),
    },
    /// A vertex permutation was not a bijection or had the wrong length.
    InvalidPermutation {
        /// Which requirement was violated.
        reason: String,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { row, col, shape } => write!(
                f,
                "index ({row}, {col}) out of bounds for {}x{} matrix",
                shape.0, shape.1
            ),
            SparseError::InvalidCsr { reason } => write!(f, "invalid CSR structure: {reason}"),
            SparseError::NotSquare { shape } => {
                write!(
                    f,
                    "operation requires a square matrix, got {}x{}",
                    shape.0, shape.1
                )
            }
            SparseError::InvalidPermutation { reason } => {
                write!(f, "invalid permutation: {reason}")
            }
        }
    }
}

impl Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_coordinates() {
        let e = SparseError::IndexOutOfBounds {
            row: 9,
            col: 4,
            shape: (3, 3),
        };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('4') && s.contains("3x3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseError>();
    }
}
