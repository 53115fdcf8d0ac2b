//! Sparse matrix formats and graph-adjacency utilities.
//!
//! The aggregation phase of a GCN multiplies a sparse normalized adjacency
//! matrix by a dense feature matrix (SpMM). This crate provides the sparse
//! side of that story:
//!
//! * [`Coo`] — an edge-list / triplet builder format,
//! * [`Csr`] — compressed sparse row, the execution format used by every
//!   SpMM kernel in this workspace (and the format whose byte traffic the
//!   paper's analytical model, Eq. 1, is written for),
//! * [`norm`] — the symmetric GCN normalization
//!   `A_hat = D^-1/2 (A + I) D^-1/2` from Kipf & Welling,
//! * [`permute`] — validated vertex permutations and CSR relabeling, the
//!   substrate for locality-aware graph reordering,
//! * [`stats`] — degree/density statistics used by the characterization.
//!
//! # Examples
//!
//! ```
//! use sparse::{Coo, Csr};
//!
//! let mut coo = Coo::new(3, 3);
//! coo.push(0, 1, 1.0);
//! coo.push(1, 2, 2.0);
//! coo.push(0, 1, 0.5); // duplicate entries are summed on conversion
//! let csr = Csr::from_coo(&coo);
//! assert_eq!(csr.nnz(), 2);
//! assert_eq!(csr.get(0, 1), Some(1.5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Coordinate-format triples, the construction format.
pub mod coo;
/// Compressed sparse row storage, the kernel-facing format.
pub mod csr;
/// Sparse-format validation errors.
pub mod error;
/// Symmetric degree normalization (D^-1/2 (A+I) D^-1/2).
pub mod norm;
/// Row/column permutation of sparse matrices.
pub mod permute;
/// NNZ/row statistics and imbalance metrics.
pub mod stats;

pub use coo::Coo;
pub use csr::Csr;
pub use error::SparseError;
pub use permute::Permutation;
pub use stats::DegreeStats;

/// Convenience result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, SparseError>;
