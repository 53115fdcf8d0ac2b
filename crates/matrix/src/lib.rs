//! Dense row-major matrices and the kernels that operate on them.
//!
//! This crate is the "update phase" substrate of the GCN reproduction: a GCN
//! layer computes `H' = sigma(A_hat * H * W)` and everything after the sparse
//! aggregation — the dense multiply by `W`, the bias add and the activation —
//! lives here.
//!
//! The centerpiece is [`DenseMatrix`], a row-major `f32` matrix, together
//! with two GEMMs:
//!
//! * [`gemm::matmul_naive`] — triple loop, the correctness reference,
//! * [`microkernel::matmul_packed_with`] — panel-packed, register-tiled,
//!   row-partitioned across pool threads, with runtime SIMD dispatch;
//!   [`DenseMatrix::matmul`] is its one-thread allocating convenience.
//!   There is one GEMM and it is `f32`: the update is compute-bound, so
//!   storage precision ([`Precision`]) narrows only the bandwidth-bound
//!   SpMM feature operand ([`QuantMatrix`]), never the GEMM's panels.
//!
//! # Examples
//!
//! ```
//! use matrix::DenseMatrix;
//!
//! let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
//! let b = DenseMatrix::identity(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c, a);
//! ```

// `unsafe` is denied crate-wide; only `microkernel` opts back in for its
// runtime-dispatched `std::arch` SIMD paths, each with a SAFETY argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

/// Elementwise activations (ReLU, softmax, …).
pub mod activation;
/// Row-major [`DenseMatrix`] storage.
pub mod dense;
/// Shape-mismatch and dimension errors.
pub mod error;
/// Sequential and pool-parallel dense GEMM.
pub mod gemm;
/// Weight initialization schemes (Xavier/Glorot, …).
pub mod init;
/// Register-tiled SIMD micro-kernels (packed GEMM, widened AXPY) with
/// runtime backend dispatch.
pub mod microkernel;
/// Narrow-precision storage (bf16 / f16 / int8): round-to-nearest-even
/// conversions, saturating casts, scale calibration, and the
/// [`quant::QuantMatrix`] payload container the SpMM row kernel reads.
pub mod quant;

pub use activation::Activation;
pub use dense::DenseMatrix;
pub use error::MatrixError;
pub use init::WeightInit;
pub use quant::{Precision, QuantMatrix};

/// Convenience result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, MatrixError>;
