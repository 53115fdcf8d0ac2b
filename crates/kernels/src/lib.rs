//! Executable SpMM kernels and the GCN layer that runs on them.
//!
//! Section II-C of the paper describes two parallelization strategies for
//! SpMM — *vertex-parallel* (rows of the output distributed across threads)
//! and *edge-parallel* (non-zeros distributed across threads, Algorithm 2) —
//! and Section V-A notes that on CPUs the vertex-parallel variant with
//! dynamic load balancing wins because atomics are expensive, while PIUMA's
//! cheap remote atomics favour edge-parallel. This crate implements both,
//! and the design-space kernels around them, so the trade-off can be
//! measured on real hardware. One enum, [`SpmmStrategy`], names them all:
//!
//! * `Sequential` — the single-threaded reference,
//! * `VertexParallel` — work-stealing row chunks, no atomics,
//! * `NnzBalanced` — contiguous row ranges of ~equal non-zeros, no atomics,
//! * `EdgeParallel` — equal edge shares, binary search for the starting
//!   row, atomic accumulation into shared output (Algorithm 2),
//! * `Hybrid` — degree-aware hub/tail split for power-law graphs,
//! * `Auto` — build a plan and run it.
//!
//! A strategy runs one multiplication ([`SpmmStrategy::run_into`]).
//! Anything that multiplies repeatedly against one adjacency holds a
//! [`plan::SpmmPlan`] instead — cached statistics, row partition,
//! micro-kernel dispatch, storage precision, and an execution path either
//! *resolved* by the workspace's one selection rule or *pinned* to an
//! explicit strategy. The plan is the only operand
//! [`fused::gcn_layer_planned_into`], the one GCN layer function,
//! aggregates on.
//!
//! All parallel kernels execute on the process-wide persistent thread pool
//! re-exported as [`pool`] (spawned once on first use, then reused — see
//! the pool crate's docs for the spawn-once contract). Every kernel writes
//! into a caller-owned [`matrix::DenseMatrix`] so steady-state inference
//! performs no output-sized allocations.
//!
//! Storage precision is an operand, not a function name: every arm but the
//! `f32`-only edge-parallel kernel (a narrow operand is a typed error
//! there) is written once over
//! [`spmm::FeatureOperand`] and monomorphised for `f32`
//! [`matrix::DenseMatrix`] rows and narrow-storage [`matrix::QuantMatrix`]
//! rows (bf16 / f16 / int8, decoded on the fly, accumulated in `f32`). A
//! plan carries its precision, and
//! [`plan::SpmmPlan::run_at_precision_into`] is the single place it picks
//! the operand.
//!
//! Every row-oriented kernel computes an output row with one call into the
//! SIMD micro-kernel layer ([`matrix::microkernel::KernelDispatch::fill_row`]
//! / `accumulate_row`): on AVX2+FMA the row stays in registers across its
//! non-zeros and is written once, bitwise equal to one widened AXPY per
//! non-zero — which is what the portable backends run. It is the same
//! runtime-dispatched backend that powers the packed dense GEMM, so both
//! pillars of a GCN layer share one SIMD path.
//!
//! # Examples
//!
//! ```
//! use sparse::{Coo, Csr};
//! use matrix::DenseMatrix;
//! use kernels::spmm::spmm_sequential;
//! use kernels::SpmmStrategy;
//!
//! let mut coo = Coo::new(2, 2);
//! coo.push(0, 1, 2.0);
//! let a = Csr::from_coo(&coo);
//! let h = DenseMatrix::from_rows(&[&[1.0, 1.0], &[3.0, 4.0]]).unwrap();
//! let seq = spmm_sequential(&a, &h).unwrap();
//! let par = SpmmStrategy::VertexParallel { threads: 4 }.run(&a, &h).unwrap();
//! assert_eq!(seq, par);
//! assert_eq!(seq.row(0), &[6.0, 8.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The SpMM algorithm enum, its dispatch and its degradation rungs ([`SpmmStrategy`]).
pub mod engine;
/// The GCN layer: aggregate + transform + activation on a plan.
pub mod fused;
/// Row-split hybrid SpMM (dense rows dense-accumulated, sparse rows gathered).
pub mod hybrid;
/// Execution plans ([`SpmmPlan`]), resolved or pinned: built once, run many times.
pub mod plan;
/// Baseline sequential and parallel CSR SpMM kernels.
pub mod spmm;

pub use engine::SpmmStrategy;
pub use plan::SpmmPlan;
pub use pool;
