//! The SpMM algorithm enum: which kernel runs, on how many threads.
//!
//! [`SpmmStrategy`] names every SpMM algorithm in the crate. An explicit
//! variant runs that kernel; [`SpmmStrategy::Auto`] is not a second
//! heuristic but "build a [`SpmmPlan`] for these operands and run it", so
//! the plan's rule ([`crate::plan`] module docs) is the only selection rule
//! in the workspace. Repeated SpMM against one adjacency — a GCN layer
//! stack — holds a plan instead, resolved or pinned to one of these
//! variants.
//!
//! [`SpmmStrategy::EdgeParallel`] is never auto-selected: its per-element
//! atomic adds only pay off on hardware with cheap remote atomics (PIUMA),
//! not on the CPUs this crate targets. It remains available as an explicit
//! choice for measuring exactly that gap — Section II-C's comparison.

use matrix::microkernel::KernelDispatch;
use matrix::{DenseMatrix, MatrixError};
use sparse::Csr;

use crate::plan::{
    nnz_balanced_partition, spmm_nnz_balanced_with, SpmmPlan, PLAN_SLOTS_PER_THREAD,
};
use crate::spmm::FeatureOperand;

/// Which SpMM algorithm to run, and with how many threads.
///
/// # Examples
///
/// ```
/// use kernels::SpmmStrategy;
/// use sparse::{Coo, Csr};
/// use matrix::DenseMatrix;
///
/// let mut coo = Coo::new(2, 2);
/// coo.push(0, 1, 1.0);
/// let a = Csr::from_coo(&coo);
/// let h = DenseMatrix::identity(2);
/// let out = SpmmStrategy::Sequential.run(&a, &h).unwrap();
/// assert_eq!(out.row(0), &[0.0, 1.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpmmStrategy {
    /// Single-threaded reference (Algorithm 1).
    Sequential,
    /// Vertex-parallel with dynamic load balancing across `threads` workers.
    VertexParallel {
        /// Number of worker threads.
        threads: usize,
    },
    /// Vertex-parallel over contiguous row ranges of ~equal non-zeros —
    /// the plan's cached partition, or one built on the spot when run
    /// plan-less.
    NnzBalanced {
        /// Number of worker threads.
        threads: usize,
    },
    /// Edge-parallel (Algorithm 2) across `threads` workers.
    EdgeParallel {
        /// Number of worker threads.
        threads: usize,
    },
    /// Degree-aware hybrid: hub rows edge-split across workers, tail rows
    /// processed as atomics-free vertex chunks.
    Hybrid {
        /// Number of worker threads.
        threads: usize,
    },
    /// Build a [`SpmmPlan`] for the operands and run it (see module docs).
    Auto,
}

impl SpmmStrategy {
    /// Runs the selected algorithm: `out = a * h`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying kernel's shape/thread-count errors.
    pub fn run(self, a: &Csr, h: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        let mut out = DenseMatrix::default();
        self.run_into(a, h, &mut out)?;
        Ok(out)
    }

    /// Runs the selected algorithm over any [`FeatureOperand`] into a
    /// caller-owned output matrix (no output-sized allocation at capacity).
    ///
    /// # Errors
    ///
    /// Propagates the underlying kernel's shape/thread-count errors;
    /// [`MatrixError::UnsupportedPrecision`] for a narrow operand on the
    /// `f32`-only edge-parallel kernel.
    // lint:allow(L004): pure dispatch — every kernel this match arms into
    // performs its own dimension check before touching data.
    pub fn run_into<F: FeatureOperand>(
        self,
        a: &Csr,
        h: &F,
        out: &mut DenseMatrix,
    ) -> Result<(), MatrixError> {
        match self {
            SpmmStrategy::Sequential => crate::spmm::spmm_sequential_into(a, h, out),
            SpmmStrategy::VertexParallel { threads } => {
                crate::spmm::spmm_vertex_parallel_into(a, h, threads, out)
            }
            SpmmStrategy::NnzBalanced { threads } => {
                let slots = threads.max(1) * PLAN_SLOTS_PER_THREAD;
                let partition = nnz_balanced_partition(a.row_ptr(), slots);
                spmm_nnz_balanced_with(KernelDispatch::get(), a, h, &partition, threads, out)
            }
            SpmmStrategy::EdgeParallel { threads } => {
                let h = h.f32_rows("spmm_edge_parallel")?;
                crate::spmm::spmm_edge_parallel_into(a, h, threads, out)
            }
            SpmmStrategy::Hybrid { threads } => crate::hybrid::spmm_hybrid_into(a, h, threads, out),
            SpmmStrategy::Auto => SpmmPlan::new(a, h.shape().1).run_into(a, h, out),
        }
    }

    /// The next-simpler rung of the degradation ladder, the mirror of
    /// [`matrix::Precision::fallback`]: the two kernels that share output
    /// rows between workers fall to `VertexParallel` at the same width,
    /// everything else to `Sequential` — no pool, no atomics, no
    /// scratch arena, so a single surviving thread can always run it — and
    /// `Sequential` is the last rung.
    pub fn fallback(self) -> Option<SpmmStrategy> {
        match self {
            SpmmStrategy::Hybrid { threads } | SpmmStrategy::EdgeParallel { threads } => {
                Some(SpmmStrategy::VertexParallel { threads })
            }
            SpmmStrategy::VertexParallel { .. }
            | SpmmStrategy::NnzBalanced { .. }
            | SpmmStrategy::Auto => Some(SpmmStrategy::Sequential),
            SpmmStrategy::Sequential => None,
        }
    }

    /// Thread count this strategy will use (`Auto` reports the pool width
    /// its plan is built for).
    pub fn threads(self) -> usize {
        match self {
            SpmmStrategy::Sequential => 1,
            SpmmStrategy::VertexParallel { threads }
            | SpmmStrategy::NnzBalanced { threads }
            | SpmmStrategy::EdgeParallel { threads }
            | SpmmStrategy::Hybrid { threads } => threads,
            SpmmStrategy::Auto => pool::global().width(),
        }
    }
}

impl std::fmt::Display for SpmmStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpmmStrategy::Sequential => write!(f, "sequential"),
            SpmmStrategy::VertexParallel { threads } => write!(f, "vertex-parallel x{threads}"),
            SpmmStrategy::NnzBalanced { threads } => write!(f, "nnz-balanced x{threads}"),
            SpmmStrategy::EdgeParallel { threads } => write!(f, "edge-parallel x{threads}"),
            SpmmStrategy::Hybrid { threads } => write!(f, "hybrid x{threads}"),
            SpmmStrategy::Auto => write!(f, "auto"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparse::Coo;

    #[test]
    fn all_strategies_agree() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 2.0);
        coo.push(2, 0, 3.0);
        let a = Csr::from_coo(&coo);
        let h = DenseMatrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let expected = SpmmStrategy::Sequential.run(&a, &h).unwrap();
        for strategy in [
            SpmmStrategy::VertexParallel { threads: 3 },
            SpmmStrategy::NnzBalanced { threads: 3 },
            SpmmStrategy::EdgeParallel { threads: 3 },
            SpmmStrategy::Hybrid { threads: 3 },
            SpmmStrategy::Auto,
        ] {
            assert_eq!(strategy.run(&a, &h).unwrap(), expected, "{strategy}");
        }
    }

    #[test]
    fn display_includes_thread_count() {
        assert_eq!(
            SpmmStrategy::EdgeParallel { threads: 8 }.to_string(),
            "edge-parallel x8"
        );
        assert_eq!(SpmmStrategy::Hybrid { threads: 2 }.to_string(), "hybrid x2");
        assert_eq!(
            SpmmStrategy::NnzBalanced { threads: 2 }.to_string(),
            "nnz-balanced x2"
        );
        assert_eq!(SpmmStrategy::Auto.to_string(), "auto");
    }

    #[test]
    fn run_into_reuses_buffers_across_strategies() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 96;
        let mut coo = Coo::new(n, n);
        for _ in 0..n * 6 {
            coo.push(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-1.0..1.0),
            );
        }
        let a = Csr::from_coo(&coo);
        let data = (0..n * 11).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let h = DenseMatrix::from_vec(n, 11, data).unwrap();
        let expected = SpmmStrategy::Sequential.run(&a, &h).unwrap();
        let mut buf = DenseMatrix::filled(n * 2, 13, f32::NAN);
        for strategy in [
            SpmmStrategy::VertexParallel { threads: 4 },
            SpmmStrategy::NnzBalanced { threads: 4 },
            SpmmStrategy::EdgeParallel { threads: 4 },
            SpmmStrategy::Hybrid { threads: 4 },
            SpmmStrategy::Auto,
        ] {
            strategy.run_into(&a, &h, &mut buf).unwrap();
            assert!(
                expected.max_abs_diff(&buf) < 1e-4,
                "{strategy} left stale or wrong values"
            );
        }
    }
}
