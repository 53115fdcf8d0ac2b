//! Strategy selection for SpMM execution.
//!
//! # Automatic selection
//!
//! [`SpmmStrategy::Auto`] inspects the operands at run time and picks a
//! fixed strategy via [`SpmmStrategy::select`]:
//!
//! 1. Tiny problems (`nnz * K` below a crossover) or a single-slot pool →
//!    [`SpmmStrategy::Sequential`] — fan-out overhead would dominate.
//! 2. Skewed degree distributions (coefficient of variation above
//!    [`AUTO_SKEW_CV`]) → [`SpmmStrategy::Hybrid`] — hub rows are
//!    edge-split, the tail stays atomics-free.
//! 3. Otherwise → [`SpmmStrategy::VertexParallel`], the paper's CPU
//!    winner (Section V-A), at every embedding width: the row kernel keeps
//!    the output row in registers, so splitting columns across workers
//!    only re-reads the CSR arrays and adds a scratch grid.
//!
//! [`SpmmStrategy::EdgeParallel`] is never auto-selected: its per-element
//! atomic adds only pay off on hardware with cheap remote atomics (PIUMA),
//! not on the CPUs this crate targets. It remains available as an explicit
//! choice for measuring exactly that gap, as do
//! [`SpmmStrategy::FeatureParallel`] and [`SpmmStrategy::FeatureTiled`] for
//! the paper's design-space examples.
//!
//! Whichever strategy is selected, the inner feature accumulation — and,
//! in a planned layer, the dense `H * W` transform — runs on the SIMD
//! micro-kernel dispatch ([`matrix::microkernel::KernelDispatch`]);
//! [`crate::plan::SpmmPlan`] captures that dispatch at plan time so
//! strategy resolution and backend selection happen together, once.

use matrix::{DenseMatrix, MatrixError};
use sparse::{Csr, DegreeStats};

/// Below this many scalar multiply-adds (`nnz * K`), [`SpmmStrategy::Auto`]
/// stays sequential: a broadcast costs on the order of microseconds, which
/// small problems cannot recoup.
pub const AUTO_SEQUENTIAL_WORK: usize = 1 << 14;

/// Degree coefficient-of-variation above which [`SpmmStrategy::Auto`]
/// treats the graph as skewed and routes to the hybrid kernel.
pub const AUTO_SKEW_CV: f64 = 1.5;

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
    /// Edge-parallel (Algorithm 2) across `threads` workers.
    EdgeParallel {
        /// Number of worker threads.
        threads: usize,
    },
    /// Sequential cache-blocked kernel processing `tile` feature columns
    /// per pass (0 means the default tile width).
    FeatureTiled {
        /// Feature-tile width in columns; `0` selects the default.
        tile: usize,
    },
    /// Feature-parallel: each worker owns a disjoint K-tile of the output.
    FeatureParallel {
        /// Number of worker threads.
        threads: usize,
    },
    /// Degree-aware hybrid: hub rows edge-split across workers, tail rows
    /// processed as atomics-free vertex chunks.
    Hybrid {
        /// Number of worker threads.
        threads: usize,
    },
    /// Pick a fixed strategy per call from the operands (see module docs).
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

    /// Runs the selected algorithm into a caller-owned output matrix,
    /// reshaping it with [`DenseMatrix::resize_zeroed`]. At capacity no
    /// output-sized allocation occurs, which is what lets a model reuse
    /// ping-pong activation buffers across layers and calls.
    ///
    /// # Errors
    ///
    /// Propagates the underlying kernel's shape/thread-count errors.
    // lint:allow(L004): pure dispatch — every kernel this match arms into
    // performs its own dimension check before touching data.
    pub fn run_into(
        self,
        a: &Csr,
        h: &DenseMatrix,
        out: &mut DenseMatrix,
    ) -> Result<(), MatrixError> {
        match self {
            SpmmStrategy::Sequential => crate::spmm::spmm_sequential_into(a, h, out),
            SpmmStrategy::VertexParallel { threads } => {
                crate::spmm::spmm_vertex_parallel_into(a, h, threads, out)
            }
            SpmmStrategy::EdgeParallel { threads } => {
                crate::spmm::spmm_edge_parallel_into(a, h, threads, out)
            }
            SpmmStrategy::FeatureTiled { tile } => {
                crate::tiled::spmm_feature_tiled_into(a, h, tile, out)
            }
            SpmmStrategy::FeatureParallel { threads } => {
                crate::tiled::spmm_feature_parallel_into(a, h, threads, out)
            }
            SpmmStrategy::Hybrid { threads } => crate::hybrid::spmm_hybrid_into(a, h, threads, out),
            SpmmStrategy::Auto => Self::select(a, h.cols()).run_into(a, h, out),
        }
    }

    /// Resolves [`SpmmStrategy::Auto`] for the given operands; fixed
    /// strategies return themselves. The heuristic is documented in the
    /// module docs and in `EXPERIMENTS.md`.
    ///
    /// This is the *planless* fallback: it re-derives [`DegreeStats`] (an
    /// `O(n)` scan) on every call. Repeated SpMM against one adjacency
    /// should build an [`crate::plan::SpmmPlan`] instead, which caches the
    /// statistics and the resolved path.
    pub fn select(a: &Csr, k: usize) -> SpmmStrategy {
        let width = pool::global().width();
        let (n, nnz) = (a.nrows(), a.nnz());
        if n == 0 || nnz == 0 || k == 0 || width <= 1 {
            return SpmmStrategy::Sequential;
        }
        if nnz.saturating_mul(k) < AUTO_SEQUENTIAL_WORK {
            return SpmmStrategy::Sequential;
        }
        // O(n) degree scan — negligible next to the O(nnz * K) kernel, but
        // still worth caching across calls (see `SpmmPlan`).
        Self::select_with_stats(&DegreeStats::of(a), nnz, k, width)
    }

    /// [`SpmmStrategy::select`] with the degree statistics supplied by the
    /// caller — the `O(1)` decision shared by the planless path (which
    /// computes `stats` fresh) and [`crate::plan::SpmmPlan`] (which caches
    /// them once per graph).
    pub fn select_with_stats(
        stats: &DegreeStats,
        nnz: usize,
        k: usize,
        width: usize,
    ) -> SpmmStrategy {
        if stats.vertices == 0 || nnz == 0 || k == 0 || width <= 1 {
            return SpmmStrategy::Sequential;
        }
        if nnz.saturating_mul(k) < AUTO_SEQUENTIAL_WORK {
            return SpmmStrategy::Sequential;
        }
        if stats.cv > AUTO_SKEW_CV {
            return SpmmStrategy::Hybrid { threads: width };
        }
        SpmmStrategy::VertexParallel { threads: width }
    }

    /// Thread count this strategy will use (`Auto` reports the pool width
    /// it will hand to whichever kernel it selects).
    pub fn threads(self) -> usize {
        match self {
            SpmmStrategy::Sequential | SpmmStrategy::FeatureTiled { .. } => 1,
            SpmmStrategy::VertexParallel { threads }
            | SpmmStrategy::EdgeParallel { threads }
            | SpmmStrategy::FeatureParallel { threads }
            | SpmmStrategy::Hybrid { threads } => threads,
            SpmmStrategy::Auto => pool::global().width(),
        }
    }
}

impl Default for SpmmStrategy {
    fn default() -> Self {
        SpmmStrategy::VertexParallel {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl std::fmt::Display for SpmmStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpmmStrategy::Sequential => write!(f, "sequential"),
            SpmmStrategy::VertexParallel { threads } => write!(f, "vertex-parallel x{threads}"),
            SpmmStrategy::EdgeParallel { threads } => write!(f, "edge-parallel x{threads}"),
            SpmmStrategy::FeatureTiled { tile } => write!(f, "feature-tiled t{tile}"),
            SpmmStrategy::FeatureParallel { threads } => write!(f, "feature-parallel x{threads}"),
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
            SpmmStrategy::EdgeParallel { threads: 3 },
            SpmmStrategy::FeatureTiled { tile: 1 },
            SpmmStrategy::FeatureParallel { threads: 2 },
            SpmmStrategy::Hybrid { threads: 3 },
            SpmmStrategy::Auto,
        ] {
            assert_eq!(strategy.run(&a, &h).unwrap(), expected, "{strategy}");
        }
    }

    #[test]
    fn default_uses_available_parallelism() {
        assert!(SpmmStrategy::default().threads() >= 1);
    }

    #[test]
    fn display_includes_thread_count() {
        assert_eq!(
            SpmmStrategy::EdgeParallel { threads: 8 }.to_string(),
            "edge-parallel x8"
        );
        assert_eq!(
            SpmmStrategy::FeatureParallel { threads: 4 }.to_string(),
            "feature-parallel x4"
        );
        assert_eq!(SpmmStrategy::Hybrid { threads: 2 }.to_string(), "hybrid x2");
        assert_eq!(SpmmStrategy::Auto.to_string(), "auto");
    }

    #[test]
    fn select_goes_sequential_for_tiny_work() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        let a = Csr::from_coo(&coo);
        assert_eq!(SpmmStrategy::select(&a, 8), SpmmStrategy::Sequential);
        assert_eq!(SpmmStrategy::select(&a, 0), SpmmStrategy::Sequential);
    }

    #[test]
    fn select_never_picks_edge_parallel() {
        // Across a spread of shapes, Auto avoids the atomics-heavy kernel
        // (paper: it only wins with hardware-cheap remote atomics).
        let mut rng = StdRng::seed_from_u64(7);
        for n in [64usize, 512, 2048] {
            let mut coo = Coo::new(n, n);
            for _ in 0..n * 8 {
                coo.push(rng.gen_range(0..n), rng.gen_range(0..n), 1.0);
            }
            let a = Csr::from_coo(&coo);
            for k in [1usize, 16, 300, 1024] {
                let picked = SpmmStrategy::select(&a, k);
                assert!(
                    !matches!(
                        picked,
                        SpmmStrategy::EdgeParallel { .. } | SpmmStrategy::Auto
                    ),
                    "n={n} k={k} picked {picked}"
                );
            }
        }
    }

    #[test]
    fn select_routes_skewed_graphs_to_hybrid_when_pool_is_parallel() {
        // Star graph: cv is ~sqrt(n), far above any threshold.
        let n = 2048;
        let mut coo = Coo::new(n, n);
        for v in 1..n {
            coo.push(0, v, 1.0);
        }
        let a = Csr::from_coo(&coo);
        let picked = SpmmStrategy::select(&a, 64);
        if pool::global().width() > 1 {
            assert!(
                matches!(picked, SpmmStrategy::Hybrid { .. }),
                "expected hybrid for star graph, got {picked}"
            );
        } else {
            assert_eq!(picked, SpmmStrategy::Sequential);
        }
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
            SpmmStrategy::EdgeParallel { threads: 4 },
            SpmmStrategy::FeatureTiled { tile: 4 },
            SpmmStrategy::FeatureParallel { threads: 4 },
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
