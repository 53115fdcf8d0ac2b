//! Precomputed, reusable SpMM execution plans — the one operand a GCN
//! layer aggregates on.
//!
//! A plan-less [`SpmmStrategy`] call pays its analysis per multiplication;
//! [`SpmmPlan`] pays once per adjacency and reuses it across every layer
//! and epoch: cached [`sparse::DegreeStats`], an **NNZ-balanced row
//! partition** (slot boundaries by binary search over `row_ptr` so each
//! pool slot owns ~equal non-zeros — merge-path style, the workload mapping
//! Accel-GCN identifies as the biggest SpMM lever), and the execution path,
//! a [`SpmmStrategy`]. The path is **pinned** ([`SpmmPlan::pinned`]) to an
//! explicit strategy, or **resolved** ([`SpmmPlan::new`]) by the
//! workspace's one `Auto` rule:
//!
//! 1. nothing to fan out (an empty operand, a one-thread budget, or
//!    `nnz * K` below [`AUTO_SEQUENTIAL_WORK`]) → `Sequential`;
//! 2. degrees skewed past [`AUTO_SKEW_CV`] **and** a heaviest slot over
//!    [`PLAN_MAX_IMBALANCE`] times the ideal → `Hybrid` (hubs edge-split);
//!    skew the partition *can* balance stays atomics-free;
//! 3. otherwise → `NnzBalanced` at every width: with the output row held in
//!    registers ([`matrix::microkernel::KernelDispatch::fill_row`]) the
//!    row partition beat column tiles wherever measured (EXPERIMENTS.md
//!    "Strategy selection" records the table that retired them).
//!
//! A plan is keyed by a structural fingerprint of the adjacency (shape,
//! nnz, sampled `row_ptr`/`col_idx` entries), letting callers cache one
//! plan per graph without holding a borrow — `gcn::InferenceWorkspace`
//! does exactly that.
//!
//! [`AUTO_SEQUENTIAL_WORK`]: crate::plan::AUTO_SEQUENTIAL_WORK
//! [`AUTO_SKEW_CV`]: crate::plan::AUTO_SKEW_CV
//! [`PLAN_MAX_IMBALANCE`]: crate::plan::PLAN_MAX_IMBALANCE

use matrix::microkernel::{resolve_precision, KernelDispatch};
use matrix::{DenseMatrix, MatrixError, Precision, QuantMatrix};
use parking_lot::Mutex;
use sparse::{Csr, DegreeStats};

use crate::engine::SpmmStrategy;
use crate::spmm::{spmm_rows_with, FeatureOperand};

// BOUNDS: indexing in this module walks partition boundary vectors whose
// construction guarantees `0 <= p[i] < p[i+1] <= nrows` (see
// `nnz_balanced_partition`), CSR arrays validated by `Csr::from_coo`, and
// sampled positions clamped with `.min(len)` in `fingerprint`.

/// Below this many scalar multiply-adds (`nnz * K`) a plan resolves
/// sequential: a broadcast costs on the order of microseconds, which small
/// problems cannot recoup.
pub const AUTO_SEQUENTIAL_WORK: usize = 1 << 14;

/// Degree coefficient-of-variation above which a plan treats the graph as
/// skewed — a candidate for the hybrid kernel, taken only if the NNZ
/// partition cannot balance it ([`PLAN_MAX_IMBALANCE`]).
pub const AUTO_SKEW_CV: f64 = 1.5;

/// NNZ-balanced slots per pool thread. More slots than threads leaves the
/// pool's dynamic claiming slack to absorb residual imbalance (a slot that
/// is slightly heavy just means its worker claims one fewer slot).
pub const PLAN_SLOTS_PER_THREAD: usize = 4;

/// Maximum tolerated `max_slot_nnz / ideal_slot_nnz` before the plan gives
/// up on row granularity and falls back to the hub-splitting hybrid
/// kernel: beyond 2x, single rows dominate slots and only edge-splitting
/// can rebalance them.
pub const PLAN_MAX_IMBALANCE: f64 = 2.0;

/// Load-balance quality of an NNZ-balanced partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStats {
    /// Number of row slots in the partition.
    pub slots: usize,
    /// Fewest non-zeros owned by any slot.
    pub min_slot_nnz: usize,
    /// Most non-zeros owned by any slot.
    pub max_slot_nnz: usize,
    /// `nnz / requested_slots` — what a perfect split into the *requested*
    /// number of slots would give each one. Measured against the request,
    /// not the realized count: a hub that collapses the partition to two
    /// slots should read as imbalance, not as a smaller ideal.
    pub ideal_slot_nnz: f64,
    /// `max_slot_nnz / ideal_slot_nnz`; 1.0 is perfect balance.
    pub imbalance: f64,
}

impl PlanStats {
    fn of(row_ptr: &[usize], partition: &[usize], requested_slots: usize) -> PlanStats {
        let slots = partition.len().saturating_sub(1);
        if slots == 0 {
            return PlanStats {
                slots: 0,
                min_slot_nnz: 0,
                max_slot_nnz: 0,
                ideal_slot_nnz: 0.0,
                imbalance: 1.0,
            };
        }
        let nnz = *row_ptr.last().expect("non-empty row_ptr");
        let (mut min, mut max) = (usize::MAX, 0usize);
        for w in partition.windows(2) {
            let slot_nnz = row_ptr[w[1]] - row_ptr[w[0]];
            min = min.min(slot_nnz);
            max = max.max(slot_nnz);
        }
        let ideal = nnz as f64 / requested_slots.max(1) as f64;
        PlanStats {
            slots,
            min_slot_nnz: min,
            max_slot_nnz: max,
            ideal_slot_nnz: ideal,
            imbalance: if ideal > 0.0 { max as f64 / ideal } else { 1.0 },
        }
    }
}

/// Splits rows into at most `slots` contiguous ranges of ~equal non-zeros.
///
/// Boundary `i` is found by binary search over `row_ptr` for the first row
/// whose prefix reaches `i * nnz / slots` — the row-granular merge-path
/// split. Returned boundaries are strictly increasing, start at 0 and end
/// at `nrows`, so the ranges cover every row exactly once. Each slot owns
/// at most `ceil(nnz / slots) + max_row_nnz - 1` non-zeros (a single row
/// is never split, so one oversized row caps what balancing can achieve).
pub fn nnz_balanced_partition(row_ptr: &[usize], slots: usize) -> Vec<usize> {
    let n = row_ptr.len().saturating_sub(1);
    let nnz = row_ptr.last().copied().unwrap_or(0);
    if n == 0 {
        // lint:allow(L005): plan construction, paid once per adjacency.
        return vec![0];
    }
    let slots = slots.max(1);
    // lint:allow(L005): plan construction, paid once per adjacency.
    let mut partition = Vec::with_capacity(slots + 1);
    partition.push(0);
    for i in 1..slots {
        let target = i * nnz / slots;
        // First row boundary with at least `target` non-zeros before it.
        let boundary = row_ptr.partition_point(|&p| p < target).min(n);
        if boundary > *partition.last().expect("non-empty partition") {
            partition.push(boundary);
        }
    }
    if *partition.last().expect("non-empty partition") < n {
        partition.push(n);
    }
    partition
}

/// A precomputed execution plan for repeated SpMM against one adjacency.
///
/// Build once with [`SpmmPlan::new`], then call [`SpmmPlan::run_into`] per
/// multiplication. A resolved plan's `k` hint fixes the primary execution
/// path; calls with a different feature width re-resolve from the *cached*
/// statistics (an `O(1)` decision — never a rescan of the matrix). A
/// pinned plan runs its strategy at every width.
///
/// # Examples
///
/// ```
/// use kernels::plan::SpmmPlan;
/// use sparse::{Coo, Csr};
/// use matrix::DenseMatrix;
///
/// let mut coo = Coo::new(2, 2);
/// coo.push(0, 1, 1.0);
/// let a = Csr::from_coo(&coo);
/// let plan = SpmmPlan::new(&a, 2);
/// assert!(plan.matches(&a));
/// let h = DenseMatrix::identity(2);
/// let out = plan.run(&a, &h).unwrap();
/// assert_eq!(out.row(0), &[0.0, 1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct SpmmPlan {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    k: usize,
    fingerprint: u64,
    stats: DegreeStats,
    partition: Vec<usize>,
    plan_stats: PlanStats,
    exec: SpmmStrategy,
    /// `exec` was chosen by the caller, not by [`SpmmPlan::resolve`].
    pinned: bool,
    /// Micro-kernel backend captured at plan time: the sparse row loops and
    /// the layer's dense transform both run this dispatch, so one plan
    /// fixes the whole layer's SIMD path.
    kernel: KernelDispatch,
    /// Storage precision the planned layer runs at, resolved through the
    /// micro-kernel probe at plan time (a requested precision whose ISA
    /// probe fails is downgraded along [`Precision::fallback`]).
    precision: Precision,
    /// `(requested, resolved)` if the precision probe downgraded.
    precision_fallback: Option<(Precision, Precision)>,
}

impl SpmmPlan {
    /// Analyzes `a` once and fixes the execution path for feature width
    /// `k` (`k` is a hint: other widths re-resolve cheaply at run time).
    pub fn new(a: &Csr, k: usize) -> SpmmPlan {
        let width = pool::global().width();
        Self::with_width(a, k, width)
    }

    /// A plan for `a` pinned to `strategy` ([`SpmmPlan::pin`]; `Auto` ⇒
    /// [`SpmmPlan::new`]).
    pub fn pinned(a: &Csr, k: usize, strategy: SpmmStrategy) -> SpmmPlan {
        Self::with_width(a, k, strategy.threads()).pin(strategy)
    }

    /// Pins this plan to `strategy` (`O(1)`: statistics and partition are
    /// kept; `Auto` leaves the plan as it is). A pinned plan runs that
    /// strategy's kernel at every `K`, and the layer's dense update runs on
    /// `strategy.threads()` threads — a `Sequential` pin is single-threaded
    /// end to end. A narrow run on a pin to the `f32`-only edge-parallel
    /// kernel is [`MatrixError::UnsupportedPrecision`].
    pub fn pin(mut self, strategy: SpmmStrategy) -> SpmmPlan {
        if strategy != SpmmStrategy::Auto {
            self.exec = strategy;
            self.pinned = true;
        }
        self
    }

    /// Re-targets an existing plan to a storage precision, probing it
    /// against the plan's captured kernel dispatch and recording any
    /// downgrade ([`SpmmPlan::precision_fallback`]); the planned layer then
    /// stores its feature operand at the resolved precision. Sharded
    /// runners use this to inherit a precision onto per-shard plans without
    /// re-deriving statistics.
    pub fn at_precision(mut self, precision: Precision) -> SpmmPlan {
        // Keyed on the *requested* precision: a plan whose ISA probe
        // downgraded (say int8 → bf16) still satisfies later int8 requests
        // without re-probing on every call.
        if self.requested_precision() == precision {
            return self;
        }
        let (resolved, fell_back) = resolve_precision(self.kernel, precision);
        self.precision = resolved;
        self.precision_fallback = fell_back;
        self
    }

    /// [`SpmmPlan::new`] with an explicit thread budget (exposed so tests
    /// and benches can plan for widths other than the global pool's).
    pub fn with_width(a: &Csr, k: usize, width: usize) -> SpmmPlan {
        let stats = DegreeStats::of(a);
        let slots = (width.max(1)) * PLAN_SLOTS_PER_THREAD;
        let partition = nnz_balanced_partition(a.row_ptr(), slots);
        let plan_stats = PlanStats::of(a.row_ptr(), &partition, slots);
        let mut plan = SpmmPlan {
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz: a.nnz(),
            k,
            fingerprint: fingerprint(a),
            stats,
            partition,
            plan_stats,
            exec: SpmmStrategy::Sequential,
            pinned: false,
            kernel: KernelDispatch::get(),
            precision: Precision::F32,
            precision_fallback: None,
        };
        plan.exec = plan.resolve(k, width);
        plan
    }

    /// The `Auto` rule (module docs): resolves the execution path for
    /// feature width `k` from the cached statistics. `O(1)`: no matrix
    /// scan.
    fn resolve(&self, k: usize, width: usize) -> SpmmStrategy {
        if self.nrows == 0 || self.nnz == 0 || k == 0 || width <= 1 {
            return SpmmStrategy::Sequential;
        }
        if self.nnz.saturating_mul(k) < AUTO_SEQUENTIAL_WORK {
            return SpmmStrategy::Sequential;
        }
        // Skewed graphs whose hubs defeat any row partition need
        // edge-splitting; skewed graphs the partition *can* balance run
        // atomics-free on the NNZ slots.
        if self.stats.cv > AUTO_SKEW_CV && self.plan_stats.imbalance > PLAN_MAX_IMBALANCE {
            return SpmmStrategy::Hybrid { threads: width };
        }
        SpmmStrategy::NnzBalanced { threads: width }
    }

    /// Whether this plan was built for `a` (structural fingerprint check;
    /// `O(1)`).
    pub fn matches(&self, a: &Csr) -> bool {
        self.nrows == a.nrows()
            && self.ncols == a.ncols()
            && self.nnz == a.nnz()
            && self.fingerprint == fingerprint(a)
    }

    /// The feature-width hint the plan was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The structural fingerprint the plan is keyed by.
    pub fn fingerprint_value(&self) -> u64 {
        self.fingerprint
    }

    /// The cached degree statistics (computed once at plan time).
    pub fn stats(&self) -> &DegreeStats {
        &self.stats
    }

    /// Load-balance quality of the NNZ partition.
    pub fn plan_stats(&self) -> &PlanStats {
        &self.plan_stats
    }

    /// The execution path: the pinned strategy, or what the rule resolved
    /// for the plan's `k` hint (never [`SpmmStrategy::Auto`]).
    pub fn exec(&self) -> SpmmStrategy {
        self.exec
    }

    /// Threads for the layer's dense update: the pool's width under a
    /// resolved plan (of any width), the strategy's own under a pinned one.
    pub(crate) fn dense_threads(&self) -> usize {
        if self.pinned {
            self.exec.threads()
        } else {
            pool::global().width()
        }
    }

    /// The NNZ-balanced row boundaries (`slots + 1` entries).
    pub fn partition(&self) -> &[usize] {
        &self.partition
    }

    /// The micro-kernel backend resolved at plan time. The planned GCN
    /// layer ([`crate::fused::gcn_layer_planned_into`]) runs its dense
    /// `H * W` transform on this same dispatch, so sparse and dense pillars
    /// of a planned layer always agree on the SIMD path.
    pub fn dense_kernel(&self) -> KernelDispatch {
        self.kernel
    }

    /// The storage precision the planned layer runs at. `F32` unless the
    /// plan was re-targeted with [`SpmmPlan::at_precision`] (and the
    /// requested precision survived its ISA probe).
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// `(requested, resolved)` if the precision probe downgraded the
    /// requested storage precision at plan time.
    pub fn precision_fallback(&self) -> Option<(Precision, Precision)> {
        self.precision_fallback
    }

    /// The storage precision the plan was asked for — [`SpmmPlan::precision`]
    /// unless the probe downgraded it.
    pub fn requested_precision(&self) -> Precision {
        self.precision_fallback.map_or(self.precision, |(r, _)| r)
    }

    /// Runs `out = a * h` along the planned path.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `a` or `h` disagree
    /// with the plan's shapes.
    pub fn run(&self, a: &Csr, h: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        let mut out = DenseMatrix::default();
        self.run_into(a, h, &mut out)?;
        Ok(out)
    }

    /// [`SpmmPlan::run`] over any [`FeatureOperand`] into a caller-owned
    /// output matrix (allocation-free at capacity): the same planned paths
    /// serve full-precision rows and narrow storage (bf16 / f16 / int8,
    /// accumulated in `f32`).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `a`'s shape disagrees
    /// with the plan or `h`'s rows disagree with `a`'s columns, and
    /// [`MatrixError::UnsupportedPrecision`] for a narrow `h` under a pin
    /// to an `f32`-only kernel.
    pub fn run_into<F: FeatureOperand>(
        &self,
        a: &Csr,
        h: &F,
        out: &mut DenseMatrix,
    ) -> Result<(), MatrixError> {
        self.check_plan(a)?;
        let k = h.shape().1;
        let exec = if self.pinned || k == self.k {
            self.exec
        } else {
            self.resolve(k, pool::global().width())
        };
        match exec {
            // The one arm with planned state: the cached partition.
            SpmmStrategy::NnzBalanced { threads } => {
                spmm_nnz_balanced_with(self.kernel, a, h, &self.partition, threads, out)
            }
            other => other.run_into(a, h, out),
        }
    }

    /// [`SpmmPlan::run_into`] at the plan's storage precision
    /// ([`SpmmPlan::precision`]): a narrow plan first encodes `h` into
    /// `qbuf` and aggregates from the narrow copy; an `f32` plan reads `h`
    /// directly and leaves `qbuf` untouched. The one place precision picks
    /// the operand type — every caller above passes both buffers and never
    /// branches on precision itself.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpmmPlan::run_into`].
    pub fn run_at_precision_into(
        &self,
        a: &Csr,
        h: &DenseMatrix,
        qbuf: &mut QuantMatrix,
        out: &mut DenseMatrix,
    ) -> Result<(), MatrixError> {
        // Reject a foreign adjacency before paying for the encode.
        self.check_plan(a)?;
        match self.precision {
            Precision::F32 => self.run_into(a, h, out),
            narrow => {
                qbuf.encode(h, narrow)?;
                self.run_into(a, &*qbuf, out)
            }
        }
    }

    /// Dimension-check helper for the planned path: `a` must structurally
    /// match the plan's recorded shape and nnz. `h` is validated against
    /// `a` downstream by each dispatched kernel's own `check`.
    fn check_plan(&self, a: &Csr) -> Result<(), MatrixError> {
        if a.nrows() != self.nrows || a.ncols() != self.ncols || a.nnz() != self.nnz {
            return Err(MatrixError::DimensionMismatch {
                op: "spmm_planned",
                lhs: (self.nrows, self.ncols),
                rhs: a.shape(),
            });
        }
        Ok(())
    }
}

/// Structural fingerprint of a CSR matrix: shape, nnz, and up to 16
/// sampled entries of `row_ptr` and `col_idx`, FNV-mixed. `O(1)` — cheap
/// enough to run on every planned call, strong enough that two graphs
/// colliding by accident is vanishingly unlikely.
pub fn fingerprint(a: &Csr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    mix(a.nrows() as u64);
    mix(a.ncols() as u64);
    mix(a.nnz() as u64);
    let row_ptr = a.row_ptr();
    let samples = 16usize;
    for i in 0..samples.min(row_ptr.len()) {
        let idx = i * (row_ptr.len() - 1) / samples.min(row_ptr.len()).max(1);
        mix(row_ptr[idx] as u64);
    }
    let cols = a.col_idx();
    if !cols.is_empty() {
        for i in 0..samples.min(cols.len()) {
            let idx = i * (cols.len() - 1) / samples.min(cols.len()).max(1);
            mix(u64::from(cols[idx]));
        }
    }
    h
}

/// SpMM over precomputed NNZ-balanced row ranges on an explicit
/// [`KernelDispatch`] (the plan's cached backend drives the row loops
/// instead of re-resolving per call): each pool share owns one contiguous
/// range of output rows exclusively (no atomics, no locks held across
/// rows), and because ranges hold ~equal non-zeros, no share serializes on
/// a heavy chunk the way count-based chunking does.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] on shape mismatch and
/// [`MatrixError::ZeroThreads`] if `threads == 0`.
pub fn spmm_nnz_balanced_with<F: FeatureOperand>(
    kd: KernelDispatch,
    a: &Csr,
    h: &F,
    partition: &[usize],
    threads: usize,
    out: &mut DenseMatrix,
) -> Result<(), MatrixError> {
    crate::spmm::check("spmm_nnz_balanced", a, h)?;
    if threads == 0 {
        return Err(MatrixError::ZeroThreads);
    }
    let (n, k) = (a.nrows(), h.shape().1);
    debug_assert_eq!(partition.last().copied().unwrap_or(0), n);
    // Every row in [0, n) lands in exactly one partition share and the
    // row kernel overwrites, so no memset here.
    out.resize_for_overwrite(n, k);
    if n == 0 || k == 0 {
        return Ok(());
    }
    if threads == 1 || partition.len() < 3 {
        spmm_rows_with(kd, a, h, out.as_mut_slice(), 0, n, k);
        return Ok(());
    }

    // Pre-split the output at the partition boundaries. Share index ==
    // slot index and each share locks only its own slice, so the mutexes
    // never contend — they only hand `&mut` slices through a `Fn` closure.
    // lint:allow(L005): per-call slot table of ~4x-threads pointers —
    // orders of magnitude below the counting-allocator activation budget.
    let mut slices: Vec<Mutex<&mut [f32]>> = Vec::with_capacity(partition.len() - 1);
    let mut rest = out.as_mut_slice();
    for w in partition.windows(2) {
        let (slice, remaining) = rest.split_at_mut((w[1] - w[0]) * k);
        rest = remaining;
        slices.push(Mutex::new(slice));
    }
    let slots = slices.len();
    pool::global().broadcast(threads.min(slots), slots, |s| {
        let mut slice = slices[s].lock();
        spmm_rows_with(kd, a, h, &mut slice, partition[s], partition[s + 1], k);
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::spmm_sequential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparse::Coo;

    fn random_csr(rng: &mut StdRng, n: usize, nnz: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for _ in 0..nnz {
            coo.push(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-1.0..1.0),
            );
        }
        Csr::from_coo(&coo)
    }

    fn random_dense(rng: &mut StdRng, r: usize, c: usize) -> DenseMatrix {
        let data = (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
        DenseMatrix::from_vec(r, c, data).unwrap()
    }

    #[test]
    fn partition_covers_all_rows_once() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_csr(&mut rng, 200, 1500);
        for slots in [1, 2, 7, 16, 64, 500] {
            let p = nnz_balanced_partition(a.row_ptr(), slots);
            assert_eq!(p[0], 0);
            assert_eq!(*p.last().unwrap(), a.nrows());
            assert!(p.windows(2).all(|w| w[0] < w[1]), "slots={slots}");
            assert!(p.len() <= slots + 1);
        }
    }

    #[test]
    fn partition_balances_within_row_granularity() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_csr(&mut rng, 400, 4000);
        let slots = 8;
        let p = nnz_balanced_partition(a.row_ptr(), slots);
        let max_row = (0..a.nrows()).map(|r| a.row_nnz(r)).max().unwrap();
        let target = a.nnz().div_ceil(slots);
        for w in p.windows(2) {
            let slot_nnz = a.row_ptr()[w[1]] - a.row_ptr()[w[0]];
            assert!(
                slot_nnz < target + max_row,
                "slot [{}, {}) holds {slot_nnz} nnz, target {target}, max row {max_row}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn partition_handles_empty_and_degenerate_matrices() {
        assert_eq!(nnz_balanced_partition(&[0], 4), vec![0]);
        let empty = Csr::empty(5, 5);
        let p = nnz_balanced_partition(empty.row_ptr(), 3);
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), 5);
    }

    #[test]
    fn nnz_balanced_kernel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_csr(&mut rng, 300, 2500);
        let h = random_dense(&mut rng, 300, 13);
        let reference = spmm_sequential(&a, &h).unwrap();
        for slots in [2, 5, 16] {
            let p = nnz_balanced_partition(a.row_ptr(), slots);
            for threads in [1, 2, 4, 9] {
                let mut out = DenseMatrix::filled(10, 10, f32::NAN);
                spmm_nnz_balanced_with(KernelDispatch::get(), &a, &h, &p, threads, &mut out)
                    .unwrap();
                assert!(
                    reference.max_abs_diff(&out) < 1e-4,
                    "slots={slots} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn plan_runs_match_sequential_across_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        for (n, nnz) in [(50, 100), (200, 3000), (64, 64)] {
            let a = random_csr(&mut rng, n, nnz);
            for k in [1usize, 8, 64] {
                let h = random_dense(&mut rng, n, k);
                let reference = spmm_sequential(&a, &h).unwrap();
                let plan = SpmmPlan::new(&a, k);
                let got = plan.run(&a, &h).unwrap();
                assert!(
                    reference.max_abs_diff(&got) < 1e-3,
                    "n={n} k={k} exec={}",
                    plan.exec()
                );
            }
        }
    }

    #[test]
    fn plan_resolves_other_widths_without_rescan() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_csr(&mut rng, 256, 4000);
        let plan = SpmmPlan::new(&a, 16);
        // A different K than the hint still runs correctly.
        let h = random_dense(&mut rng, 256, 40);
        let reference = spmm_sequential(&a, &h).unwrap();
        assert!(reference.max_abs_diff(&plan.run(&a, &h).unwrap()) < 1e-3);
        // k = 0 resolves sequential and yields an empty output.
        let h0 = DenseMatrix::zeros(256, 0);
        assert_eq!(plan.run(&a, &h0).unwrap().shape(), (256, 0));
    }

    #[test]
    fn plan_rejects_mismatched_operands() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = random_csr(&mut rng, 50, 300);
        let other = random_csr(&mut rng, 60, 300);
        let plan = SpmmPlan::new(&a, 8);
        let h = random_dense(&mut rng, 60, 8);
        assert!(plan.run(&other, &h).is_err());
    }

    #[test]
    fn fingerprint_distinguishes_graphs_and_matches_self() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_csr(&mut rng, 128, 1000);
        let b = random_csr(&mut rng, 128, 1000);
        let plan = SpmmPlan::new(&a, 8);
        assert!(plan.matches(&a));
        assert!(!plan.matches(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn skewed_graph_with_monster_hub_resolves_hybrid() {
        // Star graph: one row holds every edge; no row partition can
        // balance it, so the plan must fall back to edge-splitting.
        let n = 4096;
        let mut coo = Coo::new(n, n);
        for v in 1..n {
            coo.push(0, v, 1.0);
        }
        let a = Csr::from_coo(&coo);
        let plan = SpmmPlan::with_width(&a, 64, 8);
        assert!(
            matches!(plan.exec(), SpmmStrategy::Hybrid { .. }),
            "expected hybrid for star graph, got {}",
            plan.exec()
        );
        let mut rng = StdRng::seed_from_u64(8);
        let h = random_dense(&mut rng, n, 9);
        let reference = spmm_sequential(&a, &h).unwrap();
        assert!(reference.max_abs_diff(&plan.run(&a, &h).unwrap()) < 1e-3);
    }

    #[test]
    fn moderately_skewed_graph_stays_on_nnz_partition() {
        // Degrees vary 1..64 (cv well below a star's) but total work is
        // large: the NNZ partition absorbs the skew without atomics.
        let n = 2048;
        let mut rng = StdRng::seed_from_u64(9);
        let mut coo = Coo::new(n, n);
        for u in 0..n {
            let d = 1 + (u % 64);
            for _ in 0..d {
                coo.push(u, rng.gen_range(0..n), 1.0);
            }
        }
        let a = Csr::from_coo(&coo);
        let plan = SpmmPlan::with_width(&a, 32, 8);
        assert!(
            matches!(plan.exec(), SpmmStrategy::NnzBalanced { .. }),
            "got {}",
            plan.exec()
        );
    }

    #[test]
    fn wide_k_stays_on_the_nnz_partition() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = random_csr(&mut rng, 512, 4000);
        let plan = SpmmPlan::with_width(&a, 1024, 8);
        assert!(
            matches!(plan.exec(), SpmmStrategy::NnzBalanced { .. }),
            "got {}",
            plan.exec()
        );
        // Row-local at every width: bitwise equal to the sequential walk.
        let h = random_dense(&mut rng, 512, 1024);
        assert_eq!(plan.run(&a, &h).unwrap(), spmm_sequential(&a, &h).unwrap());
    }

    #[test]
    fn tiny_problems_resolve_sequential() {
        let mut coo = Coo::new(8, 8);
        coo.push(1, 2, 1.0);
        let a = Csr::from_coo(&coo);
        let plan = SpmmPlan::with_width(&a, 4, 8);
        assert_eq!(plan.exec(), SpmmStrategy::Sequential);
        assert_eq!(
            SpmmPlan::with_width(&a, 4, 1).exec(),
            SpmmStrategy::Sequential
        );
    }

    #[test]
    fn zero_threads_is_rejected_by_the_kernel() {
        let a = Csr::empty(2, 2);
        let h = DenseMatrix::zeros(2, 2);
        let p = nnz_balanced_partition(a.row_ptr(), 2);
        let mut out = DenseMatrix::default();
        assert!(matches!(
            spmm_nnz_balanced_with(KernelDispatch::get(), &a, &h, &p, 0, &mut out),
            Err(MatrixError::ZeroThreads)
        ));
    }

    #[test]
    fn every_arm_agrees_with_sequential_at_every_precision() {
        // One table instead of per-twin tests: pinned arm x precision x
        // graph. An f32 operand is checked against `spmm_sequential` —
        // bitwise on the row-local arms, within accumulation-order noise
        // where rows are split (hub segments, edge shares). A
        // narrow operand is checked against the same narrowing applied by
        // hand (decode, then f32): the kernels may differ only by
        // accumulation order and scale-fold rounding. The one arm that
        // exists only over f32 rows must refuse a narrow operand with a
        // typed error rather than run it wide.
        let mut rng = StdRng::seed_from_u64(31);
        let uniform = random_csr(&mut rng, 300, 2400);
        // One hub touching every vertex plus a sparse tail: both the
        // segment-accumulate hub path and the chunked tail path run.
        let n = 400;
        let mut coo = Coo::new(n, n);
        for v in 1..n {
            coo.push(0, v, rng.gen_range(-1.0..1.0));
        }
        for _ in 0..n {
            coo.push(
                rng.gen_range(1..n),
                rng.gen_range(0..n),
                rng.gen_range(-1.0..1.0),
            );
        }
        let star = Csr::from_coo(&coo);
        let mut q = QuantMatrix::new();
        let mut decoded = DenseMatrix::default();
        for (graph, a) in [("uniform", &uniform), ("star", &star)] {
            let h = random_dense(&mut rng, a.nrows(), 19);
            for (arm, f32_tol) in [
                (SpmmStrategy::Sequential, 0.0),
                (SpmmStrategy::VertexParallel { threads: 4 }, 0.0),
                (SpmmStrategy::NnzBalanced { threads: 4 }, 0.0),
                (SpmmStrategy::Hybrid { threads: 4 }, 1e-3),
                (SpmmStrategy::EdgeParallel { threads: 4 }, 1e-3),
            ] {
                let plan = SpmmPlan::pinned(a, h.cols(), arm);
                assert_eq!(plan.exec(), arm);
                let f32_only = matches!(arm, SpmmStrategy::EdgeParallel { .. });
                for p in Precision::all() {
                    let mut out = DenseMatrix::filled(3, 3, f32::NAN);
                    let (reference, tol) = if p == Precision::F32 {
                        plan.run_into(a, &h, &mut out).unwrap();
                        (spmm_sequential(a, &h).unwrap(), f32_tol)
                    } else {
                        q.encode(&h, p).unwrap();
                        let ran = plan.run_into(a, &q, &mut out);
                        if f32_only {
                            assert!(
                                matches!(ran, Err(MatrixError::UnsupportedPrecision { .. })),
                                "{graph} {arm} {p}: {ran:?}"
                            );
                            continue;
                        }
                        ran.unwrap();
                        q.decode(&mut decoded);
                        (spmm_sequential(a, &decoded).unwrap(), 1e-3)
                    };
                    let diff = reference.max_abs_diff(&out);
                    assert!(
                        diff <= tol,
                        "{graph} {arm} {p}: diverged by {diff} (tolerance {tol})"
                    );
                }
            }
        }
    }

    #[test]
    fn pinned_plan_keeps_its_strategy_at_every_width() {
        // A resolved plan re-resolves when K differs from its hint (k = 0
        // goes sequential); a pinned one never does, and re-pinning keeps
        // the structure the plan was built from.
        let mut rng = StdRng::seed_from_u64(34);
        let a = random_csr(&mut rng, 256, 4000);
        let pin = SpmmStrategy::EdgeParallel { threads: 3 };
        let plan = SpmmPlan::pinned(&a, 16, pin);
        assert_eq!((plan.exec(), plan.dense_threads()), (pin, 3));
        let h = random_dense(&mut rng, 256, 40);
        let reference = spmm_sequential(&a, &h).unwrap();
        assert!(reference.max_abs_diff(&plan.run(&a, &h).unwrap()) < 1e-3);
        let fp = plan.fingerprint_value();
        let repinned = plan.pin(SpmmStrategy::Sequential);
        assert_eq!(
            (repinned.exec(), repinned.dense_threads()),
            (SpmmStrategy::Sequential, 1)
        );
        assert_eq!(repinned.fingerprint_value(), fp);
        assert_eq!(repinned.run(&a, &h).unwrap(), reference);
        // `Auto` is the rule itself: the plan stays resolved, its dense
        // update at pool width.
        let auto = SpmmPlan::pinned(&a, 16, SpmmStrategy::Auto);
        assert_eq!(auto.exec(), SpmmPlan::new(&a, 16).exec());
        assert_eq!(auto.dense_threads(), pool::global().width());
    }

    #[test]
    fn the_rule_never_resolves_to_a_design_space_kernel() {
        // Across a spread of shapes the rule stays on its three arms — in
        // particular never the atomics-heavy edge-parallel kernel (paper:
        // it only wins with hardware-cheap remote atomics).
        let mut rng = StdRng::seed_from_u64(7);
        for n in [64usize, 512, 2048] {
            let a = random_csr(&mut rng, n, n * 8);
            for k in [1usize, 16, 300, 1024] {
                let picked = SpmmPlan::with_width(&a, k, 8).exec();
                assert!(
                    matches!(
                        picked,
                        SpmmStrategy::Sequential
                            | SpmmStrategy::NnzBalanced { .. }
                            | SpmmStrategy::Hybrid { .. }
                    ),
                    "n={n} k={k} picked {picked}"
                );
            }
        }
    }

    #[test]
    fn run_at_precision_encodes_only_for_narrow_plans() {
        let mut rng = StdRng::seed_from_u64(33);
        let a = random_csr(&mut rng, 60, 400);
        let h = random_dense(&mut rng, 60, 9);
        let base = SpmmPlan::new(&a, 9);
        let mut q = QuantMatrix::new();
        let mut out = DenseMatrix::default();
        base.run_at_precision_into(&a, &h, &mut q, &mut out)
            .unwrap();
        assert_eq!(
            q.shape(),
            (0, 0),
            "f32 plan must not touch the staging buffer"
        );
        assert_eq!(out, base.run(&a, &h).unwrap());
        for p in [Precision::Bf16, Precision::F16, Precision::Int8] {
            let plan = base.clone().at_precision(p);
            assert_eq!(plan.precision(), p);
            assert!(plan.precision_fallback().is_none());
            plan.run_at_precision_into(&a, &h, &mut q, &mut out)
                .unwrap();
            assert_eq!((q.shape(), q.precision()), ((60, 9), p));
            let mut direct = DenseMatrix::default();
            plan.run_into(&a, &q, &mut direct).unwrap();
            assert_eq!(out, direct);
        }
    }

    #[test]
    fn partition_with_more_slots_than_rows_collapses_cleanly() {
        // 4 rows, 2 nnz each; asking for 16 slots must not emit empty
        // middle ranges — boundaries stay strictly increasing and cover
        // every row exactly once (the sharding layer pads the tail).
        let row_ptr = [0usize, 2, 4, 6, 8];
        let bounds = nnz_balanced_partition(&row_ptr, 16);
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().unwrap(), 4);
        assert!(bounds.len() <= 5, "at most one boundary per row");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn partition_bounds_a_hub_row_exceeding_the_slot_budget() {
        // One hub row holds 100 of 106 nnz, far past the ~27-nnz per-slot
        // budget at 4 slots. Rows are never split, so the hub's range
        // absorbs the overflow (documented bound: ceil(nnz/slots) +
        // max_row_nnz - 1), the boundaries that would land inside it
        // collapse (strictly increasing, no empty ranges), and the
        // remaining rows still get covered exactly once.
        let row_ptr = [0usize, 2, 102, 104, 106];
        let bounds = nnz_balanced_partition(&row_ptr, 4);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().unwrap(), 4);
        let budget = 106usize.div_ceil(4);
        let max_row = 100;
        for w in bounds.windows(2) {
            let slot_nnz = row_ptr[w[1]] - row_ptr[w[0]];
            assert!(
                slot_nnz <= budget + max_row - 1,
                "slot {w:?} holds {slot_nnz} nnz, over the documented bound"
            );
        }
        // The hub ends up sharing a range with at most the small rows
        // before it — everything after the hub is balanced normally.
        let hub_end = bounds
            .iter()
            .position(|&b| b >= 2)
            .expect("a boundary at or after the hub row exists");
        assert!(
            bounds[hub_end] == 2,
            "boundary lands right after the hub: {bounds:?}"
        );
    }

    #[test]
    fn single_slot_partition_is_the_identity() {
        let mut rng = StdRng::seed_from_u64(77);
        let a = random_csr(&mut rng, 30, 120);
        assert_eq!(nnz_balanced_partition(a.row_ptr(), 1), vec![0, 30]);
        // Degenerate inputs: no rows at all collapse to a single boundary.
        assert_eq!(nnz_balanced_partition(&[0], 4), vec![0]);
    }

    #[test]
    fn at_precision_inherits_structure_and_records_fallback() {
        let mut rng = StdRng::seed_from_u64(78);
        let a = random_csr(&mut rng, 40, 160);
        let base = SpmmPlan::new(&a, 8);
        let fp = base.fingerprint_value();
        let plan = base.at_precision(Precision::Bf16);
        assert_eq!(plan.fingerprint_value(), fp);
        assert!(plan.matches(&a));
        // Asking again for the same precision is a no-op, not a re-probe.
        let again = plan.clone().at_precision(Precision::Bf16);
        assert_eq!(plan.precision(), again.precision());
        assert_eq!(plan.precision_fallback(), again.precision_fallback());
    }

    #[test]
    fn narrow_operand_with_mismatched_rows_is_rejected() {
        let mut rng = StdRng::seed_from_u64(32);
        let a = random_csr(&mut rng, 40, 160);
        let h_bad = random_dense(&mut rng, 41, 5);
        let mut q = QuantMatrix::new();
        q.encode(&h_bad, Precision::Bf16).unwrap();
        let plan = SpmmPlan::new(&a, 5).at_precision(Precision::Bf16);
        let mut out = DenseMatrix::default();
        assert!(matches!(
            plan.run_into(&a, &q, &mut out),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }
}
