//! The GCN layer: aggregation + dense update + activation, on a plan.
//!
//! A GCN layer is `H' = sigma(A_hat * H * W + b)`. Because `K_in` usually
//! differs from `K_out`, the cheaper association is computed first:
//! aggregate-then-update when `K_in <= K_out`, update-then-aggregate
//! otherwise — the standard trick also used by PyTorch-Geometric. Both
//! orders are mathematically identical (`(A H) W = A (H W)`), and a test
//! pins that down.
//!
//! There is one layer function, for the whole graph and for the row lists
//! of a served batch ([`crate::plan::RowLists`]) alike; *how* its SpMM is
//! parallelised — the only thing the paper varies (Sections II-C, V-A) —
//! is the [`SpmmPlan`] it is handed, resolved or pinned.

use crate::plan::{RowLists, SpmmPlan};
use matrix::microkernel::dense_update_with;
use matrix::{Activation, DenseMatrix, MatrixError, QuantMatrix};
use sparse::Csr;

/// Which association order the fused layer used (exposed for tests and for
/// the timing models, which cost the two orders differently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedOrder {
    /// Computed `(A * H) * W` — aggregation first.
    AggregateFirst,
    /// Computed `A * (H * W)` — update first.
    UpdateFirst,
}

/// Runs one GCN layer along `plan` into caller-owned buffers and reports
/// the association order chosen: `mid` holds the intermediate product and
/// `out` receives the layer output, so a model looping over layers with two
/// ping-pong activation buffers plus one `mid` buffer performs no
/// output-sized allocation in steady state.
///
/// The plan fixes the whole layer: the aggregation runs its execution path
/// ([`SpmmPlan::exec`]), and the dense update runs the packed
/// register-tiled GEMM on the plan's cached dispatch
/// ([`SpmmPlan::dense_kernel`]) across the pool's full width — or, under a
/// pinned plan, the pinned strategy's own thread count ([`SpmmPlan::pin`]).
/// Aggregating first, the update is one pass that writes the finished
/// activation from its register tiles ([`dense_update_with`]); updating
/// first, the SpMM's row loop adds the bias and applies the activation to
/// each row right after filling it, inside the same pool share (the whole
/// graph's partition, or the list's).
///
/// Precision is carried by the plan ([`SpmmPlan::precision`]) and narrows
/// the bandwidth-bound operand only: a narrow plan encodes the layer's SpMM
/// feature operand into `qbuf` (bf16 / f16 / int8) and reads it through the
/// same row loops, accumulating in `f32`. The compute-bound dense update is
/// the one `f32` GEMM at every precision. An `f32` plan leaves `qbuf`
/// untouched.
///
/// With `lists` the layer computes only the output rows `lists.rows` from
/// its input's rows `lists.reads`, every matrix read and written in place
/// at global ids ([`SpmmPlan::run_at_precision_into`] and
/// [`dense_update_with`] take the lists); `mid` and `out` keep their other
/// rows. Every kernel is row-local, so a listed row carries the bits the
/// whole-graph call (`None`) gives it.
///
/// The input is `h`, or `out` itself for `None`: both association orders
/// read the input once, into `mid`, before writing `out`, so a caller can
/// run a layer stack on two buffers (one that retries a failed layer
/// recomputes its input, which the failed attempt may have overwritten).
///
/// # Errors
///
/// Propagates shape mismatches from the SpMM / GEMM kernels (including a
/// plan built for a different adjacency).
///
/// # Examples
///
/// ```
/// use kernels::fused::gcn_layer_planned_into;
/// use kernels::{SpmmPlan, SpmmStrategy};
/// use matrix::{Activation, DenseMatrix, QuantMatrix};
/// use sparse::{Coo, Csr};
///
/// let mut coo = Coo::new(2, 2);
/// coo.push(0, 0, 1.0);
/// coo.push(1, 1, 1.0);
/// let a = Csr::from_coo(&coo);
/// let h = DenseMatrix::from_rows(&[&[1.0, -1.0], &[2.0, 3.0]]).unwrap();
/// let w = DenseMatrix::identity(2);
/// let plan = SpmmPlan::pinned(&a, 2, SpmmStrategy::Sequential);
/// let mut qbuf = QuantMatrix::new();
/// let (mut mid, mut out) = (DenseMatrix::default(), DenseMatrix::default());
/// gcn_layer_planned_into(
///     &a, Some(&h), &w, None, Activation::Relu, &plan, None, &mut qbuf, &mut mid, &mut out,
/// ).unwrap();
/// assert_eq!(out.row(0), &[1.0, 0.0]); // ReLU clamped the -1
/// ```
#[allow(clippy::too_many_arguments)]
// lint:allow(L004): composite layer driver, not a kernel — the plan's
// check_plan plus each sub-kernel's own check validate all shapes.
pub fn gcn_layer_planned_into(
    a: &Csr,
    h: Option<&DenseMatrix>,
    w: &DenseMatrix,
    bias: Option<&[f32]>,
    activation: Activation,
    plan: &SpmmPlan,
    lists: Option<RowLists>,
    qbuf: &mut QuantMatrix,
    mid: &mut DenseMatrix,
    out: &mut DenseMatrix,
) -> Result<FusedOrder, MatrixError> {
    let k_in = w.rows();
    let k_out = w.cols();
    let threads = plan.dense_threads();
    let kd = plan.dense_kernel();
    let (rows, reads) = (lists.map(|l| l.rows), lists.map(|l| l.reads));

    if k_in <= k_out {
        plan.run_at_precision_into(a, h.unwrap_or(out), lists, qbuf, None, mid)?;
        dense_update_with(kd, mid, w, bias, activation, threads, rows, out)?;
        return Ok(FusedOrder::AggregateFirst);
    }
    if let Some(b) = bias.filter(|b| b.len() != k_out) {
        return Err(MatrixError::DimensionMismatch {
            op: "add_row_bias",
            lhs: (a.nrows(), k_out),
            rhs: (1, b.len()),
        });
    }
    let identity = Activation::Identity;
    dense_update_with(kd, h.unwrap_or(out), w, None, identity, threads, reads, mid)?;
    // Per element what `DenseMatrix::add_row_bias` then `apply_activation`
    // compute.
    let bias = bias.unwrap_or_default();
    let finish = |row: &mut [f32]| {
        for (x, b) in row.iter_mut().zip(bias) {
            *x += b;
        }
        activation.apply_in_place(row);
    };
    plan.run_at_precision_into(a, mid, lists, qbuf, Some(&finish), out)?;
    Ok(FusedOrder::UpdateFirst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::nnz_balanced_partition_of;
    use crate::SpmmStrategy;
    use matrix::microkernel::matmul_packed_with;
    use matrix::Precision;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparse::Coo;

    fn random_setup(
        n: usize,
        k_in: usize,
        k_out: usize,
        seed: u64,
    ) -> (Csr, DenseMatrix, DenseMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = Coo::new(n, n);
        for _ in 0..n * 4 {
            coo.push(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-0.5..0.5),
            );
        }
        let a = Csr::from_coo(&coo);
        let h_data = (0..n * k_in).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let h = DenseMatrix::from_vec(n, k_in, h_data).unwrap();
        let w_data = (0..k_in * k_out)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let w = DenseMatrix::from_vec(k_in, k_out, w_data).unwrap();
        (a, h, w)
    }

    /// One ReLU layer along `plan` into the caller's buffers.
    fn run_layer(
        plan: &SpmmPlan,
        (a, h, w): (&Csr, &DenseMatrix, &DenseMatrix),
        bias: Option<&[f32]>,
        mid: &mut DenseMatrix,
        out: &mut DenseMatrix,
    ) -> Result<FusedOrder, MatrixError> {
        let mut qbuf = QuantMatrix::new();
        gcn_layer_planned_into(
            a,
            Some(h),
            w,
            bias,
            Activation::Relu,
            plan,
            None,
            &mut qbuf,
            mid,
            out,
        )
    }

    /// One layer under a plan pinned to `strategy`, into fresh buffers.
    fn layer(
        a: &Csr,
        h: &DenseMatrix,
        w: &DenseMatrix,
        bias: Option<&[f32]>,
        strategy: SpmmStrategy,
    ) -> (DenseMatrix, FusedOrder) {
        let plan = SpmmPlan::pinned(a, h.cols(), strategy);
        let (mut mid, mut out) = (DenseMatrix::default(), DenseMatrix::default());
        let order = run_layer(&plan, (a, h, w), bias, &mut mid, &mut out).unwrap();
        (out, order)
    }

    #[test]
    fn both_association_orders_agree() {
        // Wide W -> aggregate first; narrow W -> update first. Compare both
        // against the unfused reference.
        for (seed, k_in, k_out, want) in [
            (1, 8, 32, FusedOrder::AggregateFirst),
            (2, 32, 8, FusedOrder::UpdateFirst),
        ] {
            let (a, h, w) = random_setup(50, k_in, k_out, seed);
            let (fused, order) = layer(&a, &h, &w, None, SpmmStrategy::Sequential);
            assert_eq!(order, want);
            let mut reference = crate::spmm::spmm_sequential(&a, &h)
                .unwrap()
                .matmul(&w)
                .unwrap();
            reference.apply_activation(Activation::Relu);
            assert!(fused.max_abs_diff(&reference) < 1e-3);
        }
    }

    #[test]
    fn bias_and_activation_are_applied_last() {
        let (a, h, w) = random_setup(20, 4, 4, 3);
        let bias = vec![10.0; 4];
        let (out, _) = layer(&a, &h, &w, Some(&bias), SpmmStrategy::Sequential);
        // With a +10 bias and small weights everything should be positive,
        // so ReLU is the identity here and all entries exceed 5.
        assert!(out.as_slice().iter().all(|&x| x > 5.0));
    }

    #[test]
    fn every_pinned_strategy_matches_the_sequential_layer() {
        let (a, h, w) = random_setup(80, 16, 16, 4);
        let (reference, _) = layer(&a, &h, &w, None, SpmmStrategy::Sequential);
        for strategy in [
            SpmmStrategy::VertexParallel { threads: 4 },
            SpmmStrategy::EdgeParallel { threads: 4 },
            SpmmStrategy::Auto,
        ] {
            let (got, _) = layer(&a, &h, &w, None, strategy);
            assert!(reference.max_abs_diff(&got) < 1e-3, "{strategy}");
        }
    }

    #[test]
    fn layer_reuses_buffers_without_stale_values() {
        let (a, h, w) = random_setup(40, 12, 6, 5);
        let (reference, _) = layer(&a, &h, &w, None, SpmmStrategy::Sequential);
        let plan = SpmmPlan::pinned(&a, 12, SpmmStrategy::VertexParallel { threads: 4 });
        // Oversized, NaN-poisoned buffers: a reshape that fails to clear
        // stale values would surface immediately.
        let mut mid = DenseMatrix::filled(60, 20, f32::NAN);
        let mut out = DenseMatrix::filled(60, 20, f32::NAN);
        for _ in 0..2 {
            let order = run_layer(&plan, (&a, &h, &w), None, &mut mid, &mut out).unwrap();
            assert_eq!(order, FusedOrder::UpdateFirst);
            assert!(reference.max_abs_diff(&out) < 1e-3);
        }
    }

    #[test]
    fn narrow_run_on_an_f32_only_pin_is_a_typed_error() {
        // Never a silent f32 run: both association orders surface the
        // kernel's refusal.
        for (k_in, k_out) in [(8, 32), (32, 8)] {
            let (a, h, w) = random_setup(30, k_in, k_out, 6);
            let plan = SpmmPlan::pinned(&a, k_in, SpmmStrategy::EdgeParallel { threads: 2 })
                .at_precision(Precision::Bf16);
            let (mut mid, mut out) = (DenseMatrix::default(), DenseMatrix::default());
            let ran = run_layer(&plan, (&a, &h, &w), None, &mut mid, &mut out);
            assert!(
                matches!(ran, Err(MatrixError::UnsupportedPrecision { .. })),
                "{ran:?}"
            );
        }
    }

    /// `||x - y||_F / ||y||_F` over two same-shaped matrices.
    fn rel_frob(x: &DenseMatrix, y: &DenseMatrix) -> f32 {
        let mut d = 0.0f64;
        let mut n = 0.0f64;
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            d += ((a - b) as f64).powi(2);
            n += (*b as f64).powi(2);
        }
        (d.sqrt() / n.sqrt()) as f32
    }

    #[test]
    fn narrow_planned_layer_tracks_f32_in_both_orders() {
        // (k_in <= k_out) drives AggregateFirst, the reverse UpdateFirst;
        // both must pick the same order as the f32 layer and stay within a
        // per-precision relative-Frobenius band of it. The bands are the
        // end-to-end 3-layer bounds from the accuracy harness — a single
        // layer sits well inside them, so a blown scale or a skipped
        // dequantization fails loudly.
        for (setup_seed, k_in, k_out, want_order) in [
            (7u64, 8usize, 32usize, FusedOrder::AggregateFirst),
            (8, 32, 8, FusedOrder::UpdateFirst),
        ] {
            let (a, h, w) = random_setup(60, k_in, k_out, setup_seed);
            let bias = vec![0.25; k_out];
            let run = |plan: &SpmmPlan, out: &mut DenseMatrix| {
                let (mut qbuf, mut mid) = (QuantMatrix::new(), DenseMatrix::default());
                gcn_layer_planned_into(
                    &a,
                    Some(&h),
                    &w,
                    Some(&bias),
                    Activation::Relu,
                    plan,
                    None,
                    &mut qbuf,
                    &mut mid,
                    out,
                )
                .unwrap()
            };
            let f32_plan = SpmmPlan::new(&a, k_in);
            let mut reference = DenseMatrix::default();
            assert_eq!(run(&f32_plan, &mut reference), want_order);
            for (precision, band) in [
                (Precision::Bf16, 2e-2f32),
                (Precision::F16, 5e-3),
                (Precision::Int8, 1.5e-1),
            ] {
                let plan = f32_plan.clone().at_precision(precision);
                let mut out = DenseMatrix::filled(3, 3, f32::NAN);
                assert_eq!(run(&plan, &mut out), want_order);
                assert_eq!(out.shape(), reference.shape());
                let err = rel_frob(&out, &reference);
                assert!(
                    err < band,
                    "{precision} {want_order:?}: rel frob {err:.3e} over {band:.1e}"
                );
            }
        }
    }

    #[test]
    fn planned_layer_is_bitwise_the_public_replay_at_every_precision() {
        // The layer contract: at every storage precision and in both
        // association orders, one layer is exactly the public calls
        // `run_at_precision_into` → `matmul_packed_with` → `add_row_bias` →
        // `apply_activation`. Precision picks the SpMM operand and nothing
        // else; an f32 plan never touches the staging buffer.
        for (seed, k_in, k_out, want_order) in [
            (9u64, 8usize, 32usize, FusedOrder::AggregateFirst),
            (10, 12, 6, FusedOrder::UpdateFirst),
        ] {
            let (a, h, w) = random_setup(40, k_in, k_out, seed);
            let bias = vec![0.25; k_out];
            for precision in Precision::all() {
                let plan = SpmmPlan::new(&a, k_in).at_precision(precision);
                let (kd, threads) = (plan.dense_kernel(), pool::global().width());
                let mut qbuf = QuantMatrix::new();
                let mut mid = DenseMatrix::default();
                let mut reference = DenseMatrix::default();
                if want_order == FusedOrder::AggregateFirst {
                    plan.run_at_precision_into(&a, &h, None, &mut qbuf, None, &mut mid)
                        .unwrap();
                    matmul_packed_with(kd, &mid, &w, threads, &mut reference).unwrap();
                } else {
                    matmul_packed_with(kd, &h, &w, threads, &mut mid).unwrap();
                    plan.run_at_precision_into(&a, &mid, None, &mut qbuf, None, &mut reference)
                        .unwrap();
                }
                reference.add_row_bias(&bias).unwrap();
                reference.apply_activation(Activation::Relu);

                let mut qbuf = QuantMatrix::new();
                let mut out = DenseMatrix::default();
                let order = gcn_layer_planned_into(
                    &a,
                    Some(&h),
                    &w,
                    Some(&bias),
                    Activation::Relu,
                    &plan,
                    None,
                    &mut qbuf,
                    &mut mid,
                    &mut out,
                )
                .unwrap();
                assert_eq!(order, want_order, "{precision}");
                assert_eq!(out, reference, "{precision} {want_order:?}");
                let staged = if precision.is_narrow() {
                    (40, k_in.min(k_out))
                } else {
                    (0, 0)
                };
                assert_eq!(qbuf.shape(), staged, "{precision} {want_order:?}");
            }
        }
    }

    #[test]
    fn update_first_epilogue_is_bitwise_serial_at_every_pinned_width() {
        // A star: hub 0 links every leaf, so its row holds half the
        // non-zeros and sits in a share of its own. Update-first (12 -> 5)
        // with a mixed-sign bias and ReLU: the epilogue each share runs on
        // its freshly filled rows must give the bits of the serial replay
        // (sequential SpMM, then `add_row_bias`, then `apply_activation`)
        // at pinned widths 1, 2 and 4, whole-graph and under row lists, at
        // f32 and int8.
        let n = 200;
        let mut coo = Coo::new(n, n);
        coo.push(0, 0, 0.5);
        for v in 1..n {
            let x = 1.0 / (v as f32 + 1.0);
            coo.push(0, v, x);
            coo.push(v, 0, -x);
            coo.push(v, v, 0.5 + x);
        }
        let a = Csr::from_coo(&coo);
        let (_, h, w) = random_setup(n, 12, 5, 13);
        let bias = [0.3, -0.2, 0.0, 0.1, -0.4];
        let act = Activation::Relu;
        let rows: Vec<usize> = (0..n).filter(|v| v % 3 == 0).collect();
        let reads: Vec<usize> = (0..n).collect();
        for precision in [Precision::F32, Precision::Int8] {
            let serial = SpmmPlan::pinned(&a, 5, SpmmStrategy::Sequential).at_precision(precision);
            let kd = serial.dense_kernel();
            let (mut qbuf, mut mid, mut want) = Default::default();
            matmul_packed_with(kd, &h, &w, 1, &mut mid).unwrap();
            serial
                .run_at_precision_into(&a, &mid, None, &mut qbuf, None, &mut want)
                .unwrap();
            want.add_row_bias(&bias).unwrap();
            want.apply_activation(act);
            assert!(want.as_slice().contains(&0.0), "ReLU clamps something");
            for threads in [1, 2, 4] {
                let strategy = SpmmStrategy::VertexParallel { threads };
                let plan = SpmmPlan::pinned(&a, 12, strategy).at_precision(precision);
                assert_eq!(plan.partition()[..2], [0, 1], "hub in its own share");
                let mut out = DenseMatrix::default();
                let b = Some(&bias[..]);
                let order = gcn_layer_planned_into(
                    &a,
                    Some(&h),
                    &w,
                    b,
                    act,
                    &plan,
                    None,
                    &mut qbuf,
                    &mut mid,
                    &mut out,
                )
                .unwrap();
                assert_eq!(order, FusedOrder::UpdateFirst);
                assert_eq!(out, want, "{precision} x{threads} whole graph");

                let mut partition = Vec::new();
                nnz_balanced_partition_of(&a, &rows, 16 * threads, &mut partition);
                assert_eq!(partition[..2], [0, 1], "hub in its own list share");
                let lists = RowLists {
                    rows: &rows,
                    reads: &reads,
                    partition: &partition,
                };
                let mut out = DenseMatrix::filled(n, 5, f32::NAN);
                let (l, q) = (Some(lists), &mut qbuf);
                gcn_layer_planned_into(&a, Some(&h), &w, b, act, &plan, l, q, &mut mid, &mut out)
                    .unwrap();
                for v in 0..n {
                    if v % 3 == 0 {
                        assert_eq!(out.row(v), want.row(v), "{precision} x{threads} row {v}");
                    } else {
                        assert!(out.row(v).iter().all(|x| x.is_nan()), "row {v} written");
                    }
                }
            }
        }
    }

    #[test]
    fn a_listed_layer_carries_the_whole_layers_bits_on_its_rows() {
        // Both orders, every precision: the listed rows of `out` equal the
        // whole-graph layer's bit for bit, no other row of `mid` or `out`
        // is written, and no row of `h` outside `reads` is read (they hold
        // NaN, which would reach a listed row that read one).
        let n = 50;
        for (seed, k_in, k_out) in [(11u64, 6usize, 20usize), (12, 20, 6)] {
            let (a, h, w) = random_setup(n, k_in, k_out, seed);
            let bias = vec![-0.1; k_out];
            let rows: Vec<usize> = (0..n).filter(|v| v % 4 == 1).collect();
            let mut reads: Vec<usize> = rows
                .iter()
                .flat_map(|&v| a.row_cols(v).iter().map(|&c| c as usize))
                .collect();
            reads.sort_unstable();
            reads.dedup();
            let mut holey = DenseMatrix::filled(n, k_in, f32::NAN);
            for &v in &reads {
                holey.row_mut(v).copy_from_slice(h.row(v));
            }
            let mut partition = Vec::new();
            nnz_balanced_partition_of(&a, &rows, 4 * pool::global().width(), &mut partition);
            let lists = RowLists {
                rows: &rows,
                reads: &reads,
                partition: &partition,
            };
            for precision in Precision::all() {
                let plan = SpmmPlan::new(&a, k_in).at_precision(precision);
                let (mut qbuf, mut mid, mut whole) = Default::default();
                let act = Activation::Relu;
                let b = Some(&bias[..]);
                gcn_layer_planned_into(
                    &a,
                    Some(&h),
                    &w,
                    b,
                    act,
                    &plan,
                    None,
                    &mut qbuf,
                    &mut mid,
                    &mut whole,
                )
                .unwrap();
                let mut mid = DenseMatrix::filled(n, k_in.min(k_out), f32::NAN);
                let mut out = DenseMatrix::filled(n, k_out, f32::NAN);
                let (l, q) = (Some(lists), &mut qbuf);
                gcn_layer_planned_into(
                    &a,
                    Some(&holey),
                    &w,
                    b,
                    act,
                    &plan,
                    l,
                    q,
                    &mut mid,
                    &mut out,
                )
                .unwrap();
                for v in 0..n {
                    if rows.contains(&v) {
                        assert_eq!(out.row(v), whole.row(v), "{precision} row {v}");
                    } else {
                        assert!(out.row(v).iter().all(|x| x.is_nan()), "{precision} row {v}");
                    }
                    let mid_rows = if k_in <= k_out { &rows } else { &reads };
                    let untouched = mid.row(v).iter().all(|x| x.is_nan());
                    assert_eq!(untouched, !mid_rows.contains(&v), "{precision} mid row {v}");
                }
            }
        }
    }
}
