//! Property tests for the dense micro-kernel engine: every dispatch
//! backend (scalar, portable, and AVX2+FMA when the host supports it)
//! must compute the same product as the naive reference GEMM on random
//! shapes — including degenerate ones the register tiling has to pad
//! (k == 0, single-column outputs, heights and widths that are not
//! multiples of the 6x16 tile, depths on both sides of the 256-deep panel)
//! — and the fused dense update must equal the unfused GEMM → bias →
//! activation sequence bit for bit.

use piuma_gcn::kernels::plan::{nnz_balanced_partition, spmm_nnz_balanced_with};
use piuma_gcn::kernels::spmm::{spmm_sequential_into, FeatureOperand};
use piuma_gcn::matrix::gemm::matmul_naive;
use piuma_gcn::matrix::microkernel::{
    avx2_available, dense_update_with, matmul_packed_with, Backend, KernelDispatch,
};
use piuma_gcn::matrix::{Activation, DenseMatrix, Precision, QuantMatrix};
use piuma_gcn::sparse::{Coo, Csr};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every backend the host can run. AVX2+FMA is included only when the
/// CPU reports it; `KernelDispatch::with_backend` would silently
/// downgrade it otherwise and the test would compare portable twice.
fn backends() -> Vec<KernelDispatch> {
    let mut v = vec![
        KernelDispatch::with_backend(Backend::Scalar),
        KernelDispatch::with_backend(Backend::Portable),
    ];
    if avx2_available() {
        v.push(KernelDispatch::with_backend(Backend::Avx2Fma));
    }
    v
}

fn random_dense(rng: &mut StdRng, rows: usize, cols: usize) -> DenseMatrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The bitwise oracle of the register-tiled SpMM row kernel: on every
/// backend, for widths on both sides of the 8-lane group and the 64-lane
/// tile, `fill_row` (into stale NaNs) and `accumulate_row` (from a random
/// row) equal one `kd.axpy` per non-zero, bit for bit. That equality is
/// what the shard / rows / serving / recovery identity gates stand on.
#[test]
fn row_kernel_is_bitwise_equal_to_the_per_nonzero_axpy_loop() {
    let mut rng = StdRng::seed_from_u64(15);
    for k in [1usize, 7, 8, 9, 40, 47, 64, 100, 128, 129, 256] {
        let h = random_dense(&mut rng, 50, k);
        for nnz in [0usize, 1, 5, 1000] {
            let cols: Vec<u32> = (0..nnz).map(|_| rng.gen_range(0..50)).collect();
            let weights: Vec<f32> = (0..nnz).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let start: Vec<f32> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            for kd in backends() {
                let name = kd.backend().name();
                for from in [None, Some(&start)] {
                    let mut want = from.map_or(vec![0.0; k], |s| s.clone());
                    for (&v, &w) in cols.iter().zip(&weights) {
                        kd.axpy(&mut want, w, h.row(v as usize));
                    }
                    let got = match from {
                        None => {
                            let mut y = vec![f32::NAN; k];
                            h.fill_row(kd, &mut y, &cols, &weights);
                            y
                        }
                        Some(s) => {
                            let mut y = s.clone();
                            h.accumulate_row(kd, &mut y, &cols, &weights);
                            y
                        }
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{name} k={k} nnz={nnz} accumulate={}",
                        from.is_some()
                    );
                }
            }
        }
    }
}

/// One contract for every storage width and backend: a column id at or
/// past the operand's last row is skipped — never read, never a panic.
#[test]
fn row_kernel_skips_out_of_range_columns_at_every_width() {
    let mut rng = StdRng::seed_from_u64(16);
    // Two full groups plus a masked tail.
    let h = random_dense(&mut rng, 6, 20);
    let (cols, weights) = ([4u32, 6, 1, u32::MAX, 5], [0.5f32, 9.0, -1.25, 3.0, 2.0]);
    let (kept_cols, kept_weights) = ([4u32, 1, 5], [0.5f32, -1.25, 2.0]);
    fn check<F: FeatureOperand>(h: &F, what: &str, with: (&[u32], &[f32]), kept: (&[u32], &[f32])) {
        for kd in backends() {
            let (mut got, mut want) = (vec![f32::NAN; 20], vec![f32::NAN; 20]);
            h.fill_row(kd, &mut got, with.0, with.1);
            h.fill_row(kd, &mut want, kept.0, kept.1);
            assert_eq!(
                bits(&got),
                bits(&want),
                "{what} {} fill",
                kd.backend().name()
            );
            h.accumulate_row(kd, &mut got, with.0, with.1);
            h.accumulate_row(kd, &mut want, kept.0, kept.1);
            assert_eq!(
                bits(&got),
                bits(&want),
                "{what} {} acc",
                kd.backend().name()
            );
        }
    }
    check(&h, "f32", (&cols, &weights), (&kept_cols, &kept_weights));
    let mut q = QuantMatrix::new();
    for p in [Precision::Bf16, Precision::F16, Precision::Int8] {
        q.encode(&h, p).unwrap();
        check(&q, p.name(), (&cols, &weights), (&kept_cols, &kept_weights));
    }
}

/// The whole-row kernels no longer zero their output first, so a reused
/// same-shape buffer must still come back fully written — empty rows too.
#[test]
fn spmm_into_a_stale_same_shape_buffer_leaves_no_nan() {
    let mut rng = StdRng::seed_from_u64(17);
    let n = 300;
    let mut coo = Coo::new(n, n);
    for u in (0..n).filter(|u| u % 3 != 1) {
        for _ in 0..1 + u % 7 {
            coo.push(u, rng.gen_range(0..n), rng.gen_range(-1.0..1.0));
        }
    }
    let a = Csr::from_coo(&coo);
    assert!((0..n).any(|u| a.row_nnz(u) == 0));
    for k in [9usize, 64] {
        let h = random_dense(&mut rng, n, k);
        let mut reference = DenseMatrix::default();
        spmm_sequential_into(&a, &h, &mut reference).unwrap();
        assert!(reference.all_finite());
        let partition = nnz_balanced_partition(a.row_ptr(), 8);
        for kd in backends() {
            for threads in [1usize, 4] {
                let mut out = DenseMatrix::filled(n, k, f32::NAN);
                spmm_nnz_balanced_with(kd, &a, &h, &partition, threads, &mut out).unwrap();
                assert!(out.all_finite(), "{} x{threads}", kd.backend().name());
                assert!(reference.max_abs_diff(&out) < 1e-4);
            }
        }
        let mut out = DenseMatrix::filled(n, k, f32::NAN);
        spmm_sequential_into(&a, &h, &mut out).unwrap();
        assert_eq!(out, reference);
    }
}

/// Maps a raw selector to an interesting row/column dimension: the fixed
/// boundary cases (1 = pure tile padding, 6 = exactly one tile height,
/// 16 = exactly one tile width, 72 = one full MC row block) each get
/// dedicated mass, the rest spreads over 2..80 to cover ragged heights and
/// widths that are not multiples of 6 or 16.
fn dim_from(sel: usize) -> usize {
    match sel {
        0..=2 => 1,
        3..=5 => 6,
        6..=8 => 16,
        9..=11 => 72,
        s => 2 + s % 78,
    }
}

/// Maps a raw selector to a reduction depth, with dedicated mass on the
/// empty reduction (k == 0) and on depths around the 256-deep panel: one
/// short of it, exactly one, one past it (a second, one-lane depth block)
/// and three blocks — the store → add → epilogue write-back sequence.
fn k_from(sel: usize) -> usize {
    match sel {
        0..=2 => 0,
        3..=5 => 255,
        6..=8 => 256,
        9..=11 => 257,
        12..=14 => 513,
        s => 1 + s % 23,
    }
}

/// Strategy: a GEMM problem (A: m x k, B: k x n) with shapes chosen to
/// straddle the MR=6 x NR=16 register tile and the KC=256 depth block, plus the degenerate edges the
/// packing code has to handle: empty reduction (k == 0) and one-column
/// feature panels (n == 1).
fn gemm_strategy() -> impl Strategy<Value = (DenseMatrix, DenseMatrix)> {
    (0usize..120, 0usize..120, 0usize..120).prop_flat_map(|(ms, ks, ns)| {
        let (m, k, n) = (dim_from(ms), k_from(ks), dim_from(ns));
        // The vendored proptest stub sizes vectors by range; `x..x + 1`
        // pins the length exactly.
        (
            proptest::collection::vec(-2.0f32..2.0, m * k..m * k + 1),
            proptest::collection::vec(-2.0f32..2.0, k * n..k * n + 1),
        )
            .prop_map(move |(av, bv)| {
                (
                    DenseMatrix::from_vec(m, k, av).unwrap(),
                    DenseMatrix::from_vec(k, n, bv).unwrap(),
                )
            })
    })
}

/// Max |x - y| / max(1, |x|) over two matrices of identical shape.
fn max_rel_diff(x: &DenseMatrix, y: &DenseMatrix) -> f32 {
    x.as_slice()
        .iter()
        .zip(y.as_slice())
        .map(|(a, b)| (a - b).abs() / a.abs().max(1.0))
        .fold(0.0, f32::max)
}

/// Every activation the layer can ask for.
const ACTIVATIONS: [Activation; 5] = [
    Activation::Relu,
    Activation::LeakyRelu,
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Identity,
];

/// The fused dense update equals `matmul_packed_with` → `add_row_bias` →
/// `apply_activation` bit for bit: on every backend, for every activation,
/// with and without a bias, on one and four executors, at depths of one,
/// two and three panels. The inputs are seeded with NaN, signed zeros, a
/// `-0.0` bias lane and a row whose products all underflow to `-0.0` — the
/// cases where storing the first depth block as `0.0 + acc` (not `acc`)
/// and a vector ReLU could differ from an add into a zeroed output
/// followed by `f32::max`.
#[test]
fn epilogue_matches_unfused_bitwise() {
    let mut rng = StdRng::seed_from_u64(18);
    for (m, k, n) in [
        (13usize, 40usize, 37usize),
        (7, 300, 16),
        (20, 513, 9),
        (5, 0, 6),
    ] {
        let mut a = random_dense(&mut rng, m, k);
        let mut w = random_dense(&mut rng, k, n);
        if k > 0 {
            // Row 0 of A against column 0 of W: tiny negatives against
            // tiny positives, so every product of C[0][0] underflows to
            // -0.0.
            a.row_mut(0).fill(-1e-30);
            for p in 0..k {
                w.row_mut(p)[0] = 1e-30;
            }
            a.row_mut(1)[k / 2] = f32::NAN;
            a.row_mut(2).fill(-0.0);
            a.row_mut(3)[0] = 0.0;
        }
        let mut bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        bias[0] = -0.0;
        bias[n - 1] = 0.0;
        for kd in backends() {
            let name = kd.backend().name();
            for threads in [1usize, 4] {
                let mut product = DenseMatrix::default();
                matmul_packed_with(kd, &a, &w, threads, &mut product).unwrap();
                if k > 0 {
                    // An add into a zeroed output maps -0.0 to +0.0.
                    assert_eq!(
                        product.row(0)[0].to_bits(),
                        0,
                        "{name} k={k} x{threads}: underflowed sum must be +0.0"
                    );
                }
                for act in ACTIVATIONS {
                    for b in [None, Some(bias.as_slice())] {
                        let mut want = product.clone();
                        if let Some(b) = b {
                            want.add_row_bias(b).unwrap();
                        }
                        want.apply_activation(act);
                        let mut got = DenseMatrix::filled(m, n, f32::NAN);
                        dense_update_with(kd, &a, &w, b, act, threads, &mut got).unwrap();
                        assert_eq!(
                            bits(got.as_slice()),
                            bits(want.as_slice()),
                            "{name} ({m},{k},{n}) x{threads} {act} bias={}",
                            b.is_some()
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All backends agree with the naive triple loop within 1e-4
    /// relative error (FMA contracts rounding differently than separate
    /// mul+add, so bit-exactness is not expected).
    #[test]
    fn packed_backends_match_naive((a, b) in gemm_strategy()) {
        let reference = matmul_naive(&a, &b).unwrap();
        let mut c = DenseMatrix::default();
        for kd in backends() {
            // Exercise both the single-executor path and the row-chunked
            // broadcast path; results must be identical either way.
            for threads in [1usize, 4] {
                matmul_packed_with(kd, &a, &b, threads, &mut c).unwrap();
                prop_assert_eq!(c.shape(), reference.shape());
                let diff = max_rel_diff(&reference, &c);
                prop_assert!(
                    diff < 1e-4,
                    "backend {} threads {} diverged by {}",
                    kd.backend().name(), threads, diff
                );
            }
        }
    }

    /// The widened-AXPY SpMM primitive agrees across backends for every
    /// feature width, including F == 1 and ragged (non-multiple-of-8)
    /// tails where the vector loop hands off to the scalar remainder.
    #[test]
    fn axpy_backends_agree(
        alpha in -4.0f32..4.0,
        x in proptest::collection::vec(-2.0f32..2.0, 1..70),
        y0 in proptest::collection::vec(-2.0f32..2.0, 1..70),
    ) {
        let mut expect = y0.clone();
        for (yj, xj) in expect.iter_mut().zip(&x) {
            *yj += alpha * *xj;
        }
        for kd in backends() {
            let mut y = y0.clone();
            kd.axpy(&mut y, alpha, &x);
            for (j, (got, want)) in y.iter().zip(&expect).enumerate() {
                prop_assert!(
                    (got - want).abs() < 1e-5,
                    "backend {} lane {} got {} want {}",
                    kd.backend().name(), j, got, want
                );
            }
        }
    }
}
