//! The naive GEMM reference and the shape / FLOP helpers the packed engine
//! shares.
//!
//! The GCN "update" phase is `H * W` where `H` is `|V| x K_in` (tall and
//! skinny) and `W` is `K_in x K_out` (small). The production kernel is the
//! packed, register-tiled, multi-threaded engine in [`crate::microkernel`]
//! ([`crate::microkernel::matmul_packed_with`]); [`matmul_naive`] is the
//! oracle it and `GcnModel::infer_reference` are checked against.
//!
//! [`matmul_naive`]: crate::gemm::matmul_naive

use crate::dense::DenseMatrix;
use crate::error::MatrixError;
use crate::Result;

// BOUNDS: all `[]` indexing reads operand rows via `DenseMatrix::row`
// (length-checked by construction); `check_shapes` ties the operand
// dimensions together at every entry point.

pub(crate) fn check_shapes(op: &'static str, a: &DenseMatrix, b: &DenseMatrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(MatrixError::DimensionMismatch {
            op,
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(())
}

/// Naive triple-loop GEMM. The correctness reference for everything else.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn matmul_naive(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    check_shapes("matmul_naive", a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            if aip == 0.0 {
                continue;
            }
            let brow = b.row(p);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += aip * brow[j];
            }
        }
    }
    Ok(c)
}

/// FLOP count of a GEMM with these operand shapes (`2 * m * k * n`),
/// saturating instead of overflowing on huge synthetic shapes: the product
/// is formed in `u128` with saturating multiplies before the final `f64`
/// conversion, so `usize::MAX`-scale inputs report `u128::MAX` FLOPs
/// (~3.4e38) rather than a wrapped garbage count.
pub fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
    (m as u128)
        .saturating_mul(k as u128)
        .saturating_mul(n as u128)
        .saturating_mul(2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::{matmul_packed_with, KernelDispatch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> DenseMatrix {
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    /// The packed engine on `threads` pool executors, into a fresh output.
    fn packed(a: &DenseMatrix, b: &DenseMatrix, threads: usize) -> Result<DenseMatrix> {
        let mut c = DenseMatrix::default();
        matmul_packed_with(KernelDispatch::get(), a, b, threads, &mut c)?;
        Ok(c)
    }

    #[test]
    fn naive_matches_hand_example() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = matmul_naive(&a, &b).unwrap();
        let expected = DenseMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn one_thread_packed_matches_naive_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (64, 64, 64),
            (65, 129, 33),
            (100, 17, 200),
        ] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let c0 = matmul_naive(&a, &b).unwrap();
            let c1 = a.matmul(&b).unwrap();
            assert!(c0.max_abs_diff(&c1) < 1e-4, "shape ({m},{k},{n})");
        }
    }

    #[test]
    fn packed_matches_naive_for_various_thread_counts() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_matrix(&mut rng, 97, 43);
        let b = random_matrix(&mut rng, 43, 21);
        let reference = matmul_naive(&a, &b).unwrap();
        for threads in [1, 2, 3, 8, 200] {
            let c = packed(&a, &b, threads).unwrap();
            assert!(
                reference.max_abs_diff(&c) < 1e-4,
                "threads={threads} diverged"
            );
        }
    }

    #[test]
    fn packed_reuses_buffer_and_clears_stale_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, 33, 17);
        let b = random_matrix(&mut rng, 17, 9);
        let reference = matmul_naive(&a, &b).unwrap();
        // Pre-poison the output with a larger stale matrix.
        let mut c = DenseMatrix::filled(50, 50, f32::NAN);
        let ptr = c.as_slice().as_ptr();
        matmul_packed_with(KernelDispatch::get(), &a, &b, 4, &mut c).unwrap();
        assert!(reference.max_abs_diff(&c) < 1e-4);
        assert_eq!(
            c.as_slice().as_ptr(),
            ptr,
            "capacity was large enough: no realloc"
        );
        // Second call with identical shapes must also be correct.
        matmul_packed_with(KernelDispatch::get(), &a, &b, 4, &mut c).unwrap();
        assert!(reference.max_abs_diff(&c) < 1e-4);
    }

    #[test]
    fn zero_width_outputs_are_handled() {
        let a = DenseMatrix::zeros(4, 3);
        let b = DenseMatrix::zeros(3, 0);
        let c = packed(&a, &b, 4).unwrap();
        assert_eq!(c.shape(), (4, 0));
    }

    #[test]
    fn shape_mismatch_is_rejected_by_all_kernels() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(4, 2);
        assert!(matmul_naive(&a, &b).is_err());
        assert!(a.matmul(&b).is_err());
        assert!(packed(&a, &b, 2).is_err());
    }

    #[test]
    fn zero_threads_is_rejected() {
        let a = DenseMatrix::zeros(2, 2);
        let b = DenseMatrix::zeros(2, 2);
        assert_eq!(packed(&a, &b, 0).unwrap_err(), MatrixError::ZeroThreads);
    }

    #[test]
    fn empty_matrices_multiply_to_empty() {
        let a = DenseMatrix::zeros(0, 3);
        let b = DenseMatrix::zeros(3, 4);
        let c = packed(&a, &b, 4).unwrap();
        assert_eq!(c.shape(), (0, 4));
    }

    #[test]
    fn gemm_flop_count_matches_formula() {
        assert_eq!(gemm_flops(10, 20, 30), 12000.0);
    }

    #[test]
    fn gemm_flop_count_saturates_on_huge_shapes() {
        let huge = gemm_flops(usize::MAX, usize::MAX, usize::MAX);
        assert!(huge.is_finite());
        assert_eq!(huge, u128::MAX as f64);
        // Saturation must not disturb realistic shapes.
        assert_eq!(gemm_flops(512, 512, 512), 2.0 * 512.0f64.powi(3));
    }
}
