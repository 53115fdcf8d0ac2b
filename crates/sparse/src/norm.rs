//! GCN adjacency normalization (Kipf & Welling).
//!
//! A GCN layer computes `H' = sigma(A_hat * H * W)` where
//! `A_hat = D^-1/2 (A + I) D^-1/2`, `A` is the (unweighted) adjacency matrix
//! with self loops added, and `D` its degree matrix. This module builds
//! `A_hat` in CSR form in one pass over the rows (diagonal merged in, degree
//! summed), then scales it in place: no COO triplets and no second CSR.

use crate::csr::Csr;
use crate::error::SparseError;
use crate::Result;

/// Normalization schemes for the adjacency matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NormKind {
    /// Symmetric GCN normalization `D^-1/2 (A + I) D^-1/2`.
    #[default]
    Symmetric,
    /// Random-walk (row) normalization `D^-1 (A + I)`.
    RandomWalk,
    /// Self loops added but no degree scaling.
    None,
}

/// Builds the normalized adjacency matrix `A_hat` from a square adjacency
/// CSR. Self loops are always added (entries on the diagonal are merged with
/// any pre-existing ones before scaling).
///
/// Edge values in the input are treated as weights; a plain 0/1 adjacency
/// yields the textbook formula. Degrees are summed in `f64` in column order;
/// each weight is scaled in `f64` (by 0 at degree `<= 0`) and rounded once.
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] if `adj` is not square.
///
/// # Examples
///
/// ```
/// use sparse::{Coo, Csr};
/// use sparse::norm::{normalize, NormKind};
///
/// // A path graph 0 - 1: each vertex ends with degree 2 (1 edge + self loop).
/// let mut coo = Coo::new(2, 2);
/// coo.push(0, 1, 1.0);
/// coo.push(1, 0, 1.0);
/// let a_hat = normalize(&Csr::from_coo(&coo), NormKind::Symmetric).unwrap();
/// assert!((a_hat.get(0, 0).unwrap() - 0.5).abs() < 1e-6);
/// assert!((a_hat.get(0, 1).unwrap() - 0.5).abs() < 1e-6);
/// ```
pub fn normalize(adj: &Csr, kind: NormKind) -> Result<Csr> {
    if adj.nrows() != adj.ncols() {
        return Err(SparseError::NotSquare { shape: adj.shape() });
    }
    let n = adj.nrows();
    let has_loop = |r: usize| adj.row_cols(r).binary_search(&(r as u32)).is_ok();
    let nnz = adj.nnz() + (0..n).filter(|&r| !has_loop(r)).count();

    // A + I, and each row's scale from its weighted degree `d`.
    let sym = kind == NormKind::Symmetric;
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut values: Vec<f32> = Vec::with_capacity(nnz);
    let mut scale = Vec::with_capacity(n);
    row_ptr.push(0);
    for r in 0..n {
        let (cols, vals) = (adj.row_cols(r), adj.row_values(r));
        let below = cols.partition_point(|&c| (c as usize) < r);
        let above = below + usize::from(has_loop(r));
        col_idx.extend_from_slice(&cols[..below]);
        col_idx.push(r as u32);
        col_idx.extend_from_slice(&cols[above..]);
        values.extend_from_slice(&vals[..below]);
        values.push(vals[below..above].first().map_or(1.0, |&v| v + 1.0));
        values.extend_from_slice(&vals[above..]);
        let row = &values[row_ptr[r]..];
        let d = row.iter().fold(0.0, |d, &v| d + f64::from(v));
        let s = if sym { 1.0 / d.sqrt() } else { 1.0 / d };
        scale.push(if d > 0.0 { s } else { 0.0 });
        row_ptr.push(values.len());
    }
    if kind != NormKind::None {
        // `* 1.0` is exact, so the random-walk weight is `v * s[r]`.
        for (r, span) in row_ptr.windows(2).enumerate() {
            for i in span[0]..span[1] {
                let by_col = if sym { scale[col_idx[i] as usize] } else { 1.0 };
                values[i] = (f64::from(values[i]) * scale[r] * by_col) as f32;
            }
        }
    }
    Ok(Csr::from_raw(n, n, row_ptr, col_idx, values).expect("A + I keeps the rows sorted"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use proptest::prelude::*;

    /// The reference `normalize`: `A + I` and the scaled copy each built
    /// as COO triplets and converted to CSR.
    fn coo_oracle(adj: &Csr, kind: NormKind) -> Csr {
        let n = adj.nrows();
        let mut coo = Coo::with_capacity(n, n, adj.nnz() + n);
        for (r, c, v) in adj.iter() {
            coo.push(r, c, v);
        }
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        let with_loops = Csr::from_coo(&coo);
        if kind == NormKind::None {
            return with_loops;
        }
        let mut degree = vec![0.0f64; n];
        for (r, _, v) in with_loops.iter() {
            degree[r] += v as f64;
        }
        let inv_sqrt: Vec<f64> = degree
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let inv: Vec<f64> = degree
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        let mut scaled = Coo::with_capacity(n, n, with_loops.nnz());
        for (r, c, v) in with_loops.iter() {
            let w = match kind {
                NormKind::Symmetric => v as f64 * inv_sqrt[r] * inv_sqrt[c],
                _ => v as f64 * inv[r],
            };
            scaled.push(r, c, w as f32);
        }
        Csr::from_coo(&scaled)
    }

    fn bits(csr: &Csr) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
        let values = csr.values().iter().map(|v| v.to_bits()).collect();
        (csr.row_ptr().to_vec(), csr.col_idx().to_vec(), values)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Weighted matrices with stored diagonals (some of them `-1`, so
        /// `A + I` stores an explicit zero), empty rows and rows whose
        /// weights sum to `<= 0`: every kind matches the COO reference bit
        /// for bit.
        #[test]
        fn one_pass_matches_the_coo_reference(
            n in 0usize..9,
            triplets in proptest::collection::vec(
                (0usize..9, 0usize..9, -3i32..9, -2.0f32..2.0),
                0..48,
            ),
        ) {
            // Half-integer steps hit `-1` on the diagonal; the rest are
            // arbitrary weights whose scaled values round.
            let mut coo = Coo::new(n, n);
            for &(r, c, k, x) in triplets.iter().filter(|&&(r, c, ..)| r < n && c < n) {
                coo.push(r, c, if k < 3 { k as f32 * 0.5 } else { x });
            }
            let adj = Csr::from_coo(&coo);
            for kind in [NormKind::Symmetric, NormKind::RandomWalk, NormKind::None] {
                let got = normalize(&adj, kind).unwrap();
                prop_assert_eq!(bits(&got), bits(&coo_oracle(&adj, kind)));
            }
        }
    }

    fn path3() -> Csr {
        // 0 - 1 - 2 undirected path
        let mut coo = Coo::new(3, 3);
        for &(a, b) in &[(0usize, 1usize), (1, 2)] {
            coo.push(a, b, 1.0);
            coo.push(b, a, 1.0);
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn symmetric_norm_rows_of_regular_graph_sum_to_one() {
        // A 4-cycle is 2-regular; with self loops every degree is 3 and the
        // symmetric norm coincides with the random-walk norm, so rows sum to 1.
        let mut coo = Coo::new(4, 4);
        for &(a, b) in &[(0usize, 1usize), (1, 2), (2, 3), (3, 0)] {
            coo.push(a, b, 1.0);
            coo.push(b, a, 1.0);
        }
        let a_hat = normalize(&Csr::from_coo(&coo), NormKind::Symmetric).unwrap();
        for r in 0..4 {
            let s: f32 = a_hat.row_values(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn symmetric_norm_matches_hand_computation_on_path() {
        let a_hat = normalize(&path3(), NormKind::Symmetric).unwrap();
        // Degrees with self loops: [2, 3, 2].
        assert!((a_hat.get(0, 0).unwrap() - 0.5).abs() < 1e-6);
        let expect_01 = 1.0 / (2.0f32 * 3.0).sqrt();
        assert!((a_hat.get(0, 1).unwrap() - expect_01).abs() < 1e-6);
        assert!((a_hat.get(1, 1).unwrap() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn symmetric_norm_is_symmetric() {
        let a_hat = normalize(&path3(), NormKind::Symmetric).unwrap();
        for (r, c, v) in a_hat.iter() {
            let vt = a_hat.get(c, r).expect("symmetric entry");
            assert!((v - vt).abs() < 1e-6);
        }
    }

    #[test]
    fn random_walk_rows_sum_to_one() {
        let a_hat = normalize(&path3(), NormKind::RandomWalk).unwrap();
        for r in 0..3 {
            let s: f32 = a_hat.row_values(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn none_only_adds_self_loops() {
        let a_hat = normalize(&path3(), NormKind::None).unwrap();
        assert_eq!(a_hat.nnz(), path3().nnz() + 3);
        assert_eq!(a_hat.get(2, 2), Some(1.0));
        assert_eq!(a_hat.get(0, 1), Some(1.0));
    }

    #[test]
    fn isolated_vertices_get_self_loop_weight_one() {
        let adj = Csr::empty(2, 2);
        let a_hat = normalize(&adj, NormKind::Symmetric).unwrap();
        // Degree 1 (self loop only) -> weight 1/sqrt(1)/sqrt(1) = 1.
        assert_eq!(a_hat.get(0, 0), Some(1.0));
        assert_eq!(a_hat.get(1, 1), Some(1.0));
        assert_eq!(a_hat.nnz(), 2);
    }

    #[test]
    fn non_square_is_rejected() {
        let adj = Csr::empty(2, 3);
        assert!(matches!(
            normalize(&adj, NormKind::Symmetric),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn existing_self_loops_are_merged_not_duplicated() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a_hat = normalize(&Csr::from_coo(&coo), NormKind::None).unwrap();
        // (0,0) exists once with merged weight 2.0 (existing 1.0 + added 1.0).
        assert_eq!(a_hat.get(0, 0), Some(2.0));
        assert_eq!(a_hat.nnz(), 4);
    }
}
