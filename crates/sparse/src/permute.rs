//! Vertex permutations and CSR reordering.
//!
//! Locality-aware graph reordering — degree sorting, BFS, RCM — relabels
//! vertices so that SpMM's scattered feature-row reads land close together
//! (the effect the paper's PIUMA DMA kernels engineer by hand: turning
//! scattered 8-byte loads into dense blocks). This module supplies the
//! mechanical half of that story: a validated bijection type
//! ([`Permutation`]) and [`Csr::permute`], which relabels rows and columns
//! in one pass. The orderings themselves live in `graph::reorder`, next to
//! the graph generators they inspect.

use crate::csr::Csr;
use crate::error::SparseError;
use crate::Result;

/// A validated bijection on `0..len`, stored in both directions so lookups
/// never pay an inversion.
///
/// Conventions used throughout the workspace:
///
/// * `new_of_old[old] = new` — where an old vertex lands (*scatter* view),
/// * `old_of_new[new] = old` — which old vertex fills a new slot (*gather*
///   view; this is the "ordering" a traversal produces).
///
/// # Examples
///
/// ```
/// use sparse::Permutation;
///
/// // The ordering [2, 0, 1]: new vertex 0 is old vertex 2, and so on.
/// let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
/// assert_eq!(p.new_of_old(2), 0);
/// assert_eq!(p.old_of_new(0), 2);
/// assert_eq!(p.inverse().new_of_old(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_of_old: Vec<usize>,
    old_of_new: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `0..len`.
    pub fn identity(len: usize) -> Self {
        let id: Vec<usize> = (0..len).collect();
        Permutation {
            new_of_old: id.clone(),
            old_of_new: id,
        }
    }

    /// Builds a permutation from the *gather* direction: `order[new] = old`.
    /// This is the natural output of a traversal ("visit old vertex 7
    /// first, then 3, ...").
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidPermutation`] if `order` is not a
    /// bijection on `0..order.len()`.
    pub fn from_new_to_old(order: Vec<usize>) -> Result<Self> {
        let new_of_old = invert(&order)?;
        Ok(Permutation {
            new_of_old,
            old_of_new: order,
        })
    }

    /// Number of elements permuted.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// Whether the permutation is over the empty set.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// Where old index `old` lands.
    ///
    /// # Panics
    ///
    /// Panics if `old >= self.len()`.
    pub fn new_of_old(&self, old: usize) -> usize {
        self.new_of_old[old]
    }

    /// Which old index occupies new slot `new`.
    ///
    /// # Panics
    ///
    /// Panics if `new >= self.len()`.
    pub fn old_of_new(&self, new: usize) -> usize {
        self.old_of_new[new]
    }

    /// The inverse permutation (swaps the two stored directions).
    pub fn inverse(&self) -> Permutation {
        Permutation {
            new_of_old: self.old_of_new.clone(),
            old_of_new: self.new_of_old.clone(),
        }
    }
}

/// Inverts `map`, verifying it is a bijection on `0..map.len()`.
fn invert(map: &[usize]) -> Result<Vec<usize>> {
    let n = map.len();
    let mut inv = vec![usize::MAX; n];
    for (i, &m) in map.iter().enumerate() {
        if m >= n {
            return Err(SparseError::InvalidPermutation {
                reason: format!("from_new_to_old: index {m} out of range for length {n}"),
            });
        }
        if inv[m] != usize::MAX {
            return Err(SparseError::InvalidPermutation {
                reason: format!("from_new_to_old: index {m} appears more than once"),
            });
        }
        inv[m] = i;
    }
    Ok(inv)
}

impl Csr {
    /// Relabels rows and columns: entry `(r, c)` of `self` becomes entry
    /// `(rows.new_of_old(r), cols.new_of_old(c))` of the result. Values are
    /// preserved exactly; only positions move.
    ///
    /// Runs in `O(nnz log d_max + nrows)` — each output row gathers its
    /// source row and re-sorts by the relabeled columns.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidPermutation`] if either permutation's
    /// length does not match the corresponding dimension.
    pub fn permute(&self, rows: &Permutation, cols: &Permutation) -> Result<Csr> {
        if rows.len() != self.nrows() {
            return Err(SparseError::InvalidPermutation {
                reason: format!(
                    "row permutation length {} != nrows {}",
                    rows.len(),
                    self.nrows()
                ),
            });
        }
        if cols.len() != self.ncols() {
            return Err(SparseError::InvalidPermutation {
                reason: format!(
                    "column permutation length {} != ncols {}",
                    cols.len(),
                    self.ncols()
                ),
            });
        }
        let mut row_ptr = Vec::with_capacity(self.nrows() + 1);
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.nnz());
        let mut values: Vec<f32> = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for new_r in 0..self.nrows() {
            let old_r = rows.old_of_new(new_r);
            scratch.clear();
            for (&c, &v) in self.row_cols(old_r).iter().zip(self.row_values(old_r)) {
                scratch.push((cols.new_of_old(c as usize) as u32, v));
            }
            // A bijection cannot create duplicate columns, so sorting is all
            // that is needed to restore the within-row invariant.
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_raw(self.nrows(), self.ncols(), row_ptr, col_idx, values)
    }

    /// [`Csr::permute`] applying the same permutation to rows and columns —
    /// the adjacency-matrix case, where relabeling vertices relabels both
    /// dimensions at once.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidPermutation`] if the matrix is not
    /// square or the permutation length does not match.
    pub fn permute_symmetric(&self, perm: &Permutation) -> Result<Csr> {
        if self.nrows() != self.ncols() {
            return Err(SparseError::InvalidPermutation {
                reason: format!(
                    "symmetric permutation requires a square matrix, got {}x{}",
                    self.nrows(),
                    self.ncols()
                ),
            });
        }
        self.permute(perm, perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample() -> Csr {
        // [ 0 1 0 ]
        // [ 2 0 3 ]
        // [ 0 4 0 ]
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 2, 3.0);
        coo.push(2, 1, 4.0);
        Csr::from_coo(&coo)
    }

    #[test]
    fn identity_round_trips() {
        let csr = sample();
        let id = Permutation::identity(3);
        assert_eq!(id, Permutation::from_new_to_old(vec![0, 1, 2]).unwrap());
        assert_eq!(csr.permute(&id, &id).unwrap(), csr);
    }

    #[test]
    fn permute_moves_entries() {
        let csr = sample();
        // Rotate vertices: old 0 -> new 1, old 1 -> new 2, old 2 -> new 0.
        let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        let b = csr.permute_symmetric(&p).unwrap();
        b.validate().unwrap();
        for (r, c, v) in csr.iter() {
            assert_eq!(b.get(p.new_of_old(r), p.new_of_old(c)), Some(v));
        }
        assert_eq!(b.nnz(), csr.nnz());
    }

    #[test]
    fn inverse_undoes_permute() {
        let csr = sample();
        let rows = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        let cols = Permutation::from_new_to_old(vec![1, 2, 0]).unwrap();
        let there = csr.permute(&rows, &cols).unwrap();
        let back = there.permute(&rows.inverse(), &cols.inverse()).unwrap();
        assert_eq!(back, csr);
    }

    #[test]
    fn invalid_permutations_are_rejected() {
        assert!(Permutation::from_new_to_old(vec![0, 0]).is_err());
        assert!(Permutation::from_new_to_old(vec![0, 5]).is_err());
        assert!(Permutation::from_new_to_old(vec![1, 1, 0]).is_err());
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let csr = sample();
        let p2 = Permutation::identity(2);
        let p3 = Permutation::identity(3);
        assert!(csr.permute(&p2, &p3).is_err());
        assert!(csr.permute(&p3, &p2).is_err());
    }

    #[test]
    fn non_square_symmetric_permute_is_rejected() {
        let csr = Csr::empty(2, 3);
        assert!(csr.permute_symmetric(&Permutation::identity(2)).is_err());
    }

    #[test]
    fn rectangular_permute_works() {
        let mut coo = Coo::new(2, 4);
        coo.push(0, 3, 1.0);
        coo.push(1, 0, 2.0);
        let csr = Csr::from_coo(&coo);
        let rows = Permutation::from_new_to_old(vec![1, 0]).unwrap();
        let cols = Permutation::from_new_to_old(vec![3, 2, 1, 0]).unwrap();
        let b = csr.permute(&rows, &cols).unwrap();
        assert_eq!(b.get(1, 0), Some(1.0)); // (0,3) -> (1,0)
        assert_eq!(b.get(0, 3), Some(2.0)); // (1,0) -> (0,3)
    }
}
