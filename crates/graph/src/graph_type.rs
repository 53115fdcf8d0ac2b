//! The [`Graph`] type: adjacency CSR plus GCN conveniences.

use crate::rmat::RmatConfig;
use matrix::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse::norm::{normalize, NormKind};
use sparse::{Csr, DegreeStats};

/// A directed graph stored as an adjacency matrix in CSR form.
///
/// Row `u` of the adjacency holds the out-neighbours of vertex `u`. For the
/// GCN aggregation `H_out[u] = sum_v A_hat[u,v] * H_in[v]`, the non-zeros of
/// row `u` are the *in-edges* contributing to `u`; for graphs built through
/// [`Graph::from_undirected_edges`] the distinction vanishes.
///
/// # Examples
///
/// ```
/// use graph::Graph;
///
/// let g = Graph::from_undirected_edges(3, &[(0, 1), (1, 2)]);
/// assert_eq!(g.vertices(), 3);
/// assert_eq!(g.edges(), 4); // each undirected edge stored twice
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    adjacency: Csr,
}

impl Graph {
    /// Wraps an existing square adjacency CSR.
    ///
    /// # Panics
    ///
    /// Panics if `adjacency` is not square.
    pub fn from_adjacency(adjacency: Csr) -> Self {
        assert_eq!(
            adjacency.nrows(),
            adjacency.ncols(),
            "adjacency matrix must be square"
        );
        Graph { adjacency }
    }

    /// Builds a graph from a directed edge list with unit weights.
    /// Duplicate edges merge into one edge of weight 1.
    pub fn from_directed_edges(vertices: usize, edges: &[(usize, usize)]) -> Self {
        let pairs = edges.iter().map(|&(u, v)| (id(u), id(v)));
        Self::from_unit_pairs(vertices, pairs.collect())
    }

    /// Builds a graph from an undirected edge list: every `(u, v)` is stored
    /// in both directions with unit weight (a self loop once).
    pub fn from_undirected_edges(vertices: usize, edges: &[(usize, usize)]) -> Self {
        let pairs = edges
            .iter()
            .flat_map(|&(u, v)| [(id(u), id(v)), (id(v), id(u))]);
        Self::from_unit_pairs(vertices, pairs.collect())
    }

    /// The one unit-weight builder (R-MAT and the edge lists): counting-sorts
    /// `(row, col)` pairs by row straight into the column array, sorts and
    /// dedups each row in place, and sets every value to 1. Panics if an
    /// endpoint is not below `n`.
    pub(crate) fn from_unit_pairs(n: usize, pairs: Vec<(u32, u32)>) -> Self {
        let mut row_ptr = vec![0usize; n + 1];
        for &(u, _) in &pairs {
            row_ptr[u as usize + 1] += 1;
        }
        (1..=n).for_each(|r| row_ptr[r] += row_ptr[r - 1]);
        // `row_ptr[u]` is row `u`'s write cursor, and ends as the row's end.
        let mut cols = vec![0u32; pairs.len()];
        for (u, v) in pairs {
            cols[row_ptr[u as usize]] = v;
            row_ptr[u as usize] += 1;
        }
        let (mut start, mut kept) = (0, 0);
        for p in &mut row_ptr[..n] {
            let (first, end) = (kept, std::mem::replace(p, kept));
            cols[start..end].sort_unstable();
            for i in start..end {
                if kept == first || cols[kept - 1] != cols[i] {
                    cols[kept] = cols[i];
                    kept += 1;
                }
            }
            start = end;
        }
        row_ptr[n] = kept;
        cols.truncate(kept);
        cols.shrink_to_fit();
        let csr = Csr::from_raw(n, n, row_ptr, cols, vec![1.0; kept]);
        Graph::from_adjacency(csr.expect("edge endpoints index the vertex range"))
    }

    /// Generates a graph with the R-MAT recursive generator.
    /// See [`RmatConfig`] for the knobs; `seed` makes the run reproducible.
    pub fn rmat(config: &RmatConfig, seed: u64) -> Self {
        crate::rmat::generate(config, seed)
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.adjacency.nrows()
    }

    /// Number of stored directed edges (adjacency non-zeros).
    pub fn edges(&self) -> usize {
        self.adjacency.nnz()
    }

    /// Adjacency density `|E| / |V|^2`.
    pub fn density(&self) -> f64 {
        self.adjacency.density()
    }

    /// Borrows the adjacency CSR.
    pub fn adjacency(&self) -> &Csr {
        &self.adjacency
    }

    /// Consumes the graph and returns the adjacency CSR.
    pub fn into_adjacency(self) -> Csr {
        self.adjacency
    }

    /// Out-degree statistics.
    pub fn degree_stats(&self) -> DegreeStats {
        DegreeStats::of(&self.adjacency)
    }

    /// The GCN-normalized adjacency `A_hat = D^-1/2 (A + I) D^-1/2`.
    ///
    /// # Errors
    ///
    /// Propagates [`sparse::SparseError`] (cannot occur for a `Graph`, whose
    /// adjacency is square by construction, but the signature mirrors
    /// [`sparse::norm::normalize`]).
    pub fn normalized_adjacency(&self) -> sparse::Result<Csr> {
        normalize(&self.adjacency, NormKind::Symmetric)
    }

    /// Generates a random `|V| x dim` feature matrix with entries in
    /// `[-1, 1)`, seeded for reproducibility.
    pub fn random_features(&self, dim: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.vertices();
        let data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        DenseMatrix::from_vec(n, dim, data).expect("shape matches by construction")
    }
}

/// A vertex id as a CSR index.
fn id(v: usize) -> u32 {
    u32::try_from(v).expect("vertex id exceeds the u32 index range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::Coo;

    /// The COO path the unit-weight builder replaced: duplicates summed,
    /// then every weight clamped to 1.
    fn coo_reference(n: usize, edges: &[(usize, usize)], undirected: bool) -> Csr {
        let mut coo = Coo::new(n, n);
        for &(u, v) in edges {
            coo.push(u, v, 1.0);
            if undirected && u != v {
                coo.push(v, u, 1.0);
            }
        }
        let csr = Csr::from_coo(&coo);
        let (row_ptr, col_idx) = (csr.row_ptr().to_vec(), csr.col_idx().to_vec());
        Csr::from_raw(n, n, row_ptr, col_idx, vec![1.0; csr.nnz()]).unwrap()
    }

    #[test]
    fn edge_builders_match_the_coo_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [0usize, 1, 2, 5, 17] {
            // Four draws per vertex: duplicates and self loops are certain.
            let edges: Vec<(usize, usize)> = (0..4 * n)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let directed = Graph::from_directed_edges(n, &edges);
            assert_eq!(directed.adjacency(), &coo_reference(n, &edges, false));
            let undirected = Graph::from_undirected_edges(n, &edges);
            assert_eq!(undirected.adjacency(), &coo_reference(n, &edges, true));
        }
    }

    #[test]
    fn undirected_edges_appear_both_ways() {
        let g = Graph::from_undirected_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(g.adjacency().get(0, 1), Some(1.0));
        assert_eq!(g.adjacency().get(1, 0), Some(1.0));
        assert_eq!(g.adjacency().get(3, 2), Some(1.0));
        assert_eq!(g.edges(), 4);
    }

    #[test]
    fn duplicate_edges_are_merged_with_unit_weight() {
        let g = Graph::from_directed_edges(2, &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(g.edges(), 1);
        assert_eq!(g.adjacency().get(0, 1), Some(1.0));
    }

    #[test]
    fn self_loop_in_undirected_list_stored_once() {
        let g = Graph::from_undirected_edges(2, &[(1, 1)]);
        assert_eq!(g.edges(), 1);
        assert_eq!(g.adjacency().get(1, 1), Some(1.0));
    }

    #[test]
    fn normalized_adjacency_has_self_loops() {
        let g = Graph::from_undirected_edges(3, &[(0, 1)]);
        let a_hat = g.normalized_adjacency().unwrap();
        for i in 0..3 {
            assert!(a_hat.get(i, i).is_some(), "missing self loop at {i}");
        }
    }

    #[test]
    fn random_features_are_reproducible_and_in_range() {
        let g = Graph::from_undirected_edges(5, &[(0, 1)]);
        let f1 = g.random_features(8, 99);
        let f2 = g.random_features(8, 99);
        assert_eq!(f1, f2);
        assert_eq!(f1.shape(), (5, 8));
        assert!(f1.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_adjacency_panics() {
        Graph::from_adjacency(Csr::empty(2, 3));
    }
}
