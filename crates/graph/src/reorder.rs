//! Locality-aware vertex reordering.
//!
//! SpMM reads one feature row per non-zero; on power-law graphs in native
//! order those reads scatter across the whole feature matrix, and the
//! paper's characterization (Section III-C) shows exactly that scatter
//! limiting the CPU baseline. Relabeling vertices so that vertices
//! referenced together sit near each other shrinks the column working set
//! of every row window — the same lever Accel-GCN pulls with row
//! reordering, and the software analogue of the PIUMA DMA kernels' dense
//! block gathers.
//!
//! Three classic orderings are provided:
//!
//! * [`ReorderKind::DegreeDescending`] — hubs first; clusters the
//!   most-referenced feature rows into one dense prefix,
//! * [`ReorderKind::Bfs`] — breadth-first labels give neighbours nearby
//!   ids, tightening each row's column span,
//! * [`ReorderKind::Rcm`] — reverse Cuthill-McKee, the standard
//!   bandwidth-minimizing ordering for sparse solvers.
//!
//! [`ReorderedGraph`] packages an ordering with its bookkeeping: it
//! permutes features/labels on the way in and un-permutes outputs on the
//! way out, so GCN results are identical (modulo float summation order) to
//! running on the original graph.

use crate::graph_type::Graph;
use matrix::DenseMatrix;
use sparse::{Csr, Permutation};

/// Which vertex ordering to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReorderKind {
    /// Sort vertices by out-degree, largest first (stable, so ties keep
    /// their native order).
    DegreeDescending,
    /// Breadth-first search from the highest-degree vertex; remaining
    /// components are visited in degree order.
    Bfs,
    /// Reverse Cuthill-McKee: BFS from a low-degree vertex with neighbours
    /// visited in ascending-degree order, then the whole order reversed.
    Rcm,
}

impl std::fmt::Display for ReorderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReorderKind::DegreeDescending => write!(f, "degree"),
            ReorderKind::Bfs => write!(f, "bfs"),
            ReorderKind::Rcm => write!(f, "rcm"),
        }
    }
}

/// Computes the vertex ordering of `kind` for a square adjacency matrix.
///
/// # Panics
///
/// Panics if `adjacency` is not square (a [`Graph`] is square by
/// construction; call sites handing a raw CSR must uphold this).
pub fn ordering(adjacency: &Csr, kind: ReorderKind) -> Permutation {
    assert_eq!(
        adjacency.nrows(),
        adjacency.ncols(),
        "vertex ordering requires a square adjacency"
    );
    let n = adjacency.nrows();
    let order = match kind {
        ReorderKind::DegreeDescending => {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&v| std::cmp::Reverse(adjacency.row_nnz(v)));
            order
        }
        ReorderKind::Bfs => {
            // Seeds in descending degree: the biggest hub roots the first
            // tree, and each later component starts from its own densest
            // vertex.
            let mut seeds: Vec<usize> = (0..n).collect();
            seeds.sort_by_key(|&v| std::cmp::Reverse(adjacency.row_nnz(v)));
            bfs_order(adjacency, &seeds, false)
        }
        ReorderKind::Rcm => {
            // Cuthill-McKee grows the frontier from the periphery inward:
            // low-degree seeds, ascending-degree neighbour visits, and a
            // final reversal.
            let mut seeds: Vec<usize> = (0..n).collect();
            seeds.sort_by_key(|&v| adjacency.row_nnz(v));
            let mut order = bfs_order(adjacency, &seeds, true);
            order.reverse();
            order
        }
    };
    Permutation::from_new_to_old(order).expect("traversal order is a bijection by construction")
}

/// BFS visiting every vertex once: components are rooted at the first
/// unvisited seed, and neighbours are enqueued in native or
/// ascending-degree order (`sort_neighbours`).
fn bfs_order(adjacency: &Csr, seeds: &[usize], sort_neighbours: bool) -> Vec<usize> {
    let n = adjacency.nrows();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut neighbours: Vec<usize> = Vec::new();
    for &seed in seeds {
        if visited[seed] {
            continue;
        }
        visited[seed] = true;
        order.push(seed);
        let mut head = order.len() - 1;
        while head < order.len() {
            let u = order[head];
            head += 1;
            neighbours.clear();
            neighbours.extend(adjacency.row_cols(u).iter().map(|&c| c as usize));
            if sort_neighbours {
                neighbours.sort_by_key(|&v| adjacency.row_nnz(v));
            }
            for &v in &neighbours {
                if !visited[v] {
                    visited[v] = true;
                    order.push(v);
                }
            }
        }
    }
    order
}

/// Mean column distance `|u - v|` over all non-zeros — the locality figure
/// of merit the orderings try to shrink. Lower means each row's feature
/// reads land closer together. Returns 0 for an empty matrix.
pub fn mean_bandwidth(adjacency: &Csr) -> f64 {
    if adjacency.nnz() == 0 {
        return 0.0;
    }
    let mut total: u64 = 0;
    for (r, c, _) in adjacency.iter() {
        total += (r as i64 - c as i64).unsigned_abs();
    }
    total as f64 / adjacency.nnz() as f64
}

/// A graph relabeled by a locality-aware ordering, bundled with the
/// permutation needed to move data in and out of the reordered index
/// space.
///
/// # Examples
///
/// ```
/// use graph::{Graph, reorder::{ReorderKind, ReorderedGraph}};
///
/// let g = Graph::rmat(&graph::RmatConfig::power_law(8, 8), 7);
/// let rg = ReorderedGraph::new(&g, ReorderKind::DegreeDescending);
/// let x = g.random_features(4, 1);
/// let xr = rg.permute_features(&x);
/// // Row 0 of the reordered features is the highest-degree vertex's row.
/// let hub = rg.permutation().old_of_new(0);
/// assert_eq!(xr.row(0), x.row(hub));
/// // restore_rows is the exact inverse.
/// assert_eq!(rg.restore_rows(&xr), x);
/// ```
#[derive(Debug, Clone)]
pub struct ReorderedGraph {
    graph: Graph,
    perm: Permutation,
    kind: ReorderKind,
}

impl ReorderedGraph {
    /// Relabels `graph` with the ordering of `kind`.
    pub fn new(graph: &Graph, kind: ReorderKind) -> Self {
        let perm = ordering(graph.adjacency(), kind);
        let adjacency = graph
            .adjacency()
            .permute_symmetric(&perm)
            .expect("square adjacency with matching permutation length");
        ReorderedGraph {
            graph: Graph::from_adjacency(adjacency),
            perm,
            kind,
        }
    }

    /// The relabeled graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The vertex permutation (old -> new).
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Which ordering produced this relabeling.
    pub fn kind(&self) -> ReorderKind {
        self.kind
    }

    /// Permutes a per-vertex feature matrix into the reordered index
    /// space: row `new` of the result is row `old_of_new(new)` of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows()` does not match the vertex count.
    pub fn permute_features(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(x.rows(), self.perm.len(), "feature row count mismatch");
        let mut out = DenseMatrix::zeros(x.rows(), x.cols());
        for new in 0..x.rows() {
            out.row_mut(new)
                .copy_from_slice(x.row(self.perm.old_of_new(new)));
        }
        out
    }

    /// Un-permutes a per-vertex output matrix back to the original vertex
    /// order: the exact inverse of [`ReorderedGraph::permute_features`].
    ///
    /// # Panics
    ///
    /// Panics if `out.rows()` does not match the vertex count.
    pub fn restore_rows(&self, out: &DenseMatrix) -> DenseMatrix {
        assert_eq!(out.rows(), self.perm.len(), "output row count mismatch");
        let mut restored = DenseMatrix::zeros(out.rows(), out.cols());
        for old in 0..out.rows() {
            restored
                .row_mut(old)
                .copy_from_slice(out.row(self.perm.new_of_old(old)));
        }
        restored
    }

    /// Locality improvement: `mean_bandwidth(original) /
    /// mean_bandwidth(reordered)`. Above 1.0 means the ordering moved
    /// neighbours closer together; `original` must be the graph this
    /// reordering was built from.
    pub fn bandwidth_reduction(&self, original: &Graph) -> f64 {
        let after = mean_bandwidth(self.graph.adjacency());
        if after == 0.0 {
            return 1.0;
        }
        mean_bandwidth(original.adjacency()) / after
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;
    use crate::rmat::RmatConfig;

    fn skewed() -> Graph {
        Graph::rmat(&RmatConfig::power_law(8, 8), 3)
    }

    #[test]
    fn degree_order_puts_hubs_first() {
        let g = skewed();
        let p = ordering(g.adjacency(), ReorderKind::DegreeDescending);
        let degrees: Vec<usize> = (0..g.vertices())
            .map(|new| g.adjacency().row_nnz(p.old_of_new(new)))
            .collect();
        assert!(degrees.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn orderings_are_bijections_for_all_kinds() {
        let g = skewed();
        for kind in [
            ReorderKind::DegreeDescending,
            ReorderKind::Bfs,
            ReorderKind::Rcm,
        ] {
            let p = ordering(g.adjacency(), kind);
            assert_eq!(p.len(), g.vertices(), "{kind}");
            // Permutation construction validates bijectivity; double-check
            // the round trip anyway.
            assert_eq!(p.inverse().inverse(), p, "{kind}");
        }
    }

    #[test]
    fn reordered_graph_preserves_structure() {
        let g = skewed();
        for kind in [
            ReorderKind::DegreeDescending,
            ReorderKind::Bfs,
            ReorderKind::Rcm,
        ] {
            let rg = ReorderedGraph::new(&g, kind);
            assert_eq!(rg.graph().vertices(), g.vertices(), "{kind}");
            assert_eq!(rg.graph().edges(), g.edges(), "{kind}");
            let p = rg.permutation();
            for (u, v, w) in g.adjacency().iter() {
                assert_eq!(
                    rg.graph().adjacency().get(p.new_of_old(u), p.new_of_old(v)),
                    Some(w),
                    "{kind}: edge ({u},{v}) lost"
                );
            }
        }
    }

    #[test]
    fn feature_round_trip_is_exact() {
        let g = skewed();
        let x = g.random_features(6, 9);
        for kind in [ReorderKind::Bfs, ReorderKind::Rcm] {
            let rg = ReorderedGraph::new(&g, kind);
            assert_eq!(rg.restore_rows(&rg.permute_features(&x)), x, "{kind}");
        }
    }

    #[test]
    fn rcm_shrinks_bandwidth_on_er_graphs() {
        // Random labeling of a sparse ER graph has mean bandwidth ~n/3;
        // RCM should cut it substantially.
        let g = erdos_renyi(512, 1024, 5);
        let rg = ReorderedGraph::new(&g, ReorderKind::Rcm);
        let reduction = rg.bandwidth_reduction(&g);
        assert!(
            reduction > 1.5,
            "RCM should shrink mean bandwidth, got reduction {reduction}"
        );
    }

    #[test]
    fn bandwidth_of_empty_graph_is_zero() {
        assert_eq!(mean_bandwidth(&Csr::empty(4, 4)), 0.0);
        let g = Graph::from_undirected_edges(4, &[]);
        let rg = ReorderedGraph::new(&g, ReorderKind::Bfs);
        assert_eq!(rg.bandwidth_reduction(&g), 1.0);
    }
}
