//! Neighbourhood sampling and random walks.
//!
//! The paper's GPU baseline falls back to *full-neighbourhood sampling* for
//! graphs that exceed device memory (Section III-C), and its Discussion
//! section points at neighbour-sampling GNNs (GraphSAGE, PinSAGE) and
//! random walks as latency-bound workloads PIUMA accelerates well. This
//! module provides those substrates:
//!
//! * [`full_neighborhood`] — the L-hop expansion used by layer-wise GCN
//!   sampling (every in-neighbour, no subsampling),
//! * [`sample_neighbors`] — GraphSAGE-style fixed-fanout sampling,
//! * [`random_walk`] — uniform random walks (the PinSAGE building block),
//! * [`Subgraph`] — an induced subgraph with a vertex mapping back to the
//!   parent graph, ready for mini-batch inference.
//!
//! [`full_neighborhood`]: crate::sampling::full_neighborhood
//! [`sample_neighbors`]: crate::sampling::sample_neighbors
//! [`random_walk`]: crate::sampling::random_walk

use crate::graph_type::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse::{Coo, Csr};
use std::collections::HashMap;

/// An induced subgraph of a parent [`Graph`]: the sampled adjacency plus
/// the mapping from local vertex ids to parent vertex ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Subgraph {
    /// Adjacency over the local vertex ids.
    pub adjacency: Csr,
    /// `vertices[local] = parent` mapping.
    pub vertices: Vec<usize>,
}

impl Subgraph {
    /// Number of vertices in the subgraph.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the subgraph is empty.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The local id of a parent vertex, if present.
    pub fn local_id(&self, parent: usize) -> Option<usize> {
        self.vertices.iter().position(|&v| v == parent)
    }
}

/// Expands `seeds` by `hops` levels of *all* in-neighbours and returns the
/// induced subgraph — the "full-neighbourhood sampling" the paper uses for
/// a fair GPU comparison on `papers`.
///
/// Vertices are ordered seeds-first, then by discovery order, so the first
/// `seeds.len()` rows of any feature matrix built for the subgraph
/// correspond to the seeds.
pub fn full_neighborhood(graph: &Graph, seeds: &[usize], hops: usize) -> Subgraph {
    let adj = graph.adjacency();
    let mut order: Vec<usize> = Vec::new();
    let mut local: HashMap<usize, usize> = HashMap::new();
    for &s in seeds {
        assert!(s < graph.vertices(), "seed {s} out of range");
        local.entry(s).or_insert_with(|| {
            order.push(s);
            order.len() - 1
        });
    }
    let mut frontier: Vec<usize> = order.clone();
    for _ in 0..hops {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in adj.row_cols(u) {
                let v = v as usize;
                if let std::collections::hash_map::Entry::Vacant(e) = local.entry(v) {
                    e.insert(order.len());
                    order.push(v);
                    next.push(v);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    induce(adj, &order, &local)
}

/// GraphSAGE-style sampling: expands `seeds` by `hops` levels, keeping at
/// most `fanout` uniformly sampled in-neighbours per vertex per level.
pub fn sample_neighbors(
    graph: &Graph,
    seeds: &[usize],
    hops: usize,
    fanout: usize,
    seed: u64,
) -> Subgraph {
    let adj = graph.adjacency();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = Vec::new();
    let mut local: HashMap<usize, usize> = HashMap::new();
    for &s in seeds {
        assert!(s < graph.vertices(), "seed {s} out of range");
        local.entry(s).or_insert_with(|| {
            order.push(s);
            order.len() - 1
        });
    }
    let mut frontier: Vec<usize> = order.clone();
    for _ in 0..hops {
        let mut next = Vec::new();
        for &u in &frontier {
            let neighbors = adj.row_cols(u);
            let take = fanout.min(neighbors.len());
            for _ in 0..take {
                let v = neighbors[rng.gen_range(0..neighbors.len())] as usize;
                if let std::collections::hash_map::Entry::Vacant(e) = local.entry(v) {
                    e.insert(order.len());
                    order.push(v);
                    next.push(v);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    induce(adj, &order, &local)
}

/// Builds the induced adjacency over the selected vertex set.
fn induce(adj: &Csr, order: &[usize], local: &HashMap<usize, usize>) -> Subgraph {
    let n = order.len();
    let mut coo = Coo::new(n, n);
    for (lu, &u) in order.iter().enumerate() {
        for (&v, &w) in adj.row_cols(u).iter().zip(adj.row_values(u)) {
            if let Some(&lv) = local.get(&(v as usize)) {
                coo.push(lu, lv, w);
            }
        }
    }
    Subgraph {
        adjacency: Csr::from_coo(&coo),
        vertices: order.to_vec(),
    }
}

/// Performs a uniform random walk of `length` steps starting at `start`,
/// returning the visited vertices (including the start). The walk stops
/// early at a vertex with no out-neighbours.
///
/// Random walks are the access pattern the paper calls "known to be latency
/// bound" — each step is a dependent, uncached remote read.
pub fn random_walk(graph: &Graph, start: usize, length: usize, seed: u64) -> Vec<usize> {
    assert!(start < graph.vertices(), "start vertex out of range");
    let adj = graph.adjacency();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut path = Vec::with_capacity(length + 1);
    let mut u = start;
    path.push(u);
    for _ in 0..length {
        let neighbors = adj.row_cols(u);
        if neighbors.is_empty() {
            break;
        }
        u = neighbors[rng.gen_range(0..neighbors.len())] as usize;
        path.push(u);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::RmatConfig;

    fn test_graph() -> Graph {
        Graph::rmat(&RmatConfig::power_law(8, 8), 3)
    }

    #[test]
    fn full_neighborhood_contains_all_one_hop_neighbors() {
        let g = test_graph();
        let seed_vertex = (0..g.vertices())
            .find(|&v| g.adjacency().row_nnz(v) > 0)
            .expect("graph has edges");
        let sub = full_neighborhood(&g, &[seed_vertex], 1);
        assert_eq!(sub.vertices[0], seed_vertex);
        for &v in g.adjacency().row_cols(seed_vertex) {
            assert!(sub.local_id(v as usize).is_some(), "missing neighbour {v}");
        }
        sub.adjacency.validate().unwrap();
    }

    #[test]
    fn induced_edges_exist_in_parent() {
        let g = test_graph();
        let sub = full_neighborhood(&g, &[0, 1, 2], 1);
        for (lu, lv, _) in sub.adjacency.iter() {
            let (u, v) = (sub.vertices[lu], sub.vertices[lv]);
            assert!(
                g.adjacency().get(u, v).is_some(),
                "edge ({u},{v}) not in parent"
            );
        }
    }

    #[test]
    fn deeper_expansion_is_monotone() {
        let g = test_graph();
        let one = full_neighborhood(&g, &[0], 1).len();
        let two = full_neighborhood(&g, &[0], 2).len();
        assert!(two >= one);
    }

    #[test]
    fn fanout_bounds_growth() {
        let g = test_graph();
        let seeds = [0usize];
        let sampled = sample_neighbors(&g, &seeds, 2, 2, 7);
        // Level 1 adds <=2, level 2 adds <=2 per frontier vertex.
        assert!(sampled.len() <= 1 + 2 + 4);
        let full = full_neighborhood(&g, &seeds, 2);
        assert!(sampled.len() <= full.len());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let g = test_graph();
        let a = sample_neighbors(&g, &[3, 4], 2, 3, 11);
        let b = sample_neighbors(&g, &[3, 4], 2, 3, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn random_walk_follows_edges() {
        let g = test_graph();
        let path = random_walk(&g, 1, 20, 5);
        assert_eq!(path[0], 1);
        for w in path.windows(2) {
            assert!(
                g.adjacency().get(w[0], w[1]).is_some(),
                "walk jumped {} -> {} without an edge",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn random_walk_stops_at_sinks() {
        let g = Graph::from_directed_edges(3, &[(0, 1)]);
        let path = random_walk(&g, 0, 10, 1);
        assert_eq!(path, vec![0, 1]);
    }

    #[test]
    fn duplicate_seeds_are_deduplicated() {
        let g = test_graph();
        let sub = full_neighborhood(&g, &[5, 5, 5], 0);
        assert_eq!(sub.len(), 1);
        assert_eq!(sub.vertices, vec![5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_seed_panics() {
        let g = Graph::from_directed_edges(2, &[(0, 1)]);
        full_neighborhood(&g, &[9], 1);
    }
}
