//! The non-R-MAT synthetic generator: Erdős–Rényi `G(n, m)`.

use crate::graph_type::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates an Erdős–Rényi `G(n, m)` graph: `m` distinct undirected edges
/// sampled uniformly at random (no self loops).
///
/// # Panics
///
/// Panics if `m` exceeds the number of possible undirected edges.
///
/// # Examples
///
/// ```
/// let g = graph::generators::erdos_renyi(100, 300, 1);
/// assert_eq!(g.vertices(), 100);
/// assert_eq!(g.edges(), 600); // stored directed both ways
/// ```
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Graph {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= max_edges,
        "requested {m} edges but only {max_edges} possible"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = std::collections::HashSet::with_capacity(m);
    while chosen.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        chosen.insert(key);
    }
    let edges: Vec<(usize, usize)> = chosen.into_iter().collect();
    Graph::from_undirected_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_has_exact_edge_count() {
        let g = erdos_renyi(50, 100, 2);
        assert_eq!(g.edges(), 200);
        assert_eq!(g.vertices(), 50);
    }

    #[test]
    fn erdos_renyi_is_deterministic() {
        assert_eq!(erdos_renyi(30, 60, 4), erdos_renyi(30, 60, 4));
    }

    #[test]
    #[should_panic(expected = "possible")]
    fn erdos_renyi_rejects_impossible_edge_count() {
        erdos_renyi(3, 100, 0);
    }
}
