//! The R-MAT recursive matrix generator (Chakrabarti, Zhan & Faloutsos).
//!
//! The paper uses SNAP's RMAT generator for its Figure 2 scale/density
//! sweeps ("RMAT graphs of uniform degree distributions with varied scale
//! and sparsity") and for the `power-16` / `power-22` low-locality graphs of
//! Figure 9. R-MAT places each edge by recursively descending into one of
//! the four quadrants of the adjacency matrix with probabilities
//! `(a, b, c, d)`; equal probabilities yield an Erdős–Rényi-like uniform
//! graph, skewed probabilities yield a power-law degree distribution. The
//! placed edges are `u32` pairs, counting-sorted straight into the CSR: set-up
//! holds the pairs, the CSR and `O(n)`, never COO triplets or value copies.

use crate::graph_type::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of an R-MAT generation run.
///
/// # Examples
///
/// ```
/// use graph::RmatConfig;
///
/// let uniform = RmatConfig::uniform(8, 16);  // 256 vertices, ~4096 edges
/// let skewed = RmatConfig::power_law(8, 16); // same size, power-law degrees
/// assert_eq!(uniform.vertices(), 256);
/// assert_eq!(skewed.target_edges(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RmatConfig {
    /// log2 of the vertex count ("scale" in Graph500 terminology).
    pub scale: u32,
    /// Average edges per vertex ("edge factor").
    pub edge_factor: usize,
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Whether to mirror each generated edge, producing an undirected graph.
    pub symmetric: bool,
    /// Per-level probability noise, as in SNAP's implementation; 0 disables.
    pub noise: f64,
}

impl RmatConfig {
    /// Classic power-law parameters `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`
    /// (Graph500 defaults), symmetric output.
    pub fn power_law(scale: u32, edge_factor: usize) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            symmetric: true,
            noise: 0.0,
        }
    }

    /// Uniform parameters `(0.25, 0.25, 0.25, 0.25)` — an Erdős–Rényi-like
    /// graph with near-uniform degrees, matching the Figure 2 sweep setup.
    pub fn uniform(scale: u32, edge_factor: usize) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.25,
            b: 0.25,
            c: 0.25,
            symmetric: true,
            noise: 0.0,
        }
    }

    /// Number of vertices (`2^scale`).
    pub fn vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Number of edge placements attempted (`vertices * edge_factor`).
    /// The final graph may have fewer edges after duplicate merging.
    pub fn target_edges(&self) -> usize {
        self.vertices() * self.edge_factor
    }

    /// Validates the quadrant probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is negative, if they sum above 1, or if
    /// `scale >= 32` (vertex ids are `u32`).
    pub fn assert_valid(&self) {
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0,
            "negative quadrant probability"
        );
        assert!(
            self.a + self.b + self.c <= 1.0 + 1e-9,
            "quadrant probabilities sum above 1"
        );
        assert!(self.scale < u32::BITS, "scale too large to materialize");
    }
}

/// Generates an R-MAT graph. Self loops are dropped and duplicate edges are
/// merged, matching SNAP's simple-graph output mode.
/// Each placed edge (and its mirror) is kept as a `(u32, u32)` pair.
pub fn generate(config: &RmatConfig, seed: u64) -> Graph {
    config.assert_valid();
    let mut rng = StdRng::seed_from_u64(seed);
    let m = config.target_edges();
    let mut pairs = Vec::with_capacity(if config.symmetric { m * 2 } else { m });
    for _ in 0..m {
        let (u, v) = place_edge(config, &mut rng);
        if u != v {
            pairs.push((u, v));
            if config.symmetric {
                pairs.push((v, u));
            }
        }
    }
    Graph::from_unit_pairs(config.vertices(), pairs)
}

/// Recursively descends the quadtree to place one edge: one draw per level
/// (plus four for the noise, when on), compared against the running
/// `a`, `a + b` and `a + b + c` without a branch.
fn place_edge(config: &RmatConfig, rng: &mut StdRng) -> (u32, u32) {
    let (mut a, mut b, mut c) = (config.a, config.b, config.c);
    let (mut u, mut v) = (0u32, 0u32);
    for level in (0..config.scale).rev() {
        let r: f64 = rng.gen();
        let (lt_a, lt_ab, lt_abc) = (r < a, r < a + b, r < a + b + c);
        v |= u32::from(!lt_a & (lt_ab | !lt_abc)) << level; // top- or bottom-right
        u |= u32::from(!lt_a & !lt_ab) << level; // bottom-left or -right
        if config.noise > 0.0 {
            // SNAP-style multiplicative noise keeps expected values fixed.
            let d = (1.0 - a - b - c).max(0.0);
            let mut jitter =
                |p: f64| p * (1.0 - config.noise + 2.0 * config.noise * rng.gen::<f64>());
            let (na, nb, nc, nd) = (jitter(a), jitter(b), jitter(c), jitter(d));
            let s = na + nb + nc + nd;
            if s > 0.0 {
                (a, b, c) = (na / s, nb / s, nc / s);
            }
        }
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_size_matches_config() {
        let g = generate(&RmatConfig::uniform(8, 8), 1);
        assert_eq!(g.vertices(), 256);
        // Duplicates/self-loops shave some edges; expect within 50-100% of
        // the doubled (symmetric) target.
        let target = 2 * 256 * 8;
        assert!(g.edges() <= target);
        assert!(g.edges() > target / 2, "too many collisions: {}", g.edges());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(&RmatConfig::power_law(7, 8), 5);
        let b = generate(&RmatConfig::power_law(7, 8), 5);
        let c = generate(&RmatConfig::power_law(7, 8), 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn symmetric_output_is_symmetric() {
        let g = generate(&RmatConfig::power_law(6, 8), 3);
        for (u, v, _) in g.adjacency().iter() {
            assert!(
                g.adjacency().get(v, u).is_some(),
                "edge ({u},{v}) missing mirror"
            );
        }
    }

    #[test]
    fn no_self_loops() {
        let g = generate(&RmatConfig::power_law(7, 8), 9);
        for (u, v, _) in g.adjacency().iter() {
            assert_ne!(u, v, "self loop on {u}");
        }
    }

    #[test]
    fn power_law_is_more_skewed_than_uniform() {
        let uni = generate(&RmatConfig::uniform(10, 16), 7).degree_stats();
        let pow = generate(&RmatConfig::power_law(10, 16), 7).degree_stats();
        assert!(
            pow.cv > uni.cv * 1.5,
            "power-law cv {} should exceed uniform cv {}",
            pow.cv,
            uni.cv
        );
        assert!(pow.max > uni.max);
    }

    #[test]
    fn directed_mode_skips_mirroring() {
        let mut cfg = RmatConfig::power_law(6, 4);
        cfg.symmetric = false;
        let g = generate(&cfg, 11);
        let asymmetric = g
            .adjacency()
            .iter()
            .filter(|&(u, v, _)| g.adjacency().get(v, u).is_none())
            .count();
        assert!(asymmetric > 0, "directed RMAT should have one-way edges");
    }

    #[test]
    #[should_panic(expected = "sum above 1")]
    fn invalid_probabilities_panic() {
        let cfg = RmatConfig {
            a: 0.6,
            b: 0.3,
            c: 0.3,
            ..RmatConfig::uniform(4, 2)
        };
        generate(&cfg, 0);
    }

    #[test]
    fn noise_changes_structure_but_not_size() {
        let base = RmatConfig::power_law(8, 8);
        let noisy = RmatConfig { noise: 0.1, ..base };
        let g0 = generate(&base, 13);
        let g1 = generate(&noisy, 13);
        assert_eq!(g0.vertices(), g1.vertices());
        assert_ne!(g0, g1);
    }
}
