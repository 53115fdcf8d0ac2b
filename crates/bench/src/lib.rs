//! Shared fixtures for the benchmark harness.
//!
//! One Criterion bench target (`paper_experiments`) regenerates every paper
//! table/figure through [`report::experiments`]; the others measure the
//! executable kernels directly. Fixtures live here so every bench sees
//! identical inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use graph::{Graph, OgbDataset};
use matrix::DenseMatrix;
use sparse::Csr;

/// Vertex cap of the benchmark twin graphs (2^12 keeps every bench in the
/// seconds range; raise for smoother curves).
pub const BENCH_MAX_VERTICES: usize = 1 << 12;

/// Deterministic seed shared by every bench fixture.
pub const BENCH_SEED: u64 = 0xBE_7C_11;

/// The scaled `products` twin used by kernel and simulator benches.
pub fn products_twin() -> Csr {
    OgbDataset::Products
        .materialize_scaled(BENCH_MAX_VERTICES, BENCH_SEED)
        .into_adjacency()
}

/// The scaled `products` twin as a [`Graph`] (for GCN benches).
pub fn products_graph() -> Graph {
    OgbDataset::Products.materialize_scaled(BENCH_MAX_VERTICES, BENCH_SEED)
}

/// A feature matrix matching `csr`'s column count.
pub fn features(csr: &Csr, k: usize) -> DenseMatrix {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ k as u64);
    let data = (0..csr.ncols() * k)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    DenseMatrix::from_vec(csr.ncols(), k, data).expect("shape matches by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(products_twin(), products_twin());
        let a = products_twin();
        assert_eq!(features(&a, 8), features(&a, 8));
    }

    #[test]
    fn twin_respects_cap() {
        assert!(products_twin().nrows() <= BENCH_MAX_VERTICES);
    }
}
