//! Bit-parity probe for the sharded runner: one FNV-1a hash of the output
//! bits of `ShardedGcn::infer` per worker count and storage precision, on
//! the two twins `output_hashes` uses.
//!
//! Uses only `ShardedGcn::{new, with_precision, infer}`, so the same file
//! runs in a `git clone` of a parent commit and in the tree; `diff` the two
//! outputs to show a change kept every bit, and run it under `taskset -c 0`
//! to show no bit depends on the pool's width:
//!
//! ```text
//! cargo run --release -p shard --example shard_hashes
//! ```

use gcn::{GcnConfig, GcnModel};
use graph::generators::erdos_renyi;
use graph::rmat::RmatConfig;
use graph::Graph;
use matrix::{DenseMatrix, Precision};
use shard::{PartitionKind, ShardedGcn};

fn fnv(m: &DenseMatrix) -> u64 {
    m.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

fn main() {
    let twins = [
        ("rmat", Graph::rmat(&RmatConfig::power_law(10, 8), 13)),
        ("erdos-renyi", erdos_renyi(1500, 12_000, 14)),
    ];
    let model = GcnModel::new(&GcnConfig::paper_model(16, 32, 8), 3);
    for (name, g) in &twins {
        let a_hat = g.normalized_adjacency().unwrap();
        let x = g.random_features(16, 21);
        for workers in [1, 2, 4, 8] {
            for precision in [Precision::F32, Precision::Bf16, Precision::Int8] {
                let mut runner = if precision == Precision::F32 {
                    ShardedGcn::new(&a_hat, workers, PartitionKind::Rows1D)
                } else {
                    ShardedGcn::with_precision(&a_hat, workers, precision)
                }
                .unwrap();
                let out = runner.infer(&model, &x).unwrap();
                println!("{name} sharded N={workers} {precision}: {:016x}", fnv(&out));
            }
        }
    }
}
