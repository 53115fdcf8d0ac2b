//! The generated twins and their normalized adjacencies are pinned bit for
//! bit.
//!
//! Every twin the benchmark builds (ddi 2^12, arxiv 2^14, products 2^14
//! and 2^15), one noisy and one directed R-MAT are hashed with FNV-1a over
//! `row_ptr`, `col_idx` and the value bits, for the adjacency and for
//! `A_hat = D^-1/2 (A + I) D^-1/2`. A change to how either is built may
//! change speed and memory, never these constants.

use graph::{Graph, OgbDataset, RmatConfig};
use sparse::Csr;

/// FNV-1a over the shape, the row offsets (as `u64`), the column indices
/// and the value bits, all little-endian.
fn fnv(csr: &Csr) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&(csr.nrows() as u64).to_le_bytes());
    eat(&(csr.ncols() as u64).to_le_bytes());
    for &p in csr.row_ptr() {
        eat(&(p as u64).to_le_bytes());
    }
    for &c in csr.col_idx() {
        eat(&c.to_le_bytes());
    }
    for &v in csr.values() {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

/// `(name, nnz of A, hash of A, nnz of A_hat, hash of A_hat)`.
fn pin(name: &str, g: &Graph) -> (String, usize, u64, usize, u64) {
    let a_hat = g.normalized_adjacency().expect("a graph is square");
    (
        name.to_string(),
        g.edges(),
        fnv(g.adjacency()),
        a_hat.nnz(),
        fnv(&a_hat),
    )
}

fn check(got: &[(String, usize, u64, usize, u64)], want: &[(&str, usize, u64, usize, u64)]) {
    let got: Vec<_> = got
        .iter()
        .map(|(n, a, ha, b, hb)| format!("{n} {a} {ha:#018x} {b} {hb:#018x}"))
        .collect();
    let want: Vec<_> = want
        .iter()
        .map(|(n, a, ha, b, hb)| format!("{n} {a} {ha:#018x} {b} {hb:#018x}"))
        .collect();
    assert_eq!(got, want, "generated or normalized bits changed");
}

#[test]
fn benchmark_twins_are_bit_stable() {
    let twins = [
        (OgbDataset::Ddi, 12),
        (OgbDataset::Arxiv, 14),
        (OgbDataset::Products, 14),
        (OgbDataset::Products, 15),
    ];
    let mut got = Vec::new();
    for (dataset, log_cap) in twins {
        for seed in [3u64, 0x5EED] {
            let g = dataset.materialize_scaled(1 << log_cap, seed);
            got.push(pin(&format!("{dataset}-2^{log_cap}-s{seed}"), &g));
        }
    }
    check(&got, TWINS);
}

#[test]
fn noisy_and_directed_rmat_are_bit_stable() {
    let noisy = RmatConfig {
        noise: 0.1,
        ..RmatConfig::power_law(12, 8)
    };
    let directed = RmatConfig {
        symmetric: false,
        ..RmatConfig::power_law(12, 8)
    };
    let got = [
        pin("noisy", &Graph::rmat(&noisy, 17)),
        pin("directed", &Graph::rmat(&directed, 17)),
    ];
    check(&got, VARIANTS);
}

const TWINS: &[(&str, usize, u64, usize, u64)] = &[
    (
        "ddi-2^12-s3",
        1230470,
        0xb31345f342b14f25,
        1234566,
        0x823d578ec492ad6f,
    ),
    (
        "ddi-2^12-s24301",
        1230272,
        0xc02bb1ab10c370ce,
        1234368,
        0xc3323b5904cce657,
    ),
    (
        "arxiv-2^14-s3",
        91292,
        0x05a63dc887564c2d,
        107676,
        0xa7501a894a33a66c,
    ),
    (
        "arxiv-2^14-s24301",
        91758,
        0x8bef34bae54ad423,
        108142,
        0x68f30036cfae1176,
    ),
    (
        "products-2^14-s3",
        353898,
        0xa8ae8eb1ca258ec5,
        370282,
        0x09c48c3f003619f4,
    ),
    (
        "products-2^14-s24301",
        354930,
        0x7201ece98fa5344d,
        371314,
        0x48c8e86392a72501,
    ),
    (
        "products-2^15-s3",
        731634,
        0x524f05092d6f10ed,
        764402,
        0x242def27240d6fbb,
    ),
    (
        "products-2^15-s24301",
        732344,
        0x0357743ec4eefb5a,
        765112,
        0x807f24bca4dde029,
    ),
];

const VARIANTS: &[(&str, usize, u64, usize, u64)] = &[
    (
        "noisy",
        53474,
        0x1c98d33d2d42a4b0,
        57570,
        0xd0fdb2d4ee74dc13,
    ),
    (
        "directed",
        28639,
        0xd1b79ee72bcc1144,
        32735,
        0x58194cee8c8e9fd2,
    ),
];
