//! `simulate` — run a PIUMA kernel over a real graph file.
//!
//! ```text
//! simulate --graph web.mtx --kernel dma --cores 8 --k 64
//! simulate --rmat 14x16 --kernel unrolled --cores 32 --k 256 --latency 360
//! ```
//!
//! Graphs load from Matrix Market (`.mtx`) or whitespace edge lists
//! (anything else); `--rmat SxF` generates a power-law R-MAT graph of scale
//! `S` and edge factor `F` instead.

use graph::io::{read_edge_list, read_matrix_market};
use graph::{Graph, RmatConfig};
use piuma_kernels::{SpmmSimulation, SpmmVariant};
use piuma_sim::MachineConfig;
use sparse::Csr;
use std::io::BufReader;
use std::process::ExitCode;

struct Args {
    graph_path: Option<String>,
    rmat: Option<(u32, usize)>,
    kernel: String,
    cores: usize,
    k: usize,
    latency: Option<f64>,
    threads_per_mtp: Option<usize>,
}

fn usage() -> &'static str {
    "usage: simulate (--graph FILE | --rmat SxF) [--kernel dma|unrolled|vertex]\n\
     \n\
     --cores N            PIUMA cores (default 8)\n\
     --k N                embedding dimension for SpMM kernels (default 64)\n\
     --latency NS         DRAM latency override\n\
     --threads N          threads per MTP override"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        graph_path: None,
        rmat: None,
        kernel: "dma".to_string(),
        cores: 8,
        k: 64,
        latency: None,
        threads_per_mtp: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--graph" => args.graph_path = Some(value(&argv, i, "--graph")?),
            "--rmat" => {
                let spec = value(&argv, i, "--rmat")?;
                let (s, f) = spec
                    .split_once('x')
                    .ok_or_else(|| format!("--rmat expects SxF, got '{spec}'"))?;
                args.rmat = Some((
                    s.parse().map_err(|e| format!("bad scale: {e}"))?,
                    f.parse().map_err(|e| format!("bad edge factor: {e}"))?,
                ));
            }
            "--kernel" => args.kernel = value(&argv, i, "--kernel")?,
            "--cores" => {
                args.cores = value(&argv, i, "--cores")?
                    .parse()
                    .map_err(|e| format!("bad cores: {e}"))?
            }
            "--k" => {
                args.k = value(&argv, i, "--k")?
                    .parse()
                    .map_err(|e| format!("bad k: {e}"))?
            }
            "--latency" => {
                args.latency = Some(
                    value(&argv, i, "--latency")?
                        .parse()
                        .map_err(|e| format!("bad latency: {e}"))?,
                )
            }
            "--threads" => {
                args.threads_per_mtp = Some(
                    value(&argv, i, "--threads")?
                        .parse()
                        .map_err(|e| format!("bad threads: {e}"))?,
                )
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
        i += if argv[i].starts_with("--") && argv[i] != "--help" {
            2
        } else {
            1
        };
    }
    if args.graph_path.is_none() && args.rmat.is_none() {
        return Err(format!("need --graph or --rmat\n\n{}", usage()));
    }
    Ok(args)
}

fn load_graph(args: &Args) -> Result<Csr, String> {
    if let Some((scale, factor)) = args.rmat {
        let g = Graph::rmat(&RmatConfig::power_law(scale, factor), 42);
        eprintln!(
            "[simulate] generated rmat: {} vertices, {} edges",
            g.vertices(),
            g.edges()
        );
        return Ok(g.into_adjacency());
    }
    let path = args.graph_path.as_deref().expect("checked in parse_args");
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let reader = BufReader::new(file);
    let csr = if path.ends_with(".mtx") {
        read_matrix_market(reader).map_err(|e| format!("parse {path}: {e}"))?
    } else {
        read_edge_list(reader, None)
            .map_err(|e| format!("parse {path}: {e}"))?
            .into_adjacency()
    };
    eprintln!(
        "[simulate] loaded {path}: {}x{}, {} non-zeros",
        csr.nrows(),
        csr.ncols(),
        csr.nnz()
    );
    Ok(csr)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let a = match load_graph(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = MachineConfig::node(args.cores);
    if let Some(lat) = args.latency {
        cfg = cfg.with_dram_latency_ns(lat);
    }
    if let Some(t) = args.threads_per_mtp {
        cfg = cfg.with_threads_per_mtp(t);
    }

    let variant = match args.kernel.as_str() {
        "dma" => SpmmVariant::Dma,
        "unrolled" => SpmmVariant::LoopUnrolled,
        "vertex" => SpmmVariant::DmaVertexParallel,
        other => {
            eprintln!("unknown kernel '{other}' (dma|unrolled|vertex)");
            return ExitCode::FAILURE;
        }
    };
    match SpmmSimulation::new(cfg, variant).run(&a, args.k) {
        Ok(r) => {
            println!(
                "{variant} SpMM K={}: {:.2} GFLOP/s ({:.0}% of bandwidth model)",
                args.k,
                r.gflops,
                r.model_fraction() * 100.0
            );
            println!("{}", r.sim);
        }
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
