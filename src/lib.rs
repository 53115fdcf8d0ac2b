//! # piuma-gcn
//!
//! A full reproduction of *"Characterizing the Scalability of Graph
//! Convolutional Networks on Intel PIUMA"* (ISPASS 2023) as a Rust
//! workspace: executable GCN/SpMM kernels, a discrete-event PIUMA
//! architecture simulator, calibrated Xeon/A100 platform models, and a
//! harness that regenerates every table and figure in the paper's
//! evaluation.
//!
//! This crate is a facade: it re-exports each subsystem crate under one
//! namespace so examples and downstream users need a single dependency.
//!
//! ## Quick start
//!
//! ```
//! use piuma_gcn::prelude::*;
//!
//! // Build a graph, a 3-layer GCN, and run inference on the host.
//! let g = Graph::rmat(&RmatConfig::power_law(8, 8), 42);
//! let model = GcnModel::new(&GcnConfig::paper_model(16, 32, 4), 7);
//! let x = g.random_features(16, 9);
//! let out = model.infer(&g, &x, SpmmStrategy::Auto).unwrap();
//! assert_eq!(out.shape(), (g.vertices(), 4));
//!
//! // Simulate the same aggregation on a 4-core PIUMA machine.
//! let sim = SpmmSimulation::new(MachineConfig::node(4), SpmmVariant::Dma);
//! let run = sim.run(g.adjacency(), 32).unwrap();
//! assert!(run.gflops > 0.0);
//! ```
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`matrix`] | dense matrices, packed GEMM (+ naive reference), activations |
//! | [`sparse`] | COO/CSR, GCN normalization, degree stats |
//! | [`graph`] | graph type, RMAT/ER generators, OGB catalog |
//! | [`kernels`] | host SpMM: one `SpmmStrategy` enum, `SpmmPlan` (resolved or pinned), the one GCN layer |
//! | [`gcn`] | the GCN model and its one layer loop (plan, guard, retry as operands) |
//! | [`analytic`] | the paper's Eq. 1–5 bandwidth-bound model |
//! | [`piuma_sim`] | the discrete-event PIUMA simulator |
//! | [`piuma_kernels`] | SpMM lowered onto the simulator |
//! | [`platform_models`] | Xeon 8380 / A100 / PIUMA GCN timing models |
//! | [`report`] | experiment harness and the `repro` binary |
//! | [`serving`] | async inference service: batching + admission control |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use analytic;
pub use gcn;
pub use graph;
pub use kernels;
pub use matrix;
pub use piuma_kernels;
pub use piuma_sim;
pub use platform_models;
pub use report;
pub use serving;
pub use sparse;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use analytic::workload::GcnWorkload;
    pub use analytic::{ElementSizes, SpmmTraffic};
    pub use gcn::{GcnConfig, GcnModel, InferenceWorkspace, SamplingScheme};
    pub use graph::{Graph, OgbDataset, ReorderKind, ReorderedGraph, RmatConfig};
    pub use kernels::{SpmmPlan, SpmmStrategy};
    pub use matrix::{Activation, DenseMatrix, Precision, WeightInit};
    pub use piuma_kernels::{SpmmSimResult, SpmmSimulation, SpmmVariant};
    pub use piuma_sim::{MachineConfig, SimResult, Simulator};
    pub use platform_models::{GcnPhaseTimes, GpuModel, Phase, PiumaModel, XeonModel};
    pub use serving::{GcnService, Rejection, Request, ServiceConfig, TenantSpec};
    pub use sparse::{Coo, Csr, Permutation};
}
