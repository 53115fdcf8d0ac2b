//! SpMM on PIUMA: the two kernel variants of Section IV-B, lowered onto the
//! discrete-event simulator.
//!
//! Both variants are **edge-parallel** (Algorithm 2): the `|E|` non-zeros
//! are divided evenly across every hardware thread in the machine, and a
//! binary search over the row-pointer array locates each thread's first row.
//! They differ in how feature vectors move:
//!
//! * [`variant::SpmmVariant::LoopUnrolled`] — the fundamental algorithm:
//!   the MTP pipeline itself issues 64-byte cache-line loads for feature
//!   data and fine-grained 8-byte loads for non-zeros. Every load blocks
//!   its thread (MTP threads have a single in-flight instruction), so as
//!   remote latency grows with core count the achievable bandwidth
//!   collapses — the paper's Figure 5 purple curve.
//! * [`variant::SpmmVariant::Dma`] — the optimized kernel: after the NNZ
//!   line load, the thread *enqueues* a DMA descriptor per edge
//!   (vectorized multiply of the neighbour's feature row into the
//!   core-local accumulation buffer) and moves on; completed rows are
//!   written back by the DMA engine atomically. Issue serializes at the
//!   engine while completions overlap, so bandwidth stays saturated — the
//!   red curve, within 10–20 % of the analytical model.
//!
//! [`runner::SpmmSimulation`] drives either variant over a real CSR matrix
//! and reports achieved GFLOP/s next to the Eq. 1–5 roofline. Around it,
//! [`placement`] maps shared arrays onto DRAM slices, [`programs`] holds the
//! per-thread instruction streams, [`dense_sim`] and [`dense_model`] price
//! the dense update, and [`gcn_sim`] times a whole GCN layer.
//!
//! # Examples
//!
//! ```
//! use piuma_kernels::{runner::SpmmSimulation, variant::SpmmVariant};
//! use piuma_sim::MachineConfig;
//! use sparse::{Coo, Csr};
//!
//! let mut coo = Coo::new(64, 64);
//! for i in 0..64usize {
//!     coo.push(i, (i + 1) % 64, 1.0);
//! }
//! let a = Csr::from_coo(&coo);
//! let sim = SpmmSimulation::new(MachineConfig::single_core(), SpmmVariant::Dma);
//! let result = sim.run(&a, 16).unwrap();
//! assert!(result.gflops > 0.0);
//! assert!(result.model_fraction() <= 1.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense_model;
pub mod dense_sim;
pub mod gcn_sim;
pub mod placement;
pub mod programs;
pub mod runner;
pub mod variant;

pub use runner::{SpmmSimResult, SpmmSimulation};
pub use variant::SpmmVariant;
