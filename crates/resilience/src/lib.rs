//! Fault injection, retry, run guards, and lock-recovery audit.
//!
//! This crate is the workspace's robustness toolkit. It is deliberately
//! dependency-free so that every other crate — including `pool` (which
//! everything else depends on) and the `piuma-sim` event loop — can use it
//! without dependency cycles.
//!
//! The pieces compose as follows:
//!
//! * [`fault`] — a deterministic, seeded fault-injection registry. Code
//!   under test is instrumented with named [`fault_point!`] /
//!   [`fault_point_err!`] sites that compile to a guaranteed no-op (one
//!   relaxed atomic load, zero allocations) while injection is disarmed,
//!   and inject panics, artificial latency, or typed error returns when
//!   armed via the environment (`FAULT_SEED`, `FAULT_RATE`, `FAULT_POINTS`)
//!   or programmatically via [`fault::arm`].
//! * [`retry`] — bounded retry that converts escaped panics into values,
//!   so a caller can re-run an idempotent computation after an injected
//!   (or real) crash, and [`retry::ATTEMPTS`], the one attempt budget.
//! * [`guard`] — cooperative cancellation tokens and wall-clock budgets
//!   ([`guard::RunGuard`]) plus the [`guard::RunOutcome`] type that long
//!   runs return instead of hanging: complete, or typed partial progress.
//! * [`audit`] — poisoned-lock recovery helpers that centralize the
//!   `lock().unwrap_or_else(|e| e.into_inner())` idiom and count every
//!   recovery so chaos tests can assert poisoning was actually exercised.

pub mod audit;
pub mod fault;
pub mod guard;
pub mod retry;

pub use fault::{ArmedGuard, FaultConfig, FaultKind, FaultStats};
pub use guard::{CancelToken, RunGuard, RunOutcome, StopReason};
pub use retry::{Failure, Recovery, RetryError};
