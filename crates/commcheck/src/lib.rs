//! Communication-correctness checking for the simulated 3D LU machine.
//!
//! Two halves, sharing one vocabulary of findings:
//!
//! - **Online sanitizer** — runs *inside* a simulation when enabled.
//!   Vector clocks ([`VClock`]) piggybacked on every message give the
//!   happens-before order; the outstanding-send table ([`SanState`])
//!   detects wildcard-receive **races** (two concurrent sends competing
//!   for the same `(ctx, tag)` slot) and finalize-time **leaks** (sent but
//!   never received). The wait-for graph ([`WaitGraph`]) detects
//!   **deadlock** while the run is still alive and aborts with the exact
//!   cycle — rank, phase, `(ctx, src, tag)` — instead of a bare timeout.
//! - **Offline linter** ([`lint_trace`], [`check_determinism`]) — replays
//!   the Chrome-trace artifacts the `obs` crate exports and statically
//!   checks send↔recv pairing, per-`(ctx, tag)` FIFO order, collective
//!   participation, and schedule determinism across repeated runs. Also
//!   available as the `commcheck` binary and `salu --lint-trace`.
//!
//! This crate is a leaf: it depends only on `obs` (for the trace format),
//! never on the simulator, so `simgrid` can embed the online half without
//! a dependency cycle.

#![forbid(unsafe_code)]

pub mod lint;
pub mod online;
pub mod report;
pub mod vclock;
pub mod waitgraph;

pub use lint::{check_determinism, lint_trace, LintReport, LintStats};
pub use online::{SanState, SendRec};
pub use report::{CommReport, Finding};
pub use vclock::VClock;
pub use waitgraph::{WaitGraph, WaitInfo, WaitTargets};
