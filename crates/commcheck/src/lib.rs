//! Communication-correctness checking for the simulated 3D LU machine.
//!
//! - **Wait-for graph** ([`WaitGraph`]) — embedded in every simulation.
//!   Detects **deadlock** while the run is still alive and aborts with the
//!   exact cycle — rank, phase, `(ctx, src, tag)` — instead of a bare
//!   timeout.
//! - **Offline linter** ([`lint_trace`], [`check_determinism`]) — replays
//!   the Chrome-trace artifacts the `obs` crate exports and statically
//!   checks send↔recv pairing, per-`(ctx, tag)` FIFO order, collective
//!   participation, and schedule determinism across repeated runs.
//!   Available as `salu --lint-trace`.
//!
//! Unreceived messages are reported by the machine itself, from the queues
//! it already holds (`simgrid::FailKind::Unreceived`); message races cannot
//! be expressed, because every receive names its source.
//!
//! This crate is a leaf: it depends only on `obs` (for the trace format),
//! never on the simulator, so `simgrid` can embed the wait-for graph
//! without a dependency cycle.

#![forbid(unsafe_code)]

pub mod lint;
pub mod waitgraph;

pub use lint::{check_determinism, lint_trace, LintReport, LintStats};
pub use waitgraph::{WaitGraph, WaitInfo};
