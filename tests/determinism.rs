//! Determinism regression: the simulated 3D factorization is bitwise
//! reproducible. Two identical runs must produce identical factors and
//! solutions AND identical message traces — the property the paper's
//! deterministic reduction orders guarantee: every receive names its
//! source, so the schedule is a function of the program. The shapes are
//! `contracts::table::DETERMINISM`, every run traced.

mod contracts;

use contracts::table::DETERMINISM;
use contracts::{check, Contract::*};
use salu::prelude::*;

/// Threaded reruns repeat the solution, every counter and ledger cell, and
/// the trace byte for byte; each trace validates.
#[test]
fn repeated_runs_are_bitwise_identical() {
    check(&DETERMINISM, &[Rerun(Backend::Threaded), TraceValid]);
}

/// The event scheduler's cooperative order reproduces not just the
/// solution but the entire simulated message schedule of free-running
/// threads, byte for byte, and is itself deterministic.
#[test]
fn event_backend_reproduces_the_threaded_schedule() {
    check(&DETERMINISM, &[Backends, Rerun(Backend::Event)]);
}
