//! Differential backend suite: the event backend must be observationally
//! indistinguishable from the threaded backend on everything the
//! simulation defines — factor digests, simulated makespans, the run
//! document's whole `sim` section (merged metrics, memory and wire
//! ledgers), and the static plan-check verdict — across the
//! generator × grid-shape × option shapes of `contracts::table::BACKENDS`.
//! Only host-side artifacts (wall clock, hostprof) may differ.
//!
//! The paper-scale case (P = 4096 in one process) runs in every profile,
//! in about a second in debug; `tests/cli.rs` runs the same point through
//! `salu` and the smoke campaign factors it end to end.

mod contracts;

use contracts::table::{BACKENDS, BATCHED, P16, P4096};
use contracts::{check, run, x_of, Contract::*};
use salu::prelude::*;
use salu::simgrid::SchedStats;

/// Every simulated observable of a factor-only run is backend-independent,
/// bitwise: digest, makespan, the account's `sim` section and every rank's
/// counters (the chaos case's `fault.*` included), memory and wire ledgers.
/// The chaos case also matches its fault-free twin; the batched case runs
/// the gather-GEMM-scatter kernel and an event rerun repeats it.
#[test]
fn every_config_is_bitwise_identical_across_backends() {
    check(&BACKENDS, &[Backends]);
    check(&BACKENDS[3..4], &[Recovered]);
    check(&[BATCHED], &[Batched, Rerun(Backend::Event)]);
}

/// The static communication plan verifies against the measured ledger of
/// BOTH backends — the plan-check gate is backend-blind.
#[test]
fn plan_check_accepts_both_backends_ledgers() {
    check(&BACKENDS, &[PlanLedger]);
}

/// P = 16 with the solve and a refinement sweep on top: the solution is
/// bitwise backend-independent too, and the event run's scheduler counters
/// are a deterministic function of the rank programs (absent under the
/// threaded backend, where the kernel schedules).
#[test]
fn p16_solve_is_bitwise_identical_and_scheduler_counters_repeat() {
    check(&[P16], &[Backends, Rerun(Backend::Event)]);
}

/// The one-slot dispatch order, pinned: the event backend's counters on
/// the program above are literals. Ranks taking the slot in another order
/// move them, so a change to the dispatch rule cannot pass silently.
#[test]
fn event_scheduler_counters_are_pinned() {
    assert_eq!(
        run(&P16, P16.run(Backend::Event)).out.sched,
        Some(SchedStats {
            steps: 153,
            wakeups: 137,
            unmatched_sends: 37,
            quiescence_resolutions: 0,
        })
    );
}

/// Paper-scale smoke: a 64x64x1 process grid — P = 4096 ranks — factored
/// and solved in one process by the event backend. Threaded could not
/// sensibly run this (4096 free-running OS threads); the scheduler just
/// takes turns. It is also the shape where the solve's waves merge least:
/// 4096 roots, so nearly every batch is one supernode.
#[test]
fn event_backend_factors_p4096_in_one_process() {
    let out = &run(&P4096, P4096.run(Backend::Event)).out;
    assert_eq!(out.reports.len(), 4096);
    assert!(out.factor_makespan > 0.0 && out.makespan() > out.factor_makespan);
    assert!(out.w_fact() > 0, "no factor-phase traffic recorded");
    let b = P4096.b().unwrap();
    let bmax = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let residual = contracts::prep(&P4096).a.residual_inf(x_of(out), &b) / bmax;
    assert!(residual < 1e-10, "relative residual {residual}");
    let sched = out.sched.expect("event runs report scheduler counters");
    assert_eq!(sched.quiescence_resolutions, 0, "a rank waited in a cycle");
}
