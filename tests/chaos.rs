//! End-to-end chaos tests: a pinned drop/delay/dup plan against the full
//! 3D solver (`contracts::table::CHAOS_SOLVE`). The two acceptance
//! properties of the faultlab layer:
//!
//! 1. With recovery on, the faulted factorization is **bitwise identical**
//!    to the fault-free one (same `factor_digest`, same solution bits) —
//!    injected faults shift simulated clocks, never values.
//! 2. With recovery off, the same plan fails **structurally**: the
//!    machine's quiescence proof aborts the run with an error naming the
//!    injected edge, instead of hanging or corrupting results.

mod contracts;

use contracts::table::CHAOS_SOLVE as CHAOS;
use contracts::{check, prep, run, Contract::*};
use salu::prelude::*;
use salu::simgrid::obs::validate_chrome_trace;
use salu::simgrid::{EdgeFilter, FailKind, FaultAction, FaultRule};

/// On both backends the recovered run injected and recovered faults, yet
/// its wire ledger, digest and solution are the fault-free run's, at a
/// later makespan.
#[test]
fn recovered_chaos_run_is_bitwise_identical_to_fault_free() {
    check(&[CHAOS], &[Recovered]);
}

/// Same plan, same seed, run twice per backend: identical digests,
/// solutions, fault counters and makespans — the injected schedule is
/// independent of thread interleaving AND of the execution backend.
#[test]
fn chaos_with_recovery_is_deterministic() {
    check(
        &[CHAOS],
        &[Rerun(Backend::Threaded), Backends, Rerun(Backend::Event)],
    );
}

#[test]
fn unrecovered_chaos_run_fails_structurally() {
    // The same plan without recovery: drops are lost for good. The run
    // must abort with a structured SolverError whose chain reaches a
    // commcheck verdict (deadlock on the starved edge), not hang and not
    // return wrong numbers. Both backends get there the same way: by
    // proving that no rank can run.
    for backend in [Backend::Threaded, Backend::Event] {
        let cfg = SolverConfig {
            recover: false,
            ..CHAOS.config(CHAOS.run(backend))
        };
        let err = try_factor_and_solve(prep(&CHAOS), &cfg, CHAOS.b())
            .err()
            .expect("lost messages without recovery must fail the run");
        let text = err.to_string();
        assert!(
            text.contains("deadlock detected") || text.contains("terminated"),
            "{backend}: error must carry the structural diagnosis: {text}"
        );
        // The failure is attributed to a specific rank and phase.
        assert!(err.rank < 16, "{backend}: rank {} out of range", err.rank);
        assert!(!err.phase.is_empty(), "{backend}");
    }
}

#[test]
fn recv_deadline_failure_names_phase_and_supernode() {
    // A 1x1x2 grid has exactly one kind of traffic: the z-line ancestor
    // reduction. Delaying the 1 -> 0 edge beyond the simulated receive
    // deadline must produce a SolverError in phase `reduce` naming the
    // supernode and forest level being reduced, on rank 0.
    let cfg = SolverConfig {
        pr: 1,
        pc: 1,
        pz: 2,
        model: TimeModel::edison_like(),
        fault_plan: Some(
            FaultPlan::parse("delay:p=1,secs=30,src=1,dst=0", 1).expect("spec parses"),
        ),
        recv_deadline: Some(1.0),
        ..Default::default()
    };
    let err = try_factor_and_solve(prep(&CHAOS), &cfg, CHAOS.b())
        .err()
        .expect("the delayed reduction must trip the deadline");
    assert_eq!(err.rank, 0, "{err}");
    assert_eq!(err.phase, "reduce", "{err}");
    match &err.kind {
        FailKind::Solver {
            supernode,
            level,
            detail,
            ..
        } => {
            assert!(supernode.is_some(), "{err}");
            assert!(level.is_some(), "{err}");
            assert!(
                detail.contains("z-line reduction recv from z=1"),
                "{detail}"
            );
            assert!(detail.contains("deadline"), "{detail}");
        }
        other => panic!("expected a Solver failure, got {other:?}"),
    }
    assert!(err.supernode().is_some() && err.level().is_some(), "{err}");
}

/// The trace's counter tracks are projections, not second ledgers: on a
/// fault-free run and on a recovered one (whose retransmits and transport
/// duplicates are `resend` slices with no message identity), each rank's
/// last `wire rank N` sample is its wire ledger's words per class and its
/// last `mem rank N` sample its memory ledger's final balance per class.
/// Both traces validate: every message sent once and received once, never
/// before it was sent, the `resend` slices beside them.
#[test]
fn counter_tracks_end_at_the_ledger_totals() {
    use salu::simgrid::{ActivityKind, CommClass, Json, MemClass};
    for faulted in [false, true] {
        let traced = CHAOS.run(Backend::Event).clean(!faulted).traced(true);
        let out = &run(&CHAOS, traced).out;
        let resends = (out.rank_obs().unwrap().iter())
            .flat_map(|r| &r.activities)
            .filter(|a| a.kind == ActivityKind::Resend)
            .count();
        assert_eq!(resends > 0, faulted, "transport-internal sends: {resends}");
        let doc = out.chrome_trace().unwrap();
        let stats = validate_chrome_trace(&doc)
            .unwrap_or_else(|e| panic!("faulted={faulted}: the trace is invalid: {e}"));
        assert!(stats.flow_pairs > 0, "faulted={faulted}: no message traced");
        // The last sample of each counter track, by track name.
        let mut last: std::collections::BTreeMap<String, &Json> = Default::default();
        for ev in doc.get("traceEvents").unwrap().as_arr().unwrap() {
            if ev.get("ph").and_then(|p| p.as_str()) == Some("C") {
                let name = ev.get("name").unwrap().as_str().unwrap();
                last.insert(name.to_string(), ev.get("args").unwrap());
            }
        }
        let sample = |track: &str, series: &str| {
            last.get(track)
                .and_then(|args| args.get(series))
                .map_or(0, |v| v.as_f64().unwrap() as u64)
        };
        for (rank, rep) in out.reports.iter().enumerate() {
            for class in CommClass::ALL {
                assert_eq!(
                    sample(&format!("wire rank {rank}"), class.as_str()),
                    rep.commvol.class_cell(class).words,
                    "faulted={faulted}: rank {rank} {class:?} words"
                );
            }
            for class in MemClass::ALL {
                let balance: u64 = (rep.memprof.final_by.iter())
                    .filter(|a| a.class == class)
                    .map(|a| a.bytes)
                    .sum();
                assert_eq!(
                    sample(&format!("mem rank {rank}"), class.as_str()),
                    balance,
                    "faulted={faulted}: rank {rank} {class:?} bytes"
                );
            }
            assert!(rep.commvol.sent_words() > 0, "rank {rank} sent nothing");
        }
    }
}

/// The causality check is not vacuous on a real trace: a negative delay,
/// which `FaultPlan::parse` refuses but a plan built by hand can still
/// carry, delivers messages before they were sent, and the trace validator
/// says so.
#[test]
fn a_negative_delay_breaks_causality_in_the_trace() {
    let traced = CHAOS.run(Backend::Event).traced(true);
    let cfg = SolverConfig {
        fault_plan: Some(FaultPlan {
            rules: vec![FaultRule {
                edge: EdgeFilter::any(),
                action: FaultAction::Delay { p: 0.5, secs: -1.0 },
            }],
            ..FaultPlan::seeded(7)
        }),
        ..CHAOS.config(traced)
    };
    let out = try_factor_and_solve(prep(&CHAOS), &cfg, CHAOS.b()).expect("the run completes");
    let err = validate_chrome_trace(&out.chrome_trace().unwrap()).unwrap_err();
    assert!(err.contains("before its send"), "{err}");
}
