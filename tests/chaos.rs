//! End-to-end chaos tests: a pinned drop/delay/dup plan against the full
//! 3D solver. The two acceptance properties of the faultlab layer:
//!
//! 1. With recovery on, the faulted factorization is **bitwise identical**
//!    to the fault-free one (same `factor_digest`, same solution bits) —
//!    injected faults shift simulated clocks, never values.
//! 2. With recovery off, the same plan fails **structurally**: the
//!    machine's quiescence proof aborts the run with an error naming the
//!    injected edge, instead of hanging or corrupting results.

use salu::prelude::*;
use salu::simgrid::FailKind;

const CHAOS_SPEC: &str = "drop:p=0.05;dup:p=0.02;delay:p=0.1,secs=2e-3";
const CHAOS_SEED: u64 = 7;

fn chaos_problem() -> (Prepared, Vec<f64>) {
    let nx = 20;
    let a = salu::sparsemat::matgen::grid2d_5pt(nx, nx, 0.1, 5);
    let x_true: Vec<f64> = (0..a.nrows).map(|i| ((i % 9) as f64) - 4.0).collect();
    let b = a.matvec(&x_true);
    (Prepared::new(a, Geometry::Grid2d { nx, ny: nx }, 8, 8), b)
}

/// Two refinement sweeps: three solves, so recovered duplicates and
/// retransmits cross the batched reductions and broadcasts of the solve.
const REFINE_STEPS: usize = 2;

fn chaos_cfg(recover: bool, backend: Backend) -> SolverConfig {
    SolverConfig {
        pr: 2,
        pc: 2,
        pz: 4,
        refine_steps: REFINE_STEPS,
        model: TimeModel::edison_like(),
        backend,
        fault_plan: Some(FaultPlan::parse(CHAOS_SPEC, CHAOS_SEED).expect("spec parses")),
        recover,
        ..Default::default()
    }
}

#[test]
fn recovered_chaos_run_is_bitwise_identical_to_fault_free() {
    let (prep, b) = chaos_problem();
    let clean = factor_and_solve(
        &prep,
        &SolverConfig {
            pr: 2,
            pc: 2,
            pz: 4,
            refine_steps: REFINE_STEPS,
            model: TimeModel::edison_like(),
            ..Default::default()
        },
        Some(b.clone()),
    );
    // Both execution backends must carry the same plan to the same bits.
    for backend in [Backend::Threaded, Backend::Event] {
        let faulted = try_factor_and_solve(&prep, &chaos_cfg(true, backend), Some(b.clone()))
            .unwrap_or_else(|e| panic!("{backend}: recovery must carry the run through: {e}"));
        // The plan really injected faults...
        let m = faulted.metrics();
        assert!(
            m.counter("fault.injected.drop") > 0,
            "{backend}: plan injected no drops"
        );
        assert!(m.counter("fault.recovered.retransmit") > 0, "{backend}");
        // ...every protocol message was received — one left over would have
        // failed the run above — and retransmits and injected duplicates
        // were charged to the fault ledger, never to the algorithmic wire
        // volume: the recovered run's wire-volume report is byte-identical
        // to the fault-free one...
        assert!(
            m.counter("fault.resent_words") > 0,
            "{backend}: no retransmit volume"
        );
        // (Only that sub-section of the run documents' `sim`: `metrics`
        // carries the `fault.*` counters asserted above and `memprof` the
        // simulated instant of each peak, which recovery shifts.)
        let wire = |o: &Output3d| {
            let doc = salu::simgrid::run_document(&o.reports, o.sched.as_ref());
            let sim = doc.get("sim").expect("sim section");
            sim.get("commvol").expect("wire section").pretty()
        };
        assert_eq!(
            wire(&faulted),
            wire(&clean),
            "{backend}: recovered run must report fault-free algorithmic volume"
        );
        // ...and the factors and solution are bit-for-bit the fault-free
        // ones.
        assert_eq!(
            faulted.factor_digest, clean.factor_digest,
            "{backend}: recovery changed factor values"
        );
        let (xf, xc) = (faulted.x.as_ref().unwrap(), clean.x.as_ref().unwrap());
        for (i, (a, b)) in xf.iter().zip(xc).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{backend}: x[{i}]: {a} vs {b}");
        }
        // Retransmission waits are simulated time: the faulted run is
        // slower.
        assert!(faulted.makespan() > clean.makespan(), "{backend}");
    }
}

#[test]
fn chaos_with_recovery_is_deterministic() {
    // Same plan, same seed, run twice per backend: identical digests,
    // solutions, and fault counters — the injected schedule is independent
    // of thread interleaving AND of the execution backend.
    let (prep, b) = chaos_problem();
    let run =
        |backend| try_factor_and_solve(&prep, &chaos_cfg(true, backend), Some(b.clone())).unwrap();
    let (o1, o2) = (run(Backend::Threaded), run(Backend::Threaded));
    let oe = run(Backend::Event);
    assert_eq!(o1.factor_digest, o2.factor_digest);
    assert_eq!(o1.factor_digest, oe.factor_digest, "event digest diverged");
    let (x1, x2, xe) = (
        o1.x.as_ref().unwrap(),
        o2.x.as_ref().unwrap(),
        oe.x.as_ref().unwrap(),
    );
    assert_eq!(x1.len(), x2.len());
    for ((a, b), c) in x1.iter().zip(x2).zip(xe) {
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(a.to_bits(), c.to_bits());
    }
    assert_eq!(o1.metrics().counters, o2.metrics().counters);
    assert_eq!(
        o1.metrics().counters,
        oe.metrics().counters,
        "fault counters depend on the backend"
    );
    assert_eq!(o1.makespan(), o2.makespan());
    assert_eq!(
        o1.makespan(),
        oe.makespan(),
        "makespan depends on the backend"
    );
}

#[test]
fn unrecovered_chaos_run_fails_structurally() {
    // The same plan without recovery: drops are lost for good. The run
    // must abort with a structured SolverError whose chain reaches a
    // commcheck verdict (deadlock on the starved edge), not hang and not
    // return wrong numbers. Both backends get there the same way: by
    // proving that no rank can run.
    let (prep, b) = chaos_problem();
    for backend in [Backend::Threaded, Backend::Event] {
        let err = try_factor_and_solve(&prep, &chaos_cfg(false, backend), Some(b.clone()))
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
    let (prep, b) = chaos_problem();
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
    let err = try_factor_and_solve(&prep, &cfg, Some(b))
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
