//! Differential backend suite: the event backend must be observationally
//! indistinguishable from the threaded backend on everything the
//! simulation defines — factor digests, simulated makespans, the run
//! document's whole `sim` section (merged metrics, memory and wire
//! ledgers), and the static plan-check verdict — across the
//! generator × grid-shape × option matrix. Only host-side artifacts
//! (wall clock, hostprof) may differ.
//!
//! The paper-scale case (P = 4096 in one process) is `#[ignore]`d here
//! because debug-mode builds take minutes on it; CI runs it in release
//! (`cargo test --release --test backends -- --ignored`) and the smoke
//! campaign factors the same point end-to-end.

use commplan::{build_plan, check_plan, compare_with_measured};
use lu3d::solver::{try_factor_only, SolverConfig};
use lu3d::EtreeForest;
use salu::prelude::*;
use salu::simgrid::{run_document, Grid3d, SchedStats};
use sparsemat::matgen;
use sparsemat::Csr;

struct Case {
    label: &'static str,
    a: Csr,
    geometry: Geometry,
    grid: (usize, usize, usize),
    /// Supernode pins `(leaf, maxsup)` for [`Prepared::new`].
    pins: (usize, usize),
    /// The case must take the batched Schur kernel (asserted through the
    /// `schur.batched_supernodes` counter) — the others are too small to.
    batches: bool,
    lookahead: usize,
    fault_spec: Option<&'static str>,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            label: "grid2d:16 2x2x1 (no Z replication)",
            a: matgen::grid2d_5pt(16, 16, 0.1, 1),
            geometry: Geometry::Grid2d { nx: 16, ny: 16 },
            grid: (2, 2, 1),
            pins: (16, 24),
            batches: false,
            lookahead: 8,
            fault_spec: None,
        },
        Case {
            label: "grid2d:16 2x2x4 lookahead=0 (deep Z, eager)",
            a: matgen::grid2d_5pt(16, 16, 0.1, 1),
            geometry: Geometry::Grid2d { nx: 16, ny: 16 },
            grid: (2, 2, 4),
            pins: (16, 24),
            batches: false,
            lookahead: 0,
            fault_spec: None,
        },
        Case {
            label: "grid2d:16 4x1x2 (tall layer)",
            a: matgen::grid2d_5pt(16, 16, 0.1, 1),
            geometry: Geometry::Grid2d { nx: 16, ny: 16 },
            grid: (4, 1, 2),
            pins: (16, 24),
            batches: false,
            lookahead: 8,
            fault_spec: None,
        },
        Case {
            label: "grid2d:20 2x2x2 chaos + retry",
            a: matgen::grid2d_5pt(20, 20, 0.1, 1),
            geometry: Geometry::Grid2d { nx: 20, ny: 20 },
            grid: (2, 2, 2),
            pins: (16, 24),
            batches: false,
            lookahead: 8,
            fault_spec: Some("drop:p=0.05;dup:p=0.02;delay:p=0.1,secs=2e-3"),
        },
        Case {
            label: "grid3d:6 2x2x2",
            a: matgen::grid3d_7pt(6, 6, 6, 0.1, 1),
            geometry: Geometry::Grid3d {
                nx: 6,
                ny: 6,
                nz: 6,
            },
            grid: (2, 2, 2),
            pins: (16, 24),
            batches: false,
            lookahead: 8,
            fault_spec: None,
        },
        Case {
            label: "grid3d:14 2x2x2 leaf=maxsup=32 (crosses the Schur batching threshold)",
            a: matgen::grid3d_7pt(14, 14, 14, 0.1, 1),
            geometry: Geometry::Grid3d {
                nx: 14,
                ny: 14,
                nz: 14,
            },
            grid: (2, 2, 2),
            pins: (32, 32),
            batches: true,
            lookahead: 8,
            fault_spec: None,
        },
        Case {
            label: "kkt:4 2x2x2 lookahead=4",
            a: matgen::kkt_3d(4, 4, 4, 1e-2, 1),
            geometry: Geometry::General,
            grid: (2, 2, 2),
            pins: (16, 24),
            batches: false,
            lookahead: 4,
            fault_spec: None,
        },
    ]
}

fn prepare(case: &Case) -> Prepared {
    let (leaf, maxsup) = case.pins;
    Prepared::new(case.a.clone(), case.geometry, leaf, maxsup)
}

fn config(case: &Case, backend: Backend) -> SolverConfig {
    let (pr, pc, pz) = case.grid;
    SolverConfig {
        pr,
        pc,
        pz,
        model: TimeModel::edison_like(),
        lookahead: case.lookahead,
        backend,
        fault_plan: case
            .fault_spec
            .map(|s| FaultPlan::parse(s, 7).expect("fault spec parses")),
        recover: case.fault_spec.is_some(),
        ..Default::default()
    }
}

/// The `sim` section of a run's document, rendered: everything the
/// simulation determines about the run, and nothing the host adds.
fn sim_section(out: &Output3d) -> String {
    run_document(&out.reports, out.sched.as_ref())
        .get("sim")
        .expect("sim section")
        .pretty()
}

/// Every simulated observable of a factor-only run is backend-independent,
/// bitwise: digest, makespan, and the document's `sim` section — metrics
/// (the chaos case's `fault.*` counters included), memory and wire ledgers.
#[test]
fn every_config_is_bitwise_identical_across_backends() {
    for case in cases() {
        let prep = prepare(&case);
        let threaded = try_factor_only(&prep, &config(&case, Backend::Threaded))
            .unwrap_or_else(|e| panic!("{}: threaded run failed: {e}", case.label));
        let event = try_factor_only(&prep, &config(&case, Backend::Event))
            .unwrap_or_else(|e| panic!("{}: event run failed: {e}", case.label));

        assert_eq!(
            threaded.factor_digest, event.factor_digest,
            "{}: factor digests diverge",
            case.label
        );
        assert_eq!(
            threaded.makespan().to_bits(),
            event.makespan().to_bits(),
            "{}: simulated makespans diverge ({} vs {})",
            case.label,
            threaded.makespan(),
            event.makespan()
        );
        assert_eq!(
            sim_section(&threaded),
            sim_section(&event),
            "{}: the run documents' sim sections diverge",
            case.label
        );
        if case.batches {
            // The gather-GEMM-scatter kernel ran, equally often on both
            // backends, and an event rerun repeats digest and scheduler
            // counters with it in the loop.
            let batched = |o: &Output3d| o.metrics().counter("schur.batched_supernodes");
            assert!(
                batched(&threaded) > 0,
                "{}: no supernode was batched",
                case.label
            );
            assert_eq!(batched(&threaded), batched(&event), "{}", case.label);
            let again = try_factor_only(&prep, &config(&case, Backend::Event))
                .unwrap_or_else(|e| panic!("{}: event rerun failed: {e}", case.label));
            assert_eq!(event.factor_digest, again.factor_digest, "{}", case.label);
            assert!(event.sched.is_some(), "{}", case.label);
            assert_eq!(event.sched, again.sched, "{}", case.label);
        }
    }
}

/// The static communication plan verifies against the measured ledger of
/// BOTH backends — the plan-check gate is backend-blind.
#[test]
fn plan_check_accepts_both_backends_ledgers() {
    for case in cases() {
        let (pr, pc, pz) = case.grid;
        let prep = prepare(&case);
        let forest = EtreeForest::build(&prep.tree, &prep.sym, pz);
        let plan = build_plan(&prep.sym, &forest, Grid3d::new(pr, pc, pz), case.lookahead);
        let audit = check_plan(&plan);
        assert!(audit.ok(), "{}: {:?}", case.label, audit.findings);

        let mut stats_msgs = Vec::new();
        for backend in [Backend::Threaded, Backend::Event] {
            let out = try_factor_only(&prep, &config(&case, backend))
                .unwrap_or_else(|e| panic!("{}: {backend} run failed: {e}", case.label));
            let ledgers: Vec<_> = out.reports.iter().map(|r| r.commvol.clone()).collect();
            match compare_with_measured(&plan, &ledgers) {
                Ok(stats) => stats_msgs.push(stats.msgs),
                Err(mismatches) => panic!(
                    "{}: plan != {backend} ledger:\n{}",
                    case.label,
                    mismatches.join("\n")
                ),
            }
        }
        assert_eq!(
            stats_msgs[0], stats_msgs[1],
            "{}: plan-check compared different traffic per backend",
            case.label
        );
    }
}

/// One fixed P = 16 program: KKT factored on 2x2x4, solved, and refined
/// once.
fn p16_run(backend: Backend) -> Output3d {
    let a = matgen::kkt_3d(4, 4, 4, 1e-2, 1);
    let b: Vec<f64> = (0..a.nrows).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
    let prep = Prepared::new(a, Geometry::General, 16, 24);
    let cfg = SolverConfig {
        pr: 2,
        pc: 2,
        pz: 4,
        refine_steps: 1,
        model: TimeModel::edison_like(),
        backend,
        ..Default::default()
    };
    try_factor_and_solve(&prep, &cfg, Some(b))
        .unwrap_or_else(|e| panic!("{backend} run failed: {e}"))
}

/// P = 16 with the solve and a refinement sweep on top: the solution is
/// bitwise backend-independent too, and the event run's scheduler counters
/// are a deterministic function of the rank programs (absent under the
/// threaded backend, where the kernel schedules).
#[test]
fn p16_solve_is_bitwise_identical_and_scheduler_counters_repeat() {
    let (threaded, event, again) = (
        p16_run(Backend::Threaded),
        p16_run(Backend::Event),
        p16_run(Backend::Event),
    );
    let bits = |o: &Output3d| -> Vec<u64> {
        let x = o.x.as_ref().expect("solution");
        x.iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&threaded), bits(&event), "solutions diverge");
    assert_eq!(threaded.factor_digest, event.factor_digest);
    assert_eq!(threaded.makespan().to_bits(), event.makespan().to_bits());
    assert_eq!(sim_section(&threaded), sim_section(&event));
    assert!(threaded.sched.is_none());
    let s = event.sched.expect("event runs report scheduler counters");
    assert_eq!(Some(s), again.sched, "scheduler counters must repeat");
    // Every resume is a first slice, a matched wakeup, or part of a
    // quiescence wake-all — and a healthy run never goes quiescent.
    assert_eq!(s.quiescence_resolutions, 0);
    assert_eq!(s.steps, 16 + s.wakeups);
}

/// The one-slot dispatch order, pinned: the event backend's counters on
/// the program above are literals. Ranks taking the slot in another order
/// move them, so a change to the dispatch rule cannot pass silently.
#[test]
fn event_scheduler_counters_are_pinned() {
    let sched = p16_run(Backend::Event).sched;
    assert_eq!(
        sched,
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
#[ignore = "paper-scale (minutes in debug); CI runs it in release via --ignored"]
fn event_backend_factors_p4096_in_one_process() {
    let n = 64usize;
    let a = matgen::grid2d_5pt(n, n, 0.1, 1);
    let b = a.matvec(&vec![1.0; a.nrows]);
    let prep = Prepared::new(a, Geometry::Grid2d { nx: n, ny: n }, 16, 24);
    let cfg = SolverConfig {
        pr: 64,
        pc: 64,
        pz: 1,
        model: TimeModel::edison_like(),
        backend: Backend::Event,
        ..Default::default()
    };
    let out = try_factor_and_solve(&prep, &cfg, Some(b.clone())).expect("paper-scale event run");
    assert_eq!(out.reports.len(), 4096);
    assert!(out.factor_makespan > 0.0 && out.makespan() > out.factor_makespan);
    assert!(out.w_fact() > 0, "no factor-phase traffic recorded");
    let bmax = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let residual = prep.a.residual_inf(out.x.as_ref().expect("solution"), &b) / bmax;
    assert!(residual < 1e-10, "relative residual {residual}");
    let sched = out.sched.expect("event runs report scheduler counters");
    assert_eq!(sched.quiescence_resolutions, 0, "a rank waited in a cycle");
}
