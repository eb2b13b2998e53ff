//! Host-time profiling invariants of full 3D runs: phase attribution must
//! cover ~100% of each rank's measured wall clock, profiling must never
//! perturb the numerics, and the exported documents must stay well-formed.

use salu::prelude::*;
use salu::simgrid::obs::validate_chrome_trace;
use salu::simgrid::{run_document, HostPhase, Json};

fn pinned_run(host_profiling: bool, tracing: bool) -> Output3d {
    let nx = 16;
    let a = salu::sparsemat::matgen::grid2d_5pt(nx, nx, 0.1, 3);
    let x_true: Vec<f64> = (0..a.nrows).map(|i| (i % 7) as f64).collect();
    let b = a.matvec(&x_true);
    let prep = Prepared::new(a, Geometry::Grid2d { nx, ny: nx }, 8, 8);
    let cfg = SolverConfig {
        pr: 2,
        pc: 2,
        pz: 2,
        model: TimeModel::edison_like(),
        host_profiling,
        tracing,
        ..Default::default()
    };
    factor_and_solve(&prep, &cfg, Some(b))
}

#[test]
fn attribution_sums_to_wall_on_every_rank() {
    let out = pinned_run(true, false);
    for (rank, rep) in out.reports.iter().enumerate() {
        let hp = rep
            .hostprof
            .as_ref()
            .unwrap_or_else(|| panic!("rank {rank} has no host profile"));
        assert!(hp.wall_secs > 0.0, "rank {rank} wall");
        // The orchestration phase absorbs wall time not covered by any
        // scope, so the per-phase self times must reconstruct the wall
        // clock. The band covers only ns-quantization and the tiny skew
        // between the wall probe and the last scope close.
        let attributed = hp.attributed_secs();
        let rel = (attributed - hp.wall_secs).abs() / hp.wall_secs;
        assert!(
            rel < 0.01,
            "rank {rank}: attributed {attributed} vs wall {} ({:.4}% off)",
            hp.wall_secs,
            rel * 100.0
        );
        // A factoring rank must have spent observable time in the panel
        // and wait phases; nothing may be negative by construction (u64).
        assert!(
            hp.phase_secs(HostPhase::CommWait) > 0.0,
            "rank {rank} comm-wait"
        );
    }
    // Some rank did panel work and the solve phases ran somewhere.
    let total = |p: HostPhase| -> f64 {
        out.hostprof_reports()
            .unwrap()
            .iter()
            .map(|r| r.phase_secs(p))
            .sum()
    };
    assert!(total(HostPhase::PanelFactor) > 0.0);
    assert!(total(HostPhase::SolveFwd) > 0.0);
    assert!(total(HostPhase::SolveBwd) > 0.0);
    // Every rank takes part in the allreduce that assembles x; were its
    // scope missing from `HostPhase::ALL`, the sum above would fall short.
    for hp in out.hostprof_reports().unwrap() {
        assert!(hp.phase_secs(HostPhase::Refine) > 0.0);
    }
}

#[test]
fn profiling_never_perturbs_the_factors() {
    let profiled = pinned_run(true, false);
    let plain = pinned_run(false, false);
    assert_eq!(
        profiled.factor_digest, plain.factor_digest,
        "host profiling changed the numerics"
    );
    assert_eq!(
        profiled.makespan(),
        plain.makespan(),
        "host profiling changed the simulated clock"
    );
    assert!(plain.reports.iter().all(|r| r.hostprof.is_none()));
    let doc = run_document(&plain.reports, plain.sched.as_ref());
    assert_eq!(
        doc.get("host").and_then(|h| h.get("hostprof")),
        Some(&Json::Null),
        "an unprofiled run's document claims no host-time profile"
    );
}

#[test]
fn the_contract_holds_under_the_event_backend() {
    // One rank runs at a time, so a rank's wall is the time it held the
    // baton: the phases still partition it, the walls of all 16 ranks fit
    // inside the machine's, and the simulation cannot tell it was profiled.
    let nx = 24;
    let a = salu::sparsemat::matgen::grid2d_5pt(nx, nx, 0.1, 3);
    let b = a.matvec(&vec![1.0; a.nrows]);
    let prep = Prepared::new(a, Geometry::Grid2d { nx, ny: nx }, 8, 8);
    let run = |host_profiling| {
        let cfg = SolverConfig {
            pr: 2,
            pc: 2,
            pz: 4,
            backend: Backend::Event,
            host_profiling,
            ..Default::default()
        };
        let started = std::time::Instant::now();
        let out = factor_and_solve(&prep, &cfg, Some(b.clone()));
        (out, started.elapsed().as_secs_f64())
    };
    let (profiled, machine_wall) = run(true);
    let (plain, _) = run(false);

    let reports = profiled.hostprof_reports().expect("profiling was on");
    assert_eq!(reports.len(), 16);
    for (rank, hp) in reports.iter().enumerate() {
        assert!(hp.wall_secs > 0.0, "rank {rank} wall");
        let rel = (hp.attributed_secs() - hp.wall_secs).abs() / hp.wall_secs;
        assert!(
            rel < 0.01,
            "rank {rank}: attributed {} vs wall {}",
            hp.attributed_secs(),
            hp.wall_secs
        );
        assert!(hp.phase_secs(HostPhase::StoreBuild) > 0.0, "rank {rank}");
        assert!(hp.phase_secs(HostPhase::Digest) > 0.0, "rank {rank}");
    }
    let wall_sum: f64 = reports.iter().map(|r| r.wall_secs).sum();
    assert!(
        wall_sum <= machine_wall,
        "ranks held the baton for {wall_sum} s of a {machine_wall} s run"
    );

    assert_eq!(profiled.factor_digest, plain.factor_digest);
    assert_eq!(profiled.makespan().to_bits(), plain.makespan().to_bits());
    assert_eq!(profiled.x, plain.x);
    assert_eq!(profiled.sched, plain.sched);
    for (rank, (p, q)) in profiled.reports.iter().zip(&plain.reports).enumerate() {
        assert_eq!(p.clock.to_bits(), q.clock.to_bits(), "rank {rank} clock");
        assert_eq!(p.commvol, q.commvol, "rank {rank} wire ledger");
        assert_eq!(p.memprof, q.memprof, "rank {rank} memory ledger");
        assert_eq!(p.metrics, q.metrics, "rank {rank} metrics");
    }
}

#[test]
fn hostprof_document_is_well_formed() {
    let out = pinned_run(true, false);
    let doc = run_document(&out.reports, out.sched.as_ref());
    let doc = Json::parse(&doc.pretty()).expect("emitted JSON parses back");
    let doc = doc
        .get("host")
        .and_then(|h| h.get("hostprof"))
        .expect("profiling was on");
    assert_eq!(
        doc.get("ranks").and_then(Json::as_arr).map(<[Json]>::len),
        Some(8),
        "one entry per rank"
    );
    assert!(doc.get("max_wall_secs").and_then(Json::as_f64).unwrap() > 0.0);
    let folded = doc
        .get("folded_stacks")
        .and_then(Json::as_str)
        .expect("folded stacks text");
    assert!(folded.contains("rank 0;"), "folded stacks name ranks");
}

#[test]
fn host_counter_tracks_appear_only_when_both_flags_are_on() {
    let both = pinned_run(true, true);
    let doc = both.chrome_trace().expect("tracing was on");
    validate_chrome_trace(&doc).expect("trace validates with host counters");
    let has_host_track = |doc: &Json| {
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .any(|e| e.get("cat").and_then(Json::as_str) == Some("host"))
    };
    assert!(has_host_track(&doc), "host counter tracks in the trace");
    // Tracing without host profiling keeps the golden trace shape: no
    // host tracks appear.
    let trace_only = pinned_run(false, true);
    let doc = trace_only.chrome_trace().expect("tracing was on");
    validate_chrome_trace(&doc).expect("plain trace still validates");
    assert!(!has_host_track(&doc), "no host tracks without profiling");
}
