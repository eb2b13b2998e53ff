//! Host-time profiling invariants of full 3D runs: phase attribution must
//! cover ~100% of each rank's measured wall clock, profiling must never
//! perturb the numerics (`Contract::{Attributed, HostFlags}`), and the exported
//! documents must stay well-formed. The shapes are
//! `contracts::table::{HOST, HOST_EVENT}`.

mod contracts;

use contracts::table::{HOST, HOST_EVENT};
use contracts::{check, run, Contract::*, Run};
use salu::prelude::*;
use salu::simgrid::obs::validate_chrome_trace;
use salu::simgrid::{HostPhase, HostReport, Json};

/// Every rank's host profile; panics unless the run was profiled.
fn host_reports(out: &Output3d) -> Vec<&HostReport> {
    let reports = out.reports.iter().map(|r| r.hostprof.as_ref());
    reports.collect::<Option<_>>().expect("profiling was on")
}

/// The profiled threaded run of [`HOST`].
fn profiled() -> Run {
    HOST.run(Backend::Threaded).profiled(true)
}

#[test]
fn attribution_sums_to_wall_on_every_rank() {
    check(&[HOST], &[Attributed]);
    let out = &run(&HOST, profiled()).out;
    for (rank, hp) in host_reports(out).iter().enumerate() {
        // A factoring rank must have spent observable time waiting.
        let waited = hp.phase_secs(HostPhase::CommWait);
        assert!(waited > 0.0, "rank {rank} comm-wait");
        // Every rank takes part in the allreduce that assembles x; were its
        // scope missing from `HostPhase::ALL`, the phases would not sum to
        // the wall.
        assert!(hp.phase_secs(HostPhase::Refine) > 0.0, "rank {rank} refine");
    }
    // Some rank did panel work and the solve phases ran somewhere.
    let total = |p: HostPhase| -> f64 { host_reports(out).iter().map(|r| r.phase_secs(p)).sum() };
    assert!(total(HostPhase::PanelFactor) > 0.0);
    assert!(total(HostPhase::SolveFwd) > 0.0);
    assert!(total(HostPhase::SolveBwd) > 0.0);
}

/// Profiling and tracing move no simulated output, and an unprofiled run's
/// document claims no host-time profile.
#[test]
fn profiling_never_perturbs_the_factors() {
    check(&[HOST], &[HostFlags]);
}

#[test]
fn the_contract_holds_under_the_event_backend() {
    // One rank runs at a time, so a rank's wall is the time it held the
    // one slot: the phases still partition it, the walls of all 16 ranks fit
    // inside the machine's, and the simulation cannot tell it was profiled.
    check(&[HOST_EVENT], &[HostFlags, Attributed]);
    let profiled = run(&HOST_EVENT, HOST_EVENT.run(Backend::Event).profiled(true));
    let reports = host_reports(&profiled.out);
    assert_eq!(reports.len(), 16);
    for (rank, hp) in reports.iter().enumerate() {
        assert!(hp.phase_secs(HostPhase::StoreBuild) > 0.0, "rank {rank}");
        assert!(hp.phase_secs(HostPhase::Digest) > 0.0, "rank {rank}");
    }
    let wall_sum: f64 = reports.iter().map(|r| r.wall_secs).sum();
    let wall = profiled.wall;
    assert!(
        wall_sum <= wall,
        "ranks held the slot {wall_sum} s of {wall} s"
    );
}

#[test]
fn hostprof_document_is_well_formed() {
    let out = &run(&HOST, profiled()).out;
    let doc = Json::parse(&out.account().pretty()).expect("emitted JSON parses back");
    let doc = doc.at(&["host", "hostprof"]).expect("profiling was on");
    let host = host_reports(out);
    // The slowest rank is named: the lowest one holding the largest wall.
    let max_wall = doc.num_at(&["max_wall_secs"]).unwrap();
    let slowest = doc.num_at(&["max_wall_secs_rank"]).unwrap() as usize;
    assert!(max_wall > 0.0);
    assert_eq!(host[slowest].wall_secs, max_wall);
    assert!(host[..slowest].iter().all(|r| r.wall_secs < max_wall));
    // The one machine-wide host rate: flops over compute seconds summed.
    let flops: u64 = host.iter().map(|r| r.flops).sum();
    let compute: f64 = host.iter().map(|r| r.compute_secs()).sum();
    assert_eq!(doc.num_at(&["flop_rate"]), Ok(flops as f64 / compute));
    // The folded stacks are machine-wide: one line per distinct phase path,
    // no rank frame, and together every rank's attributed nanoseconds.
    let folded = doc
        .at(&["folded_stacks"])
        .and_then(Json::as_str)
        .expect("folded stacks text");
    let lines: Vec<(&str, u64)> = folded
        .lines()
        .map(|l| l.rsplit_once(' ').expect("`path ns`"))
        .map(|(path, ns)| (path, ns.parse().expect("whole nanoseconds")))
        .collect();
    assert!(lines.windows(2).all(|w| w[0].0 < w[1].0), "{folded}");
    assert!(
        lines.iter().all(|(path, _)| !path.contains("rank")),
        "{folded}"
    );
    let attributed: u64 = host
        .iter()
        .flat_map(|r| &r.phase_ns)
        .map(|(_, ns)| ns)
        .sum();
    assert_eq!(lines.iter().map(|(_, ns)| ns).sum::<u64>(), attributed);
}

#[test]
fn host_counter_tracks_appear_only_when_both_flags_are_on() {
    let both = &run(&HOST, profiled().traced(true)).out;
    let doc = both.chrome_trace().expect("tracing was on");
    validate_chrome_trace(&doc).expect("trace validates with host counters");
    let has_host_track = |doc: &Json| {
        doc.at(&["traceEvents"])
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .any(|e| e.at(&["cat"]).and_then(Json::as_str) == Some("host"))
    };
    assert!(has_host_track(&doc), "host counter tracks in the trace");
    // Tracing without host profiling keeps the golden trace shape: no
    // host tracks appear.
    let trace_only = &run(&HOST, HOST.run(Backend::Threaded).traced(true)).out;
    let doc = trace_only.chrome_trace().expect("tracing was on");
    validate_chrome_trace(&doc).expect("plain trace still validates");
    assert!(!has_host_track(&doc), "no host tracks without profiling");
}
