//! Observability invariants of full 3D runs: phase-labelled traffic,
//! Chrome trace export, critical-path attribution, and the pinned sample
//! artifacts under `results/`.

use proptest::prelude::*;
use salu::prelude::*;
use salu::simgrid::obs::validate_chrome_trace;
use salu::simgrid::{validate_trace, Json, Machine, SpanCat};

fn traced_run(pz: usize, rhs: bool) -> Output3d {
    let nx = 12;
    let a = salu::sparsemat::matgen::grid2d_5pt(nx, nx, 0.1, 3);
    let b = if rhs {
        let x_true: Vec<f64> = (0..a.nrows).map(|i| (i % 7) as f64).collect();
        Some(a.matvec(&x_true))
    } else {
        None
    };
    let prep = Prepared::new(a, Geometry::Grid2d { nx, ny: nx }, 8, 8);
    let cfg = SolverConfig {
        pr: 1,
        pc: 2,
        pz,
        model: TimeModel::edison_like(),
        tracing: true,
        ..Default::default()
    };
    factor_and_solve(&prep, &cfg, b)
}

#[test]
fn traffic_phases_are_exactly_fact_reduce_solve() {
    // Phases come from the wire ledger's send entries: receives are booked
    // per edge, not per phase, so sends are what this checks. In particular
    // no message may ever be sent under the unlabeled "default" phase —
    // every communication path must set its phase first.
    let out = traced_run(2, true);
    let mut phases: Vec<&str> = out
        .reports
        .iter()
        .flat_map(|r| r.commvol.entries.iter().map(|e| e.phase.as_str()))
        .collect();
    phases.sort_unstable();
    phases.dedup();
    assert_eq!(
        phases,
        vec!["fact", "reduce", "solve"],
        "traffic phase keys"
    );
}

#[test]
fn chrome_trace_roundtrips_with_nesting_and_flows() {
    let out = traced_run(2, true);
    let doc = out.chrome_trace().expect("tracing was on");
    // Serialize and parse back: the exported document must be valid JSON
    // and a structurally sound trace (slices properly nested per track,
    // every flow-finish matched by a flow-start).
    let parsed = Json::parse(&doc.dump()).expect("trace must parse back");
    let stats = validate_chrome_trace(&parsed).expect("trace must validate");
    assert_eq!(stats.tracks, out.reports.len(), "one track per rank");
    // level -> phase -> supernode/collective: at least 3 deep.
    assert!(stats.max_nesting >= 3, "nesting {}", stats.max_nesting);
    assert!(stats.flow_pairs > 0, "send->recv flow arrows must appear");
    assert!(stats.events > stats.tracks, "spans + activities present");
}

#[test]
fn critical_path_attribution_covers_makespan() {
    let out = traced_run(4, true);
    let cp = out.critical_path().expect("tracing was on");
    assert!(cp.makespan > 0.0);
    // The path segments tile [0, makespan]: attribution is exhaustive.
    assert!(
        (cp.coverage() - 1.0).abs() < 1e-9,
        "critical-path coverage {}",
        cp.coverage()
    );
    let total: f64 = cp.attribution_fractions().values().sum();
    assert!((total - 1.0).abs() < 1e-9, "phase fractions sum to {total}");
    // With Pz = 4 the path must cross ranks at least once (ancestor
    // reductions serialize grids along z).
    assert!(cp.rank_hops >= 1, "hops {}", cp.rank_hops);
    let makespan = out.makespan();
    assert!(
        (cp.makespan - makespan).abs() <= 1e-12 * (1.0 + makespan),
        "cp makespan {} vs summary {makespan}",
        cp.makespan
    );
}

#[test]
fn factor_only_runs_have_no_solve_phase() {
    let out = {
        let nx = 12;
        let a = salu::sparsemat::matgen::grid2d_5pt(nx, nx, 0.1, 3);
        let prep = Prepared::new(a, Geometry::Grid2d { nx, ny: nx }, 8, 8);
        factor_only(
            &prep,
            &SolverConfig {
                pr: 1,
                pc: 2,
                pz: 2,
                tracing: true,
                ..Default::default()
            },
        )
    };
    for rep in &out.reports {
        for phase in ["solve", "default"] {
            assert!(rep.commvol.entries.iter().all(|e| e.phase != phase));
        }
    }
}

#[test]
fn sample_artifacts_match_pinned_goldens() {
    let (trace, run) = salu::sample::sample_artifacts();
    let root = env!("CARGO_MANIFEST_DIR");
    let want_trace = std::fs::read_to_string(format!("{root}/results/sample_trace.json"))
        .expect("run `cargo run --example planar_scaling` to create the goldens");
    let want_run = std::fs::read_to_string(format!("{root}/results/sample_run.json"))
        .expect("run `cargo run --example planar_scaling` to create the goldens");
    // Byte-identical: the simulation and the JSON writer are deterministic,
    // and the sample run is threaded and unprofiled, so even the document's
    // `host` section (two `null`s) is. On mismatch, rerun the example and
    // review the diff like any golden.
    assert_eq!(trace, want_trace, "results/sample_trace.json is stale");
    assert_eq!(run, want_run, "results/sample_run.json is stale");
    // And the pinned trace itself must stay a valid Chrome trace, now with
    // memory and wire counter tracks alongside the slices.
    let stats = validate_chrome_trace(&Json::parse(&want_trace).unwrap()).unwrap();
    assert!(stats.max_nesting >= 3 && stats.flow_pairs > 0);
    assert!(
        stats.counter_events > 0,
        "sample trace must carry memory counter tracks"
    );
    assert!(
        want_trace.contains("\"wire rank 0\""),
        "sample trace must carry wire counter tracks"
    );
    // The pinned document is a `salu-run/1` whose wire section names every
    // class and axis it charges.
    let doc = Json::parse(&want_run).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("salu-run/1"));
    let host = doc.get("host").unwrap();
    assert_eq!(host.get("sched"), Some(&Json::Null));
    assert_eq!(host.get("hostprof"), Some(&Json::Null));
    let wire = doc.get("sim").unwrap().get("commvol").unwrap();
    assert!(wire.get("total_sent_words").unwrap().as_f64().unwrap() > 0.0);
    assert!(wire.get("by_class").unwrap().get("LPanel").is_some());
    assert!(wire.get("by_axis").unwrap().get("z").is_some());
}

#[test]
fn memory_peak_attribution_sums_to_peak_on_every_rank() {
    let out = traced_run(4, true);
    for (rank, rep) in out.reports.iter().enumerate() {
        let m = &rep.memprof;
        assert!(m.peak_bytes > 0, "rank {rank} never allocated");
        // 100% of the peak instant is attributed to tagged classes: the
        // class+level breakdown is a snapshot of the ledger at peak time.
        assert_eq!(
            m.peak_attr_sum(),
            m.peak_bytes,
            "rank {rank}: attribution covers {} of {} bytes",
            m.peak_attr_sum(),
            m.peak_bytes
        );
    }
}

#[test]
fn ancestor_replica_footprint_grows_with_pz() {
    use salu::simgrid::MemClass;
    let nx = 24;
    let a = salu::sparsemat::matgen::grid2d_5pt(nx, nx, 0.1, 3);
    let prep = Prepared::new(a, Geometry::Grid2d { nx, ny: nx }, 8, 8);
    let mut prev = 0u64;
    for pz in [1usize, 2, 4, 8] {
        let out = factor_only(
            &prep,
            &SolverConfig {
                pr: 1,
                pc: 2,
                pz,
                model: TimeModel::edison_like(),
                ..Default::default()
            },
        );
        let bytes = out.peak_class_bytes(MemClass::AncestorReplica);
        assert!(
            bytes >= prev,
            "AncestorReplica shrank from {prev} to {bytes} at Pz={pz}"
        );
        if pz > 1 {
            assert!(bytes > 0, "replication must appear at Pz={pz}");
        }
        prev = bytes;
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// `validate_trace` accepts whatever span nesting the recorder produces:
    /// random interleavings of span enter/exit, phase changes, and compute
    /// always yield a well-formed store (chronological activities, children
    /// inside parents, depths consistent).
    #[test]
    fn recorder_always_yields_valid_traces(
        seed in 0u64..10_000,
        n_ops in 1usize..60,
        max_flops in 1u64..50,
    ) {
        let m = Machine::new(1, TimeModel {
            alpha: 0.0,
            beta: 0.0,
            flops_per_sec: 1.0,
        })
        .with_tracing();
        let out = m.run(move |rank| {
            // Deterministic op sequence from the seed (splitmix64-style).
            let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut next = || {
                s ^= s >> 30;
                s = s.wrapping_mul(0xbf58476d1ce4e5b9);
                s ^= s >> 27;
                s
            };
            let mut stack = Vec::new();
            for i in 0..n_ops {
                match next() % 4 {
                    0 => {
                        let cat = [SpanCat::Level, SpanCat::Node, SpanCat::Other]
                            [(next() % 3) as usize];
                        stack.push(rank.span_enter(cat, format_args!("s{i}")));
                    }
                    1 => {
                        if let Some(id) = stack.pop() {
                            rank.span_exit(id);
                        }
                    }
                    2 => rank.set_phase(["fact", "reduce", "solve"][(next() % 3) as usize]),
                    _ => rank.advance_compute(1 + next() % max_flops),
                }
            }
        });
        let rep = &out.reports[0];
        prop_assert!(validate_trace(rep).is_ok(), "{:?}", validate_trace(rep));
        let trace = rep.trace.as_ref().unwrap();
        for s in &trace.spans {
            if let Some(p) = s.parent {
                prop_assert!(trace.spans[p].start <= s.start + 1e-15);
                prop_assert!(trace.spans[p].end >= s.end - 1e-15);
            }
        }
    }
}
