//! Determinism regression: the simulated 3D factorization is bitwise
//! reproducible. Two identical runs must produce identical factors and
//! solutions AND identical message traces — the property the paper's
//! deterministic reduction orders guarantee: every receive names its
//! source, so the schedule is a function of the program.

use salu::prelude::*;
use salu::simgrid::{commcheck, Json};

fn run_on(backend: Backend) -> (Vec<f64>, String, String) {
    let nx = 12;
    let a = salu::sparsemat::matgen::grid2d_5pt(nx, nx, 0.1, 5);
    let x_true: Vec<f64> = (0..a.nrows).map(|i| ((i % 9) as f64) - 4.0).collect();
    let b = a.matvec(&x_true);
    let prep = Prepared::new(a, Geometry::Grid2d { nx, ny: nx }, 8, 8);
    let cfg = SolverConfig {
        pr: 2,
        pc: 1,
        pz: 2,
        model: TimeModel::edison_like(),
        tracing: true,
        backend,
        refine_steps: 1,
        ..Default::default()
    };
    let out = factor_and_solve(&prep, &cfg, Some(b));
    let trace = out.chrome_trace().expect("tracing was on").pretty();
    // Everything the simulation determines besides the timeline: merged
    // metrics, memory ledgers, wire ledgers.
    let sim = salu::simgrid::run_document(&out.reports, out.sched.as_ref())
        .get("sim")
        .expect("sim section")
        .pretty();
    let x = out.x.expect("solution");
    (x, trace, sim)
}

fn assert_bitwise_equal(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "solution component {i} differs: {x} vs {y}"
        );
    }
}

#[test]
fn repeated_runs_are_bitwise_identical() {
    let (x1, t1, w1) = run_on(Backend::Threaded);
    let (x2, t2, w2) = run_on(Backend::Threaded);
    assert_bitwise_equal(&x1, &x2);
    // The message traces — every send, receive, timestamp, payload size —
    // must also match byte for byte.
    assert_eq!(t1, t2, "chrome traces differ between identical runs");
    // So must the run document's `sim` section: every metric, every ledger
    // peak, every (phase, class, level, axis) cell and per-edge total.
    assert_eq!(w1, w2, "sim sections differ between identical runs");
    // And the offline checker agrees, event by event.
    let (d1, d2) = (Json::parse(&t1).unwrap(), Json::parse(&t2).unwrap());
    commcheck::check_determinism(&d1, &d2).expect("schedules must be identical");
}

#[test]
fn event_backend_reproduces_the_threaded_schedule() {
    // Cross-backend determinism: the event scheduler's cooperative order
    // must reproduce not just the solution but the entire simulated
    // message schedule of free-running threads, byte for byte.
    let (xt, tt, wt) = run_on(Backend::Threaded);
    let (xe, te, we) = run_on(Backend::Event);
    assert_bitwise_equal(&xt, &xe);
    assert_eq!(tt, te, "chrome traces differ between backends");
    assert_eq!(wt, we, "sim sections differ between backends");
    let (dt, de) = (Json::parse(&tt).unwrap(), Json::parse(&te).unwrap());
    commcheck::check_determinism(&dt, &de).expect("schedules must be identical across backends");
    // And the event backend is self-deterministic.
    let (xe2, te2, we2) = run_on(Backend::Event);
    assert_bitwise_equal(&xe, &xe2);
    assert_eq!(te, te2, "event schedules differ between identical runs");
    assert_eq!(we, we2, "event sim sections differ between identical runs");
}
