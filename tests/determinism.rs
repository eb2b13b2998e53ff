//! Determinism regression: the simulated 3D factorization is bitwise
//! reproducible. Two identical runs must produce identical factors and
//! solutions AND identical message traces — the property the paper's
//! deterministic reduction orders guarantee: every receive names its
//! source, so the schedule is a function of the program.

mod same_sim;

use salu::prelude::*;
use salu::simgrid::obs::validate_chrome_trace;
use salu::sparsemat::matgen::{from_spec, grid2d_5pt};
use salu::sparsemat::Csr;
use same_sim::assert_same_sim;

/// The problems every test runs with `--leaf 8`: a name, the matrix,
/// `--maxsup`, `--grid` and `--refine`. The `kkt:6` layers prune panel
/// rosters, and its two refinement sweeps put the solve's roster
/// reductions and halo exchange in the trace.
const INPUTS: [Input; 2] = [
    ("grid2d 12x12", planar, 8, [2, 1, 2], 1),
    ("kkt:6", kkt, 12, [4, 4, 2], 2),
];

type Input = (&'static str, fn() -> Problem, usize, [usize; 3], usize);
type Problem = (Csr, Geometry);

fn planar() -> Problem {
    let a = grid2d_5pt(12, 12, 0.1, 5);
    (a, Geometry::Grid2d { nx: 12, ny: 12 })
}

fn kkt() -> Problem {
    from_spec("kkt:6", 0.1).unwrap()
}

/// One run: its solution, its pretty-printed trace (which the trace
/// validator passes: nesting, flows, every message paired and causal) and
/// the run itself.
fn run_on(input: Input, backend: Backend) -> (Vec<f64>, String, Output3d) {
    let (name, matrix, maxsup, [pr, pc, pz], refine_steps) = input;
    let (a, geometry) = matrix();
    let x_true: Vec<f64> = (0..a.nrows).map(|i| ((i % 9) as f64) - 4.0).collect();
    let b = a.matvec(&x_true);
    let prep = Prepared::new(a, geometry, 8, maxsup);
    let cfg = SolverConfig {
        pr,
        pc,
        pz,
        model: TimeModel::edison_like(),
        tracing: true,
        backend,
        refine_steps,
        ..Default::default()
    };
    let out = factor_and_solve(&prep, &cfg, Some(b));
    let doc = out.chrome_trace().expect("tracing was on");
    validate_chrome_trace(&doc).unwrap_or_else(|e| panic!("{name} on {backend}: {e}"));
    let x = out.x.clone().expect("solution");
    (x, doc.pretty(), out)
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
    for input in INPUTS {
        let name = input.0;
        let (x1, t1, w1) = run_on(input, Backend::Threaded);
        let (x2, t2, w2) = run_on(input, Backend::Threaded);
        assert_bitwise_equal(&x1, &x2);
        // The message traces — every send, receive, timestamp, payload
        // size — must also match byte for byte.
        assert_eq!(t1, t2, "{name}: traces differ between runs");
        // So must every counter, every ledger peak, every (phase, class,
        // level, axis) cell and per-edge total.
        assert_same_sim(&w1, &w2, &format!("{name}, between runs"));
    }
}

#[test]
fn event_backend_reproduces_the_threaded_schedule() {
    // Cross-backend determinism: the event scheduler's cooperative order
    // must reproduce not just the solution but the entire simulated
    // message schedule of free-running threads, byte for byte.
    for input in INPUTS {
        let name = input.0;
        let (xt, tt, wt) = run_on(input, Backend::Threaded);
        let (xe, te, we) = run_on(input, Backend::Event);
        assert_bitwise_equal(&xt, &xe);
        assert_eq!(tt, te, "{name}: traces differ between backends");
        assert_same_sim(&wt, &we, &format!("{name}, between backends"));
        // And the event backend is self-deterministic.
        let (xe2, te2, we2) = run_on(input, Backend::Event);
        assert_bitwise_equal(&xe, &xe2);
        assert_eq!(te, te2, "{name}: event traces differ between runs");
        assert_same_sim(&we, &we2, &format!("{name}, between event runs"));
    }
}
