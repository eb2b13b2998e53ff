//! A small, fully deterministic traced 3D run whose observability artifacts
//! (the Chrome trace and the run document) are pinned as golden files under
//! `results/`. The example `planar_scaling` writes them; the `observability`
//! integration test asserts they are byte-identical to the committed copies,
//! so any change to the simulation's timing, traffic, or export format shows
//! up as a reviewable diff.

use crate::prelude::*;

/// The fixed configuration behind the sample artifacts: a 10x10 planar
/// Poisson problem factored and solved on a 1x2x2 grid (Pz = 2) under the
/// Edison-like machine model, with tracing on.
pub fn sample_output() -> Output3d {
    let nx = 10;
    let a = crate::sparsemat::matgen::grid2d_5pt(nx, nx, 0.1, 7);
    let x_true: Vec<f64> = (0..a.nrows).map(|i| ((i % 11) as f64) - 5.0).collect();
    let b = a.matvec(&x_true);
    let prep = Prepared::new(a, Geometry::Grid2d { nx, ny: nx }, 16, 16);
    let cfg = SolverConfig {
        pr: 1,
        pc: 2,
        pz: 2,
        model: TimeModel::edison_like(),
        tracing: true,
        ..Default::default()
    };
    factor_and_solve(&prep, &cfg, Some(b))
}

/// The sample run's `(chrome_trace, run_document)`, pretty-printed.
/// Byte-stable: the simulation is deterministic, the JSON writer keeps
/// insertion order, and the run is threaded and unprofiled, so the
/// document's `host` section is two `null`s.
pub fn sample_artifacts() -> (String, String) {
    let out = sample_output();
    let trace = out.chrome_trace().expect("sample run traces").pretty();
    let run = simgrid::run_document(&out.reports, out.sched.as_ref()).pretty();
    (trace, run)
}
