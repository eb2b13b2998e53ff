//! Quickstart: factor and solve a 2D Poisson system with the 3D algorithm
//! and print the communication statistics the paper optimizes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use salu::lu3d::{baseline_text, RunText};
use salu::prelude::*;

fn main() {
    // The planar model problem from the paper (K2D5pt), scaled to run in
    // a few seconds: a 96x96 five-point Laplacian, n = 9216.
    let nx = 96;
    let a = salu::sparsemat::matgen::grid2d_5pt(nx, nx, 0.1, 42);
    println!(
        "matrix: 2D 5-point Laplacian, n = {}, nnz = {}",
        a.nrows,
        a.nnz()
    );

    // A manufactured solution gives us a residual check.
    let x_true: Vec<f64> = (0..a.nrows).map(|i| ((i % 11) as f64) - 5.0).collect();
    let b = a.matvec(&x_true);

    // Phase 1: ordering + symbolic analysis (shared by all grid configs).
    let prep = Prepared::new(a, Geometry::Grid2d { nx, ny: nx }, 32, 32);
    println!(
        "symbolic: {} supernodes, {:.2} Mwords of LU factors, {:.0} Mflops predicted",
        prep.sym.nsup(),
        prep.sym.stats().factor_words as f64 / 1e6,
        prep.sym.stats().total_flops as f64 / 1e6,
    );

    // Phase 2: factor + solve on a simulated 2 x 2 x 4 machine (16 ranks,
    // Pz = 4 stacked grids).
    let cfg = SolverConfig {
        pr: 2,
        pc: 2,
        pz: 4,
        model: TimeModel::edison_like(),
        ..Default::default()
    };
    let out = factor_and_solve(&prep, &cfg, Some(b.clone()));

    let x = out.x.as_ref().expect("solution");
    let bmax = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    println!(
        "\n3D factorization and solve on a {}x{}x{} grid:",
        cfg.pr, cfg.pc, cfg.pz
    );
    println!(
        "  residual |Ax-b|/|b|   = {:.2e}",
        prep.a.residual_inf(x, &b) / bmax
    );
    // Everything else is rendered from the run's account, as `salu` does.
    let account = out.account();
    print!(
        "{}",
        RunText::of(&account).expect("an account renders").summary
    );
    println!(
        "  peak factor storage   = {:.2} Mwords/rank",
        out.max_store_words as f64 / 1e6
    );

    // Compare with the 2D baseline on the same number of ranks (4x4x1). The
    // speedup is over the 3D factorization alone: the paper times
    // factorization only.
    let cfg2d = SolverConfig {
        pr: 4,
        pc: 4,
        pz: 1,
        model: TimeModel::edison_like(),
        ..Default::default()
    };
    let base = factor_only(&prep, &cfg2d).account();
    println!("\n2D baseline on a 4x4 grid (same 16 ranks):");
    print!(
        "{}",
        baseline_text(&account, &base).expect("accounts render")
    );
}
