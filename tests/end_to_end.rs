//! End-to-end integration tests: the full pipeline — generate, order,
//! analyze, distribute, factor, solve — across the whole test-matrix suite
//! and a range of 3D grid shapes (`contracts::table::solved`: pins
//! `(16, 16)`, the zero time model, `b = A x_true`).

mod contracts;

use contracts::table::{solved, DENSE, MTX_ROUNDTRIP};
use contracts::{check, distance, run, x_of, Bound::Rel, Contract::*, Rhs, Shape};
use salu::prelude::*;
use salu::sparsemat::testmats::ALL_NAMES;

/// Each suite proxy solves on 2x2x2, to the same bits on both backends.
#[test]
fn whole_suite_solves_on_2x2x2() {
    let suite: Vec<Shape> = ALL_NAMES.iter().map(|n| solved(n, [2, 2, 2])).collect();
    check(&suite, &[Solves(Rel(1e-6)), Backends]);
}

#[test]
fn planar_matrices_solve_on_deep_z_grids() {
    let planar = ["k2d5pt", "ecology", "g3circuit"].map(|n| solved(n, [1, 2, 8]));
    check(&planar, &[Solves(Rel(1e-8))]);
}

#[test]
fn nonplanar_matrices_solve_on_mixed_grids() {
    let names = ["serena3d", "audikw", "coupcons", "dielfilter", "ldoor"];
    check(&names.map(|n| solved(n, [2, 1, 4])), &[Solves(Rel(1e-7))]);
}

#[test]
fn kkt_solves_despite_indefiniteness() {
    check(&[solved("nlpkkt", [1, 2, 4])], &[Solves(Rel(1e-5))]);
}

/// The threaded solution of `k2d5pt` with `b_i = sin(i)` on `grid`.
fn sin_rhs(grid: [usize; 3]) -> &'static [f64] {
    let shape = solved("k2d5pt", grid).rhs(Rhs::B(|i| (i as f64).sin()));
    x_of(&run(&shape, shape.run(Backend::Threaded)).out)
}

#[test]
fn solutions_agree_between_2d_and_3d() {
    // Same factorization up to reduction rounding; solutions must agree far
    // tighter than the solve tolerance.
    let d = distance(sin_rhs([1, 2, 4]), sin_rhs([2, 2, 1]));
    assert!(d < 1e-9, "2D/3D solution divergence {d}");
}

#[test]
fn rectangular_layers_and_odd_shapes() {
    let grids = [
        [1, 3, 2],
        [3, 1, 2],
        [1, 1, 4],
        [1, 4, 2],
        // One layer — the 2D baseline — on the shapes no other test solves
        // at `pz = 1` (2x2x1 is `dense_matrix_through_the_sparse_stack`).
        [1, 1, 1],
        [1, 4, 1],
        [3, 2, 1],
        [2, 3, 1],
    ];
    check(&grids.map(|g| solved("s2d9pt", g)), &[Solves(Rel(1e-8))]);

    // The lookahead window moves panel work ahead of Schur updates; it must
    // not move the answer. No window against the default one, on one layer.
    let shape = solved("s2d9pt", [2, 2, 1]).rhs(Rhs::B(|i| i as f64 * 0.01));
    let solve = |s: Shape| x_of(&run(&s, s.run(Backend::Threaded)).out);
    for (u, v) in solve(shape.lookahead(0)).iter().zip(solve(shape)) {
        assert!((u - v).abs() < 1e-10, "lookahead 0 vs 8: {u} vs {v}");
    }
}

#[test]
fn dense_matrix_through_the_sparse_stack() {
    check(&[DENSE], &[Solves(Rel(1e-9)), Backends]);
}

/// The I/O path a real user with SuiteSparse files would take: written,
/// read back equal, and solved knowing nothing of its geometry.
#[test]
fn matrix_market_roundtrip_solves() {
    check(&[MTX_ROUNDTRIP], &[Solves(Rel(1e-8))]);
}
