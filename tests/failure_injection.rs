//! Failure-injection and edge-case tests: the paths DESIGN.md calls out —
//! zero pivots under static pivoting, empty forests on some grids, more
//! grids than subtrees, degenerate shapes. Each edge shape also solves to
//! the same bits on both backends.

mod contracts;

use contracts::table::*;
use contracts::{check, rel_residual, Bound::*, Contract::*};

#[test]
fn static_pivoting_survives_zero_pivots() {
    // Zero pivots are perturbed, not crashed on. Static pivoting +
    // perturbation is approximate; the paper pairs it with iterative
    // refinement. Accept a loose residual here.
    check(&[ZERO_PIVOTS], &[Solves(Rel(1e-3)), Backends]);
}

#[test]
fn iterative_refinement_recovers_static_pivoting_accuracy() {
    // The paper's accuracy story (§VI): static pivoting perturbs pivots and
    // iterative refinement recovers the lost digits. On a matrix with
    // exact zero pivots, refinement must improve the residual by orders of
    // magnitude.
    let (r0, r2) = (rel_residual(&REFINED), rel_residual(&REFINED.refine(2)));
    assert!(r2 < 1e-10, "refined residual {r2}");
    let helped = r2 < r0 / 10.0 || r0 < 1e-12;
    assert!(helped, "refinement must help: {r0} -> {r2}");
}

#[test]
fn more_grids_than_subtrees_still_works() {
    check(&[MORE_GRIDS], &[Solves(Abs(1e-8)), Backends]);
}

#[test]
fn single_vertex_matrix() {
    check(&[SINGLE_VERTEX], &[Solves(Err(1e-12)), Backends]);
}

#[test]
fn diagonal_matrix_factors_trivially() {
    check(&[DIAGONAL], &[Solves(Err(1e-12)), Backends]);
}

#[test]
fn disconnected_matrix_solves() {
    check(&[DISCONNECTED], &[Solves(Abs(1e-8)), Backends]);
}

#[test]
fn huge_lookahead_window_is_safe() {
    check(&[HUGE_LOOKAHEAD], &[Solves(Abs(1e-8)), Backends]);
}
