//! End-to-end integration tests: the full pipeline — generate, order,
//! analyze, distribute, factor, solve — across the whole test-matrix suite
//! and a range of 3D grid shapes.

use salu::prelude::*;

/// Factor + solve `a` on a `pr x pc x pz` simulated machine and return the
/// relative residual in the original ordering.
fn relative_residual(tm: &salu::sparsemat::TestMatrix, pr: usize, pc: usize, pz: usize) -> f64 {
    let a = &tm.matrix;
    let n = a.nrows;
    let x_true: Vec<f64> = (0..n).map(|i| ((i * 5 % 17) as f64) - 8.0).collect();
    let b = a.matvec(&x_true);
    let prep = Prepared::new(a.clone(), tm.geometry, 16, 16);
    let cfg = SolverConfig {
        pr,
        pc,
        pz,
        model: TimeModel::zero(),
        ..Default::default()
    };
    let out = factor_and_solve(&prep, &cfg, Some(b.clone()));
    let x = out.x.expect("solution");
    let bmax = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    prep.a.residual_inf(&x, &b) / bmax
}

#[test]
fn whole_suite_solves_on_2x2x2() {
    for tm in test_suite(Scale::Tiny) {
        let r = relative_residual(&tm, 2, 2, 2);
        assert!(r < 1e-6, "{}: relative residual {r}", tm.name);
    }
}

#[test]
fn planar_matrices_solve_on_deep_z_grids() {
    for name in ["k2d5pt", "ecology", "g3circuit"] {
        let tm = test_matrix(name, Scale::Tiny);
        let r = relative_residual(&tm, 1, 2, 8);
        assert!(r < 1e-8, "{name}: relative residual {r}");
    }
}

#[test]
fn nonplanar_matrices_solve_on_mixed_grids() {
    for name in ["serena3d", "audikw", "coupcons", "dielfilter", "ldoor"] {
        let tm = test_matrix(name, Scale::Tiny);
        let r = relative_residual(&tm, 2, 1, 4);
        assert!(r < 1e-7, "{name}: relative residual {r}");
    }
}

#[test]
fn kkt_solves_despite_indefiniteness() {
    let tm = test_matrix("nlpkkt", Scale::Tiny);
    let r = relative_residual(&tm, 1, 2, 4);
    assert!(r < 1e-5, "nlpkkt: relative residual {r}");
}

#[test]
fn solutions_agree_between_2d_and_3d() {
    let tm = test_matrix("k2d5pt", Scale::Tiny);
    let a = &tm.matrix;
    let b: Vec<f64> = (0..a.nrows).map(|i| (i as f64).sin()).collect();
    let prep = Prepared::new(a.clone(), tm.geometry, 16, 16);

    let x2 = factor_and_solve(
        &prep,
        &SolverConfig {
            pr: 2,
            pc: 2,
            pz: 1,
            model: TimeModel::zero(),
            ..Default::default()
        },
        Some(b.clone()),
    )
    .x
    .unwrap();
    let x3 = factor_and_solve(
        &prep,
        &SolverConfig {
            pr: 1,
            pc: 2,
            pz: 4,
            model: TimeModel::zero(),
            ..Default::default()
        },
        Some(b.clone()),
    )
    .x
    .unwrap();
    // Same factorization up to reduction rounding; solutions must agree far
    // tighter than the solve tolerance.
    let scale = x2.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (u, v) in x2.iter().zip(&x3) {
        assert!((u - v).abs() / scale < 1e-9, "2D/3D solution divergence");
    }
}

#[test]
fn rectangular_layers_and_odd_shapes() {
    let tm = test_matrix("s2d9pt", Scale::Tiny);
    for (pr, pc, pz) in [
        (1, 3, 2),
        (3, 1, 2),
        (1, 1, 4),
        (1, 4, 2),
        // One layer — the 2D baseline — on the shapes no other test solves
        // at `pz = 1` (2x2x1 is `dense_matrix_through_the_sparse_stack`).
        (1, 1, 1),
        (1, 4, 1),
        (3, 2, 1),
        (2, 3, 1),
    ] {
        let r = relative_residual(&tm, pr, pc, pz);
        assert!(r < 1e-8, "{pr}x{pc}x{pz}: relative residual {r}");
    }

    // The lookahead window moves panel work ahead of Schur updates; it must
    // not move the answer. No window against the default one, on one layer.
    let b: Vec<f64> = (0..tm.matrix.nrows).map(|i| i as f64 * 0.01).collect();
    let prep = Prepared::new(tm.matrix.clone(), tm.geometry, 16, 16);
    let solve = |lookahead: usize| -> Vec<f64> {
        let cfg = SolverConfig {
            pr: 2,
            pc: 2,
            pz: 1,
            lookahead,
            model: TimeModel::zero(),
            ..Default::default()
        };
        factor_and_solve(&prep, &cfg, Some(b.clone())).x.unwrap()
    };
    for (u, v) in solve(0).iter().zip(&solve(8)) {
        assert!((u - v).abs() < 1e-10, "lookahead 0 vs 8: {u} vs {v}");
    }
}

#[test]
fn amalgamated_trees_still_solve() {
    // Relaxed-supernode amalgamation merges small subtrees; the factor and
    // solve must be unaffected numerically while using fewer supernodes.
    let tm = test_matrix("k2d5pt", Scale::Tiny);
    let a = &tm.matrix;
    let b: Vec<f64> = (0..a.nrows).map(|i| (i as f64 * 0.7).sin()).collect();
    let plain = Prepared::new(a.clone(), tm.geometry, 8, 16);
    let merged = Prepared::with_amalgamation(a.clone(), tm.geometry, 8, 16, Some(24));
    assert!(
        merged.sym.nsup() < plain.sym.nsup(),
        "amalgamation must reduce supernode count"
    );
    for prep in [&plain, &merged] {
        let out = factor_and_solve(
            prep,
            &SolverConfig {
                pr: 2,
                pc: 1,
                pz: 2,
                model: TimeModel::zero(),
                ..Default::default()
            },
            Some(b.clone()),
        );
        let x = out.x.unwrap();
        assert!(prep.a.residual_inf(&x, &b) < 1e-8);
    }
}

#[test]
fn dense_matrix_through_the_sparse_stack() {
    // Degenerate corner: a fully dense matrix. Nested dissection cannot
    // find separators (the graph is a clique), the "tree" collapses, and
    // the supernodal machinery must reduce to a distributed dense LU —
    // exercising the panel-chain path (one tree node split into many
    // panels) that big separators also take.
    let n = 48;
    let mut coo = salu::sparsemat::Coo::new(n, n);
    for i in 0..n {
        for j in 0..n {
            let v = if i == j {
                n as f64
            } else {
                (((i * 31 + j * 17) % 13) as f64) / 13.0 - 0.4
            };
            coo.push(i, j, v);
        }
    }
    let a = coo.to_csr();
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 10.0).collect();
    let b = a.matvec(&x_true);
    let prep = Prepared::new(a, Geometry::General, 8, 8);
    let out = factor_and_solve(
        &prep,
        &SolverConfig {
            pr: 2,
            pc: 2,
            pz: 1,
            model: TimeModel::zero(),
            ..Default::default()
        },
        Some(b.clone()),
    );
    let x = out.x.unwrap();
    let bmax = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    assert!(prep.a.residual_inf(&x, &b) / bmax < 1e-9);
}

#[test]
fn matrix_market_roundtrip_solves() {
    // Write a generated matrix to .mtx, read it back, solve: exercises the
    // I/O path a real user with SuiteSparse files would take.
    let tm = test_matrix("ecology", Scale::Tiny);
    let mut buf = Vec::new();
    salu::sparsemat::io::write_matrix_market(&mut buf, &tm.matrix).unwrap();
    let a = salu::sparsemat::io::read_matrix_market(&buf[..]).unwrap();
    assert_eq!(a, tm.matrix);
    let tm2 = salu::sparsemat::TestMatrix {
        matrix: a,
        geometry: Geometry::General, // pretend we know nothing
        ..tm
    };
    let r = relative_residual(&tm2, 2, 2, 2);
    assert!(r < 1e-8, "roundtrip residual {r}");
}
