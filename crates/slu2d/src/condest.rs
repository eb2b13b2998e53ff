//! Condition-number estimation on the factored matrix: Hager's 1-norm
//! estimator (the algorithm behind LAPACK's `xGECON`, which SuperLU_DIST
//! exposes the same way). Needs solves with both `A` and `A^T`, so this
//! module also provides the transpose solve on a factored block store.

use crate::seq::seq_solve;
use crate::store::BlockStore;
use densela::{backward_subst_ltrans_unit, forward_subst_utrans};
use symbolic::Symbolic;

/// Solve `A^T x = b` on a factored store: `U^T y = b` (forward over the
/// U-side blocks), then `L^T x = y` (backward over the L-side blocks).
/// `b` and the result are in the permuted ordering.
pub fn seq_solve_transpose(store: &BlockStore, sym: &Symbolic, b: &[f64]) -> Vec<f64> {
    let part = &sym.part;
    let n = part.n();
    assert_eq!(b.len(), n);
    let nsup = sym.nsup();
    let mut x = b.to_vec();

    // Forward: y = U^{-T} b. U^T is block lower triangular: block (i,k) of
    // U^T equals U(k,i)^T.
    for k in 0..nsup {
        let r = part.ranges[k].clone();
        let d = store.get(k, k).unwrap();
        let mut seg = x[r.clone()].to_vec();
        forward_subst_utrans(d, &mut seg);
        x[r].copy_from_slice(&seg);
        for (p, &i) in sym.fill.struct_of[k].iter().enumerate() {
            let u = store.get(k, i).unwrap(); // U(k,i), transposed use
            let xi = &mut x[part.ranges[i].clone()];
            for (row, c) in sym.fill.kept(k, p).iter().zip(u.tr_matvec(&seg)) {
                xi[row] -= c;
            }
        }
    }

    // Backward: x = L^{-T} y. L^T is block upper triangular: block (k,i) of
    // L^T equals L(i,k)^T.
    for k in (0..nsup).rev() {
        let r = part.ranges[k].clone();
        let mut seg = x[r.clone()].to_vec();
        for (p, &i) in sym.fill.struct_of[k].iter().enumerate() {
            let l = store.get(i, k).unwrap();
            let xi = &x[part.ranges[i].clone()];
            let kept: Vec<f64> = sym.fill.kept(k, p).iter().map(|row| xi[row]).collect();
            for (s, c) in seg.iter_mut().zip(l.tr_matvec(&kept)) {
                *s -= c;
            }
        }
        let d = store.get(k, k).unwrap();
        backward_subst_ltrans_unit(d, &mut seg);
        x[r].copy_from_slice(&seg);
    }
    x
}

/// Hager/Higham estimate of `||A^{-1}||_1` from a factored store. A handful
/// of solve pairs (`A`, then `A^T`) per iteration; the result is a lower
/// bound that is almost always within a small factor of the truth.
pub fn inverse_norm1_estimate(store: &BlockStore, sym: &Symbolic) -> f64 {
    let n = sym.part.n();
    if n == 0 {
        return 0.0;
    }
    let mut x = vec![1.0 / n as f64; n];
    let mut best = 0.0f64;
    for _ in 0..5 {
        let y = seq_solve(store, sym, &x); // A^{-1} x
        let est: f64 = y.iter().map(|v| v.abs()).sum();
        best = best.max(est);
        let xi: Vec<f64> = y
            .iter()
            .map(|v| if *v >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        let z = seq_solve_transpose(store, sym, &xi); // A^{-T} sign(y)
        let (jmax, zmax) = z
            .iter()
            .enumerate()
            .fold((0usize, 0.0f64), |(jm, zm), (j, v)| {
                if v.abs() > zm {
                    (j, v.abs())
                } else {
                    (jm, zm)
                }
            });
        let ztx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
        if zmax <= ztx {
            break; // converged
        }
        x = vec![0.0; n];
        x[jmax] = 1.0;
    }
    best
}

/// Estimated 1-norm condition number `||A||_1 * ||A^{-1}||_1`.
/// `a` is the (permuted) matrix matching the factored store.
pub fn condest_1(a: &sparsemat::Csr, store: &BlockStore, sym: &Symbolic) -> f64 {
    // ||A||_1 = max absolute column sum = max absolute row sum of A^T.
    let at = a.transpose();
    let norm1 = (0..at.nrows)
        .map(|i| at.row_vals(i).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0f64, f64::max);
    norm1 * inverse_norm1_estimate(store, sym)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::seq_factor;
    use crate::store::InitValues;
    use ordering::{nested_dissection, Graph, NdOptions};
    use simgrid::Grid2d;
    use sparsemat::matgen::{grid2d_5pt, random_band};
    use sparsemat::testmats::Geometry;
    use sparsemat::Csr;
    use symbolic::Symbolic;

    fn factored(a: &Csr, geom: Geometry) -> (Csr, Symbolic, BlockStore) {
        let g = Graph::from_matrix(a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry: geom,
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = Symbolic::analyze(&pa, &tree, 8);
        let grid = Grid2d::new(1, 1);
        let mut store =
            BlockStore::build(&pa, &sym, &grid, 0, 0, &|_| true, InitValues::FromMatrix);
        seq_factor(&mut store, &sym, 1e-12);
        (pa, sym, store)
    }

    #[test]
    fn transpose_solve_is_correct() {
        let a = grid2d_5pt(8, 8, 0.2, 3); // genuinely unsymmetric values
        let (pa, sym, store) = factored(&a, Geometry::Grid2d { nx: 8, ny: 8 });
        let x_true: Vec<f64> = (0..pa.nrows).map(|i| ((i % 6) as f64) - 2.5).collect();
        let b = pa.transpose().matvec(&x_true); // A^T x
        let x = seq_solve_transpose(&store, &sym, &b);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    /// Exact ||A^{-1}||_1 by solving against every unit vector (small n).
    fn exact_inv_norm1(store: &BlockStore, sym: &Symbolic) -> f64 {
        let n = sym.part.n();
        let mut best = 0.0f64;
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = seq_solve(store, sym, &e);
            best = best.max(col.iter().map(|v| v.abs()).sum());
        }
        best
    }

    #[test]
    fn estimator_is_tight_lower_bound() {
        for seed in 0..3 {
            let a = random_band(40, 3, 0.7, seed);
            let (_, sym, store) = factored(&a, Geometry::General);
            let est = inverse_norm1_estimate(&store, &sym);
            let exact = exact_inv_norm1(&store, &sym);
            assert!(est <= exact * (1.0 + 1e-10), "estimate above exact");
            assert!(
                est >= exact / 3.0,
                "seed {seed}: estimate {est} too far below exact {exact}"
            );
        }
    }

    #[test]
    fn laplacian_condition_grows_with_size() {
        // kappa(h^2 Laplacian) ~ n for 2D grids; the estimate must grow.
        let cond = |k: usize| {
            let a = grid2d_5pt(k, k, 0.0, 0);
            let (pa, sym, store) = factored(&a, Geometry::Grid2d { nx: k, ny: k });
            condest_1(&pa, &store, &sym)
        };
        let c8 = cond(8);
        let c16 = cond(16);
        assert!(c16 > 1.5 * c8, "condition must grow: {c8} -> {c16}");
    }
}
