//! Sequential reference: the same supernodal block LU on a single store.
//!
//! Used as the ground truth the distributed 2D and 3D factorizations are
//! validated against, and as the `P = 1` corner of every scaling
//! experiment.

use crate::kernels::{trsm_l_blocks, trsm_u_blocks, UpdateMaps};
use crate::store::BlockStore;
use densela::{backward_subst, forward_subst_unit, gemm_scatter, getrf, PivotPolicy};
use symbolic::Symbolic;

/// Factor a full (undistributed) store in place. Returns the number of
/// static-pivot perturbations.
pub fn seq_factor(store: &mut BlockStore, sym: &Symbolic, pivot_threshold: f64) -> usize {
    let nsup = sym.nsup();
    let mut perturbations = 0;
    let mut maps = UpdateMaps::default();
    for k in 0..nsup {
        // Diagonal factorization.
        let info = {
            let d = store.get_mut(k, k).expect("diagonal block");
            getrf(
                d,
                PivotPolicy::Static {
                    threshold: pivot_threshold,
                },
            )
        };
        perturbations += info.perturbations;
        let d = store.get(k, k).unwrap().clone();
        let struct_k = &sym.fill.struct_of[k];
        // Panel solves, on blocks taken out of the store for the update.
        let mut l: Vec<_> = struct_k
            .iter()
            .map(|&i| store.take(i, k).expect("L block"))
            .collect();
        trsm_l_blocks(d.view(), &mut l);
        let mut u: Vec<_> = struct_k
            .iter()
            .map(|&j| store.take(k, j).expect("U block"))
            .collect();
        trsm_u_blocks(d.view(), &mut u);
        // Schur updates, block by block, onto the rows and columns each
        // target keeps.
        maps.build(sym, k, struct_k.iter().copied(), struct_k.iter().copied())
            .unwrap_or_else(|(i, j)| panic!("Schur target ({i},{j}) misses rows of {k}"));
        for (b, &j) in struct_k.iter().enumerate() {
            for (a, &i) in struct_k.iter().enumerate() {
                let t = store
                    .get_mut(i, j)
                    .unwrap_or_else(|| panic!("missing Schur target ({i},{j})"));
                let map = maps.pair(a * struct_k.len() + b);
                gemm_scatter(-1.0, &l[a], &u[b], t, map.rows, map.cols);
            }
        }
        for ((&i, l), u) in struct_k.iter().zip(l).zip(u) {
            store.insert(i, k, l);
            store.insert(k, i, u);
        }
    }
    perturbations
}

/// Solve `L U x = b` given a factored store; `b` and the result are in the
/// *permuted* ordering.
pub fn seq_solve(store: &BlockStore, sym: &Symbolic, b: &[f64]) -> Vec<f64> {
    let part = &sym.part;
    let n = part.n();
    assert_eq!(b.len(), n);
    let nsup = sym.nsup();
    let mut x = b.to_vec();

    // Forward: y = L^{-1} b, right-looking over supernodes.
    for k in 0..nsup {
        let r = part.ranges[k].clone();
        let d = store.get(k, k).unwrap();
        // Split borrow: solve the k segment in a scratch buffer.
        let mut seg = x[r.clone()].to_vec();
        forward_subst_unit(d, &mut seg);
        x[r.clone()].copy_from_slice(&seg);
        for (p, &i) in sym.fill.struct_of[k].iter().enumerate() {
            // L(i, k) reaches only the rows of i it keeps.
            let contrib = store.get(i, k).unwrap().matvec(&seg);
            let xi = &mut x[part.ranges[i].clone()];
            for (row, c) in sym.fill.kept(k, p).iter().zip(contrib) {
                xi[row] -= c;
            }
        }
    }

    // Backward: x = U^{-1} y, left-looking over supernodes in reverse.
    for k in (0..nsup).rev() {
        let r = part.ranges[k].clone();
        let mut seg = x[r.clone()].to_vec();
        for (p, &j) in sym.fill.struct_of[k].iter().enumerate() {
            // U(k, j) reads only the entries of x_j it keeps columns for.
            let xj = &x[part.ranges[j].clone()];
            let kept: Vec<f64> = sym.fill.kept(k, p).iter().map(|c| xj[c]).collect();
            let contrib = store.get(k, j).unwrap().matvec(&kept);
            for (s, c) in seg.iter_mut().zip(contrib) {
                *s -= c;
            }
        }
        let d = store.get(k, k).unwrap();
        backward_subst(d, &mut seg);
        x[r].copy_from_slice(&seg);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Prepared;
    use crate::store::InitValues;
    use simgrid::Grid2d;
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt, kkt_3d, random_band};
    use sparsemat::testmats::Geometry;
    use sparsemat::Csr;

    /// Full pipeline: order, analyze, factor, solve; return the relative
    /// residual in the original ordering.
    fn factor_solve_residual(a: &Csr, geom: Geometry, leaf: usize, maxsup: usize) -> f64 {
        let prep = Prepared::new(a.clone(), geom, leaf, maxsup);
        let grid = Grid2d::new(1, 1);
        let mut store = crate::store::BlockStore::build(
            &prep.pa,
            &prep.sym,
            &grid,
            0,
            0,
            &|_| true,
            InitValues::FromMatrix,
        );
        seq_factor(&mut store, &prep.sym, 1e-10);

        // Known solution in the ORIGINAL ordering.
        let x_true: Vec<f64> = (0..a.nrows).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = a.matvec(&x_true);
        let px = seq_solve(&store, &prep.sym, &prep.permute_rhs(&b));
        let x = prep.unpermute_solution(&px);
        let r = a.residual_inf(&x, &b);
        let bnorm = b.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
        r / bnorm
    }

    #[test]
    fn solves_planar_grid() {
        let a = grid2d_5pt(12, 12, 0.1, 3);
        let r = factor_solve_residual(&a, Geometry::Grid2d { nx: 12, ny: 12 }, 8, 8);
        assert!(r < 1e-9, "relative residual {r}");
    }

    #[test]
    fn solves_3d_grid() {
        let a = grid3d_7pt(5, 5, 5, 0.1, 4);
        let r = factor_solve_residual(
            &a,
            Geometry::Grid3d {
                nx: 5,
                ny: 5,
                nz: 5,
            },
            12,
            10,
        );
        assert!(r < 1e-9, "relative residual {r}");
    }

    #[test]
    fn solves_kkt_saddle_point() {
        let a = kkt_3d(3, 3, 3, 1e-2, 5);
        let r = factor_solve_residual(&a, Geometry::General, 12, 8);
        assert!(r < 1e-7, "relative residual {r}");
    }

    #[test]
    fn solves_random_band_matrices() {
        for seed in 0..3 {
            let a = random_band(60, 5, 0.5, seed);
            let r = factor_solve_residual(&a, Geometry::General, 10, 6);
            assert!(r < 1e-8, "seed {seed}: relative residual {r}");
        }
    }

    #[test]
    fn factor_matches_dense_lu() {
        // Reconstruct the dense matrix from block factors and compare to a
        // dense solve of the same system.
        let a = grid2d_5pt(5, 5, 0.2, 9);
        let r = factor_solve_residual(&a, Geometry::Grid2d { nx: 5, ny: 5 }, 6, 4);
        assert!(r < 1e-10);
    }
}
