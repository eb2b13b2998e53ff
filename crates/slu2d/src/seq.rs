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

/// Solve `L U X = B` for multiple right-hand sides at once, using the
/// block TRSM/GEMM kernels (one pass over the factors regardless of the
/// RHS count — the reason direct solvers amortize so well over many RHS).
/// `b` is `n x nrhs` in the permuted ordering; returns `X` of the same
/// shape.
pub fn seq_solve_multi(store: &BlockStore, sym: &Symbolic, b: &densela::Mat) -> densela::Mat {
    use densela::{gemm, trsm_left_lower_unit, Mat};
    let part = &sym.part;
    let n = part.n();
    assert_eq!(b.rows(), n);
    let nrhs = b.cols();
    let mut x = b.clone();
    let all_cols: Vec<u32> = (0..nrhs as u32).collect();
    // The rows of `x` that block (k, p) of `struct(k)` keeps.
    let kept_rows = |k: usize, p: usize| -> Vec<u32> {
        let start = part.ranges[sym.fill.struct_of[k][p]].start as u32;
        sym.fill
            .kept(k, p)
            .iter()
            .map(|r| start + r as u32)
            .collect()
    };

    let seg = |x: &Mat, k: usize| -> Mat {
        let r = part.ranges[k].clone();
        x.block(r.start, 0, r.end - r.start, nrhs)
    };

    // Forward: Y = L^{-1} B, right-looking.
    for k in 0..sym.nsup() {
        let d = store.get(k, k).unwrap();
        let mut yk = seg(&x, k);
        trsm_left_lower_unit(d, &mut yk);
        x.copy_block_from(&yk, part.ranges[k].start, 0);
        for (p, &i) in sym.fill.struct_of[k].iter().enumerate() {
            let l = store.get(i, k).unwrap();
            gemm_scatter(-1.0, l, &yk, &mut x, &kept_rows(k, p), &all_cols);
        }
    }
    // Backward: X = U^{-1} Y, left-looking in reverse.
    for k in (0..sym.nsup()).rev() {
        let mut acc = seg(&x, k);
        for (p, &j) in sym.fill.struct_of[k].iter().enumerate() {
            let u = store.get(k, j).unwrap();
            let rows = kept_rows(k, p);
            let xj = Mat::from_fn(rows.len(), nrhs, |r, c| x.at(rows[r] as usize, c));
            gemm(-1.0, u, &xj, 1.0, &mut acc);
        }
        // Solve U_kk X_k = acc, column by column of the RHS block.
        let d = store.get(k, k).unwrap();
        for c in 0..nrhs {
            let mut col = acc.col(c).to_vec();
            densela::backward_subst(d, &mut col);
            for (i, v) in col.into_iter().enumerate() {
                *acc.at_mut(i, c) = v;
            }
        }
        x.copy_block_from(&acc, part.ranges[k].start, 0);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InitValues;
    use ordering::{nested_dissection, Graph, NdOptions};
    use simgrid::Grid2d;
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt, kkt_3d, random_band};
    use sparsemat::testmats::Geometry;
    use sparsemat::{Csr, Perm};
    use symbolic::Symbolic;

    /// Full pipeline: order, analyze, factor, solve; return the relative
    /// residual in the original ordering.
    fn factor_solve_residual(a: &Csr, geom: Geometry, leaf: usize, maxsup: usize) -> f64 {
        let g = Graph::from_matrix(a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: leaf,
                geometry: geom,
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = Symbolic::analyze(&pa, &tree, maxsup);
        let grid = Grid2d::new(1, 1);
        let mut store = crate::store::BlockStore::build(
            &pa,
            &sym,
            &grid,
            0,
            0,
            &|_| true,
            InitValues::FromMatrix,
        );
        seq_factor(&mut store, &sym, 1e-10);

        // Known solution in the ORIGINAL ordering.
        let x_true: Vec<f64> = (0..a.nrows).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = a.matvec(&x_true);
        let pb = permute_vec(&tree.perm, &b);
        let px = seq_solve(&store, &sym, &pb);
        let x = unpermute_vec(&tree.perm, &px);
        let r = a.residual_inf(&x, &b);
        let bnorm = b.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
        r / bnorm
    }

    fn permute_vec(p: &Perm, v: &[f64]) -> Vec<f64> {
        (0..v.len()).map(|new| v[p.old_of(new)]).collect()
    }

    fn unpermute_vec(p: &Perm, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; v.len()];
        for new in 0..v.len() {
            out[p.old_of(new)] = v[new];
        }
        out
    }

    #[test]
    fn multi_rhs_matches_repeated_single_solves() {
        use densela::Mat;
        let a = grid2d_5pt(9, 9, 0.15, 8);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry: Geometry::Grid2d { nx: 9, ny: 9 },
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = Symbolic::analyze(&pa, &tree, 8);
        let grid = Grid2d::new(1, 1);
        let mut store =
            BlockStore::build(&pa, &sym, &grid, 0, 0, &|_| true, InitValues::FromMatrix);
        seq_factor(&mut store, &sym, 1e-10);

        let n = pa.nrows;
        let nrhs = 5;
        let b = Mat::from_fn(n, nrhs, |i, j| ((i * 3 + j * 11) % 17) as f64 - 8.0);
        let xm = seq_solve_multi(&store, &sym, &b);
        for c in 0..nrhs {
            let xs = seq_solve(&store, &sym, b.col(c));
            for i in 0..n {
                assert!(
                    (xm.at(i, c) - xs[i]).abs() < 1e-10,
                    "rhs {c} row {i}: {} vs {}",
                    xm.at(i, c),
                    xs[i]
                );
            }
        }
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
