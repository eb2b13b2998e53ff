//! Sequential supernodal Cholesky (LL^T): the symmetric variant the paper's
//! §VII proposes extending the 3D principles to.
//!
//! Works on the same supernode partition and block fill pattern as the LU
//! path, but stores **only the diagonal and L-side blocks** — half the
//! memory and (asymptotically) half the flops. Serves as the reference
//! implementation of the future-work direction and as a cross-check: on a
//! value-symmetric SPD matrix it must produce the same solutions as the LU
//! path.

use crate::store::{BlockStore, StoreLayout};
use densela::gemm::gemm_nt;
use densela::{chol_backward, chol_forward, potrf, trsm_right_ltrans, Mat};
use sparsemat::Csr;
use symbolic::Symbolic;

/// Build the symmetric (lower-triangle-only) block store for a Cholesky
/// factorization: the diagonal blocks and the `L(I, J)` blocks of the fill
/// pattern, initialized from the values of `a` (which must be symmetric).
pub fn build_chol_store(a: &Csr, sym: &Symbolic) -> BlockStore {
    let part = &sym.part;
    let layout = StoreLayout::new(a, sym, &simgrid::Grid2d::new(1, 1));
    let mut store = BlockStore::empty(std::sync::Arc::new(layout), 0, 0);
    for j in 0..part.nsup() {
        let wj = part.width(j);
        store.insert(j, j, Mat::zeros(wj, wj));
        for &i in &sym.fill.struct_of[j] {
            store.insert(i, j, Mat::zeros(part.width(i), wj));
        }
    }
    // Scatter values: diagonal blocks get both triangles, off-diagonal
    // entries go to the lower-block side only.
    for row in 0..a.nrows {
        let bi = part.sn_of_col[row];
        let r_off = row - part.ranges[bi].start;
        for (col, val) in a.row_cols(row).iter().zip(a.row_vals(row)) {
            let bj = part.sn_of_col[*col];
            if bi >= bj {
                let c_off = col - part.ranges[bj].start;
                if let Some(m) = store.get_mut(bi, bj) {
                    *m.at_mut(r_off, c_off) += *val;
                }
            }
        }
    }
    store
}

/// Error from a Cholesky factorization.
#[derive(Debug, PartialEq)]
pub struct NotSpd {
    /// Supernode whose diagonal block failed.
    pub supernode: usize,
    /// Column within the block.
    pub column: usize,
}

/// Factor a symmetric store in place as `A = L L^T`. Fails (without
/// perturbation — Cholesky has no static-pivoting analogue) if a diagonal
/// block turns out numerically indefinite.
pub fn chol_factor(store: &mut BlockStore, sym: &Symbolic) -> Result<(), NotSpd> {
    let nsup = sym.nsup();
    for k in 0..nsup {
        let info = {
            let d = store.get_mut(k, k).expect("diagonal block");
            potrf(d)
        };
        if let Some(col) = info.not_spd_at {
            return Err(NotSpd {
                supernode: k,
                column: col,
            });
        }
        let d = store.get(k, k).unwrap().clone();
        let struct_k = sym.fill.struct_of[k].clone();
        // Panel solve: L(I,k) = A(I,k) * L_kk^{-T}.
        for &i in &struct_k {
            trsm_right_ltrans(&d, store.get_mut(i, k).expect("L block"));
        }
        // Symmetric Schur update on the lower triangle:
        // A(I,J) -= L(I,k) * L(J,k)^T for I >= J in struct(k).
        for (pos, &j) in struct_k.iter().enumerate() {
            let ljk = store.get(j, k).unwrap().clone();
            for &i in &struct_k[pos..] {
                let lik = store.get(i, k).unwrap().clone();
                let t = store
                    .get_mut(i, j)
                    .unwrap_or_else(|| panic!("missing symmetric Schur target ({i},{j})"));
                gemm_nt(-1.0, &lik, &ljk, 1.0, t);
            }
        }
    }
    Ok(())
}

/// Solve `L L^T x = b` given a factored symmetric store; `b` and the result
/// are in the permuted ordering.
pub fn chol_solve(store: &BlockStore, sym: &Symbolic, b: &[f64]) -> Vec<f64> {
    let part = &sym.part;
    let n = part.n();
    assert_eq!(b.len(), n);
    let nsup = sym.nsup();
    let mut x = b.to_vec();

    // Forward: y = L^{-1} b.
    for k in 0..nsup {
        let r = part.ranges[k].clone();
        let d = store.get(k, k).unwrap();
        let mut seg = x[r.clone()].to_vec();
        chol_forward(d, &mut seg);
        x[r].copy_from_slice(&seg);
        for &i in &sym.fill.struct_of[k] {
            let l = store.get(i, k).unwrap();
            let contrib = l.matvec(&seg);
            for (xv, c) in x[part.ranges[i].clone()].iter_mut().zip(contrib) {
                *xv -= c;
            }
        }
    }

    // Backward: x = L^{-T} y, using L(I,k)^T through tr_matvec.
    for k in (0..nsup).rev() {
        let r = part.ranges[k].clone();
        let mut seg = x[r.clone()].to_vec();
        for &i in &sym.fill.struct_of[k] {
            let l = store.get(i, k).unwrap();
            let contrib = l.tr_matvec(&x[part.ranges[i].clone()]);
            for (s, c) in seg.iter_mut().zip(contrib) {
                *s -= c;
            }
        }
        let d = store.get(k, k).unwrap();
        chol_backward(d, &mut seg);
        x[r].copy_from_slice(&seg);
    }
    x
}

/// Words of factor storage of a symmetric store relative to the full LU
/// store for the same pattern: the memory advantage of the variant.
pub fn chol_vs_lu_storage(sym: &Symbolic) -> (u64, u64) {
    let mut chol = 0u64;
    for s in 0..sym.nsup() {
        let ns = sym.part.width(s) as u64;
        let m: u64 = sym.fill.struct_of[s]
            .iter()
            .map(|&i| sym.part.width(i) as u64)
            .sum();
        chol += ns * ns + m * ns;
    }
    let lu: u64 = sym.cost.factor_words.iter().sum();
    (chol, lu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{seq_factor, seq_solve};
    use crate::store::InitValues;
    use ordering::{nested_dissection, Graph, NdOptions};
    use simgrid::Grid2d;
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt};
    use sparsemat::testmats::Geometry;
    use symbolic::Symbolic;

    fn prep(a: &Csr, geom: Geometry) -> (Csr, Symbolic) {
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
        (pa, sym)
    }

    #[test]
    fn solves_spd_laplacian() {
        // unsym = 0 keeps the Laplacian symmetric; +0.01 shift keeps it SPD.
        let a = grid2d_5pt(10, 10, 0.0, 0);
        let (pa, sym) = prep(&a, Geometry::Grid2d { nx: 10, ny: 10 });
        let mut store = build_chol_store(&pa, &sym);
        chol_factor(&mut store, &sym).expect("SPD");
        let x_true: Vec<f64> = (0..pa.nrows).map(|i| ((i % 5) as f64) - 2.0).collect();
        let b = pa.matvec(&x_true);
        let x = chol_solve(&store, &sym, &b);
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_lu_on_symmetric_input() {
        let a = grid3d_7pt(4, 4, 4, 0.0, 0);
        let (pa, sym) = prep(
            &a,
            Geometry::Grid3d {
                nx: 4,
                ny: 4,
                nz: 4,
            },
        );
        let b: Vec<f64> = (0..pa.nrows).map(|i| (i as f64).cos()).collect();

        let mut cs = build_chol_store(&pa, &sym);
        chol_factor(&mut cs, &sym).expect("SPD");
        let x_chol = chol_solve(&cs, &sym, &b);

        let grid = Grid2d::new(1, 1);
        let mut ls = BlockStore::build(&pa, &sym, &grid, 0, 0, &|_| true, InitValues::FromMatrix);
        seq_factor(&mut ls, &sym, 1e-10);
        let x_lu = seq_solve(&ls, &sym, &b);

        let scale = x_lu.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (u, v) in x_chol.iter().zip(&x_lu) {
            assert!((u - v).abs() / scale < 1e-9, "Cholesky/LU divergence");
        }
    }

    #[test]
    fn storage_is_nearly_half_of_lu() {
        let a = grid2d_5pt(16, 16, 0.0, 0);
        let (_, sym) = prep(&a, Geometry::Grid2d { nx: 16, ny: 16 });
        let (chol, lu) = chol_vs_lu_storage(&sym);
        let ratio = chol as f64 / lu as f64;
        assert!(ratio > 0.45 && ratio < 0.75, "ratio {ratio}");
    }

    #[test]
    fn rejects_indefinite_matrix() {
        // A saddle-point-like symmetric indefinite matrix must be refused.
        let mut coo = sparsemat::Coo::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 2, -1.0);
        coo.push(3, 3, 1.0);
        let a = coo.to_csr();
        let (pa, sym) = prep(&a, Geometry::General);
        let mut store = build_chol_store(&pa, &sym);
        assert!(chol_factor(&mut store, &sym).is_err());
    }
}
