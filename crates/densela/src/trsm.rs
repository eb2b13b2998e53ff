//! Triangular solves with multiple right-hand sides: the panel-solve kernels.
//!
//! After the diagonal block `A_kk` of a supernode is factored into
//! `L_kk * U_kk`, the paper's panel-solve step (§II-E, kernel 3) computes
//!
//! - `U_kj = L_kk^{-1} A_kj`  — [`trsm_left_lower_unit`]
//! - `L_ik = A_ik U_kk^{-1}`  — [`trsm_right_upper`]
//!
//! Both operate in place on the right-hand-side panel. The triangular factor
//! is passed as the in-place `getrf` output: `L` is the strict lower triangle
//! with an implicit unit diagonal, `U` the upper triangle including the
//! diagonal.

use crate::flops;
use crate::matrix::{Mat, MatRef};

/// In-place solve `L * X = B` where `L` is the unit lower triangle stored in
/// `lu` (a square in-place LU factor). `b` holds `B` on entry, `X` on exit.
///
/// `b` may be rectangular: `lu.rows() == b.rows()`. `lu` is read in place
/// ([`MatRef`]; a `&Mat` converts).
pub fn trsm_left_lower_unit<'a>(lu: impl Into<MatRef<'a>>, b: &mut Mat) {
    let lu = lu.into();
    let n = lu.rows();
    assert_eq!(lu.cols(), n, "triangular factor must be square");
    assert_eq!(b.rows(), n, "rhs row count mismatch");
    let nrhs = b.cols();
    if n == 0 || nrhs == 0 {
        return;
    }
    if nrhs < ROWWISE_MIN_RHS {
        let lbuf = lu.as_slice();
        for j in 0..nrhs {
            let x = b.col_mut(j);
            // Forward substitution, column-oriented: once x[k] is final,
            // subtract x[k] * L(:,k) from the remainder (stride-1 over the L
            // column).
            for k in 0..n {
                let xk = x[k];
                if xk == 0.0 {
                    continue;
                }
                let lcol = &lbuf[k * n..(k + 1) * n];
                for i in k + 1..n {
                    x[i] -= xk * lcol[i];
                }
            }
        }
        flops::add(flops::trsm_flops(n, nrhs));
    } else {
        let mut t = vec![0.0; n * nrhs];
        for j in 0..nrhs {
            for (k, &v) in b.col(j).iter().enumerate() {
                t[k * nrhs + j] = v;
            }
        }
        trsm_left_lower_unit_rows(lu, &mut t, nrhs);
        for j in 0..nrhs {
            for (k, v) in b.col_mut(j).iter_mut().enumerate() {
                *v = t[k * nrhs + j];
            }
        }
    }
}

/// From this many right-hand sides on, [`trsm_left_lower_unit`] substitutes
/// them all at once over a transposed copy instead of one column at a time.
const ROWWISE_MIN_RHS: usize = 4;

/// [`trsm_left_lower_unit`] on right-hand sides stored row by row: row `k`
/// of `X` is `t[k * nrhs..(k + 1) * nrhs]`. Once row `k` is final it
/// subtracts `x[k] * L(i,k)` from each row `i` below it, every right-hand
/// side at once; the zero-`x[k]` skip is a select per entry, so every entry
/// sees exactly the column-oriented substitution's arithmetic, in the same
/// order.
pub fn trsm_left_lower_unit_rows<'a>(lu: impl Into<MatRef<'a>>, t: &mut [f64], nrhs: usize) {
    let lu = lu.into();
    let n = lu.rows();
    assert_eq!(lu.cols(), n, "triangular factor must be square");
    assert_eq!(t.len(), n * nrhs, "rhs size mismatch");
    let lbuf = lu.as_slice();
    for k in 0..n {
        let (done, below) = t.split_at_mut((k + 1) * nrhs);
        let xk = &done[k * nrhs..];
        let lcol = &lbuf[k * n + k + 1..(k + 1) * n];
        for (xi, &lik) in below.chunks_exact_mut(nrhs.max(1)).zip(lcol) {
            for (x, &s) in xi.iter_mut().zip(xk) {
                let v = *x - s * lik;
                *x = if s != 0.0 { v } else { *x };
            }
        }
    }
    flops::add(flops::trsm_flops(n, nrhs));
}

/// In-place solve `X * U = B` where `U` is the (non-unit) upper triangle
/// stored in `lu`. `b` holds `B` on entry, `X` on exit.
///
/// `b` may be rectangular: `lu.rows() == b.cols()`. `lu` is read in place
/// ([`MatRef`]; a `&Mat` converts).
pub fn trsm_right_upper<'a>(lu: impl Into<MatRef<'a>>, b: &mut Mat) {
    let lu = lu.into();
    let n = lu.rows();
    assert_eq!(lu.cols(), n, "triangular factor must be square");
    assert_eq!(b.cols(), n, "rhs col count mismatch");
    let m = b.rows();
    if n == 0 || m == 0 {
        return;
    }
    // Solve column by column of X: X(:,k) = (B(:,k) - X(:,0..k) * U(0..k,k)) / U(k,k).
    for k in 0..n {
        let ukk = lu.at(k, k);
        assert!(ukk != 0.0, "zero pivot in trsm_right_upper at {k}");
        for l in 0..k {
            let ulk = lu.at(l, k);
            if ulk == 0.0 {
                continue;
            }
            // b(:,k) -= b(:,l) * U(l,k); need split borrow of two columns.
            let (lo, hi) = b.as_mut_slice().split_at_mut(k * m);
            let xl = &lo[l * m..(l + 1) * m];
            let xk = &mut hi[..m];
            for (bk, bl) in xk.iter_mut().zip(xl) {
                *bk -= *bl * ulk;
            }
        }
        let inv = 1.0 / ukk;
        for v in b.col_mut(k) {
            *v *= inv;
        }
    }
    flops::add(flops::trsm_flops(n, m));
}

/// Forward substitution `L y = b` for a single vector, unit-diagonal `L`
/// taken from an in-place LU factor.
pub fn forward_subst_unit(lu: &Mat, b: &mut [f64]) {
    let n = lu.rows();
    assert_eq!(b.len(), n);
    for k in 0..n {
        let xk = b[k];
        if xk == 0.0 {
            continue;
        }
        for i in k + 1..n {
            b[i] -= xk * lu.at(i, k);
        }
    }
    flops::add((n * n) as u64 / 2);
}

/// Backward substitution `U x = y` for a single vector, `U` taken from an
/// in-place LU factor.
pub fn backward_subst(lu: &Mat, b: &mut [f64]) {
    let n = lu.rows();
    assert_eq!(b.len(), n);
    for k in (0..n).rev() {
        let ukk = lu.at(k, k);
        assert!(ukk != 0.0, "zero pivot in backward_subst at {k}");
        b[k] /= ukk;
        let xk = b[k];
        if xk == 0.0 {
            continue;
        }
        for i in 0..k {
            b[i] -= xk * lu.at(i, k);
        }
    }
    flops::add((n * n) as u64 / 2);
}

/// Forward substitution `U^T y = b` for a single vector (`U^T` is lower
/// triangular with the diagonal), `U` taken from an in-place LU factor.
/// Used by transpose solves (`A^T x = b`) for condition estimation.
pub fn forward_subst_utrans(lu: &Mat, b: &mut [f64]) {
    let n = lu.rows();
    assert_eq!(b.len(), n);
    for k in 0..n {
        let mut v = b[k];
        // Column k of U above the diagonal = row entries of U^T left of k.
        for i in 0..k {
            v -= lu.at(i, k) * b[i];
        }
        let ukk = lu.at(k, k);
        assert!(ukk != 0.0, "zero pivot in forward_subst_utrans at {k}");
        b[k] = v / ukk;
    }
    flops::add((n * n) as u64 / 2);
}

/// Backward substitution `L^T x = y` for a single vector (`L^T` is unit
/// upper triangular), `L` taken from an in-place LU factor.
pub fn backward_subst_ltrans_unit(lu: &Mat, b: &mut [f64]) {
    let n = lu.rows();
    assert_eq!(b.len(), n);
    for k in (0..n).rev() {
        let mut v = b[k];
        for i in k + 1..n {
            v -= lu.at(i, k) * b[i];
        }
        b[k] = v;
    }
    flops::add((n * n) as u64 / 2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;

    /// Build a well-conditioned square LU-format matrix: unit lower L and
    /// upper U packed into one buffer.
    fn packed_lu(n: usize) -> Mat {
        Mat::from_fn(n, n, |i, j| {
            if i == j {
                2.0 + (i % 3) as f64
            } else if i > j {
                0.1 / (1.0 + (i - j) as f64) // L part
            } else {
                0.2 / (1.0 + (j - i) as f64) // U part
            }
        })
    }

    fn extract_l(lu: &Mat) -> Mat {
        let n = lu.rows();
        Mat::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                lu.at(i, j)
            } else {
                0.0
            }
        })
    }

    fn extract_u(lu: &Mat) -> Mat {
        let n = lu.rows();
        Mat::from_fn(n, n, |i, j| if i <= j { lu.at(i, j) } else { 0.0 })
    }

    #[test]
    fn left_lower_solves() {
        let n = 9;
        let lu = packed_lu(n);
        let l = extract_l(&lu);
        let x_true = Mat::from_fn(n, 4, |i, j| (i + 2 * j) as f64 * 0.3 - 1.0);
        let mut b = Mat::zeros(n, 4);
        gemm(1.0, &l, &x_true, 0.0, &mut b);
        trsm_left_lower_unit(&lu, &mut b);
        for j in 0..4 {
            for i in 0..n {
                assert!((b.at(i, j) - x_true.at(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn right_upper_solves() {
        let n = 8;
        let lu = packed_lu(n);
        let u = extract_u(&lu);
        let x_true = Mat::from_fn(5, n, |i, j| ((i * j) % 7) as f64 * 0.25 - 0.5);
        let mut b = Mat::zeros(5, n);
        gemm(1.0, &x_true, &u, 0.0, &mut b);
        trsm_right_upper(&lu, &mut b);
        for j in 0..n {
            for i in 0..5 {
                assert!((b.at(i, j) - x_true.at(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn vector_substitutions_invert_lu() {
        let n = 12;
        let lu = packed_lu(n);
        let l = extract_l(&lu);
        let u = extract_u(&lu);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 2.0).collect();
        // b = L * U * x
        let ux = u.matvec(&x_true);
        let mut b = l.matvec(&ux);
        forward_subst_unit(&lu, &mut b);
        backward_subst(&lu, &mut b);
        for i in 0..n {
            assert!((b[i] - x_true[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn transpose_substitutions_invert_lu_transpose() {
        // Solve A^T x = b via U^T then L^T substitution.
        let n = 10;
        let lu = packed_lu(n);
        let l = extract_l(&lu);
        let u = extract_u(&lu);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 - 2.0).collect();
        // b = (L U)^T x = U^T (L^T x)
        let ltx = l.tr_matvec(&x_true);
        let mut b = u.tr_matvec(&ltx);
        forward_subst_utrans(&lu, &mut b);
        backward_subst_ltrans_unit(&lu, &mut b);
        for i in 0..n {
            assert!((b[i] - x_true[i]).abs() < 1e-10, "i={i}");
        }
    }

    /// The row-wise substitution many right-hand sides take is the
    /// column-oriented one entry for entry: same values to the bit, zero
    /// entries of `x` skipped alike, one column or a hundred.
    #[test]
    fn row_wise_substitution_is_the_column_substitution_bit_for_bit() {
        let n = 13;
        let lu = packed_lu(n);
        for nrhs in [1, 3, 4, 7, 40] {
            let b = Mat::from_fn(n, nrhs, |i, j| {
                if (i * 5 + j * 3) % 4 == 0 {
                    0.0
                } else {
                    ((i * 7 + j * 11) % 13) as f64 * 0.37 - 2.0
                }
            });
            let mut want = b.clone();
            for j in 0..nrhs {
                let x = want.col_mut(j);
                for k in 0..n {
                    let xk = x[k];
                    if xk == 0.0 {
                        continue;
                    }
                    for i in k + 1..n {
                        x[i] -= xk * lu.at(i, k);
                    }
                }
            }
            let mut got = b.clone();
            trsm_left_lower_unit(&lu, &mut got);
            let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{nrhs} right-hand sides");
        }
    }

    #[test]
    fn empty_rhs_is_noop() {
        let lu = packed_lu(4);
        let mut b = Mat::zeros(4, 0);
        trsm_left_lower_unit(&lu, &mut b);
        let mut b2 = Mat::zeros(0, 4);
        trsm_right_upper(&lu, &mut b2);
    }
}
