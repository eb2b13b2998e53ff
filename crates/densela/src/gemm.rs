//! General matrix-matrix multiply: the Schur-complement workhorse.
//!
//! The sparse LU Schur update `A_ij -= L_ik * U_kj` (paper §II-E) is a plain
//! dense GEMM once supernodal blocks are stored as padded dense panels. The
//! kernel here is an axpy-form column-major GEMM with k-blocking: for each
//! column of `C` it accumulates `A(:,k) * B(k,j)` with stride-1 inner loops,
//! which the compiler auto-vectorizes.

use crate::flops;
use crate::matrix::Mat;

/// Block size over the `k` dimension; keeps the active panel of `A` in cache.
const KB: usize = 64;

/// `C = beta*C + alpha * A * B` with `A: m x k`, `B: k x n`, `C: m x n`.
///
/// Panics if dimensions are inconsistent.
pub fn gemm(alpha: f64, a: &Mat, b: &Mat, beta: f64, c: &mut Mat) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm: inner dimensions differ");
    assert_eq!(c.rows(), m, "gemm: C row count mismatch");
    assert_eq!(c.cols(), n, "gemm: C col count mismatch");
    if m == 0 || n == 0 {
        return;
    }

    if beta != 1.0 {
        for v in c.as_mut_slice() {
            *v *= beta;
        }
    }
    if k == 0 || alpha == 0.0 {
        return;
    }

    let a_buf = a.as_slice();
    let b_buf = b.as_slice();
    let mut skipped_pairs = 0u64;
    for k0 in (0..k).step_by(KB) {
        let k1 = (k0 + KB).min(k);
        for j in 0..n {
            let cj = c.col_mut(j);
            let bj = &b_buf[j * k..(j + 1) * k];
            for kk in k0..k1 {
                let scale = alpha * bj[kk];
                if scale == 0.0 {
                    skipped_pairs += 1;
                    continue;
                }
                let ak = &a_buf[kk * m..(kk + 1) * m];
                for (ci, ai) in cj.iter_mut().zip(ak) {
                    *ci += scale * *ai;
                }
            }
        }
    }
    // Charge only the multiply-adds actually performed; zero-scale columns
    // (padded supernodal panels) go to the skipped ledger instead of the
    // simulated clock.
    flops::add(2 * m as u64 * ((n * k) as u64 - skipped_pairs));
    flops::add_skipped(2 * m as u64 * skipped_pairs);
}

/// Convenience wrapper for the Schur-update form `C -= A * B`.
pub fn gemm_notrans(c: &mut Mat, a: &Mat, b: &Mat) {
    gemm(-1.0, a, b, 1.0, c);
}

/// Reference triple-loop GEMM used only by tests and property checks.
pub fn gemm_naive(alpha: f64, a: &Mat, b: &Mat, beta: f64, c: &mut Mat) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    assert_eq!(b.rows(), k);
    assert_eq!((c.rows(), c.cols()), (m, n));
    for j in 0..n {
        for i in 0..m {
            let mut s = 0.0;
            for kk in 0..k {
                s += a.at(i, kk) * b.at(kk, j);
            }
            let v = c.at(i, j);
            *c.at_mut(i, j) = beta * v + alpha * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(m: usize, n: usize, seed: u64) -> Mat {
        let mut s = seed;
        Mat::from_fn(m, n, |_, _| {
            // xorshift for deterministic pseudo-random fill
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 500.0 - 1.0
        })
    }

    #[test]
    fn matches_naive() {
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (16, 16, 16),
            (33, 9, 70),
        ] {
            let a = mk(m, k, 1);
            let b = mk(k, n, 2);
            let mut c1 = mk(m, n, 3);
            let mut c2 = c1.clone();
            gemm(1.5, &a, &b, -0.5, &mut c1);
            gemm_naive(1.5, &a, &b, -0.5, &mut c2);
            for j in 0..n {
                for i in 0..m {
                    assert!((c1.at(i, j) - c2.at(i, j)).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn zero_k_only_scales() {
        let a = Mat::zeros(3, 0);
        let b = Mat::zeros(0, 4);
        let mut c = Mat::from_fn(3, 4, |i, j| (i + j) as f64);
        gemm(2.0, &a, &b, 0.5, &mut c);
        assert_eq!(c.at(2, 3), 2.5);
    }

    #[test]
    fn counts_flops() {
        // Dense operands: every multiply-add runs, the full 2mnk is
        // charged, and nothing lands on the skipped ledger.
        flops::reset();
        flops::reset_skipped();
        let a = mk(8, 4, 5);
        let b = mk(4, 6, 6);
        let mut c = Mat::zeros(8, 6);
        gemm(1.0, &a, &b, 0.0, &mut c);
        assert_eq!(flops::reset(), flops::gemm_flops(8, 6, 4));
        assert_eq!(flops::reset_skipped(), 0);
    }

    #[test]
    fn zero_scale_work_is_skipped_not_charged() {
        // A padded (all-zero) column of B contributes no arithmetic: its
        // multiply-adds move to the skipped ledger, and charged + skipped
        // still reconstructs the nominal 2mnk. This is the contract the
        // batched Schur path relies on for honest simulated-clock charges
        // on zero-padded supernodal panels.
        let (m, n, k) = (8usize, 6usize, 4usize);
        let a = mk(m, k, 5);
        let mut b = mk(k, n, 6);
        for kk in 0..k {
            *b.at_mut(kk, 2) = 0.0; // one dead column
        }
        flops::reset();
        flops::reset_skipped();
        let mut c = Mat::zeros(m, n);
        gemm(1.0, &a, &b, 0.0, &mut c);
        let charged = flops::reset();
        let skipped = flops::reset_skipped();
        let dead = flops::gemm_flops(m, 1, k);
        assert_eq!(charged, flops::gemm_flops(m, n, k) - dead);
        assert_eq!(skipped, dead);
    }

    #[test]
    fn identity_multiplication() {
        let a = mk(6, 6, 9);
        let id = Mat::identity(6);
        let mut c = Mat::zeros(6, 6);
        gemm(1.0, &a, &id, 0.0, &mut c);
        assert_eq!(c, a);
    }
}
