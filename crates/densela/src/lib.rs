// Indexing loops are the clearer idiom in numeric kernel code.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]

//! Dense linear-algebra substrate: the BLAS/LAPACK proxy used by the sparse
//! LU factorization stack.
//!
//! The paper's implementation calls MKL for the dense kernels inside each
//! supernodal block operation (GEMM for Schur-complement updates, TRSM for
//! panel solves, GETRF for diagonal-block factorization). This crate provides
//! those kernels in pure Rust with identical semantics plus per-thread flop
//! accounting, which the simulated machine uses to charge compute time to
//! each rank.
//!
//! Conventions
//! - All matrices are **column-major** ([`Mat`]), matching BLAS.
//! - LU factorization uses **static pivoting**: tiny diagonal entries are
//!   perturbed instead of row-swapped, exactly the SuperLU_DIST policy the
//!   paper assumes (§II-E "static pivoting").
//! - Every kernel adds its flop count to a thread-local counter (see
//!   [`flops`]), so a simulated rank can meter its own arithmetic.

pub mod flops;
pub mod gemm;
pub mod getrf;
pub mod matrix;
pub mod microkernel;
pub mod norms;
pub mod trsm;

pub use gemm::{gemm, gemm_notrans, gemm_scatter};
pub use getrf::{getrf, lu_solve_inplace, GetrfInfo, PivotPolicy};
pub use matrix::{Mat, MatRef};
pub use microkernel::{gemm_blocked, gemm_blocked_tiled, BlockMap};
pub use norms::{frobenius_norm, inf_norm, max_abs, one_norm};
pub use trsm::{
    backward_subst, backward_subst_ltrans_unit, forward_subst_unit, forward_subst_utrans,
    trsm_left_lower_unit, trsm_left_lower_unit_rows, trsm_right_upper,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: factor a random-ish matrix and verify A ≈ L·U.
    #[test]
    fn getrf_then_reconstruct() {
        let n = 24;
        let mut a = Mat::zeros(n, n);
        // Deterministic diagonally dominant matrix.
        for j in 0..n {
            for i in 0..n {
                let v = ((i * 7 + j * 13) % 11) as f64 / 11.0 - 0.4;
                *a.at_mut(i, j) = v;
            }
            *a.at_mut(j, j) += n as f64;
        }
        let orig = a.clone();
        let info = getrf(&mut a, PivotPolicy::Static { threshold: 1e-12 });
        assert_eq!(info.perturbations, 0);

        // Reconstruct L * U.
        let mut recon = Mat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                let mut s = 0.0;
                let kmax = i.min(j);
                for k in 0..kmax {
                    s += a.at(i, k) * a.at(k, j);
                }
                // diagonal of L is implicit 1
                s += if i <= j {
                    a.at(i, j) // U contribution when k == i
                } else {
                    a.at(i, j) * a.at(j, j) // L(i,j) * U(j,j) when k == j
                };
                *recon.at_mut(i, j) = s;
            }
        }
        for j in 0..n {
            for i in 0..n {
                assert!(
                    (recon.at(i, j) - orig.at(i, j)).abs() < 1e-9 * n as f64,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }
}
