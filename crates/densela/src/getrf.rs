//! In-place LU factorization of a dense block with static pivoting.
//!
//! SuperLU_DIST — and therefore this reproduction — does **not** pivot rows
//! during the numerical factorization (§II-E: "right-looking scheme and
//! static pivoting"). Instead, near-zero diagonal entries are perturbed to a
//! small threshold, and accuracy is recovered afterwards by iterative
//! refinement. [`getrf`] implements exactly that: a blocked right-looking
//! in-place LU whose only pivoting action is the diagonal perturbation.

use crate::flops;
use crate::gemm::gemm;
use crate::matrix::Mat;
use crate::norms::max_abs;
use crate::trsm::trsm_left_lower_unit;

/// Panel width for the blocked factorization.
const NB: usize = 32;

/// How [`getrf`] treats tiny diagonal pivots.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PivotPolicy {
    /// SuperLU_DIST-style static pivoting: a pivot with
    /// `|a_kk| < threshold * ||A||_max` is replaced by
    /// `sign(a_kk) * threshold * ||A||_max` (or `+threshold*||A||_max` when
    /// exactly zero). Factorization never fails.
    Static { threshold: f64 },
    /// Fail (return the pivot index) on an exactly-zero pivot; useful in
    /// tests that want to observe singularity.
    FailOnZero,
}

/// Outcome of an in-place LU factorization.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GetrfInfo {
    /// Number of diagonal entries that were perturbed (static pivoting).
    pub perturbations: usize,
    /// Index of the first exactly-zero pivot under [`PivotPolicy::FailOnZero`],
    /// if any. The factor content is undefined past this column.
    pub zero_pivot: Option<usize>,
}

/// Factor the square matrix `a` in place as `A = L * U` (unit lower `L`,
/// upper `U` sharing the buffer). Returns perturbation statistics.
pub fn getrf(a: &mut Mat, policy: PivotPolicy) -> GetrfInfo {
    let n = a.rows();
    assert_eq!(a.cols(), n, "getrf expects a square block");
    let mut info = GetrfInfo::default();
    if n == 0 {
        return info;
    }
    // The perturbation scale follows SuperLU_DIST: relative to the block's
    // largest entry (a proxy for ||A||).
    let anorm = max_abs(a).max(1.0);

    let mut k0 = 0;
    while k0 < n {
        let nb = NB.min(n - k0);
        // 1. Unblocked LU of the current panel columns k0..k0+nb over rows
        //    k0..n (rectangular panel, right-looking within the panel).
        if !factor_panel(a, k0, nb, anorm, policy, &mut info) {
            return info;
        }
        flops::add(flops::getrf_flops(n - k0, nb));

        let rest = k0 + nb;
        if rest < n {
            // 2. U block row: solve L11 * U12 = A12.
            let l11 = a.block(k0, k0, nb, nb);
            let mut a12 = a.block(k0, rest, nb, n - rest);
            trsm_left_lower_unit(&l11, &mut a12);
            a.copy_block_from(&a12, k0, rest);
            // 3. Trailing update: A22 -= L21 * U12.
            let l21 = a.block(rest, k0, n - rest, nb);
            let mut a22 = a.block(rest, rest, n - rest, n - rest);
            gemm(-1.0, &l21, &a12, 1.0, &mut a22);
            a.copy_block_from(&a22, rest, rest);
        }
        k0 += nb;
    }
    info
}

/// Unblocked LU of panel columns `k0..k0 + nb` of the square `a` over rows
/// `k0..n`, on column slices. Returns `false` at a zero pivot under
/// [`PivotPolicy::FailOnZero`], which `info` records.
fn factor_panel(
    a: &mut Mat,
    k0: usize,
    nb: usize,
    anorm: f64,
    policy: PivotPolicy,
    info: &mut GetrfInfo,
) -> bool {
    let n = a.rows();
    for k in k0..k0 + nb {
        // Column k, and the panel's columns right of it.
        let (left, right) = a.as_mut_slice().split_at_mut((k + 1) * n);
        let col_k = &mut left[k * n..];
        let mut pivot = col_k[k];
        match policy {
            PivotPolicy::Static { threshold } => {
                let floor = threshold * anorm;
                if pivot.abs() < floor {
                    pivot = if pivot >= 0.0 { floor } else { -floor };
                    col_k[k] = pivot;
                    info.perturbations += 1;
                }
            }
            PivotPolicy::FailOnZero => {
                if pivot == 0.0 {
                    info.zero_pivot.get_or_insert(k);
                    return false;
                }
            }
        }
        let inv = 1.0 / pivot;
        let l = &mut col_k[k + 1..];
        for lik in l.iter_mut() {
            *lik *= inv;
        }
        // Update the rest of the panel (columns k+1 .. k0+nb).
        for col_j in right.chunks_exact_mut(n).take(k0 + nb - k - 1) {
            let ukj = col_j[k];
            if ukj == 0.0 {
                continue;
            }
            for (aij, &lik) in col_j[k + 1..].iter_mut().zip(&*l) {
                *aij -= lik * ukj;
            }
        }
    }
    true
}

/// Solve `A x = b` for a single right-hand side given the in-place LU factor
/// produced by [`getrf`]. `b` is overwritten by the solution.
pub fn lu_solve_inplace(lu: &Mat, b: &mut [f64]) {
    crate::trsm::forward_subst_unit(lu, b);
    crate::trsm::backward_subst(lu, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The panel loop [`factor_panel`] replaced, indexing every element
    /// through `at`/`at_mut`: its oracle.
    fn factor_panel_indexed(
        a: &mut Mat,
        k0: usize,
        nb: usize,
        anorm: f64,
        policy: PivotPolicy,
        info: &mut GetrfInfo,
    ) -> bool {
        let n = a.rows();
        for k in k0..k0 + nb {
            let mut pivot = a.at(k, k);
            match policy {
                PivotPolicy::Static { threshold } => {
                    let floor = threshold * anorm;
                    if pivot.abs() < floor {
                        pivot = if pivot >= 0.0 { floor } else { -floor };
                        *a.at_mut(k, k) = pivot;
                        info.perturbations += 1;
                    }
                }
                PivotPolicy::FailOnZero => {
                    if pivot == 0.0 {
                        info.zero_pivot.get_or_insert(k);
                        return false;
                    }
                }
            }
            let inv = 1.0 / pivot;
            for i in k + 1..n {
                *a.at_mut(i, k) *= inv;
            }
            for j in k + 1..k0 + nb {
                let ukj = a.at(k, j);
                if ukj == 0.0 {
                    continue;
                }
                for i in k + 1..n {
                    let lik = a.at(i, k);
                    *a.at_mut(i, j) -= lik * ukj;
                }
            }
        }
        true
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 20_000, ..ProptestConfig::default() })]

        /// The slice loop is the indexed loop, bit for bit, on random panels
        /// of random blocks: signed zeros, whole zero rows of U (the skip),
        /// tiny and zero pivots under both policies.
        #[test]
        fn panel_on_slices_equals_the_indexed_panel(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..41);
            let k0 = rng.gen_range(0..n);
            let nb = rng.gen_range(1..NB.min(n - k0) + 1);
            let a = Mat::from_fn(n, n, |_, _| match rng.gen_range(0usize..8) {
                0 => 0.0,
                1 => -0.0,
                2 => rng.gen_range(-1e-14..1e-14),
                _ => rng.gen_range(-2.0..2.0),
            });
            let mut a = a;
            if rng.gen_bool(0.3) {
                let row = rng.gen_range(k0..n);
                for j in 0..n {
                    *a.at_mut(row, j) = 0.0;
                }
            }
            let policy = if rng.gen_bool(0.5) {
                PivotPolicy::Static { threshold: [1e-12, 1e-3, 0.5][rng.gen_range(0usize..3)] }
            } else {
                PivotPolicy::FailOnZero
            };
            let anorm = max_abs(&a).max(1.0);
            let (mut slices, mut indexed) = (a.clone(), a);
            let (mut info_s, mut info_i) = (GetrfInfo::default(), GetrfInfo::default());
            let done_s = factor_panel(&mut slices, k0, nb, anorm, policy, &mut info_s);
            let done_i = factor_panel_indexed(&mut indexed, k0, nb, anorm, policy, &mut info_i);
            prop_assert_eq!(done_s, done_i);
            prop_assert_eq!(info_s, info_i);
            let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&slices), bits(&indexed));
        }
    }

    fn test_matrix(n: usize) -> Mat {
        let mut a = Mat::from_fn(n, n, |i, j| {
            let v = ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5;
            v * 0.8
        });
        for i in 0..n {
            *a.at_mut(i, i) += n as f64 * 0.5;
        }
        a
    }

    #[test]
    fn solves_linear_system() {
        for &n in &[1usize, 2, 7, 31, 32, 33, 100] {
            let a = test_matrix(n);
            let x_true: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
            let mut b = a.matvec(&x_true);
            let mut lu = a.clone();
            let info = getrf(&mut lu, PivotPolicy::Static { threshold: 1e-12 });
            assert_eq!(info.perturbations, 0, "n={n}");
            lu_solve_inplace(&lu, &mut b);
            for i in 0..n {
                assert!((b[i] - x_true[i]).abs() < 1e-8, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn static_pivoting_perturbs_singular_diagonal() {
        // A matrix with an exactly zero pivot in position 0.
        let mut a = Mat::from_fn(3, 3, |i, j| {
            if i == 0 && j == 0 {
                0.0
            } else {
                (i + j + 1) as f64
            }
        });
        let info = getrf(&mut a, PivotPolicy::Static { threshold: 1e-8 });
        assert!(info.perturbations >= 1);
        assert!(a.at(0, 0) != 0.0);
    }

    #[test]
    fn fail_on_zero_reports_column() {
        let mut a = Mat::zeros(4, 4);
        let info = getrf(&mut a, PivotPolicy::FailOnZero);
        assert_eq!(info.zero_pivot, Some(0));
    }

    #[test]
    fn blocked_matches_unblocked_result() {
        // n > NB exercises the blocked path; compare against solving.
        let n = 80;
        let a = test_matrix(n);
        let mut lu = a.clone();
        getrf(&mut lu, PivotPolicy::Static { threshold: 1e-12 });
        // Verify PA=LU reconstruction on a few entries via matvec residual.
        let x: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 * 0.1).collect();
        let b = a.matvec(&x);
        let mut y = b.clone();
        lu_solve_inplace(&lu, &mut y);
        let r: f64 = y.iter().zip(&x).map(|(u, v)| (u - v).abs()).sum();
        assert!(r < 1e-7 * n as f64);
    }
}
