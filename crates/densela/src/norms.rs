//! Matrix norms used for residual checks and static-pivoting thresholds.

use crate::matrix::Mat;

/// Frobenius norm `sqrt(sum a_ij^2)`.
pub fn frobenius_norm(a: &Mat) -> f64 {
    a.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// One-norm: maximum absolute column sum.
pub fn one_norm(a: &Mat) -> f64 {
    (0..a.cols())
        .map(|j| a.col(j).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Infinity-norm: maximum absolute row sum.
pub fn inf_norm(a: &Mat) -> f64 {
    let mut rowsum = vec![0.0f64; a.rows()];
    for j in 0..a.cols() {
        for (r, v) in rowsum.iter_mut().zip(a.col(j)) {
            *r += v.abs();
        }
    }
    rowsum.into_iter().fold(0.0, f64::max)
}

/// Largest absolute entry.
pub fn max_abs(a: &Mat) -> f64 {
    a.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_of_known_matrix() {
        // [[1, -2], [3, 4]] column-major.
        let a = Mat::from_vec(2, 2, vec![1.0, 3.0, -2.0, 4.0]);
        assert!((frobenius_norm(&a) - (30.0f64).sqrt()).abs() < 1e-14);
        assert_eq!(one_norm(&a), 6.0); // max(|1|+|3|, |-2|+|4|)
        assert_eq!(inf_norm(&a), 7.0); // max(1+2, 3+4)
        assert_eq!(max_abs(&a), 4.0);
    }
}
