//! The largest absolute entry: the scale of `getrf`'s static-pivoting threshold.

use crate::matrix::Mat;

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
        assert_eq!(max_abs(&a), 4.0);
    }
}
