//! Compressed sparse row storage and the pattern operations used by the
//! ordering and symbolic phases.

use crate::perm::Perm;

/// A sparse matrix in CSR form. Column indices within each row are kept
/// sorted and duplicate-free (guaranteed by [`crate::coo::Coo::to_csr`] and
/// preserved by every operation here).
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    pub nrows: usize,
    pub ncols: usize,
    pub row_ptr: Vec<usize>,
    pub col_idx: Vec<usize>,
    pub values: Vec<f64>,
}

impl Csr {
    /// An empty square matrix of dimension `n`.
    pub fn empty(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: vec![0; n + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_vals(&self, i: usize) -> &[f64] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Entry `(i, j)`, or `0.0` if not stored (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self.row_cols(i).binary_search(&j) {
            Ok(pos) => self.values[self.row_ptr[i] + pos],
            Err(_) => 0.0,
        }
    }

    /// `y = A * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for i in 0..self.nrows {
            let mut s = 0.0;
            for (c, v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                s += v * x[*c];
            }
            y[i] = s;
        }
        y
    }

    /// The transpose in CSR form (equivalently, this matrix in CSC).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts.clone();
        for i in 0..self.nrows {
            for (c, v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                let slot = next[*c];
                col_idx[slot] = i;
                values[slot] = *v;
                next[*c] += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr: counts,
            col_idx,
            values,
        }
    }

    /// The pattern of the transpose, `(row_ptr, col_idx)`: the values of
    /// [`Csr::transpose`] without moving any.
    fn transpose_pattern(&self) -> (Vec<usize>, Vec<usize>) {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut next = counts.clone();
        for i in 0..self.nrows {
            for &c in self.row_cols(i) {
                col_idx[next[c]] = i;
                next[c] += 1;
            }
        }
        (counts, col_idx)
    }

    /// True when the *pattern* (not values) is symmetric.
    pub fn is_pattern_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let (t_ptr, t_idx) = self.transpose_pattern();
        self.row_ptr == t_ptr && self.col_idx == t_idx
    }

    /// The pattern-symmetrized matrix `A + A^T`-structured: entries of `A`
    /// keep their value; positions only present in `A^T` get an explicit
    /// zero. This is what static-pivoting LU factors (SuperLU_DIST works on
    /// the structurally symmetrized pattern after ordering). It commutes
    /// with [`Csr::permute_sym`]: symmetrizing `P A P^T` gives `P S P^T`.
    pub fn symmetrize_pattern(&self) -> Csr {
        self.symmetrized().unwrap_or_else(|| self.clone())
    }

    /// [`Csr::symmetrize_pattern`] without the copy: `None` when the
    /// pattern is already symmetric, which makes `self` its own
    /// symmetrization.
    pub fn symmetrized(&self) -> Option<Csr> {
        assert_eq!(self.nrows, self.ncols, "square matrices only");
        let (t_ptr, t_idx) = self.transpose_pattern();
        if t_ptr == self.row_ptr && t_idx == self.col_idx {
            return None;
        }
        let n = self.nrows;
        let t_row = |i: usize| &t_idx[t_ptr[i]..t_ptr[i + 1]];
        // Size the arrays exactly: the merged length of every row first.
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        for i in 0..n {
            let (ac, tc) = (self.row_cols(i), t_row(i));
            let (mut p, mut q, mut len) = (0, 0, 0);
            while p < ac.len() && q < tc.len() {
                let (ca, ct) = (ac[p], tc[q]);
                p += usize::from(ca <= ct);
                q += usize::from(ct <= ca);
                len += 1;
            }
            row_ptr.push(row_ptr[i] + len + (ac.len() - p) + (tc.len() - q));
        }
        let nnz = row_ptr[n];
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for i in 0..n {
            let (ac, av, tc) = (self.row_cols(i), self.row_vals(i), t_row(i));
            // Merge two sorted index lists.
            let (mut p, mut q) = (0, 0);
            while p < ac.len() || q < tc.len() {
                let ca = ac.get(p).copied().unwrap_or(usize::MAX);
                let ct = tc.get(q).copied().unwrap_or(usize::MAX);
                if ct < ca {
                    col_idx.push(ct);
                    values.push(0.0);
                    q += 1;
                } else {
                    col_idx.push(ca);
                    values.push(av[p]);
                    p += 1;
                    q += usize::from(ct == ca);
                }
            }
        }
        debug_assert_eq!(col_idx.len(), nnz);
        Some(Csr {
            nrows: n,
            ncols: n,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Symmetric permutation `B = P A P^T`, where row/column `k` of `B` is
    /// row/column `perm.old_of(k)` of `A`.
    pub fn permute_sym(&self, perm: &Perm) -> Csr {
        assert_eq!(self.nrows, self.ncols);
        assert_eq!(perm.len(), self.nrows);
        let n = self.nrows;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for new_i in 0..n {
            let old_i = perm.old_of(new_i);
            scratch.clear();
            for (c, v) in self.row_cols(old_i).iter().zip(self.row_vals(old_i)) {
                scratch.push((perm.new_of(*c), *v));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            nrows: n,
            ncols: n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Infinity norm of the residual `A x - b`.
    pub fn residual_inf(&self, x: &[f64], b: &[f64]) -> f64 {
        let ax = self.matvec(x);
        ax.iter()
            .zip(b)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max)
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn small() -> Csr {
        // [ 4 -1  0 ]
        // [ 0  4 -1 ]
        // [-1  0  4 ]   (pattern-unsymmetric)
        let mut c = Coo::new(3, 3);
        for i in 0..3 {
            c.push(i, i, 4.0);
        }
        c.push(0, 1, -1.0);
        c.push(1, 2, -1.0);
        c.push(2, 0, -1.0);
        c.to_csr()
    }

    #[test]
    fn transpose_roundtrip() {
        let a = small();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(1, 0), -1.0);
    }

    #[test]
    fn pattern_symmetry_detection() {
        let a = small();
        assert!(!a.is_pattern_symmetric());
        let s = a.symmetrize_pattern();
        assert!(s.is_pattern_symmetric());
        // Symmetrization keeps A's values and adds explicit zeros.
        assert_eq!(s.get(0, 1), -1.0);
        assert_eq!(s.get(1, 0), 0.0);
        assert_eq!(s.nnz(), 9);
    }

    #[test]
    fn matvec_known() {
        let a = small();
        let y = a.matvec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![4.0 - 2.0, 8.0 - 3.0, -1.0 + 12.0]);
    }

    #[test]
    fn symmetric_permutation_preserves_entries() {
        let a = small().symmetrize_pattern();
        let perm = Perm::from_old_order(vec![2, 0, 1]);
        let b = a.permute_sym(&perm);
        for new_i in 0..3 {
            for new_j in 0..3 {
                assert_eq!(
                    b.get(new_i, new_j),
                    a.get(perm.old_of(new_i), perm.old_of(new_j))
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Against a map of entries: `A`'s entries keep their values (stored
        /// zeros included), positions only in `A^T` are explicit zeros, rows
        /// ascend; and symmetrizing commutes with a symmetric permutation,
        /// bit for bit.
        #[test]
        fn symmetrize_pattern_matches_a_map_of_entries(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..24);
            let density = [0.0, 0.05, 0.2, 0.6][rng.gen_range(0usize..4)];
            // A quarter of the patterns are symmetric already.
            let mirror = rng.gen_bool(0.25);
            let mut coo = Coo::new(n, n);
            for i in 0..n {
                for j in 0..n {
                    if rng.gen_bool(density) {
                        let v = if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(-1.0..1.0) };
                        coo.push(i, j, v);
                        if mirror && i != j {
                            coo.push(j, i, rng.gen_range(-1.0..1.0));
                        }
                    }
                }
            }
            let a = coo.to_csr();
            prop_assert_eq!(a.symmetrized().is_none(), a.is_pattern_symmetric());
            let mut want = BTreeMap::new();
            for i in 0..n {
                for (&j, &v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                    want.insert((i, j), v.to_bits());
                    want.entry((j, i)).or_insert(0.0f64.to_bits());
                }
            }
            let s = a.symmetrize_pattern();
            let got: Vec<((usize, usize), u64)> = (0..n)
                .flat_map(|i| {
                    s.row_cols(i).iter().zip(s.row_vals(i)).map(move |(&j, v)| ((i, j), v.to_bits()))
                })
                .collect();
            prop_assert_eq!(got, want.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(s.row_ptr.len(), n + 1);
            prop_assert!(s.symmetrized().is_none());

            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng);
            let perm = Perm::from_old_order(order);
            let (ps, sp) = (a.permute_sym(&perm).symmetrize_pattern(), s.permute_sym(&perm));
            prop_assert_eq!(&ps.row_ptr, &sp.row_ptr);
            prop_assert_eq!(&ps.col_idx, &sp.col_idx);
            let bits = |m: &Csr| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&ps), bits(&sp));
        }
    }

    #[test]
    fn identity_is_identity() {
        let i = Csr::identity(4);
        let x = vec![9.0, 8.0, 7.0, 6.0];
        assert_eq!(i.matvec(&x), x);
    }
}
