//! Triplet (coordinate) format: the builder format for generators and I/O.

use crate::csr::Csr;
use std::collections::TryReserveError;

/// A sparse matrix in coordinate (triplet) form. Duplicate entries are
/// allowed and are summed on conversion to [`Csr`].
#[derive(Clone, Debug, Default)]
pub struct Coo {
    pub nrows: usize,
    pub ncols: usize,
    pub rows: Vec<usize>,
    pub cols: Vec<usize>,
    pub vals: Vec<f64>,
}

impl Coo {
    /// An empty `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Reserve space for `n` additional entries.
    pub fn reserve(&mut self, n: usize) {
        self.rows.reserve(n);
        self.cols.reserve(n);
        self.vals.reserve(n);
    }

    /// Append one entry. Panics on out-of-range indices.
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.nrows && j < self.ncols,
            "entry ({i},{j}) out of range"
        );
        self.rows.push(i);
        self.cols.push(j);
        self.vals.push(v);
    }

    /// Number of stored entries (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Convert to CSR, summing duplicates and dropping explicit zeros that
    /// result from cancellation is *not* done (explicit zeros are kept so
    /// patterns remain predictable for symbolic analysis).
    pub fn to_csr(&self) -> Csr {
        self.try_to_csr()
            .unwrap_or_else(|e| panic!("{} x {} matrix: {e}", self.nrows, self.ncols))
    }

    /// [`Coo::to_csr`] for dimensions that come from outside the program:
    /// the arrays sized by `nrows` (which no stored entry backs) are
    /// allocated fallibly, so an absurd row count is an error, not an abort.
    pub fn try_to_csr(&self) -> Result<Csr, TryReserveError> {
        let nnz = self.nnz();
        let nptr = self.nrows.saturating_add(1);
        let zeros = |len: usize| -> Result<Vec<usize>, TryReserveError> {
            let mut v = Vec::new();
            v.try_reserve_exact(len)?;
            v.resize(len, 0);
            Ok(v)
        };
        // Counting sort by row.
        let mut row_counts = zeros(nptr)?;
        for &r in &self.rows {
            row_counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        // Entries pushed row by row (the stencil generators, a general
        // Matrix Market file as `write_matrix_market` writes it) are already
        // in counting-sort order: skip the scatter.
        let sorted = self.rows.is_sorted();
        let mut order: Vec<usize> = Vec::new();
        if !sorted {
            order.resize(nnz, 0);
            let mut next = zeros(nptr)?;
            next.copy_from_slice(&row_counts);
            for (k, &r) in self.rows.iter().enumerate() {
                order[next[r]] = k;
                next[r] += 1;
            }
        }
        // Within each row, sort by column and merge duplicates.
        let mut row_ptr = Vec::new();
        row_ptr.try_reserve_exact(nptr)?;
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        let entry = |k: usize| (self.cols[k], self.vals[k]);
        for r in 0..self.nrows {
            scratch.clear();
            let span = row_counts[r]..row_counts[r + 1];
            if sorted {
                scratch.extend(span.map(entry));
            } else {
                scratch.extend(order[span].iter().map(|&k| entry(k)));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut it = scratch.iter().peekable();
            while let Some(&(c, v)) = it.next() {
                let mut sum = v;
                while let Some(&&(c2, v2)) = it.peek() {
                    if c2 == c {
                        sum += v2;
                        it.next();
                    } else {
                        break;
                    }
                }
                col_idx.push(c);
                values.push(sum);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut c = Coo::new(2, 2);
        c.push(0, 1, 2.0);
        c.push(0, 1, 3.0);
        c.push(1, 0, -1.0);
        let m = c.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 0), -1.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn rows_sorted_by_column() {
        let mut c = Coo::new(1, 5);
        for &j in &[4usize, 0, 2, 3, 1] {
            c.push(0, j, j as f64);
        }
        let m = c.to_csr();
        assert_eq!(m.col_idx, vec![0, 1, 2, 3, 4]);
    }

    /// The scatter-free path for rows that arrive in order gives what the
    /// counting sort gives the same entries in any row order, duplicates
    /// summed in the order they were pushed.
    #[test]
    fn rows_in_order_skip_the_scatter_to_the_same_bits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..64 {
            let n = rng.gen_range(1usize..12);
            let mut shuffled = Coo::new(n, n);
            for _ in 0..rng.gen_range(0usize..4 * n) {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                shuffled.push(i, j, rng.gen_range(-1.0..1.0));
            }
            let mut ordered = Coo::new(n, n);
            for r in 0..n {
                for k in (0..shuffled.nnz()).filter(|&k| shuffled.rows[k] == r) {
                    ordered.push(r, shuffled.cols[k], shuffled.vals[k]);
                }
            }
            let (a, b) = (shuffled.to_csr(), ordered.to_csr());
            assert_eq!((&a.row_ptr, &a.col_idx), (&b.row_ptr, &b.col_idx));
            let bits = |m: &Csr| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b));
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_rejected() {
        let mut c = Coo::new(2, 2);
        c.push(2, 0, 1.0);
    }
}
