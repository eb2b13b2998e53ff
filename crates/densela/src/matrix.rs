//! Column-major dense matrix type used by every dense kernel.

/// A column-major dense matrix of `f64`, the storage unit for supernodal
/// blocks throughout the LU stack.
///
/// Element `(i, j)` lives at linear index `i + j * rows`, matching BLAS and
/// LAPACK layout so kernel loops get stride-1 access down columns.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            *m.at_mut(i, i) = 1.0;
        }
        m
    }

    /// Build from a closure `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Wrap an existing column-major buffer. `data.len()` must equal
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Mat { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }

    /// Column `j` as a slice (stride-1 thanks to column-major layout).
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// The raw column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The raw column-major buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the raw buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reshape in place to `rows x cols` WITHOUT clearing: surviving
    /// entries keep stale values (only growth beyond the previous element
    /// count is zeroed, a `Vec::resize` artifact). For scratch panels whose
    /// every entry is overwritten before being read — skips the O(rows *
    /// cols) zero-fill on each reuse.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        let len = rows * cols;
        if self.data.len() > len {
            self.data.truncate(len);
        } else {
            self.data.resize(len, 0.0);
        }
    }

    /// A read-only view of the whole matrix.
    #[inline]
    pub fn view(&self) -> MatRef<'_> {
        MatRef {
            rows: self.rows,
            cols: self.cols,
            data: &self.data,
        }
    }

    /// Elementwise `self += other`. Dimensions must match. Used by the
    /// ancestor-reduction step to sum replicated block copies.
    pub fn add_assign(&mut self, other: MatRef<'_>) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(other.data) {
            *a += *b;
        }
    }

    /// Elementwise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Mat) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * *b;
        }
    }

    /// Copy the rectangle `src` into `self` with its top-left corner at
    /// `(r0, c0)`.
    pub fn copy_block_from(&mut self, src: &Mat, r0: usize, c0: usize) {
        assert!(r0 + src.rows <= self.rows && c0 + src.cols <= self.cols);
        for j in 0..src.cols {
            let dst_col = (c0 + j) * self.rows + r0;
            self.data[dst_col..dst_col + src.rows].copy_from_slice(src.col(j));
        }
    }

    /// Extract the `nr x nc` rectangle whose top-left corner is `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Mat {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols);
        let mut out = Mat::zeros(nr, nc);
        for j in 0..nc {
            let src = (c0 + j) * self.rows + r0;
            out.col_mut(j).copy_from_slice(&self.data[src..src + nr]);
        }
        out
    }

    /// The transpose (fresh allocation).
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                *t.at_mut(j, i) = self.at(i, j);
            }
        }
        t
    }

    /// Matrix-vector product `y = A * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.matvec_into(x, &mut y);
        y
    }

    /// [`Mat::matvec`] into the caller's vector, which is resized to the
    /// row count: the same sums in the same order, and no allocation once
    /// `y` has the capacity.
    pub fn matvec_into(&self, x: &[f64], y: &mut Vec<f64>) {
        assert_eq!(x.len(), self.cols);
        y.clear();
        y.resize(self.rows, 0.0);
        for j in 0..self.cols {
            let xj = x[j];
            if xj != 0.0 {
                for (yi, aij) in y.iter_mut().zip(self.col(j)) {
                    *yi += aij * xj;
                }
            }
        }
    }

    /// Transposed matrix-vector product `y = A^T * x`.
    pub fn tr_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows);
        let mut y = vec![0.0; self.cols];
        for (j, yj) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for (aij, xi) in self.col(j).iter().zip(x) {
                s += aij * xi;
            }
            *yj = s;
        }
        y
    }
}

/// A read-only column-major `rows x cols` matrix borrowed from someone
/// else's buffer: a [`Mat`] ([`Mat::view`]), or one block of a received
/// panel read in place. The dense kernels take their read-only operands as
/// views, so a block need not be copied into a `Mat` to be multiplied.
#[derive(Clone, Copy, Debug)]
pub struct MatRef<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl<'a> MatRef<'a> {
    /// View `data` as a column-major `rows x cols` matrix. `data.len()`
    /// must equal `rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        MatRef { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// The raw column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }
}

impl<'a> From<&'a Mat> for MatRef<'a> {
    fn from(m: &'a Mat) -> Self {
        m.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let m = Mat::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 10.0, 20.0, 1.0, 11.0, 21.0]);
        assert_eq!(m.at(2, 1), 21.0);
    }

    #[test]
    fn block_roundtrip() {
        let m = Mat::from_fn(5, 5, |i, j| (i + 10 * j) as f64);
        let b = m.block(1, 2, 3, 2);
        assert_eq!(b.at(0, 0), m.at(1, 2));
        assert_eq!(b.at(2, 1), m.at(3, 3));
        let mut z = Mat::zeros(5, 5);
        z.copy_block_from(&b, 1, 2);
        assert_eq!(z.at(3, 3), m.at(3, 3));
        assert_eq!(z.at(0, 0), 0.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_fn(4, 7, |i, j| (3 * i + j * j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_identity() {
        let m = Mat::identity(6);
        let x: Vec<f64> = (0..6).map(|v| v as f64).collect();
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn add_assign_and_axpy() {
        let a0 = Mat::from_fn(3, 3, |i, j| (i + j) as f64);
        let b = Mat::from_fn(3, 3, |i, j| (i * j) as f64);
        let mut a = a0.clone();
        a.add_assign(b.view());
        assert_eq!(a.at(2, 2), 4.0 + 4.0);
        let mut c = a0.clone();
        c.axpy(-1.0, &a0);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn a_view_reads_the_matrix_in_place() {
        let m = Mat::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        let v = m.view();
        assert_eq!((v.rows(), v.cols(), v.at(2, 1)), (3, 2, 21.0));
        assert_eq!(v.col(1), m.col(1));
        assert!(std::ptr::eq(v.as_slice(), m.as_slice()));
        let tail = MatRef::new(1, 2, &m.as_slice()[4..]);
        assert_eq!(tail.col(1), &[21.0]);
    }

    #[test]
    #[should_panic]
    fn from_vec_checks_len() {
        let _ = Mat::from_vec(2, 2, vec![1.0; 3]);
    }
}
