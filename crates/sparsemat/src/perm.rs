//! Permutation vectors with both directions kept consistent.

/// A permutation of `0..n`, stored in both directions:
/// `old_of(new)` maps a position in the new (post-ordering) numbering back to
/// the original vertex, and `new_of(old)` is its inverse.
///
/// Nested dissection produces one of these; the matrix is then reordered as
/// `P A P^T` via [`crate::csr::Csr::permute_sym`].
#[derive(Clone, Debug, PartialEq)]
pub struct Perm {
    old_of_new: Vec<usize>,
    new_of_old: Vec<usize>,
}

impl Perm {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        Perm {
            old_of_new: (0..n).collect(),
            new_of_old: (0..n).collect(),
        }
    }

    /// Build from the "old order" vector: `order[k]` is the original index
    /// placed at new position `k`. Panics if `order` is not a permutation.
    pub fn from_old_order(order: Vec<usize>) -> Self {
        let n = order.len();
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in order.iter().enumerate() {
            assert!(old < n, "index {old} out of range");
            assert!(inv[old] == usize::MAX, "duplicate index {old}");
            inv[old] = new;
        }
        Perm {
            old_of_new: order,
            new_of_old: inv,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.old_of_new.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.old_of_new.is_empty()
    }

    /// Original index at new position `new`.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.old_of_new[new]
    }

    /// New position of original index `old`.
    #[inline]
    pub fn new_of(&self, old: usize) -> usize {
        self.new_of_old[old]
    }

    /// The full old-of-new vector.
    pub fn old_order(&self) -> &[usize] {
        &self.old_of_new
    }

    /// Compose: apply `self` first, then `after` (both as old→new maps).
    /// The result maps an original index to `after.new_of(self.new_of(old))`.
    pub fn then(&self, after: &Perm) -> Perm {
        assert_eq!(self.len(), after.len());
        let order: Vec<usize> = (0..self.len())
            .map(|new2| self.old_of(after.old_of(new2)))
            .collect();
        Perm::from_old_order(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_consistency() {
        let p = Perm::from_old_order(vec![3, 1, 0, 2]);
        for new in 0..4 {
            assert_eq!(p.new_of(p.old_of(new)), new);
        }
        for old in 0..4 {
            assert_eq!(p.old_of(p.new_of(old)), old);
        }
    }

    #[test]
    fn composition() {
        let p = Perm::from_old_order(vec![1, 2, 0]);
        let q = Perm::from_old_order(vec![2, 0, 1]);
        let r = p.then(&q);
        // r.old_of(k) = p.old_of(q.old_of(k))
        for k in 0..3 {
            assert_eq!(r.old_of(k), p.old_of(q.old_of(k)));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_permutation() {
        let _ = Perm::from_old_order(vec![0, 0, 1]);
    }
}
