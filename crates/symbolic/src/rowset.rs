//! The rows an off-diagonal block keeps.
//!
//! Block `L(I, K)` stores only the rows of supernode `I` that are
//! structurally nonzero in `K`'s columns, and `U(K, I)` the same set as
//! columns (the pattern is symmetric) — SuperLU_DIST's compressed supernodal
//! storage. A [`RowSet`] names those rows as a bitset over `0..width(I)`.

/// A set of rows of one supernode, ascending: a bitset of whole `u64` words
/// borrowed from [`crate::BlockFill`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowSet<'a> {
    bits: &'a [u64],
}

impl<'a> RowSet<'a> {
    /// The set whose row `r` is bit `r % 64` of word `r / 64`.
    pub fn new(bits: &'a [u64]) -> RowSet<'a> {
        RowSet { bits }
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the set holds no row.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Whether row `r` is in the set.
    pub fn contains(&self, r: usize) -> bool {
        self.bits
            .get(r / 64)
            .is_some_and(|w| w >> (r % 64) & 1 == 1)
    }

    /// Where row `r` sits among the set's rows (its rank), or `None` when
    /// the set does not hold it.
    pub fn position(&self, r: usize) -> Option<usize> {
        if !self.contains(r) {
            return None;
        }
        let (at, bit) = (r / 64, r % 64);
        let below: usize = self.bits[..at]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        Some(below + (self.bits[at] & ((1u64 << bit) - 1)).count_ones() as usize)
    }

    /// The rows, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        self.bits.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    64 * at + bit
                })
            })
        })
    }

    /// Append the rows, ascending, to `out`.
    pub fn extend_rows(&self, out: &mut Vec<u32>) {
        out.extend(self.iter().map(|r| r as u32));
    }

    /// Append to `out`, ascending, where each of this set's rows sits among
    /// the rows of `within` (its rank there). False, with `out` partly
    /// extended, when a row of this set is not in `within`.
    pub fn extend_positions_in(&self, within: RowSet<'_>, out: &mut Vec<u32>) -> bool {
        let mut base = 0u32;
        for (at, &word) in self.bits.iter().enumerate() {
            let outer = within.bits.get(at).copied().unwrap_or(0);
            if word & !outer != 0 {
                return false;
            }
            let mut rest = word;
            while rest != 0 {
                let below = (rest & rest.wrapping_neg()) - 1;
                out.push(base + (outer & below).count_ones());
                rest &= rest - 1;
            }
            base += outer.count_ones();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_positions() {
        let outer = [0b1011_0110u64, 1 << 3];
        let inner = [0b0011_0100u64, 1 << 3];
        let (outer, inner) = (RowSet::new(&outer), RowSet::new(&inner));
        assert_eq!(outer.iter().collect::<Vec<_>>(), [1, 2, 4, 5, 7, 67]);
        assert_eq!((outer.len(), inner.len()), (6, 4));
        assert!(inner.contains(67) && !inner.contains(1) && !inner.contains(500));
        assert_eq!(
            (outer.position(7), outer.position(67), outer.position(3)),
            (Some(4), Some(5), None)
        );
        let mut rows = Vec::new();
        inner.extend_rows(&mut rows);
        assert_eq!(rows, [2, 4, 5, 67]);
        let mut at = Vec::new();
        assert!(inner.extend_positions_in(outer, &mut at));
        assert_eq!(at, [1, 2, 3, 5]);
        assert!(!outer.extend_positions_in(inner, &mut Vec::new()));
        assert!(RowSet::new(&[0, 0]).is_empty());
    }
}
