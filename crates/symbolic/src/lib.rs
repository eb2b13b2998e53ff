#![forbid(unsafe_code)]

//! Symbolic factorization substrate: from a nested-dissection separator tree
//! to the supernodal block structure the numerical factorization fills in.
//!
//! Pipeline (all pattern-only, no numerics):
//!
//! 1. [`supernode`]: split every separator-tree node into panels of at most
//!    `maxsup` columns — the supernodes. Large separators become panel
//!    chains, exactly how SuperLU_DIST bounds supernode width.
//! 2. [`fill`]: block-level symbolic LU. Computes, for every supernode `s`,
//!    the list of block rows `I > s` with a nonzero block `L(I, s)` (and by
//!    pattern symmetry the blocks `U(s, I)`), the rows of `I` each such
//!    block keeps ([`RowSet`]), plus the supernodal elimination tree (paper
//!    §II-D).
//! 3. [`stats`]: predicted factor storage and flop counts per supernode /
//!    per tree node — the cost function `T(v)` the paper's inter-grid load
//!    balancing heuristic minimizes (§III-C).
//!
//! # Granularity substitution (documented in DESIGN.md)
//!
//! SuperLU computes fill at vertex granularity and stores compressed row
//! subsets inside each block. This reproduction finds the blocks on the
//! *supernode quotient graph* (block granularity) and, inside each, the
//! rows as the union of its supernode's column structures: `L(I, K)` keeps
//! the rows of `I` nonzero in `K`'s columns and `U(K, I)` the same set as
//! columns, while diagonal blocks stay dense. The per-supernode cost model
//! ([`SnCost`]) still counts whole blocks, the dense-separator-block model
//! the paper's own analysis (§IV) uses.

pub mod fill;
pub mod rowset;
pub mod stats;
pub mod supernode;

pub use fill::{block_symbolic, BlockFill, LookaheadStep, PanelRosters};
pub use rowset::RowSet;
pub use stats::{FillStats, SnCost};
pub use supernode::SnPartition;

use ordering::SepTree;
use sparsemat::Csr;

/// The complete symbolic factorization: everything the distributed
/// numerical phases need to allocate and schedule.
#[derive(Clone, Debug)]
pub struct Symbolic {
    /// Supernode partition of the columns.
    pub part: SnPartition,
    /// Block fill pattern and supernodal elimination tree.
    pub fill: BlockFill,
    /// Per-supernode cost/size predictions.
    pub cost: SnCost,
}

impl Symbolic {
    /// Analyze a reordered, pattern-symmetric matrix against its separator
    /// tree. `maxsup` bounds supernode width.
    ///
    /// `a` must already be permuted by `tree.perm` and pattern-symmetric
    /// (see `Csr::symmetrize_pattern`).
    ///
    /// ```
    /// use ordering::{nested_dissection, Graph, NdOptions};
    /// use sparsemat::matgen::grid2d_5pt;
    /// use sparsemat::testmats::Geometry;
    /// use symbolic::Symbolic;
    ///
    /// let a = grid2d_5pt(12, 12, 0.0, 0);
    /// let tree = nested_dissection(
    ///     &Graph::from_matrix(&a),
    ///     NdOptions { leaf_size: 8, geometry: Geometry::Grid2d { nx: 12, ny: 12 }, ..Default::default() },
    /// );
    /// let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
    /// let sym = Symbolic::analyze(&pa, &tree, 16);
    /// // LU factors always contain at least the matrix pattern itself.
    /// assert!(sym.stats().factor_words as usize >= pa.nnz() / 2);
    /// ```
    pub fn analyze(a: &Csr, tree: &SepTree, maxsup: usize) -> Symbolic {
        assert_eq!(a.nrows, tree.n(), "matrix/tree size mismatch");
        let part = SnPartition::from_septree(tree, maxsup);
        let fill = block_symbolic(a, &part);
        let cost = SnCost::compute(&part, &fill);
        Symbolic { part, fill, cost }
    }

    /// Number of supernodes.
    pub fn nsup(&self) -> usize {
        self.part.ranges.len()
    }

    /// Overall fill statistics.
    pub fn stats(&self) -> FillStats {
        FillStats::from_cost(&self.cost)
    }

    /// The stored shape of block `(i, j)` of the pattern: `width(i)²` on
    /// the diagonal, `|kept| x width(j)` for `L(i, j)` and `width(i) x
    /// |kept|` for `U(i, j)`, where `kept` is [`BlockFill::kept_rows`] of the
    /// lower endpoint in the higher one's column. Panics on a block outside
    /// the pattern.
    pub fn block_shape(&self, i: usize, j: usize) -> (usize, usize) {
        let kept = |hi: usize, lo: usize| {
            self.fill
                .kept_rows(hi, lo)
                .unwrap_or_else(|| panic!("block ({i},{j}) is not in the pattern"))
                .len()
        };
        match i.cmp(&j) {
            std::cmp::Ordering::Equal => (self.part.width(i), self.part.width(i)),
            std::cmp::Ordering::Greater => (kept(i, j), self.part.width(j)),
            std::cmp::Ordering::Less => (self.part.width(i), kept(j, i)),
        }
    }

    /// Where entry `(r, c)` of block `(i, j)` — offsets into the dense
    /// `width(i) x width(j)` block — sits in the stored block, or `None`
    /// when the block drops its row (`L`) or column (`U`). Panics on a
    /// block outside the pattern.
    pub fn stored_at(&self, i: usize, j: usize, r: usize, c: usize) -> Option<(usize, usize)> {
        let kept = |hi: usize, lo: usize| {
            self.fill
                .kept_rows(hi, lo)
                .unwrap_or_else(|| panic!("block ({i},{j}) is not in the pattern"))
        };
        match i.cmp(&j) {
            std::cmp::Ordering::Equal => Some((r, c)),
            std::cmp::Ordering::Greater => Some((kept(i, j).position(r)?, c)),
            std::cmp::Ordering::Less => Some((r, kept(j, i).position(c)?)),
        }
    }

    /// Words of factor storage the blocks hold, over the whole pattern:
    /// dense diagonals plus the kept rows of every `L` block and the kept
    /// columns of every `U` block.
    pub fn stored_words(&self) -> u64 {
        (0..self.nsup())
            .map(|k| {
                let w = self.part.width(k) as u64;
                let kept: u64 = (0..self.fill.struct_of[k].len())
                    .map(|p| self.fill.kept(k, p).len() as u64)
                    .sum();
                w * w + 2 * w * kept
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ordering::{nested_dissection, Graph, NdOptions};
    use sparsemat::matgen::grid2d_5pt;
    use sparsemat::testmats::Geometry;

    #[test]
    fn analyze_end_to_end() {
        let k = 12;
        let a = grid2d_5pt(k, k, 0.1, 0);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry: Geometry::Grid2d { nx: k, ny: k },
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = Symbolic::analyze(&pa, &tree, 16);
        assert!(sym.nsup() > 4);
        let st = sym.stats();
        // LU factors must be at least as large as the matrix lower triangle.
        assert!(st.factor_words as usize >= a.nnz() / 2);
        assert!(st.total_flops > 0);
    }
}
