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
//!    pattern symmetry the blocks `U(s, I)`), plus the supernodal
//!    elimination tree (paper §II-D).
//! 3. [`stats`]: predicted factor storage and flop counts per supernode /
//!    per tree node — the cost function `T(v)` the paper's inter-grid load
//!    balancing heuristic minimizes (§III-C).
//!
//! # Granularity substitution (documented in DESIGN.md)
//!
//! SuperLU computes fill at vertex granularity and stores compressed row
//! subsets inside each block. This reproduction computes fill on the
//! *supernode quotient graph* (block granularity) and stores blocks as
//! padded dense panels. Block-level symbolic factorization is self-
//! consistent (the fill path theorem holds on the quotient graph), slightly
//! overestimates fill exactly like supernode amalgamation does, and matches
//! the dense-separator-block model the paper's own analysis (§IV) uses.

pub mod fill;
pub mod stats;
pub mod supernode;

pub use fill::{block_symbolic, BlockFill, LookaheadStep};
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
