//! Pre-processing shared by every run: order → analyze, once, on the host.
//! The 2D baseline every experiment normalizes against is `pz = 1` of
//! `lu3d::solver`, which factors and solves from a [`Prepared`].

use ordering::{nested_dissection, Graph, NdOptions, SepTree};
use sparsemat::testmats::Geometry;
use sparsemat::Csr;
use std::sync::Arc;
use symbolic::Symbolic;

/// The shared, immutable pre-processing product: reordered matrix plus
/// symbolic analysis. Computed once on the host and shared read-only by all
/// simulated ranks (in a real run every rank computes or receives this
/// identically).
#[derive(Clone)]
pub struct Prepared {
    /// Original matrix.
    pub a: Arc<Csr>,
    /// Reordered, pattern-symmetrized matrix (`P A P^T`).
    pub pa: Arc<Csr>,
    /// Separator tree with the permutation.
    pub tree: Arc<SepTree>,
    /// Symbolic factorization.
    pub sym: Arc<Symbolic>,
}

impl Prepared {
    /// Run ordering and symbolic analysis.
    pub fn new(a: Csr, geometry: Geometry, leaf_size: usize, maxsup: usize) -> Prepared {
        Self::with_amalgamation(a, geometry, leaf_size, maxsup, None)
    }

    /// Like [`Prepared::new`], with optional relaxed-supernode amalgamation:
    /// subtrees of at most `amalgamate` columns collapse into single leaf
    /// supernodes before the symbolic phase (see
    /// `ordering::SepTree::amalgamate`).
    pub fn with_amalgamation(
        a: Csr,
        geometry: Geometry,
        leaf_size: usize,
        maxsup: usize,
        amalgamate: Option<usize>,
    ) -> Prepared {
        let g = Graph::from_matrix(&a);
        let mut tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size,
                geometry,
                ..Default::default()
            },
        );
        if let Some(bound) = amalgamate {
            tree = tree.amalgamate(bound);
        }
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = Symbolic::analyze(&pa, &tree, maxsup);
        Prepared {
            a: Arc::new(a),
            pa: Arc::new(pa),
            tree: Arc::new(tree),
            sym: Arc::new(sym),
        }
    }

    /// Permute a right-hand side from original to elimination ordering.
    pub fn permute_rhs(&self, b: &[f64]) -> Vec<f64> {
        (0..b.len())
            .map(|new| b[self.tree.perm.old_of(new)])
            .collect()
    }

    /// Bring a solution from elimination back to original ordering.
    pub fn unpermute_solution(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        for new in 0..x.len() {
            out[self.tree.perm.old_of(new)] = x[new];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor2d::{factor_nodes, FactorEnv, FactorOpts};
    use crate::store::BlockStore;
    use simgrid::topology::build_grid_comms;
    use simgrid::{Grid3d, Machine, TimeModel};
    use sparsemat::matgen::grid2d_5pt;

    #[test]
    fn distributed_matches_sequential_factors() {
        // The 2x2 distributed factorization must produce the same factors
        // as the sequential reference (same operations, same order, no
        // reductions -> tiny rounding differences only).
        use crate::seq::seq_factor;
        use crate::store::InitValues;
        let a = grid2d_5pt(8, 8, 0.1, 6);
        let prep = Prepared::new(a, Geometry::Grid2d { nx: 8, ny: 8 }, 6, 4);
        // Sequential factors.
        let g1 = simgrid::Grid2d::new(1, 1);
        let mut seq_store = BlockStore::build(
            &prep.pa,
            &prep.sym,
            &g1,
            0,
            0,
            &|_| true,
            InitValues::FromMatrix,
        );
        seq_factor(&mut seq_store, &prep.sym, 1e-10);

        // Distributed factors, gathered by re-running per rank and pulling
        // out each store (results channel carries the stores).
        let grid3 = Grid3d::new(2, 2, 1);
        let machine = Machine::new(4, TimeModel::zero());
        let pa = Arc::clone(&prep.pa);
        let sym = Arc::clone(&prep.sym);
        let out = machine.run(move |rank| {
            let comms = build_grid_comms(rank, &grid3);
            let (my_r, my_c, _) = comms.coords;
            let env = FactorEnv {
                grid: grid3.grid2d,
                my_r,
                my_c,
                row: comms.row,
                col: comms.col,
                opts: FactorOpts::default(),
            };
            let mut store = BlockStore::build(
                &pa,
                &sym,
                &grid3.grid2d,
                my_r,
                my_c,
                &|_| true,
                InitValues::FromMatrix,
            );
            let nodes: Vec<usize> = (0..sym.nsup()).collect();
            let mut done = vec![false; sym.nsup()];
            factor_nodes(rank, &env, &mut store, &sym, &nodes, &mut done);
            store
        });
        let g2 = simgrid::Grid2d::new(2, 2);
        for (i, j) in seq_store.keys() {
            let (r, c) = g2.owner(i, j);
            let dist_store = &out.results[g2.rank_of(r, c)];
            let d = dist_store.get(i, j).expect("block on owner");
            let s = seq_store.get(i, j).unwrap();
            for col in 0..s.cols() {
                for row in 0..s.rows() {
                    let diff = (d.at(row, col) - s.at(row, col)).abs();
                    assert!(
                        diff < 1e-9 * (1.0 + s.at(row, col).abs()),
                        "block ({i},{j}) entry ({row},{col}) differs by {diff}"
                    );
                }
            }
        }
    }
}
