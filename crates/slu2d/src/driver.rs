//! Pre-processing shared by every run: order → analyze, once, on the host.
//! The 2D baseline every experiment normalizes against is `pz = 1` of
//! `lu3d::solver`, which factors and solves from a [`Prepared`].

use ordering::{order_symmetric, NdOptions, SepTree};
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
    /// Run ordering and symbolic analysis. The pattern is symmetrized
    /// once (not at all when it is symmetric already): the ordering reads
    /// it, building an adjacency graph only for [`Geometry::General`], and
    /// `pa` is its permutation — the same matrix as symmetrizing `P A P^T`.
    pub fn new(a: Csr, geometry: Geometry, leaf_size: usize, maxsup: usize) -> Prepared {
        let merged = a.symmetrized();
        let s = merged.as_ref().unwrap_or(&a);
        let tree = order_symmetric(
            s,
            NdOptions {
                leaf_size,
                geometry,
                ..Default::default()
            },
        );
        let pa = s.permute_sym(&tree.perm);
        // Free the symmetrized copy, if any, before the analysis allocates.
        drop(merged);
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
    use crate::factor2d::{factor_nodes, whole_order, FactorEnv, FactorOpts};
    use crate::store::BlockStore;
    use simgrid::topology::build_grid_comms;
    use simgrid::{Grid3d, Machine, TimeModel};
    use sparsemat::matgen::grid2d_5pt;

    /// The set-up as three passes: graph, ordering, `permute_sym` then
    /// `symmetrize_pattern`.
    fn three_pass(a: &Csr, geometry: Geometry, leaf_size: usize, maxsup: usize) -> Prepared {
        let tree = ordering::nested_dissection(
            &ordering::Graph::from_matrix(a),
            NdOptions {
                leaf_size,
                geometry,
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = Symbolic::analyze(&pa, &tree, maxsup);
        Prepared {
            a: Arc::new(a.clone()),
            pa: Arc::new(pa),
            tree: Arc::new(tree),
            sym: Arc::new(sym),
        }
    }

    /// `Prepared::new` symmetrizes once and builds no graph for a grid: its
    /// products are the three-pass ones, `pa`'s values bit for bit.
    #[test]
    fn one_pass_set_up_equals_the_three_pass_one() {
        use sparsemat::io::{read_matrix_market, write_matrix_market};
        use sparsemat::matgen::{grid2d_random_deletions, grid3d_7pt, kkt_3d};
        // Pattern-asymmetric, with stored zeros and an empty row (3).
        let mut hand = sparsemat::Coo::new(6, 6);
        for (i, j, v) in [
            (0, 0, 2.0),
            (0, 4, 0.0),
            (1, 1, 3.0),
            (1, 0, -1.0),
            (2, 5, 0.5),
            (2, 2, 0.0),
            (4, 4, 1.0),
            (4, 1, -0.0),
            (5, 5, 4.0),
        ] {
            hand.push(i, j, v);
        }
        let deletions = grid2d_random_deletions(40, 40, 0.15, 1);
        let mut file = Vec::new();
        write_matrix_market(&mut file, &deletions).unwrap();
        let cases = [
            (
                grid2d_5pt(48, 48, 0.1, 1),
                Geometry::Grid2d { nx: 48, ny: 48 },
                32,
                32,
            ),
            (
                grid3d_7pt(8, 8, 8, 0.1, 1),
                Geometry::Grid3d {
                    nx: 8,
                    ny: 8,
                    nz: 8,
                },
                32,
                32,
            ),
            (kkt_3d(4, 4, 4, 1e-2, 1), Geometry::General, 16, 24),
            (
                read_matrix_market(&file[..]).unwrap(),
                Geometry::General,
                32,
                32,
            ),
            (hand.to_csr(), Geometry::General, 2, 2),
        ];
        let bits = |m: &Csr| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (a, geometry, leaf, maxsup) in cases {
            let old = three_pass(&a, geometry, leaf, maxsup);
            let new = Prepared::new(a, geometry, leaf, maxsup);
            assert_eq!(new.pa.row_ptr, old.pa.row_ptr, "{geometry:?}");
            assert_eq!(new.pa.col_idx, old.pa.col_idx, "{geometry:?}");
            assert_eq!(bits(&new.pa), bits(&old.pa), "{geometry:?}");
            assert_eq!(new.tree.perm, old.tree.perm, "{geometry:?}");
            assert_eq!(
                format!("{:?}", new.tree.nodes),
                format!("{:?}", old.tree.nodes)
            );
            assert_eq!(format!("{:?}", new.sym), format!("{:?}", old.sym));
        }
    }

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
        let out = machine.run_tasks(async move |rank| {
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
            let (nodes, steps) = whole_order(&sym, &env);
            factor_nodes(rank, &env, &mut store, &sym, &nodes, steps)
                .await
                .expect("the factorization completes");
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
