//! End-to-end 2D driver: order → analyze → distribute → factor → solve on a
//! simulated `pr x pc` machine. This is the baseline every experiment
//! normalizes against.

use crate::factor2d::{factor_nodes, FactorEnv, FactorOpts};
use crate::solve2d::solve_nodes;
use crate::store::{BlockStore, StoreLayout};
use ordering::{nested_dissection, Graph, NdOptions, SepTree};
use simgrid::topology::build_grid_comms;
use simgrid::{Grid3d, Machine, MemClass, RankReport, TimeModel};
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

/// Result of a full 2D factor+solve run.
pub struct Run2dOutput {
    /// Solution in the original ordering (when a RHS was supplied).
    pub x: Option<Vec<f64>>,
    /// Per-rank reports (traffic, clocks, memory).
    pub reports: Vec<RankReport>,
    /// Total static-pivot perturbations.
    pub perturbations: usize,
}

/// Factor (and optionally solve) on a simulated `pr x pc` machine.
///
/// ```
/// use slu2d::driver::{run_2d, Prepared};
/// use slu2d::factor2d::FactorOpts;
/// use simgrid::TimeModel;
/// use sparsemat::testmats::Geometry;
///
/// let a = sparsemat::matgen::grid2d_5pt(10, 10, 0.1, 0);
/// let b = a.matvec(&vec![1.0; 100]);
/// let prep = Prepared::new(a, Geometry::Grid2d { nx: 10, ny: 10 }, 8, 8);
/// let out = run_2d(&prep, 2, 2, TimeModel::zero(), FactorOpts::default(), Some(b.clone()));
/// let x = out.x.unwrap();
/// assert!(prep.a.residual_inf(&x, &b) < 1e-9);
/// ```
pub fn run_2d(
    prep: &Prepared,
    pr: usize,
    pc: usize,
    model: TimeModel,
    opts: FactorOpts,
    rhs: Option<Vec<f64>>,
) -> Run2dOutput {
    let grid3 = Grid3d::new(pr, pc, 1);
    let machine = Machine::new(pr * pc, model);
    let pa = Arc::clone(&prep.pa);
    let sym = Arc::clone(&prep.sym);
    let rhs = rhs.map(|b| Arc::new(prep.permute_rhs(&b)));
    let layout = Arc::new(StoreLayout::new(&pa, &sym, &grid3.grid2d));

    let out = machine.run(move |rank| {
        let comms = build_grid_comms(rank, &grid3);
        let (my_r, my_c, _) = comms.coords;
        let env = FactorEnv {
            grid: grid3.grid2d,
            my_r,
            my_c,
            row: comms.row,
            col: comms.col,
            opts,
        };
        let mut store = BlockStore::from_layout(
            Arc::clone(&layout),
            &pa,
            &sym,
            my_r,
            my_c,
            &|_| true,
            &|_, _| true,
        );
        // Ledger-driven accounting: every block charged once at build (the
        // symbolic pattern is fully allocated up front); the high-water
        // mark falls out of the ledger, identically to the 3D path.
        store.charge_to_ledger(rank, |i, j| {
            let class = if i < j {
                MemClass::UPanel
            } else {
                MemClass::LPanel
            };
            (class, 0)
        });
        rank.set_phase("fact");
        let nodes: Vec<usize> = (0..sym.nsup()).collect();
        let mut done = vec![false; sym.nsup()];
        let outcome = factor_nodes(rank, &env, &mut store, &sym, &nodes, &mut done);

        let x_partial = rhs.as_ref().map(|b| {
            rank.set_phase("solve");
            let xp = solve_nodes(rank, &env, &store, &sym, &nodes, b);
            // Materialize the full solution on local rank 0 of the layer.
            rank.reduce_sum(&comms.layer, 0, xp, simgrid::tags::CB_LAYER_XSUM)
        });
        (outcome.perturbations, x_partial.flatten())
    });

    let perturbations = out.results.iter().map(|(p, _)| p).sum();
    let x = out
        .results
        .into_iter()
        .find_map(|(_, x)| x)
        .map(|px| prep.unpermute_solution(&px));
    Run2dOutput {
        x,
        reports: out.reports,
        perturbations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt};

    fn check_solve(a: Csr, geometry: Geometry, pr: usize, pc: usize) {
        let n = a.nrows;
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 3 % 11) as f64) - 5.0).collect();
        let b = a.matvec(&x_true);
        let prep = Prepared::new(a, geometry, 8, 8);
        let out = run_2d(
            &prep,
            pr,
            pc,
            TimeModel::zero(),
            FactorOpts::default(),
            Some(b.clone()),
        );
        let x = out.x.expect("solution");
        let r = prep.a.residual_inf(&x, &b);
        let bmax = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        assert!(
            r / bmax < 1e-8,
            "grid {pr}x{pc}: relative residual {}",
            r / bmax
        );
    }

    #[test]
    fn solves_on_1x1() {
        check_solve(
            grid2d_5pt(10, 10, 0.1, 1),
            Geometry::Grid2d { nx: 10, ny: 10 },
            1,
            1,
        );
    }

    #[test]
    fn solves_on_2x2() {
        check_solve(
            grid2d_5pt(12, 12, 0.1, 2),
            Geometry::Grid2d { nx: 12, ny: 12 },
            2,
            2,
        );
    }

    #[test]
    fn solves_on_rectangular_grids() {
        check_solve(
            grid2d_5pt(10, 10, 0.1, 3),
            Geometry::Grid2d { nx: 10, ny: 10 },
            1,
            4,
        );
        check_solve(
            grid2d_5pt(10, 10, 0.1, 4),
            Geometry::Grid2d { nx: 10, ny: 10 },
            3,
            2,
        );
    }

    #[test]
    fn solves_3d_problem_on_2x3() {
        check_solve(
            grid3d_7pt(4, 4, 4, 0.1, 5),
            Geometry::Grid3d {
                nx: 4,
                ny: 4,
                nz: 4,
            },
            2,
            3,
        );
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

    #[test]
    fn lookahead_zero_and_eight_agree() {
        let a = grid2d_5pt(10, 10, 0.1, 7);
        let b: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
        let prep = Prepared::new(a, Geometry::Grid2d { nx: 10, ny: 10 }, 8, 6);
        let o0 = run_2d(
            &prep,
            2,
            2,
            TimeModel::zero(),
            FactorOpts {
                lookahead: 0,
                ..Default::default()
            },
            Some(b.clone()),
        );
        let o8 = run_2d(
            &prep,
            2,
            2,
            TimeModel::zero(),
            FactorOpts {
                lookahead: 8,
                ..Default::default()
            },
            Some(b),
        );
        let x0 = o0.x.unwrap();
        let x8 = o8.x.unwrap();
        for (u, v) in x0.iter().zip(&x8) {
            assert!((u - v).abs() < 1e-10);
        }
    }
}
