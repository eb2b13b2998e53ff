//! Distributed 3D triangular solve: forward/backward substitution that
//! follows the factorization's data placement instead of gathering factors
//! to one grid.
//!
//! The structure mirrors Algorithm 1:
//!
//! - **Forward** (leaves → root): each active grid forward-substitutes its
//!   forest level with the 2D fan-in kernel, accumulating `L(I,j) y_j`
//!   contributions into its replicated *ancestor accumulator* segments;
//!   after each level, pairs of grids sum those segments along the z-axis
//!   (the vector analogue of the ancestor reduction).
//! - **Backward** (root → leaves): the surviving grid back-substitutes the
//!   top levels; as the recursion descends, each newly activated grid first
//!   receives the ancestor solution segments from its pair partner over the
//!   z-axis and applies its own `U(j,k) x_k` cross terms, then solves its
//!   level.
//!
//! Every supernode is solved exactly once — on the grid that factored it —
//! so summing the per-rank outputs over the whole machine yields the
//! solution. SuperLU_DIST gained an analogous 3D solve after the paper.
//! The 2D solve is its `pz = 1` case, which `tests/proptest_stack.rs` holds
//! every deeper grid's solution against.
//!
//! Each forest part is swept by dependency waves (`slu2d::solve2d`); the
//! batches of every part are a [`SolvePlan`], derived once per machine.

use crate::forest::EtreeForest;
use simgrid::topology::GridComms;
use simgrid::{FailKind, Grid2d, Grid3d, Payload, Rank};
use slu2d::factor2d::{FactorEnv, FactorOpts};
use slu2d::solve2d::{
    apply_ancestor_x, backward_nodes, forward_nodes, DistSolveState, SolveLayout, SweepPlan,
};
use slu2d::store::BlockStore;
use symbolic::Symbolic;

use simgrid::tags::{T_ACC_RED, T_X_DOWN};

/// Everything about a 3D solve that does not depend on the rank or the
/// right-hand side: the batched sweeps of every forest part and the blocks
/// each process row applies. Shared by all ranks and all solves of a run.
#[derive(Debug)]
pub struct SolvePlan {
    layout: SolveLayout,
    /// `parts[lvl][q]` sweeps forest part `(lvl, q)`.
    parts: Vec<Vec<SweepPlan>>,
}

impl SolvePlan {
    pub fn new(sym: &Symbolic, forest: &EtreeForest, grid: &Grid2d) -> SolvePlan {
        let parts = (0..=forest.l)
            .map(|lvl| {
                (0..1usize << lvl)
                    .map(|q| SweepPlan::new(sym, grid, forest.supernodes_of(lvl, q, &sym.part)))
                    .collect()
            })
            .collect();
        SolvePlan {
            layout: SolveLayout::new(&sym.fill, grid),
            parts,
        }
    }

    /// `log2 Pz` of the forest the plan was made for.
    fn l(&self) -> usize {
        self.parts.len() - 1
    }

    /// The sweep of forest part `(lvl, q)`.
    pub fn part(&self, lvl: usize, q: usize) -> &SweepPlan {
        &self.parts[lvl][q]
    }

    /// The sweep grid `z` runs at forest level `lvl`, if it is active there.
    pub fn part_of_grid(&self, lvl: usize, z: usize) -> Option<&SweepPlan> {
        let shift = self.l() - lvl;
        z.is_multiple_of(1 << shift)
            .then(|| &self.parts[lvl][z >> shift])
    }

    /// Waves per forest level: the most of any part of the level, whose
    /// grids sweep side by side.
    pub fn waves_per_level(&self) -> Vec<usize> {
        let most = |parts: &Vec<SweepPlan>| parts.iter().map(|p| p.waves().len()).max();
        self.parts.iter().map(|p| most(p).unwrap_or(0)).collect()
    }

    /// The supernodes whose diagonal block the rank at `(r, c, z)` solves
    /// with: the only rows of a right-hand side it reads.
    pub fn solved_by(&self, (r, c, z): (usize, usize, usize)) -> Vec<usize> {
        let mut out = Vec::new();
        for sweep in (0..=self.l()).filter_map(|lvl| self.part_of_grid(lvl, z)) {
            for batch in sweep.waves().flatten().filter(|b| b.root == (r, c)) {
                out.extend_from_slice(sweep.nodes_of(batch));
            }
        }
        out.sort_unstable();
        out
    }

    /// The supernodes of grid `z`'s chain part at level `la`: its own part
    /// there, or the ancestor part it shares with its neighbours.
    fn chain(&self, la: usize, z: usize) -> &[usize] {
        self.parts[la][z >> (self.l() - la)].nodes()
    }

    /// All supernodes in the ancestor chain above level `lvl` for grid `z`,
    /// ascending.
    fn ancestors(&self, z: usize, lvl: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (0..lvl).flat_map(|la| self.chain(la, z)).copied().collect();
        out.sort_unstable();
        out
    }
}

/// A sweep's failure, with the forest level it happened at.
fn at_level(kind: FailKind, lvl: usize) -> FailKind {
    match kind {
        FailKind::Solver {
            phase,
            supernode,
            detail,
            ..
        } => FailKind::Solver {
            phase,
            supernode,
            level: Some(lvl),
            detail,
        },
        other => other,
    }
}

/// Solve `L U x = b` with the factors laid out as [`crate::factor3d`] left
/// them. `b` must be the permuted right-hand side; a rank reads only the
/// rows of [`SolvePlan::solved_by`]. Returns this rank's partial solution
/// (zero where other ranks own the segments); the caller sums over *all*
/// ranks of the machine.
///
/// Like [`crate::factor3d::factor_3d`], a z-line transfer that cannot
/// complete (or carries the wrong payload kind), or a sweep that finds its
/// own data missing, surfaces as a structured [`FailKind::Solver`] naming
/// the sweep and forest level, for the caller to fail the rank with.
#[allow(clippy::too_many_arguments)]
pub fn solve_3d(
    rank: &mut Rank,
    grid3: &Grid3d,
    comms: &GridComms,
    store: &BlockStore,
    sym: &Symbolic,
    plan: &SolvePlan,
    opts: FactorOpts,
    b: &[f64],
) -> Result<Vec<f64>, FailKind> {
    let l = plan.l();
    let (my_r, my_c, my_z) = comms.coords;
    let env = FactorEnv {
        grid: grid3.grid2d,
        my_r,
        my_c,
        row: comms.row.clone(),
        col: comms.col.clone(),
        opts,
    };
    let mut st = DistSolveState::new(sym);
    let mut x_out = vec![0.0; sym.part.n()];

    // ---- Forward sweep: leaves to root, acc reduced along z. ----
    for lvl in (0..=l).rev() {
        let Some(sweep) = plan.part_of_grid(lvl, my_z) else {
            continue;
        };
        let step = 1usize << (l - lvl);
        let sweep_span = rank.span_enter(simgrid::SpanCat::Level, format_args!("fwd{lvl}"));
        forward_nodes(rank, &env, store, sym, &plan.layout, sweep, b, &mut st)
            .map_err(|e| at_level(e, lvl))?;
        if lvl == 0 {
            rank.span_exit(sweep_span);
            break;
        }
        // Pairwise accumulator reduction over all shared ancestor levels.
        let k = my_z / step;
        let ancestors = plan.ancestors(my_z, lvl);
        if k.is_multiple_of(2) {
            let src_z = my_z + step;
            let fwd_err = |detail: String| FailKind::Solver {
                phase: "solve-fwd".to_string(),
                supernode: None,
                level: Some(lvl),
                detail,
            };
            let data = rank
                .recv_checked(&comms.zline, src_z, T_ACC_RED | lvl as u64)
                .map_err(|e| {
                    fwd_err(format!(
                        "accumulator reduction recv from z={src_z} failed: {e}"
                    ))
                })?
                .try_into_f64s()
                .map_err(|e| fwd_err(format!("accumulator reduction from z={src_z}: {e}")))?;
            let mut off = 0;
            for &s in &ancestors {
                for i in sym.part.ranges[s].clone() {
                    st.acc[i] += data[off];
                    off += 1;
                }
            }
            debug_assert_eq!(off, data.len());
        } else {
            let dest_z = my_z - step;
            let mut data = Vec::new();
            for &s in &ancestors {
                data.extend_from_slice(&st.acc[sym.part.ranges[s].clone()]);
            }
            rank.send(
                &comms.zline,
                dest_z,
                T_ACC_RED | lvl as u64,
                Payload::F64s(data),
            );
        }
        rank.span_exit(sweep_span);
    }

    // ---- Backward sweep: root to leaves, x broadcast down the pair tree. ----
    for lvl in 0..=l {
        let Some(sweep) = plan.part_of_grid(lvl, my_z) else {
            continue;
        };
        let step = 1usize << (l - lvl);
        let k = my_z / step;
        let sweep_span = rank.span_enter(simgrid::SpanCat::Level, format_args!("bwd{lvl}"));
        let bwd_err = |supernode: Option<usize>, detail: String| FailKind::Solver {
            phase: "solve-bwd".to_string(),
            supernode,
            level: Some(lvl),
            detail,
        };
        // A grid is "born" at the first level where it is active; except for
        // grid 0 (born at level 0), it first receives the ancestor solution
        // segments from its pair partner.
        let born_here = my_z != 0 && k % 2 == 1;
        if born_here {
            let dest_z = my_z - step;
            let (meta, data) = rank
                .recv_checked(&comms.zline, dest_z, T_X_DOWN | lvl as u64)
                .map_err(|e| bwd_err(None, format!("ancestor-x recv from z={dest_z} failed: {e}")))?
                .try_into_packed()
                .map_err(|e| bwd_err(None, format!("ancestor-x from z={dest_z}: {e}")))?;
            let mut off = 0;
            for &s in &meta {
                let w = sym.part.width(s);
                let seg = &data[off..off + w];
                off += w;
                apply_ancestor_x(rank, &env, store, sym, &plan.layout, s, seg, &mut st);
            }
            debug_assert_eq!(off, data.len());
        }
        backward_nodes(
            rank,
            &env,
            store,
            sym,
            &plan.layout,
            sweep,
            &mut st,
            &mut x_out,
        )
        .map_err(|e| at_level(e, lvl))?;

        // Hand the now-known chain solutions to the grid born at the next
        // level (my pair partner there).
        if lvl < l {
            let half = step / 2;
            let peer_z = my_z + half;
            // Segments this rank can supply: every chain supernode in my
            // process column whose x is known locally (levels <= lvl).
            let mut meta = Vec::new();
            let mut data = Vec::new();
            for la in 0..=lvl {
                let chain = plan.chain(la, my_z).iter();
                for &s in chain.filter(|&&s| s % grid3.grid2d.pc == my_c) {
                    let xk = st.x.get(&s).ok_or_else(|| {
                        bwd_err(
                            Some(s),
                            "x segment of a chain supernode unknown on its column rank".to_string(),
                        )
                    })?;
                    meta.push(s);
                    data.extend_from_slice(xk);
                }
            }
            rank.send(
                &comms.zline,
                peer_z,
                T_X_DOWN | (lvl + 1) as u64,
                Payload::Packed { meta, data },
            );
        }
        rank.span_exit(sweep_span);
    }
    Ok(x_out)
}

#[cfg(test)]
mod tests {
    use crate::solver::{factor_and_solve, SolverConfig};
    use simgrid::TimeModel;
    use slu2d::driver::Prepared;
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt};
    use sparsemat::testmats::Geometry;

    fn residual_with(
        a: sparsemat::Csr,
        geometry: Geometry,
        pr: usize,
        pc: usize,
        pz: usize,
    ) -> f64 {
        let n = a.nrows;
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 11 % 19) as f64) - 9.0).collect();
        let b = a.matvec(&x_true);
        let prep = Prepared::new(a, geometry, 8, 8);
        let out = factor_and_solve(
            &prep,
            &SolverConfig {
                pr,
                pc,
                pz,
                model: TimeModel::zero(),
                ..Default::default()
            },
            Some(b.clone()),
        );
        let bmax = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        prep.a.residual_inf(&out.x.unwrap(), &b) / bmax
    }

    #[test]
    fn distributed_solve_deep_z() {
        let r = residual_with(
            grid2d_5pt(16, 16, 0.1, 1),
            Geometry::Grid2d { nx: 16, ny: 16 },
            1,
            1,
            8,
        );
        assert!(r < 1e-9, "residual {r}");
    }

    #[test]
    fn distributed_solve_mixed_layers() {
        let r = residual_with(
            grid3d_7pt(5, 5, 5, 0.1, 2),
            Geometry::Grid3d {
                nx: 5,
                ny: 5,
                nz: 5,
            },
            2,
            2,
            4,
        );
        assert!(r < 1e-9, "residual {r}");
    }

    #[test]
    fn distributed_solve_rectangular_layers() {
        let r = residual_with(
            grid2d_5pt(14, 14, 0.1, 3),
            Geometry::Grid2d { nx: 14, ny: 14 },
            3,
            1,
            2,
        );
        assert!(r < 1e-9, "residual {r}");
    }

    #[test]
    fn solve_traffic_is_tagged_solve() {
        // The 3D solve must never pollute the factorization's W_fact/W_red
        // counters (they feed Fig. 10).
        let a = grid2d_5pt(10, 10, 0.1, 4);
        let b: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let prep = Prepared::new(a, Geometry::Grid2d { nx: 10, ny: 10 }, 8, 8);
        let cfg = SolverConfig {
            pr: 1,
            pc: 2,
            pz: 2,
            model: TimeModel::zero(),
            ..Default::default()
        };
        let fact = crate::solver::factor_only(&prep, &cfg);
        let solved = factor_and_solve(&prep, &cfg, Some(b));
        assert_eq!(fact.w_fact(), solved.w_fact());
        assert_eq!(fact.w_red(), solved.w_red());
        // ... and the solve did send something, under its own label.
        let solve_words = simgrid::TrafficSummary::max_sent_words_in(&solved.reports, "solve");
        assert!(solve_words > 0);
    }
}
