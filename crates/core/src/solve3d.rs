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
//! Every supernode is solved exactly once — by the diagonal owner on the
//! grid that factored it ([`SolvePlan::owned`]) — so the per-rank outputs
//! partition the solution. A rank holds only its share of each vector: its
//! process row's segments for the partial sums, its own for b and x.
//! SuperLU_DIST gained an analogous 3D solve after the paper. The 2D solve
//! is its `pz = 1` case, which `tests/proptest_stack.rs` holds every deeper
//! grid's solution against.
//!
//! Each forest part is swept by dependency waves (`slu2d::solve2d`), each
//! wave's collectives over their rosters; the batches of every part, the
//! z-line lists and the routes that move solved segments between owners are
//! a [`SolvePlan`], derived once per machine. A z-line message carries only
//! the segments its receiver can hold nonzero or reads (docs/perf.md, "The
//! solve goes only where it is read").

use crate::forest::EtreeForest;
use simgrid::tags::{T_ACC_RED, T_X_DOWN};
use simgrid::topology::GridComms;
use simgrid::{Comm, FailKind, Grid3d, Payload, Rank};
use slu2d::factor2d::{FactorEnv, FactorOpts};
use slu2d::solve2d::{
    apply_ancestor_x, backward_nodes, forward_nodes, on, DistSolveState, SegVec, Segments,
    SolveLayout, SweepPlan,
};
use slu2d::store::BlockStore;
use sparsemat::Csr;
use symbolic::{SnPartition, Symbolic};

/// Everything about a 3D solve that does not depend on the rank or the
/// right-hand side: the batched sweeps of every forest part, the blocks each
/// process row applies, who owns each solved segment and where those
/// segments travel. Shared by all ranks and all solves of a run.
#[derive(Debug)]
pub struct SolvePlan {
    grid: Grid3d,
    layout: SolveLayout,
    /// `parts[lvl][q]` sweeps forest part `(lvl, q)`.
    parts: Vec<Vec<SweepPlan>>,
    /// Per world rank, the supernodes it solves.
    owned: Vec<Segments>,
    /// Per world rank, those and the halo its residual rows read; empty
    /// unless the plan refines.
    with_halo: Vec<Segments>,
    /// Refinement's halo exchange; no route unless the plan refines.
    halo: Routes,
    /// The final gather of x to world rank 0.
    gather: Routes,
}

impl SolvePlan {
    /// The plan of `sym`'s solve on `grid`, whose `pz` must be the forest's
    /// `2^l`. `pa` is the permuted matrix whose residual refinement forms;
    /// its halo is derived only when `refines`, for the sweeps after the
    /// first solve.
    pub fn new(
        pa: &Csr,
        sym: &Symbolic,
        forest: &EtreeForest,
        grid: &Grid3d,
        refines: bool,
    ) -> SolvePlan {
        assert_eq!(grid.pz, 1 << forest.l, "forest and grid disagree on pz");
        let g2 = grid.grid2d;
        let layout = SolveLayout::new(sym, &g2);
        let mut owner = vec![0; sym.nsup()];
        let parts = (0..=forest.l)
            .map(|lvl| {
                (0..1usize << lvl)
                    .map(|q| {
                        let nodes = forest.supernodes_of(lvl, q, &sym.part);
                        let z = q << (forest.l - lvl);
                        for &k in &nodes {
                            owner[k] = grid.rank_of(k % g2.pr, k % g2.pc, z);
                        }
                        SweepPlan::new(sym, &g2, &layout, nodes)
                    })
                    .collect()
            })
            .collect();
        let part = &sym.part;
        // A residual row of supernode `k` reads x on every column of its
        // pattern: the segments of the supernodes there, from their owners.
        let mut halo = Vec::new();
        if refines {
            let mut seen = vec![usize::MAX; owner.len()];
            for (k, &reader) in owner.iter().enumerate() {
                for &c in part.ranges[k].clone().flat_map(|i| pa.row_cols(i)) {
                    let s = part.sn_of_col[c];
                    if owner[s] != reader && seen[s] != k {
                        seen[s] = k;
                        halo.push((owner[s], reader, s));
                    }
                }
            }
        }
        let gather = (0..owner.len())
            .filter(|&k| owner[k] != 0)
            .map(|k| (owner[k], 0, k))
            .collect();
        let mut owned = vec![Vec::new(); grid.size()];
        for (k, &rank) in owner.iter().enumerate() {
            owned[rank].push(k);
        }
        let mut with_halo = if refines { owned.clone() } else { Vec::new() };
        for &(_, reader, s) in &halo {
            with_halo[reader].push(s);
        }
        let segments = |lists: Vec<Vec<usize>>| {
            let sorted = |mut nodes: Vec<usize>| {
                nodes.sort_unstable();
                nodes.dedup();
                Segments::new(part, nodes)
            };
            lists.into_iter().map(sorted).collect()
        };
        SolvePlan {
            grid: *grid,
            layout,
            parts,
            halo: Routes::new(grid.size(), halo),
            gather: Routes::new(grid.size(), gather),
            owned: segments(owned),
            with_halo: segments(with_halo),
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
    fn part_of_grid(&self, lvl: usize, z: usize) -> Option<&SweepPlan> {
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

    /// The supernodes world rank `rank` solves, ascending: those whose
    /// diagonal block it owns on the grid whose forest part holds them. The
    /// only segments of a right-hand side it reads, and the only segments of
    /// x it knows when the solve returns.
    pub fn owned(&self, rank: usize) -> &Segments {
        &self.owned[rank]
    }

    /// The segments world rank `rank` holds of x while it refines: its own
    /// and the halo its residual rows read. Only a plan made for refinement
    /// has them.
    pub(crate) fn with_halo(&self, rank: usize) -> &Segments {
        self.with_halo
            .get(rank)
            .expect("the solve plan was derived without refinement")
    }

    /// Refinement's halo exchange: each owner's segments to the ranks whose
    /// residual rows read them.
    pub fn halo(&self) -> &Routes {
        &self.halo
    }

    /// The final gather: every owner's segments to world rank 0.
    pub fn gather(&self) -> &Routes {
        &self.gather
    }

    /// The supernodes of grid `z`'s chain part at level `la`: its own part
    /// there, or the ancestor part it shares with its neighbours.
    fn chain(&self, la: usize, z: usize) -> &[usize] {
        self.parts[la][z >> (self.l() - la)].nodes()
    }

    /// The accumulator segments process `(r, c)` of grid `z` hands up the
    /// z-line after forest level `lvl` (and its partner receives): the
    /// ancestors above `lvl`, ascending, in row `r` whose forward reduction
    /// has column `c` on its roster. Every other ancestor segment of the
    /// rank's accumulator is zero: only an `L(s, j)` block adds into `s`.
    pub fn acc_up(&self, z: usize, lvl: usize, (r, c): (usize, usize)) -> Vec<usize> {
        let mut out: Vec<usize> = (0..lvl).flat_map(|la| self.chain(la, z)).copied().collect();
        out.retain(|&s| s % self.grid.grid2d.pr == r && on(self.layout.fwd_red(s), c));
        out.sort_unstable();
        out
    }

    /// The solved chain segments process `(r, c)` of grid `z` hands down the
    /// z-line after forest level `lvl`, to the grid born at `lvl + 1` (which
    /// derives the same list): the chain supernodes of levels `0..=lvl` in
    /// column `c` whose backward broadcast has row `r` on its roster, level
    /// by level. A rank off that roster neither knows `x_s` nor applies it.
    pub fn x_down(&self, z: usize, lvl: usize, (r, c): (usize, usize)) -> Vec<usize> {
        let pc = self.grid.grid2d.pc;
        (0..=lvl)
            .flat_map(|la| self.chain(la, z))
            .copied()
            .filter(|&s| s % pc == c && on(self.layout.bwd_bc(s), r))
            .collect()
    }
}

/// Point-to-point routes of solved segments between world ranks: per rank,
/// the peers it sends to and receives from, ascending, each message the
/// segments of its supernodes, ascending and concatenated.
#[derive(Debug)]
pub struct Routes {
    sends: Vec<Vec<(usize, Vec<usize>)>>,
    receives: Vec<Vec<(usize, Vec<usize>)>>,
}

impl Routes {
    /// Routes over `p` ranks from `(from, to, supernode)` triples.
    fn new(p: usize, mut triples: Vec<(usize, usize, usize)>) -> Routes {
        triples.sort_unstable();
        triples.dedup();
        fn push(into: &mut Vec<(usize, Vec<usize>)>, peer: usize, s: usize) {
            match into.last_mut() {
                Some((last, nodes)) if *last == peer => nodes.push(s),
                _ => into.push((peer, vec![s])),
            }
        }
        let mut sends = vec![Vec::new(); p];
        let mut receives = vec![Vec::new(); p];
        for (from, to, s) in triples {
            push(&mut sends[from], to, s);
            push(&mut receives[to], from, s);
        }
        Routes { sends, receives }
    }

    /// The messages `rank` sends: `(peer, supernodes)`.
    pub fn sends(&self, rank: usize) -> &[(usize, Vec<usize>)] {
        &self.sends[rank]
    }

    /// The messages `rank` receives: `(peer, supernodes)`.
    pub(crate) fn receives(&self, rank: usize) -> &[(usize, Vec<usize>)] {
        &self.receives[rank]
    }
}

/// Move solved segments along `routes`: send this rank's to each peer, then
/// receive each peer's into `x`, which must hold both. `world` must be the
/// world communicator. A message that cannot be received, or whose length is
/// not its segments', is a structured failure of `phase`.
pub(crate) async fn exchange(
    rank: &mut Rank,
    world: &Comm,
    part: &SnPartition,
    routes: &Routes,
    tag: u64,
    phase: &str,
    x: &mut SegVec<'_>,
) -> Result<(), FailKind> {
    let me = rank.id();
    for (peer, nodes) in routes.sends(me) {
        rank.send(world, *peer, tag, Payload::F64s(x.gather(nodes)));
    }
    for (peer, nodes) in routes.receives(me) {
        let fail = |detail: String| FailKind::Solver {
            phase: phase.to_string(),
            supernode: None,
            level: None,
            detail: format!("segments from rank {peer}: {detail}"),
        };
        let data = rank
            .recv_checked(world, *peer, tag)
            .await
            .map_err(|e| fail(format!("recv failed: {e}")))?
            .try_into_f64s()
            .map_err(|e| fail(e.to_string()))?;
        for (s, seg) in split(part, nodes, &data).map_err(fail)? {
            x.seg_mut(s).copy_from_slice(seg);
        }
    }
    Ok(())
}

/// The segments of a message concatenating those of `nodes`, each with its
/// supernode. A message of any other length is an error, not an
/// out-of-bounds panic or a silently ignored tail.
fn split<'a>(
    part: &'a SnPartition,
    nodes: &'a [usize],
    mut data: &'a [f64],
) -> Result<impl Iterator<Item = (usize, &'a [f64])>, String> {
    let want: usize = nodes.iter().map(|&s| part.width(s)).sum();
    if data.len() != want {
        let (got, n) = (data.len(), nodes.len());
        return Err(format!("carries {got} words, its {n} segments {want}"));
    }
    Ok(nodes.iter().map(move |&s| {
        let (seg, rest) = data.split_at(part.width(s));
        data = rest;
        (s, seg)
    }))
}

/// A z-line transfer of the solve that failed at forest level `lvl`.
fn zline_failure(phase: &str, lvl: usize, supernode: Option<usize>, detail: String) -> FailKind {
    FailKind::Solver {
        phase: phase.to_string(),
        supernode,
        level: Some(lvl),
        detail,
    }
}

/// Add a received accumulator reduction into `acc`. It must carry exactly
/// the segments of `nodes` ([`SolvePlan::acc_up`]): anything else is a
/// structured `solve-fwd` failure.
fn add_accumulators(
    part: &SnPartition,
    nodes: &[usize],
    data: &[f64],
    acc: &mut SegVec,
    lvl: usize,
) -> Result<(), FailKind> {
    let fail = |d| zline_failure("solve-fwd", lvl, None, format!("accumulator reduction {d}"));
    for (s, seg) in split(part, nodes, data).map_err(fail)? {
        for (a, d) in acc.seg_mut(s).iter_mut().zip(seg) {
            *a += d;
        }
    }
    Ok(())
}

/// Split a received ancestor-x hand-off into its segments. Its supernode
/// list must be `nodes` ([`SolvePlan::x_down`], the receiver's own) and its
/// words exactly theirs; anything else is a structured `solve-bwd` failure,
/// naming the first supernode that differs.
fn x_segments<'a>(
    part: &'a SnPartition,
    nodes: &'a [usize],
    meta: &[usize],
    data: &'a [f64],
    lvl: usize,
) -> Result<Vec<(usize, &'a [f64])>, FailKind> {
    let fail = |s, detail| zline_failure("solve-bwd", lvl, s, detail);
    if let Some(at) = (0..nodes.len().max(meta.len())).find(|&i| nodes.get(i) != meta.get(i)) {
        let (got, want) = (meta.get(at).copied(), nodes.get(at).copied());
        return Err(fail(
            want.or(got),
            format!(
                "ancestor-x hand-off lists supernode {got:?} at position {at}, this rank \
                 expects {want:?} ({} listed, {} expected)",
                meta.len(),
                nodes.len()
            ),
        ));
    }
    let segs =
        split(part, nodes, data).map_err(|d| fail(None, format!("ancestor-x hand-off {d}")))?;
    Ok(segs.collect())
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
/// them. `b` holds the permuted right-hand side on this rank's own
/// supernodes ([`SolvePlan::owned`]), the only rows it reads. Returns this
/// rank's part of the solution, on the same segments.
///
/// Like [`crate::factor3d::factor_3d`], a z-line transfer that cannot
/// complete (or carries the wrong payload kind, supernodes or length), or a
/// sweep that finds its own data missing, surfaces as a structured
/// [`FailKind::Solver`] naming the sweep and forest level, for the caller to
/// fail the rank with.
#[allow(clippy::too_many_arguments)]
pub async fn solve_3d<'p>(
    rank: &mut Rank,
    grid3: &Grid3d,
    comms: &GridComms,
    store: &BlockStore,
    sym: &Symbolic,
    plan: &'p SolvePlan,
    opts: FactorOpts,
    b: &SegVec<'_>,
) -> Result<SegVec<'p>, FailKind> {
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
    let part = &sym.part;
    let mut st = DistSolveState::new(&plan.layout, my_r);
    let mut x_out = SegVec::zeros(plan.owned(rank.id()));

    // ---- Forward sweep: leaves to root, acc reduced along z. ----
    for lvl in (0..=l).rev() {
        let Some(sweep) = plan.part_of_grid(lvl, my_z) else {
            continue;
        };
        let step = 1usize << (l - lvl);
        let sweep_span = rank.span_enter(simgrid::SpanCat::Level, format_args!("fwd{lvl}"));
        forward_nodes(rank, &env, store, sym, &plan.layout, sweep, b, &mut st)
            .await
            .map_err(|e| at_level(e, lvl))?;
        // Pairwise accumulator reduction over the shared ancestor levels:
        // the segments this rank can hold nonzero, if any.
        let ancestors = plan.acc_up(my_z, lvl, (my_r, my_c));
        let tag = T_ACC_RED | lvl as u64;
        if !ancestors.is_empty() && (my_z / step).is_multiple_of(2) {
            let src_z = my_z + step;
            let fwd_err = |detail: String| zline_failure("solve-fwd", lvl, None, detail);
            let data = rank
                .recv_checked(&comms.zline, src_z, tag)
                .await
                .map_err(|e| fwd_err(format!("accumulator recv from z={src_z} failed: {e}")))?
                .try_into_f64s()
                .map_err(|e| fwd_err(format!("accumulator reduction from z={src_z}: {e}")))?;
            add_accumulators(part, &ancestors, &data, &mut st.acc, lvl)?;
        } else if !ancestors.is_empty() {
            let data = st.acc.gather(&ancestors);
            rank.send(&comms.zline, my_z - step, tag, Payload::F64s(data));
        }
        rank.span_exit(sweep_span);
        if lvl == 0 {
            break;
        }
    }

    // ---- Backward sweep: root to leaves, x handed down the pair tree. ----
    for lvl in 0..=l {
        let Some(sweep) = plan.part_of_grid(lvl, my_z) else {
            continue;
        };
        let step = 1usize << (l - lvl);
        let sweep_span = rank.span_enter(simgrid::SpanCat::Level, format_args!("bwd{lvl}"));
        let bwd_err = |supernode: Option<usize>, detail: String| {
            zline_failure("solve-bwd", lvl, supernode, detail)
        };
        // A grid is "born" at the first level where it is active; except for
        // grid 0 (born at level 0), it first receives the ancestor solution
        // segments this rank reads from its pair partner.
        let born_here = my_z != 0 && (my_z / step) % 2 == 1;
        let ancestors = if born_here {
            plan.x_down(my_z, lvl - 1, (my_r, my_c))
        } else {
            Vec::new()
        };
        if !ancestors.is_empty() {
            let dest_z = my_z - step;
            let packed = rank
                .recv_checked(&comms.zline, dest_z, T_X_DOWN | lvl as u64)
                .await
                .map_err(|e| bwd_err(None, format!("ancestor-x recv from z={dest_z} failed: {e}")))?
                .try_into_packed()
                .map_err(|e| bwd_err(None, format!("ancestor-x from z={dest_z}: {e}")))?;
            for (s, seg) in x_segments(part, &ancestors, packed.meta(), packed.data(), lvl)? {
                apply_ancestor_x(rank, &env, store, sym, &plan.layout, s, seg, &mut st);
            }
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
        .await
        .map_err(|e| at_level(e, lvl))?;

        // Hand the now-known chain solutions the grid born at the next level
        // (my pair partner there) reads.
        let chain = if lvl < l {
            plan.x_down(my_z, lvl, (my_r, my_c))
        } else {
            Vec::new()
        };
        if !chain.is_empty() {
            let mut data = Vec::new();
            for &s in &chain {
                let xk = st.x.get(&s).ok_or_else(|| {
                    bwd_err(
                        Some(s),
                        "x segment of a chain supernode unknown on its reader".to_string(),
                    )
                })?;
                data.extend_from_slice(xk);
            }
            rank.send(
                &comms.zline,
                my_z + step / 2,
                T_X_DOWN | (lvl + 1) as u64,
                Payload::packed(chain, data),
            );
        }
        rank.span_exit(sweep_span);
    }
    Ok(x_out)
}

#[cfg(test)]
mod tests {
    use super::{add_accumulators, x_segments};
    use crate::solver::{factor_and_solve, SolverConfig};
    use simgrid::{FailKind, TimeModel};
    use slu2d::driver::Prepared;
    use slu2d::solve2d::{SegVec, Segments};
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt};
    use sparsemat::testmats::Geometry;
    use symbolic::SnPartition;

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

    /// The halo is refinement's: a plan without it lists no halo route and
    /// no widened segments, and derives the same batches, owners and gather
    /// as one with it.
    #[test]
    fn only_a_refining_plan_derives_the_halo() {
        use super::SolvePlan;
        use crate::forest::EtreeForest;
        let prep = Prepared::new(
            grid2d_5pt(16, 16, 0.1, 2),
            Geometry::Grid2d { nx: 16, ny: 16 },
            8,
            8,
        );
        let grid = simgrid::Grid3d::new(2, 2, 2);
        let forest = EtreeForest::build(&prep.tree, &prep.sym, 2);
        let plan = |refines| SolvePlan::new(&prep.pa, &prep.sym, &forest, &grid, refines);
        let (bare, refining) = (plan(false), plan(true));
        assert!((0..grid.size()).all(|r| bare.halo().sends(r).is_empty()));
        assert!((0..grid.size()).any(|r| !refining.halo().sends(r).is_empty()));
        assert!(bare.with_halo.is_empty());
        assert_eq!(bare.waves_per_level(), refining.waves_per_level());
        for r in 0..grid.size() {
            assert_eq!(bare.owned(r).nodes(), refining.owned(r).nodes());
            assert_eq!(bare.gather().sends(r), refining.gather().sends(r));
            assert!(refining.with_halo(r).nodes().len() >= refining.owned(r).nodes().len());
        }
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
        let (_, solve_words) = simgrid::TrafficSummary::max_sent_in(&solved.reports, "solve");
        assert!(solve_words > 0);
    }

    /// Three supernodes of widths 2, 3 and 1.
    fn partition() -> SnPartition {
        SnPartition {
            ranges: vec![0..2, 2..5, 5..6],
            sn_of_col: vec![0, 0, 1, 1, 1, 2],
            node_of_sn: vec![0; 3],
            sns_of_node: vec![vec![0, 1, 2]],
        }
    }

    fn is_failure(kind: &FailKind, want_phase: &str, want_sn: Option<usize>) -> bool {
        matches!(kind, FailKind::Solver { phase, supernode, level: Some(3), .. }
            if phase == want_phase && *supernode == want_sn)
    }

    #[test]
    fn a_short_or_long_accumulator_reduction_is_a_structured_failure() {
        let part = partition();
        let nodes = [0, 2];
        let all = Segments::new(&part, vec![0, 1, 2]);
        let mut acc = SegVec::from_full(&all, &part, &[1.0; 6]);
        add_accumulators(&part, &nodes, &[1.0, 2.0, 3.0], &mut acc, 3).unwrap();
        assert_eq!(acc.gather(&[0, 1, 2]), [2.0, 3.0, 1.0, 1.0, 1.0, 4.0]);
        for len in [2, 4, 0] {
            let err = add_accumulators(&part, &nodes, &vec![9.0; len], &mut acc, 3).unwrap_err();
            assert!(is_failure(&err, "solve-fwd", None), "{err}");
            assert!(
                err.to_string().contains(&format!("carries {len} words")),
                "{err}"
            );
        }
        assert_eq!(
            acc.into_vec(),
            [2.0, 3.0, 1.0, 1.0, 1.0, 4.0],
            "a failed add adds nothing"
        );
    }

    #[test]
    fn an_ancestor_x_hand_off_must_carry_the_receivers_list_and_its_words() {
        let part = partition();
        let nodes = [1, 2];
        let data = [1.0, 2.0, 3.0, 4.0];
        let segs = x_segments(&part, &nodes, &nodes, &data, 3).unwrap();
        assert_eq!(segs, vec![(1, &data[..3]), (2, &data[3..])]);
        // Short and long payloads under the right list.
        for data in [&data[..3], &[0.0; 5][..]] {
            let err = x_segments(&part, &nodes, &nodes, data, 3).unwrap_err();
            assert!(is_failure(&err, "solve-bwd", None), "{err}");
            assert!(err
                .to_string()
                .contains(&format!("carries {} words", data.len())));
        }
        // A list other than the receiver's, whatever the words: the first
        // supernode that differs is named.
        for (meta, named) in [(&[1][..], 2), (&[0, 2][..], 1), (&[1, 2, 0][..], 0)] {
            let err = x_segments(&part, &nodes, meta, &data, 3).unwrap_err();
            assert!(
                is_failure(&err, "solve-bwd", Some(named)),
                "{meta:?}: {err}"
            );
        }
    }
}
