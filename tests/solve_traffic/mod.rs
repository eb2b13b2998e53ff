//! What the solve sends, counted from its plan alone — the batch rosters,
//! the z-line lists and the halo/gather routes — and what a run's ledger
//! says it sent. Shared by `solve_waves` and `proptest_stack`.

use salu::lu3d::solve3d::SolvePlan;
use salu::prelude::*;
use salu::simgrid::coll::bcast_tree;
use salu::simgrid::Grid3d;
use salu::slu2d::solve2d::{on, Rosters};

/// Messages and words one rank sends: `[msgs, words]`.
pub type Sent = [u64; 2];

/// What every rank of `grid` sends under the `solve` phase of a run with
/// `refine_steps` sweeps. `batches_of(lvl, q)` yields the batches of forest
/// part `(lvl, q)` as `(root, words, rosters)`: the plan's own, or any other
/// scheme to compare with. The z-line lists and the routes are the plan's.
pub fn planned_solve_traffic<I>(
    prep: &Prepared,
    plan: &SolvePlan,
    grid: Grid3d,
    refine_steps: usize,
    batches_of: impl Fn(usize, usize) -> I,
) -> Vec<Sent>
where
    I: Iterator<Item = ((usize, usize), usize, Rosters)>,
{
    let Grid3d { grid2d, pz } = grid;
    let l = pz.trailing_zeros() as usize;
    let part = &prep.sym.part;
    let width_of = |nodes: &[usize]| nodes.iter().map(|&s| part.width(s)).sum::<usize>();
    let mut sent = vec![[0u64; 2]; grid.size()];
    let mut send = |rank: usize, msgs: usize, words: usize| {
        sent[rank][0] += msgs as u64;
        sent[rank][1] += (msgs * words) as u64;
    };
    let children = |roster: &[usize], root: usize, me: usize| {
        let at = |x: usize| roster.binary_search(&x).unwrap();
        bcast_tree(roster.len(), at(root), at(me)).1.count()
    };
    for z in 0..pz {
        for (r, c) in (0..grid2d.pr).flat_map(|r| (0..grid2d.pc).map(move |c| (r, c))) {
            let me = grid.rank_of(r, c, z);
            for _ in 0..=refine_steps {
                for lvl in 0..=l {
                    let step = 1usize << (l - lvl);
                    if z % step != 0 {
                        continue;
                    }
                    // Per batch and sweep, a reduction along the root's row
                    // (each member but the root sends its operand once) and
                    // a broadcast down its column (once per tree child).
                    for (root, words, rosters) in batches_of(lvl, z / step) {
                        for (red, bc) in [
                            (&rosters.fwd_red, &rosters.fwd_bc),
                            (&rosters.bwd_red, &rosters.bwd_bc),
                        ] {
                            if root.0 == r && root.1 != c && on(red, c) {
                                send(me, 1, words);
                            }
                            if root.1 == c && on(bc, r) {
                                send(me, children(bc, root.0, r), words);
                            }
                        }
                    }
                    // The accumulators of the shared ancestors, up the z-line.
                    let up = plan.acc_up(z, lvl, (r, c));
                    if (z / step) % 2 == 1 && !up.is_empty() {
                        send(me, 1, width_of(&up));
                    }
                    // The chain solutions my partner reads, down it.
                    let down = if lvl < l {
                        plan.x_down(z, lvl, (r, c))
                    } else {
                        Vec::new()
                    };
                    if !down.is_empty() {
                        send(me, 1, down.len() + width_of(&down));
                    }
                }
            }
            // My segments to the residual rows that read them, before each
            // sweep of refinement, and to world rank 0 at the end.
            for (routes, times) in [(plan.halo(), refine_steps), (plan.gather(), 1)] {
                for (_, nodes) in routes.sends(me) {
                    send(me, times, width_of(nodes));
                }
            }
        }
    }
    sent
}

/// The plan's own batches of forest part `(lvl, q)`.
pub fn plan_batches<'a>(
    prep: &'a Prepared,
    plan: &'a SolvePlan,
    lvl: usize,
    q: usize,
) -> impl Iterator<Item = ((usize, usize), usize, Rosters)> + 'a {
    let sweep = plan.part(lvl, q);
    sweep.waves().flatten().map(|b| {
        let words = sweep
            .nodes_of(b)
            .iter()
            .map(|&k| prep.sym.part.width(k))
            .sum();
        (b.root, words, b.rosters.clone())
    })
}

/// What every rank sent under the `solve` phase, by its ledger.
pub fn measured_solve_traffic(out: &Output3d) -> Vec<Sent> {
    out.reports
        .iter()
        .map(|r| {
            let solve = r.commvol.entries.iter().filter(|e| e.phase == "solve");
            solve.fold([0, 0], |[m, w], e| [m + e.cell.msgs, w + e.cell.words])
        })
        .collect()
}
