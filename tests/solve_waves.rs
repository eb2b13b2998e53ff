//! The solve in waves, each collective over its roster: what it sends is a
//! function of its plan, what it computes agrees with the sequential and the
//! `Pz = 1` solve, and both backends run it to the same bits with no rank
//! ever waiting in a cycle. The shapes are `contracts::table::SOLVES`.

mod contracts;
mod solve_traffic;

use contracts::table::SOLVES;
use contracts::{check, prep, run, Bound::Rel, Contract::*};
use salu::lu3d::solve3d::SolvePlan;
use salu::prelude::*;
use salu::simgrid::Grid3d;
use salu::slu2d::solve2d::{Rosters, SolveLayout};
use solve_traffic::{measured_solve_traffic, plan_batches, planned_solve_traffic, Sent};

/// Total messages of a per-rank count.
fn msgs(t: &[Sent]) -> u64 {
    t.iter().map(|s| s[0]).sum()
}

/// The solve's ledger is the count from its plan — batch rosters, z-line
/// lists, halo and gather routes — rank for rank on both backends. Batching
/// never sends more messages than one collective per supernode would over
/// the same rosters, and pruning never more than whole rows and columns:
/// strictly fewer on the shapes with wide layers.
#[test]
fn solve_traffic_is_the_batch_lists_count_and_never_above_per_supernode() {
    for shape in SOLVES {
        let label = shape.name;
        let [pr, pc, pz] = shape.grid;
        let grid = Grid3d::new(pr, pc, pz);
        let prep = prep(&shape);
        let forest = EtreeForest::build(&prep.tree, &prep.sym, pz);
        let plan = SolvePlan::new(&prep.pa, &prep.sym, &forest, &grid, shape.refine > 0);
        let count = |batches_of: &dyn Fn(usize, usize) -> Vec<_>| {
            planned_solve_traffic(prep, &plan, grid, shape.refine, |lvl, q| {
                batches_of(lvl, q).into_iter()
            })
        };

        let batched = count(&|lvl, q| plan_batches(prep, &plan, lvl, q).collect());
        for backend in [Backend::Threaded, Backend::Event] {
            let measured = measured_solve_traffic(&run(&shape, shape.run(backend)).out);
            assert_eq!(measured, batched, "{label} {backend}: ledger != plan count");
        }

        // One collective per supernode over its own rosters, and the
        // plan's batches over whole rows and columns.
        let layout = SolveLayout::new(&prep.sym, &grid.grid2d);
        let width = |k: usize| prep.sym.part.width(k);
        let per_supernode = count(&|lvl, q| {
            let nodes = plan.part(lvl, q).nodes().iter();
            nodes
                .map(|&k| (grid.grid2d.owner(k, k), width(k), layout.rosters(k)))
                .collect()
        });
        let whole = Rosters {
            fwd_red: (0..pc).collect(),
            fwd_bc: (0..pr).collect(),
            bwd_red: (0..pc).collect(),
            bwd_bc: (0..pr).collect(),
        };
        let whole_rows = count(&|lvl, q| {
            let batches = plan_batches(prep, &plan, lvl, q);
            batches
                .map(|(root, words, _)| (root, words, whole.clone()))
                .collect()
        });
        let (sent, per_sn, whole) = (msgs(&batched), msgs(&per_supernode), msgs(&whole_rows));
        assert!(sent <= per_sn, "{label}: batching sent more");
        assert!(sent <= whole, "{label}: pruning sent more");
        if label.contains("4x4x2") || label.contains("1x8x1") {
            assert!(sent < whole, "{label}: no roster pruned anything");
        }
        let one_per_wave = (0..=forest.l)
            .all(|lvl| (0..1usize << lvl).all(|q| plan.part(lvl, q).waves().all(|w| w.len() == 1)));
        if label.contains("chain") {
            // The degenerate case: nothing to merge, one collective each.
            assert!(one_per_wave, "{label}: not a chain");
            assert_eq!(plan.waves_per_level(), vec![prep.sym.nsup()]);
            assert_eq!(batched, per_supernode, "{label}");
        } else {
            assert!(sent < per_sn, "{label}: no wave merged anything");
        }
    }
}

/// Bitwise across backends and event reruns, within 1e-7 of the
/// sequential solve and of `Pz = 1` (waves and roster trees reorder the
/// accumulator sums), and a relative residual below 1e-9.
#[test]
fn waves_solve_like_seq_and_pz1_to_the_same_bits_on_both_backends() {
    let contracts = [
        Backends,
        Rerun(Backend::Event),
        Agrees(1e-7),
        Solves(Rel(1e-9)),
    ];
    check(&SOLVES, &contracts);
}
