//! The solve in waves, each collective over its roster: what it sends is a
//! function of its plan, what it computes agrees with the sequential and the
//! `Pz = 1` solve, and both backends run it to the same bits with no rank
//! ever waiting in a cycle.

mod solve_traffic;

use salu::lu3d::solve3d::SolvePlan;
use salu::prelude::*;
use salu::simgrid::{run_document, Grid3d};
use salu::slu2d::solve2d::{Rosters, SolveLayout};
use salu::slu2d::store::{BlockStore, InitValues};
use salu::slu2d::{seq_factor, seq_solve};
use salu::sparsemat::matgen;
use solve_traffic::{measured_solve_traffic, plan_batches, planned_solve_traffic, Sent};

const REFINE_STEPS: usize = 2;

struct Shape {
    label: &'static str,
    prep: Prepared,
    grid: (usize, usize, usize),
}

fn shapes() -> Vec<Shape> {
    let chain = 40;
    vec![
        Shape {
            label: "grid2d:24 2x2x4",
            prep: Prepared::new(
                matgen::grid2d_5pt(24, 24, 0.1, 1),
                Geometry::Grid2d { nx: 24, ny: 24 },
                8,
                8,
            ),
            grid: (2, 2, 4),
        },
        Shape {
            label: "grid3d:10 1x3x2",
            prep: Prepared::new(
                matgen::grid3d_7pt(10, 10, 10, 0.1, 2),
                Geometry::Grid3d {
                    nx: 10,
                    ny: 10,
                    nz: 10,
                },
                8,
                8,
            ),
            grid: (1, 3, 2),
        },
        Shape {
            label: "kkt:6 3x5x2",
            prep: Prepared::new(matgen::kkt_3d(6, 6, 6, 1e-2, 3), Geometry::General, 8, 8),
            grid: (3, 5, 2),
        },
        // One leaf holding a path graph, one column per supernode: every
        // supernode waits for the one before it.
        Shape {
            label: "tridiagonal chain 2x2x1",
            prep: Prepared::new(
                matgen::random_band(chain, 1, 1.0, 4),
                Geometry::General,
                chain,
                1,
            ),
            grid: (2, 2, 1),
        },
        // Wide enough layers that most rows and columns hold no block of a
        // given supernode: the rosters must prune.
        Shape {
            label: "kkt:6 4x4x2",
            prep: Prepared::new(matgen::kkt_3d(6, 6, 6, 1e-2, 1), Geometry::General, 8, 12),
            grid: (4, 4, 2),
        },
        Shape {
            label: "grid2d:24 1x8x1",
            prep: Prepared::new(
                matgen::grid2d_5pt(24, 24, 0.1, 6),
                Geometry::Grid2d { nx: 24, ny: 24 },
                8,
                8,
            ),
            grid: (1, 8, 1),
        },
        Shape {
            label: "grid2d:14 3x2x2",
            prep: Prepared::new(
                matgen::grid2d_5pt(14, 14, 0.1, 5),
                Geometry::Grid2d { nx: 14, ny: 14 },
                8,
                8,
            ),
            grid: (3, 2, 2),
        },
    ]
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7 % 23) as f64) - 11.0).collect()
}

fn run(shape: &Shape, pz: usize, backend: Backend) -> Output3d {
    let (pr, pc, _) = shape.grid;
    let cfg = SolverConfig {
        pr,
        pc,
        pz,
        refine_steps: REFINE_STEPS,
        backend,
        ..Default::default()
    };
    try_factor_and_solve(&shape.prep, &cfg, Some(rhs(shape.prep.a.nrows)))
        .unwrap_or_else(|e| panic!("{} pz={pz} {backend}: {e}", shape.label))
}

/// Total messages of a per-rank count.
fn msgs(t: &[Sent]) -> u64 {
    t.iter().map(|s| s[0]).sum()
}

fn relative_distance(x: &[f64], y: &[f64]) -> f64 {
    let scale = y.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    let diff = x.iter().zip(y).map(|(u, w)| (u - w).abs());
    diff.fold(0.0, f64::max) / scale
}

fn sim_section(out: &Output3d) -> String {
    run_document(&out.reports, out.sched.as_ref())
        .get("sim")
        .expect("sim section")
        .pretty()
}

/// The solve's ledger is the count from its plan — batch rosters, z-line
/// lists, halo and gather routes — rank for rank on both backends. Batching
/// never sends more messages than one collective per supernode would over
/// the same rosters, and pruning never more than whole rows and columns:
/// strictly fewer on the shapes with wide layers.
#[test]
fn solve_traffic_is_the_batch_lists_count_and_never_above_per_supernode() {
    for shape in shapes() {
        let label = shape.label;
        let (pr, pc, pz) = shape.grid;
        let grid = Grid3d::new(pr, pc, pz);
        let prep = &shape.prep;
        let forest = EtreeForest::build(&prep.tree, &prep.sym, pz);
        let plan = SolvePlan::new(&prep.pa, &prep.sym, &forest, &grid, REFINE_STEPS > 0);
        let count = |batches_of: &dyn Fn(usize, usize) -> Vec<_>| {
            planned_solve_traffic(prep, &plan, grid, REFINE_STEPS, |lvl, q| {
                batches_of(lvl, q).into_iter()
            })
        };

        let batched = count(&|lvl, q| plan_batches(prep, &plan, lvl, q).collect());
        for backend in [Backend::Threaded, Backend::Event] {
            let measured = measured_solve_traffic(&run(&shape, pz, backend));
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
        assert!(
            msgs(&batched) <= msgs(&per_supernode),
            "{label}: batching sent more"
        );
        assert!(
            msgs(&batched) <= msgs(&whole_rows),
            "{label}: pruning sent more"
        );
        if label.contains("4x4x2") || label.contains("1x8x1") {
            assert!(
                msgs(&batched) < msgs(&whole_rows),
                "{label}: no roster pruned anything"
            );
        }
        let one_per_wave = (0..=forest.l)
            .all(|lvl| (0..1usize << lvl).all(|q| plan.part(lvl, q).waves().all(|w| w.len() == 1)));
        if label.contains("chain") {
            // The degenerate case: nothing to merge, one collective each.
            assert!(one_per_wave, "{label}: not a chain");
            assert_eq!(plan.waves_per_level(), vec![prep.sym.nsup()]);
            assert_eq!(batched, per_supernode, "{label}");
        } else {
            assert!(
                msgs(&batched) < msgs(&per_supernode),
                "{label}: no wave merged anything"
            );
        }
    }
}

#[test]
fn waves_solve_like_seq_and_pz1_to_the_same_bits_on_both_backends() {
    for shape in shapes() {
        let label = shape.label;
        let prep = &shape.prep;
        let b = rhs(prep.a.nrows);
        let (threaded, event, again) = (
            run(&shape, shape.grid.2, Backend::Threaded),
            run(&shape, shape.grid.2, Backend::Event),
            run(&shape, shape.grid.2, Backend::Event),
        );
        let x = threaded.x.as_ref().expect("solution");
        let bits = |o: &Output3d| -> Vec<u64> {
            let x = o.x.as_ref().expect("solution");
            x.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&threaded), bits(&event), "{label}: x bits");
        assert_eq!(sim_section(&threaded), sim_section(&event), "{label}");
        let sched = event.sched.expect("event runs report scheduler counters");
        assert_eq!(Some(sched), again.sched, "{label}: counters must repeat");
        assert_eq!(sched.quiescence_resolutions, 0, "{label}: a rank waited");

        // Against the sequential solve of the same factors...
        let grid1 = salu::simgrid::Grid2d::new(1, 1);
        let mut store = BlockStore::build(
            &prep.pa,
            &prep.sym,
            &grid1,
            0,
            0,
            &|_| true,
            InitValues::FromMatrix,
        );
        seq_factor(
            &mut store,
            &prep.sym,
            SolverConfig::default().pivot_threshold,
        );
        let x_seq = prep.unpermute_solution(&seq_solve(&store, &prep.sym, &prep.permute_rhs(&b)));
        let d = relative_distance(x, &x_seq);
        assert!(d < 1e-7, "{label}: {d} from the sequential solve");
        // ...and its own Pz = 1 case, up to reduction rounding.
        let flat = run(&shape, 1, Backend::Event);
        let d = relative_distance(x, flat.x.as_ref().expect("solution"));
        assert!(d < 1e-7, "{label}: {d} from Pz = 1");
        assert_eq!(
            flat.sched.expect("event run").quiescence_resolutions,
            0,
            "{label} pz=1"
        );
        let bmax = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        assert!(prep.a.residual_inf(x, &b) / bmax < 1e-9, "{label}");
    }
}
