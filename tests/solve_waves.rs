//! The solve in waves: what it sends is a function of its batch lists, what
//! it computes agrees with the sequential and the `Pz = 1` solve, and both
//! backends run it to the same bits with no rank ever waiting in a cycle.

use salu::lu3d::solve3d::SolvePlan;
use salu::prelude::*;
use salu::simgrid::coll::bcast_tree;
use salu::simgrid::{run_document, Grid3d};
use salu::slu2d::store::{BlockStore, InitValues};
use salu::slu2d::{seq_factor, seq_solve};
use salu::sparsemat::matgen;

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

/// Messages and words one rank sends: `[msgs, words]`.
type Sent = [u64; 2];

/// What every rank of `grid` sends under the `solve` phase of a run with
/// `REFINE_STEPS` sweeps, counted from the plan's batch lists and the
/// binomial tree alone. `batches_of` yields a part's `(root, words)` pairs:
/// the plan's own, or one per supernode — the scheme the waves replaced.
fn planned_solve_traffic<'a, I>(
    prep: &'a Prepared,
    plan: &'a SolvePlan,
    grid: Grid3d,
    batches_of: impl Fn(usize, usize) -> I,
) -> Vec<Sent>
where
    I: Iterator<Item = ((usize, usize), usize)>,
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
    for z in 0..pz {
        for (r, c) in (0..grid2d.pr).flat_map(|r| (0..grid2d.pc).map(move |c| (r, c))) {
            let me = grid.rank_of(r, c, z);
            for _ in 0..=REFINE_STEPS {
                for lvl in 0..=l {
                    let step = 1usize << (l - lvl);
                    if z % step != 0 {
                        continue;
                    }
                    // One reduction and one broadcast per batch, in each of
                    // the two sweeps: a non-root sends its operand once, a
                    // broadcast rank once per child.
                    for (root, words) in batches_of(lvl, z / step) {
                        if root.0 == r && root.1 != c {
                            send(me, 2, words);
                        }
                        if root.1 == c {
                            let children = bcast_tree(grid2d.pr, root.0, r).1.count();
                            send(me, 2 * children, words);
                        }
                    }
                    // The accumulators of the shared ancestors, up the z-line.
                    if lvl > 0 && (z / step) % 2 == 1 {
                        let words: usize = (0..lvl)
                            .map(|la| width_of(plan.part(la, z >> (l - la)).nodes()))
                            .sum();
                        send(me, 1, words);
                    }
                    // The chain solutions of my process column, down it.
                    if lvl < l {
                        let words: usize = (0..=lvl)
                            .flat_map(|la| plan.part(la, z >> (l - la)).nodes())
                            .filter(|&&s| s % grid2d.pc == c)
                            .map(|&s| 1 + part.width(s))
                            .sum();
                        send(me, 1, words);
                    }
                }
                // The world allreduce of x: up the tree, then down it.
                let (parent, children) = bcast_tree(grid.size(), 0, me);
                send(me, parent.iter().count() + children.count(), part.n());
            }
        }
    }
    sent
}

fn measured_solve_traffic(out: &Output3d) -> Vec<Sent> {
    out.reports
        .iter()
        .map(|r| {
            let solve = r.commvol.entries.iter().filter(|e| e.phase == "solve");
            solve.fold([0, 0], |[m, w], e| [m + e.cell.msgs, w + e.cell.words])
        })
        .collect()
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

#[test]
fn solve_traffic_is_the_batch_lists_count_and_never_above_per_supernode() {
    for shape in shapes() {
        let label = shape.label;
        let (pr, pc, pz) = shape.grid;
        let grid = Grid3d::new(pr, pc, pz);
        let prep = &shape.prep;
        let forest = EtreeForest::build(&prep.tree, &prep.sym, pz);
        let plan = SolvePlan::new(&prep.sym, &forest, &grid.grid2d);

        let batched = planned_solve_traffic(prep, &plan, grid, |lvl, q| {
            let sweep = plan.part(lvl, q);
            sweep.waves().flatten().map(|b| (b.root, b.words))
        });
        let per_supernode = planned_solve_traffic(prep, &plan, grid, |lvl, q| {
            let nodes = plan.part(lvl, q).nodes().iter();
            nodes.map(|&k| (grid.grid2d.owner(k, k), prep.sym.part.width(k)))
        });
        let measured = measured_solve_traffic(&run(&shape, pz, Backend::Event));
        assert_eq!(measured, batched, "{label}: ledger != batch-list count");

        for (rank, (b, s)) in batched.iter().zip(&per_supernode).enumerate() {
            assert!(b[0] <= s[0], "{label}: rank {rank} sends more messages");
            assert_eq!(b[1], s[1], "{label}: rank {rank} sends other words");
        }
        let one_per_wave = (0..=forest.l)
            .all(|lvl| (0..1usize << lvl).all(|q| plan.part(lvl, q).waves().all(|w| w.len() == 1)));
        if label.contains("chain") {
            // The degenerate case: nothing to merge, today's messages.
            assert!(one_per_wave, "{label}: not a chain");
            assert_eq!(plan.waves_per_level(), vec![prep.sym.nsup()]);
            assert_eq!(batched, per_supernode, "{label}");
        } else {
            let msgs = |t: &[Sent]| t.iter().map(|s| s[0]).sum::<u64>();
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
