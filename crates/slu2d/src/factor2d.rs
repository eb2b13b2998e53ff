//! The node-list factorization driver: `dSparseLU2D(A, nList)` from the
//! paper's Algorithm 1, with the elimination-tree lookahead of §II-F.

use crate::kernels::{factor_step_panel, factor_step_schur, PanelData, BATCH_MIN_FLOPS};
use crate::store::{BlockStore, SchurScratch};
use simgrid::{Comm, FailKind, Grid2d, MemClass, Rank, SpanCat};
use symbolic::{LookaheadStep, Symbolic};

/// Per-rank environment for a 2D factorization: the grid shape, this rank's
/// coordinates, and the row/column communicators of its layer.
pub struct FactorEnv {
    pub grid: Grid2d,
    pub my_r: usize,
    pub my_c: usize,
    /// My process row (fixed `r`, all columns).
    pub row: Comm,
    /// My process column (fixed `c`, all rows).
    pub col: Comm,
    pub opts: FactorOpts,
}

/// Tuning knobs for the factorization. The lookahead window (§II-F) is not
/// one of them: it shapes the order a caller hands to [`factor_nodes`].
#[derive(Clone, Copy, Debug)]
pub struct FactorOpts {
    /// Static-pivoting threshold (relative to the block's max entry).
    pub pivot_threshold: f64,
    /// The Schur kernel dispatch threshold
    /// ([`crate::kernels::factor_step_schur`]), `BATCH_MIN_FLOPS` by
    /// default: the seam the kernel-equivalence tests force one kernel
    /// through (`u64::MAX` always per block, `0` always batched). The
    /// kernels are bitwise identical, so it moves host time only, and no
    /// solver configuration exposes it.
    #[doc(hidden)]
    pub schur_batch_min_flops: u64,
}

impl Default for FactorOpts {
    fn default() -> Self {
        FactorOpts {
            pivot_threshold: 1e-10,
            schur_batch_min_flops: BATCH_MIN_FLOPS,
        }
    }
}

/// Factor this rank's share of the supernodes of `nodes` (ascending
/// elimination order) on the 2D grid, updating `store` in place: factored
/// panels overwrite their blocks and Schur updates accumulate into every
/// owned trailing block (including replicated ancestors outside `nodes`,
/// which is what the 3D algorithm relies on). Returns the number of
/// static-pivot perturbations applied on this rank.
///
/// `steps` are the steps of the lookahead order of `nodes`
/// ([`symbolic::BlockFill::lookahead_order`]) that this rank takes — those
/// of the supernodes whose [`symbolic::PanelRosters`] include its grid
/// position — in that order: every other rank of a supernode's rosters
/// takes its panel step in the same relative order, keeping the roster
/// broadcasts aligned, and a rank off them has nothing of that step to do.
/// The 3D driver reads each rank's list from its factorization program. A
/// Schur step this rank skips is an update with no local share: it counts
/// in `schur.zero_flop_updates`, all of them in one call.
///
/// A panel step or Schur update that finds this rank's share of the store
/// incomplete, or a list that updates a supernode before its panel step,
/// ends the list with a [`FailKind::Solver`] (phase `fact`, the supernode).
pub async fn factor_nodes(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &mut BlockStore,
    sym: &Symbolic,
    nodes: &[usize],
    steps: impl IntoIterator<Item = LookaheadStep>,
) -> Result<usize, FailKind> {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must ascend");
    let mut perturbations = 0;
    let mut schur_steps = 0;

    // Panels factored ahead of their Schur update, with their position in
    // `nodes`: at most the lookahead window's worth at a time, so a short
    // vector searched in full. (A map allocating a node per few panels
    // changed glibc's heap trimming enough to fault the freed heap back in
    // every operation: 1.8 k → 10.7 k page faults per `nonplanar_schur`
    // operation in the benchmark.)
    let mut panels: Vec<(usize, PanelData)> = Vec::new();
    // Gather arena of the batched Schur kernel, reused across every
    // supernode of this node list; released (ledger-credited) at the end.
    let mut scratch = SchurScratch::new();

    for step in steps {
        match step {
            LookaheadStep::Panel(j) => {
                let m = nodes[j];
                let (pd, pert) = rank
                    .with_span(SpanCat::Node, format_args!("panel{m}"), async |rank| {
                        factor_step_panel(rank, env, store, sym, m).await
                    })
                    .await?;
                perturbations += pert;
                // Panel pieces held for a pending Schur update are transient
                // Schur-buffer memory; credited when the update consumes them.
                rank.mem_charge(MemClass::SchurBuf, pd.words() * 8);
                panels.push((j, pd));
            }
            LookaheadStep::Schur(idx) => {
                let k = nodes[idx];
                let pending = panels.iter().position(|&(j, _)| j == idx);
                let pd =
                    pending
                        .map(|at| panels.swap_remove(at).1)
                        .ok_or_else(|| FailKind::Solver {
                            phase: "fact".to_string(),
                            supernode: Some(k),
                            level: None,
                            detail: "Schur update before the supernode's panel step".to_string(),
                        })?;
                rank.with_span(SpanCat::Node, format_args!("schur{k}"), async |rank| {
                    let at = env.opts.schur_batch_min_flops;
                    factor_step_schur(rank, store, sym, k, &pd, &mut scratch, at)
                })
                .await?;
                rank.mem_credit(MemClass::SchurBuf, pd.words() * 8);
                schur_steps += 1;
            }
        }
    }
    scratch.release(rank);
    let skipped = nodes.len().saturating_sub(schur_steps);
    if skipped > 0 {
        rank.metric_inc("schur.zero_flop_updates", skipped as u64);
    }
    Ok(perturbations)
}

/// Every supernode as one node list, and the steps of its lookahead order
/// at the default window of 8 that the rank at `env`'s grid position takes:
/// the whole 2D factorization, for the tests that drive [`factor_nodes`]
/// without a 3D program.
#[cfg(test)]
pub(crate) fn whole_order(sym: &Symbolic, env: &FactorEnv) -> (Vec<usize>, Vec<LookaheadStep>) {
    let nodes: Vec<usize> = (0..sym.nsup()).collect();
    let order = sym
        .fill
        .lookahead_order(&nodes, &vec![false; nodes.len()], 8);
    let rosters = sym.fill.panel_rosters(env.grid.pr, env.grid.pc);
    let takes = |k: usize| {
        rosters.rows(k).binary_search(&env.my_r).is_ok()
            && rosters.cols(k).binary_search(&env.my_c).is_ok()
    };
    let steps = order
        .into_iter()
        .filter(|s| takes(nodes[s.pos()]))
        .collect();
    (nodes, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Prepared;
    use crate::store::InitValues;
    use proptest::prelude::*;
    use simgrid::topology::build_grid_comms;
    use simgrid::{Grid3d, Machine, RankReport, TimeModel};
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt, random_band};
    use sparsemat::testmats::Geometry;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// A panel step whose store lacks one of its supernode's L blocks fails
    /// the block's owner with a structured error naming the supernode; the
    /// machine reports that rank, not the peers left waiting for it, and
    /// nothing aborts — on both backends.
    #[test]
    fn a_missing_l_block_is_a_structured_failure_naming_the_supernode() {
        let prep = Prepared::new(
            grid2d_5pt(12, 12, 0.1, 3),
            Geometry::Grid2d { nx: 12, ny: 12 },
            8,
            8,
        );
        let grid3 = Grid3d::new(2, 2, 1);
        // A leaf: no earlier update targets its column, so its panel step is
        // the first to look for the block.
        let fill = &prep.sym.fill;
        let lost = (prep.sym.nsup() / 2..prep.sym.nsup())
            .find(|&k| fill.children()[k].is_empty() && !fill.struct_of[k].is_empty())
            .expect("a leaf supernode with an L block");
        let row = prep.sym.fill.struct_of[lost][0];
        let owner = grid3.grid2d.owner(row, lost);
        for backend in [simgrid::Backend::Threaded, simgrid::Backend::Event] {
            let machine = Machine::new(grid3.size(), TimeModel::zero()).with_backend(backend);
            let (pa, sym) = (Arc::clone(&prep.pa), Arc::clone(&prep.sym));
            let failure = machine
                .try_run_tasks(async move |rank| {
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
                        &env.grid,
                        my_r,
                        my_c,
                        &|_| true,
                        InitValues::FromMatrix,
                    );
                    if (my_r, my_c) == owner {
                        store.take(row, lost).expect("the owner holds it");
                    }
                    let (nodes, steps) = whole_order(&sym, &env);
                    factor_nodes(rank, &env, &mut store, &sym, &nodes, steps)
                        .await
                        .unwrap_or_else(|kind| rank.fail(kind));
                })
                .expect_err("the factorization cannot complete");
            let primary = failure.primary();
            assert_eq!(
                primary.rank,
                grid3.rank_of(owner.0, owner.1, 0),
                "{backend}"
            );
            assert!(
                matches!(&primary.kind, simgrid::FailKind::Solver { phase, supernode, .. }
                    if phase == "fact" && *supernode == Some(lost)),
                "{backend}: {}",
                primary.kind
            );
        }
    }

    /// A Schur update whose target block is missing from its owner's store
    /// fails that owner with a structured error naming the supernode, under
    /// either kernel and on both backends — it used to panic the rank.
    #[test]
    fn a_missing_schur_target_is_a_structured_failure_naming_the_supernode() {
        let prep = Prepared::new(
            grid2d_5pt(12, 12, 0.1, 3),
            Geometry::Grid2d { nx: 12, ny: 12 },
            8,
            8,
        );
        let grid3 = Grid3d::new(2, 2, 1);
        // An off-diagonal target whose first writer is `k`'s update: no
        // earlier update, and no panel step before it, looks for the block.
        let mut first_writer = std::collections::BTreeMap::new();
        for (k, list) in prep.sym.fill.struct_of.iter().enumerate() {
            for &i in list {
                for &j in list.iter().filter(|&&j| j != i) {
                    first_writer.entry((i, j)).or_insert(k);
                }
            }
        }
        let (&(i, j), &k) = first_writer
            .iter()
            .find(|&(_, &k)| k >= prep.sym.nsup() / 2)
            .expect("an off-diagonal Schur target");
        let owner = grid3.grid2d.owner(i, j);
        for batch_min_flops in [PER_BLOCK, ALL_BATCHED] {
            for backend in [simgrid::Backend::Threaded, simgrid::Backend::Event] {
                let machine = Machine::new(grid3.size(), TimeModel::zero()).with_backend(backend);
                let (pa, sym) = (Arc::clone(&prep.pa), Arc::clone(&prep.sym));
                let failure = machine
                    .try_run_tasks(async move |rank| {
                        let comms = build_grid_comms(rank, &grid3);
                        let (my_r, my_c, _) = comms.coords;
                        let env = FactorEnv {
                            grid: grid3.grid2d,
                            my_r,
                            my_c,
                            row: comms.row,
                            col: comms.col,
                            opts: FactorOpts {
                                schur_batch_min_flops: batch_min_flops,
                                ..FactorOpts::default()
                            },
                        };
                        let mut store = BlockStore::build(
                            &pa,
                            &sym,
                            &env.grid,
                            my_r,
                            my_c,
                            &|_| true,
                            InitValues::FromMatrix,
                        );
                        if (my_r, my_c) == owner {
                            store.take(i, j).expect("the owner holds it");
                        }
                        let (nodes, steps) = whole_order(&sym, &env);
                        factor_nodes(rank, &env, &mut store, &sym, &nodes, steps)
                            .await
                            .unwrap_or_else(|kind| rank.fail(kind));
                    })
                    .expect_err("the factorization cannot complete");
                let ctx = format!("({i},{j}) of {k}, threshold {batch_min_flops}, {backend}");
                let primary = failure.primary();
                assert_eq!(primary.rank, grid3.rank_of(owner.0, owner.1, 0), "{ctx}");
                assert!(
                    matches!(&primary.kind, simgrid::FailKind::Solver { phase, supernode, detail, .. }
                        if phase == "fact" && *supernode == Some(k)
                            && detail.contains(&format!("({i},{j})"))),
                    "{ctx}: {}",
                    primary.kind
                );
            }
        }
    }

    /// An order that updates a supernode before its panel step is refused
    /// with a structured error naming it, not a panic.
    #[test]
    fn a_schur_update_before_its_panel_is_a_structured_failure() {
        let prep = Prepared::new(
            grid2d_5pt(6, 6, 0.1, 3),
            Geometry::Grid2d { nx: 6, ny: 6 },
            8,
            8,
        );
        let grid3 = Grid3d::new(1, 1, 1);
        let (pa, sym) = (Arc::clone(&prep.pa), Arc::clone(&prep.sym));
        let failure = Machine::new(1, TimeModel::zero())
            .try_run_tasks(async move |rank| {
                let comms = build_grid_comms(rank, &grid3);
                let env = FactorEnv {
                    grid: grid3.grid2d,
                    my_r: 0,
                    my_c: 0,
                    row: comms.row,
                    col: comms.col,
                    opts: FactorOpts::default(),
                };
                let mut store = BlockStore::build(
                    &pa,
                    &sym,
                    &env.grid,
                    0,
                    0,
                    &|_| true,
                    InitValues::FromMatrix,
                );
                let (nodes, _) = whole_order(&sym, &env);
                let order = [LookaheadStep::Schur(0)];
                factor_nodes(rank, &env, &mut store, &sym, &nodes, order)
                    .await
                    .unwrap_or_else(|kind| rank.fail(kind));
            })
            .expect_err("the order is refused");
        assert!(
            matches!(&failure.primary().kind, simgrid::FailKind::Solver { phase, supernode: Some(0), .. }
                if phase == "fact"),
            "{}",
            failure.primary().kind
        );
    }

    // ---- The Schur dispatch's bitwise contract --------------------------
    //
    // The batched gather-GEMM-scatter kernel must produce the same factors
    // as the per-block loop, down to the last ULP, with the same flop
    // charges and simulated clocks — that is what lets the dispatcher pick a
    // kernel from input size alone. Reference: the per-block loop forced
    // for every supernode (`u64::MAX`). Subject: the shipped dispatcher.

    /// Always per-block / always batched, through the crate-private seam.
    const PER_BLOCK: u64 = u64::MAX;
    const ALL_BATCHED: u64 = 0;

    /// Factor `prep` on a simulated `pr x pc` grid with the given dispatch
    /// threshold; returns every rank's factored store and report.
    fn factor_stores(
        prep: &Prepared,
        pr: usize,
        pc: usize,
        batch_min_flops: u64,
    ) -> (Vec<BlockStore>, Vec<RankReport>) {
        let grid3 = Grid3d::new(pr, pc, 1);
        let machine = Machine::new(pr * pc, TimeModel::edison_like());
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
                opts: FactorOpts {
                    schur_batch_min_flops: batch_min_flops,
                    ..FactorOpts::default()
                },
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
        (out.results, out.reports)
    }

    /// Supernode updates that took the gather branch, over all ranks.
    fn batched_supernodes(reports: &[RankReport]) -> u64 {
        reports
            .iter()
            .map(|r| r.metrics.counter("schur.batched_supernodes"))
            .sum()
    }

    /// Every block of every rank agrees to the bit, and so do the flop
    /// charges and final simulated clocks (the kernels are
    /// indistinguishable to the simulation).
    fn assert_runs_bitwise_equal(
        reference: &(Vec<BlockStore>, Vec<RankReport>),
        subject: &(Vec<BlockStore>, Vec<RankReport>),
        ctx: &str,
    ) {
        assert_eq!(reference.0.len(), subject.0.len(), "{ctx}: rank count");
        for (rid, (a, b)) in reference.0.iter().zip(&subject.0).enumerate() {
            let mut keys_a: Vec<_> = a.keys().collect();
            let mut keys_b: Vec<_> = b.keys().collect();
            keys_a.sort_unstable();
            keys_b.sort_unstable();
            assert_eq!(keys_a, keys_b, "{ctx}: rank {rid} block sets differ");
            for (i, j) in keys_a {
                let ma = a.get(i, j).unwrap().as_slice();
                let mb = b.get(i, j).unwrap().as_slice();
                assert_eq!(
                    ma.len(),
                    mb.len(),
                    "{ctx}: rank {rid} block ({i},{j}) shape"
                );
                for (e, (va, vb)) in ma.iter().zip(mb).enumerate() {
                    assert_eq!(
                        va.to_bits(),
                        vb.to_bits(),
                        "{ctx}: rank {rid} block ({i},{j}) elem {e}: {va} vs {vb}"
                    );
                }
            }
        }
        for (rid, (a, b)) in reference.1.iter().zip(&subject.1).enumerate() {
            assert_eq!(a.flops, b.flops, "{ctx}: rank {rid} flop charge");
            assert_eq!(
                a.clock.to_bits(),
                b.clock.to_bits(),
                "{ctx}: rank {rid} simulated clock"
            );
        }
    }

    #[test]
    fn dispatcher_matches_per_block_on_pinned_grids() {
        let a = grid3d_7pt(16, 16, 16, 0.1, 42);
        let geometry = Geometry::Grid3d {
            nx: 16,
            ny: 16,
            nz: 16,
        };
        let prep = Prepared::new(a, geometry, 32, 32);
        for (pr, pc) in [(1, 1), (2, 2), (1, 3), (3, 2)] {
            let ctx = format!("grid {pr}x{pc}");
            let reference = factor_stores(&prep, pr, pc, PER_BLOCK);
            let subject = factor_stores(&prep, pr, pc, BATCH_MIN_FLOPS);
            assert_eq!(batched_supernodes(&reference.1), 0, "{ctx}: reference");
            assert!(
                batched_supernodes(&subject.1) > 0,
                "{ctx}: the dispatcher never took the gather branch — the \
                 comparison would be the per-block loop against itself"
            );
            assert_runs_bitwise_equal(&reference, &subject, &ctx);
        }
    }

    /// Cases of the property below run so far / that crossed the threshold.
    static CASES_RUN: AtomicU32 = AtomicU32::new(0);
    static CASES_BATCHED: AtomicU32 = AtomicU32::new(0);
    const CASES: u32 = 10;

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: CASES, // each case factors the matrix three times
            .. ProptestConfig::default()
        })]

        /// Bitwise identity holds for random matrices, random supernode
        /// partitions (leaf size and maxsup vary the partition), and random
        /// grid shapes — for the shipped dispatcher and for the batched
        /// kernel forced onto every supernode, however small. Half the
        /// draws are wide-band (near-dense) so that the dispatcher itself
        /// crosses the threshold on at least one case in ten.
        #[test]
        fn dispatcher_matches_per_block_everywhere(
            n in 100usize..340,
            wide in 0u8..2,
            bw in 1usize..6,
            fill in 0.3f64..0.9,
            seed in 0u64..1000,
            leaf in 4usize..16,
            maxsup in 8usize..48,
            pr in 1usize..4,
            pc in 1usize..4,
        ) {
            let bw = if wide == 1 { n } else { bw };
            let a = random_band(n, bw, fill, seed);
            let prep = Prepared::new(a, Geometry::General, leaf, maxsup);
            let ctx =
                format!("n={n} bw={bw} seed={seed} leaf={leaf} maxsup={maxsup} grid {pr}x{pc}");
            let reference = factor_stores(&prep, pr, pc, PER_BLOCK);
            let subject = factor_stores(&prep, pr, pc, BATCH_MIN_FLOPS);
            let all_batched = factor_stores(&prep, pr, pc, ALL_BATCHED);
            assert_runs_bitwise_equal(&reference, &subject, &ctx);
            assert_runs_bitwise_equal(&reference, &all_batched, &format!("{ctx} all-batched"));
            if batched_supernodes(&subject.1) > 0 {
                CASES_BATCHED.fetch_add(1, Ordering::Relaxed);
            }
            // After the last case: the family must not have gone vacuous
            // (e.g. through a retuned threshold).
            if CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
                let crossed = CASES_BATCHED.load(Ordering::Relaxed);
                prop_assert!(
                    crossed * 10 >= CASES,
                    "only {crossed} of {CASES} cases crossed the batching threshold"
                );
            }
        }
    }
}
