//! The node-list factorization driver: `dSparseLU2D(A, nList)` from the
//! paper's Algorithm 1, with the elimination-tree lookahead of §II-F.

use crate::kernels::{factor_step_panel, factor_step_schur_at, PanelData, BATCH_MIN_FLOPS};
use crate::store::{BlockStore, SchurScratch};
use simgrid::{Comm, Grid2d, MemClass, Rank, SpanCat};
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

/// Tuning knobs for the factorization.
#[derive(Clone, Copy, Debug)]
pub struct FactorOpts {
    /// Elimination-tree lookahead window: how many upcoming supernodes may
    /// run their panel phase before the current Schur update (paper §II-F:
    /// "typically ... in the range 8-20"). `0` disables lookahead.
    pub lookahead: usize,
    /// Static-pivoting threshold (relative to the block's max entry).
    pub pivot_threshold: f64,
}

impl Default for FactorOpts {
    fn default() -> Self {
        FactorOpts {
            lookahead: 8,
            pivot_threshold: 1e-10,
        }
    }
}

/// Outcome counters of a node-list factorization.
#[derive(Clone, Copy, Debug, Default)]
pub struct FactorOutcome {
    /// Static-pivot perturbations applied on this rank.
    pub perturbations: usize,
    /// Supernodes whose panel phase ran ahead of the in-order position.
    pub lookahead_hits: usize,
}

/// Factor the supernodes of `nodes` (ascending elimination order) on the 2D
/// grid, updating `store` in place: factored panels overwrite their blocks
/// and Schur updates accumulate into every owned trailing block (including
/// replicated ancestors outside `nodes`, which is what the 3D algorithm
/// relies on).
///
/// `done[s]` must be `true` for every supernode whose updates have already
/// been applied (previous 3D levels) or which lives on another grid (its
/// contribution arrives via ancestor reduction instead). The function marks
/// nodes of `nodes` done as it processes them.
///
/// Collective across the layer: every rank calls with identical arguments.
pub fn factor_nodes(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &mut BlockStore,
    sym: &Symbolic,
    nodes: &[usize],
    done: &mut [bool],
) -> FactorOutcome {
    factor_nodes_at(rank, env, store, sym, nodes, done, BATCH_MIN_FLOPS)
}

/// [`factor_nodes`] with the Schur dispatch threshold as an argument (see
/// [`factor_step_schur_at`]): the crate-private seam the equivalence tests
/// force a kernel through. Never a public option.
fn factor_nodes_at(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &mut BlockStore,
    sym: &Symbolic,
    nodes: &[usize],
    done: &mut [bool],
    batch_min_flops: u64,
) -> FactorOutcome {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must ascend");
    let mut outcome = FactorOutcome::default();

    // Validate the `done[]` contract up front: every scheduled node's
    // children must either be marked done (processed earlier, or owned by
    // another grid whose contribution arrives via ancestor reduction) or be
    // scheduled before it in this list. A violation used to surface as a
    // bare "current node must be panel-ready" panic deep inside the loop;
    // failing here names the offending supernode and child instead.
    let children = sym.fill.children();
    for &k in nodes {
        for &c in &children[k] {
            if !done[c] && nodes.binary_search(&c).is_err() {
                panic!(
                    "factor_nodes: done[] contract violated by caller — supernode {k} \
                     depends on elimination-tree child {c}, which is neither marked \
                     done nor scheduled in this node list (out-of-grid children must \
                     be pre-marked done; their updates arrive via ancestor reduction)"
                );
            }
        }
    }

    // Panels factored ahead of their Schur update, by position in `nodes`.
    let mut panels: Vec<Option<PanelData>> = (0..nodes.len()).map(|_| None).collect();
    // Gather arena of the batched Schur kernel, reused across every
    // supernode of this node list; released (ledger-credited) at the end.
    let mut scratch = SchurScratch::new();

    // All ranks derive the same order from shared symbolic state, keeping
    // the collective broadcasts of the panel steps aligned.
    let mut next_schur = 0;
    for step in sym.fill.lookahead_order(nodes, done, env.opts.lookahead) {
        match step {
            LookaheadStep::Panel(j) => {
                let m = nodes[j];
                let (pd, pert) = rank.with_span(SpanCat::Node, format_args!("panel{m}"), |rank| {
                    factor_step_panel(rank, env, store, sym, m)
                });
                outcome.perturbations += pert;
                if j > next_schur {
                    outcome.lookahead_hits += 1;
                }
                // Panel pieces held for a pending Schur update are transient
                // Schur-buffer memory; credited when the update consumes them.
                rank.mem_charge(MemClass::SchurBuf, pd.words() * 8);
                panels[j] = Some(pd);
            }
            LookaheadStep::Schur(idx) => {
                let k = nodes[idx];
                let pd = panels[idx]
                    .take()
                    .expect("current node must be panel-ready (children all done)");
                rank.with_span(SpanCat::Node, format_args!("schur{k}"), |rank| {
                    factor_step_schur_at(rank, store, sym, k, &pd, &mut scratch, batch_min_flops);
                });
                rank.mem_credit(MemClass::SchurBuf, pd.words() * 8);
                done[k] = true;
                next_schur = idx + 1;
            }
        }
    }
    scratch.release(rank);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Prepared;
    use crate::store::InitValues;
    use ordering::{nested_dissection, Graph, NdOptions};
    use proptest::prelude::*;
    use simgrid::topology::build_grid_comms;
    use simgrid::{Grid3d, Machine, RankReport, TimeModel};
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt, random_band};
    use sparsemat::testmats::Geometry;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn setup(k: usize) -> (sparsemat::Csr, Symbolic) {
        let a = grid2d_5pt(k, k, 0.1, 0);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry: Geometry::Grid2d { nx: k, ny: k },
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = Symbolic::analyze(&pa, &tree, 8);
        (pa, sym)
    }

    /// A caller that schedules a node whose children are neither done nor
    /// scheduled must be rejected at entry with the offending supernode and
    /// child named — not with the old bare "must be panel-ready" panic from
    /// deep inside the loop.
    #[test]
    fn done_contract_violation_names_node_and_child() {
        let (pa, sym) = setup(8);
        let sym = Arc::new(sym);
        let pa = Arc::new(pa);
        let root_sn = sym.nsup() - 1;
        let child = *sym.fill.children()[root_sn]
            .first()
            .expect("root supernode must have a child in this fixture");
        let m = Machine::new(1, TimeModel::zero());
        let sym_cl = Arc::clone(&sym);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            m.run(move |rank| {
                let env = FactorEnv {
                    grid: simgrid::Grid2d::new(1, 1),
                    my_r: 0,
                    my_c: 0,
                    row: rank.world(),
                    col: rank.world(),
                    opts: FactorOpts::default(),
                };
                let mut store = BlockStore::build(
                    &pa,
                    &sym_cl,
                    &env.grid,
                    0,
                    0,
                    &|_| true,
                    InitValues::FromMatrix,
                );
                // Only the root is listed and nothing is done: contract violated.
                let mut done = vec![false; sym_cl.nsup()];
                factor_nodes(rank, &env, &mut store, &sym_cl, &[root_sn], &mut done);
            })
        }))
        .expect_err("violating the done[] contract must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload must be a string");
        assert!(msg.contains("done[] contract violated"), "{msg}");
        assert!(msg.contains(&format!("supernode {root_sn}")), "{msg}");
        assert!(msg.contains(&format!("child {child}")), "{msg}");
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
            factor_nodes_at(
                rank,
                &env,
                &mut store,
                &sym,
                &nodes,
                &mut done,
                batch_min_flops,
            );
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
        let a = grid3d_7pt(14, 14, 14, 0.1, 42);
        let geometry = Geometry::Grid3d {
            nx: 14,
            ny: 14,
            nz: 14,
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
