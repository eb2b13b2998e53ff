//! Algorithm 1: the 3D sparse LU factorization driver.
//!
//! Every rank executes the level loop from the paper's pseudocode. At level
//! `lvl` (counting `l` at the leaves down to `0` at the root), the grids
//! whose `z` is a multiple of `2^(l-lvl)` are *active*: each factors its
//! local forest `E_f[lvl]` with the 2D kernel (`dSparseLU2D`), updating its
//! replicated ancestor copies. Then active grids pair up along `z` and the
//! odd member of each pair sends its ancestor blocks to the even member,
//! which sums them (*ancestor reduction*). Communication in the reduction
//! is purely point-to-point between ranks with identical `(x, y)` grid
//! coordinates — the z-axis of the 3D grid.

use crate::forest::EtreeForest;
use simgrid::topology::GridComms;
use simgrid::{FailKind, Grid3d, Rank};
use slu2d::factor2d::{factor_nodes, FactorEnv, FactorOpts};
use slu2d::store::{pack_blocks, unpack_blocks, BlockStore};
use symbolic::Symbolic;

/// Reduction message tag namespace (above the 2D kernel tags), from the
/// workspace-wide audited registry.
use simgrid::tags::T_REDUCE;

/// Counters from a 3D factorization on one rank.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcome3d {
    pub perturbations: usize,
    pub lookahead_hits: usize,
    /// Number of levels this grid was active in.
    pub active_levels: usize,
}

/// The blocks of supernode `s` this rank owns among the ancestor set:
/// diagonal plus both panels, in a deterministic order shared by sender and
/// receiver. Block ids are encoded as `i * nsup + j` for the packed wire
/// format.
fn owned_ancestor_blocks(
    store: &BlockStore,
    sym: &Symbolic,
    grid: &simgrid::Grid2d,
    my_r: usize,
    my_c: usize,
    s: usize,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    if grid.owner(s, s) == (my_r, my_c) && store.contains(s, s) {
        out.push((s, s));
    }
    for &i in &sym.fill.struct_of[s] {
        if grid.owner(i, s) == (my_r, my_c) && store.contains(i, s) {
            out.push((i, s));
        }
        if grid.owner(s, i) == (my_r, my_c) && store.contains(s, i) {
            out.push((s, i));
        }
    }
    out
}

/// Run Algorithm 1. `store` must have been built with the forest's keep and
/// value-initialization predicates (see [`crate::solver`]). Returns per-rank
/// counters; the factored panels are left distributed exactly as the paper's
/// "final state": each supernode's factors on the grid that factored it.
///
/// A z-line reduction whose message cannot be received (stalled peer past
/// the receive deadline, dead peer, deadlock) surfaces as a structured
/// [`FailKind::Solver`] naming the phase, supernode, and forest level,
/// instead of poisoning a channel — the caller fails the rank with it
/// (`rank.fail`), keeping machine-level failure attribution intact.
pub fn factor_3d(
    rank: &mut Rank,
    grid3: &Grid3d,
    comms: &GridComms,
    store: &mut BlockStore,
    sym: &Symbolic,
    forest: &EtreeForest,
    opts: FactorOpts,
) -> Result<Outcome3d, FailKind> {
    let l = forest.l;
    assert_eq!(grid3.pz, forest.pz(), "grid/forest Pz mismatch");
    let (my_r, my_c, my_z) = comms.coords;
    // Charge every block to the memory ledger up front (the symbolic
    // pattern is fully allocated before numeric work starts). The panel
    // supernode is `min(i, j)` (blocks of column/row panels lie below and
    // right of their panel's diagonal); a panel whose node sits above the
    // grid's leaf level is a replicated ancestor — the Pz copies the paper
    // trades for communication — attributed to its tree level. Charging
    // here rather than in the caller keeps the reduction's
    // `AncestorReplica` credits symmetric for every `factor_3d` user.
    store.charge_to_ledger(rank, |i, j| {
        let p = i.min(j);
        let np = sym.part.node_of_sn[p];
        let lvl = forest.part_level[np] as u32;
        let class = if forest.part_level[np] < forest.l {
            simgrid::MemClass::AncestorReplica
        } else if i < j {
            simgrid::MemClass::UPanel
        } else {
            simgrid::MemClass::LPanel
        };
        (class, lvl)
    });
    let env = FactorEnv {
        grid: grid3.grid2d,
        my_r,
        my_c,
        row: comms.row.clone(),
        col: comms.col.clone(),
        opts,
    };

    // Supernodes whose updates this grid never sees locally (other grids'
    // subtrees) are marked done up front: their contributions arrive through
    // the ancestor reduction instead.
    let mut done: Vec<bool> = (0..sym.nsup())
        .map(|s| !forest.keeps(sym.part.node_of_sn[s], my_z))
        .collect();

    let mut outcome = Outcome3d::default();
    for lvl in (0..=l).rev() {
        let step = 1usize << (l - lvl);
        if my_z % step != 0 {
            continue; // this grid is inactive from here on
        }
        outcome.active_levels += 1;
        rank.set_tree_level(lvl as u32);
        let q = my_z >> (l - lvl);
        let nodes = forest.supernodes_of(lvl, q, &sym.part);
        // One span per active forest level; the `fact`/`reduce` phase spans
        // and per-supernode node spans nest underneath it.
        let lvl_span = rank.span_enter(simgrid::SpanCat::Level, format_args!("level{lvl}"));
        rank.set_phase("fact");
        let k = my_z / step;
        let fo = factor_nodes(rank, &env, store, sym, &nodes, &mut done).map_err(|mut e| {
            if let FailKind::Solver { level, .. } = &mut e {
                *level = Some(lvl);
            }
            e
        })?;
        outcome.perturbations += fo.perturbations;
        outcome.lookahead_hits += fo.lookahead_hits;

        if lvl == 0 {
            rank.span_exit(lvl_span);
            break;
        }
        // Ancestor reduction: pair (k even) <- (k odd) along the z-axis.
        rank.set_phase("reduce");
        if k.is_multiple_of(2) {
            let src_z = my_z + step;
            reduce_ancestors(rank, comms, store, sym, forest, lvl, my_z, src_z, false)?;
        } else {
            let dest_z = my_z - step;
            reduce_ancestors(rank, comms, store, sym, forest, lvl, my_z, dest_z, true)?;
        }
        rank.span_exit(lvl_span);
    }
    Ok(outcome)
}

/// One side of the level-`lvl` ancestor reduction between this rank and its
/// z-line peer. Covers every ancestor forest level `l_a < lvl`
/// (Algorithm 1's inner loop), one packed message per supernode with owned
/// blocks. Sender and receiver derive identical block lists from shared
/// symbolic state, so no negotiation traffic is needed.
#[allow(clippy::too_many_arguments)]
fn reduce_ancestors(
    rank: &mut Rank,
    comms: &GridComms,
    store: &mut BlockStore,
    sym: &Symbolic,
    forest: &EtreeForest,
    lvl: usize,
    my_z: usize,
    peer_z: usize,
    i_am_sender: bool,
) -> Result<(), FailKind> {
    let l = forest.l;
    let grid = simgrid::Grid2d {
        pr: comms.col.size(),
        pc: comms.row.size(),
    };
    let (my_r, my_c, _) = comms.coords;
    for l_a in (0..lvl).rev() {
        let q_a = my_z >> (l - l_a);
        debug_assert_eq!(q_a, peer_z >> (l - l_a), "pair must share ancestors");
        for s in forest.supernodes_of(l_a, q_a, &sym.part) {
            let blocks = owned_ancestor_blocks(store, sym, &grid, my_r, my_c, s);
            if blocks.is_empty() {
                continue;
            }
            let tag = T_REDUCE | s as u64;
            if i_am_sender {
                let nsup = sym.nsup();
                let items: Vec<(usize, &densela::Mat)> = blocks
                    .iter()
                    .map(|&(i, j)| (i * nsup + j, store.get(i, j).expect("owned block")))
                    .collect();
                let sent_bytes: u64 = items
                    .iter()
                    .map(|(_, m)| (m.rows() * m.cols()) as u64 * 8)
                    .sum();
                let payload = pack_blocks(&items);
                rank.with_comm_class(simgrid::CommClass::ZReduction, |rank| {
                    rank.send(&comms.zline, peer_z, tag, payload)
                });
                // This grid retires after sending: its replica of ancestor
                // `s` is dead, so release the bytes charged at store build
                // (class AncestorReplica, level `l_a`).
                rank.mem_credit_at(simgrid::MemClass::AncestorReplica, l_a as u32, sent_bytes);
            } else {
                let payload =
                    rank.recv_checked(&comms.zline, peer_z, tag)
                        .map_err(|e| FailKind::Solver {
                            phase: "reduce".to_string(),
                            supernode: Some(s),
                            level: Some(l_a),
                            detail: format!("z-line reduction recv from z={peer_z} failed: {e}"),
                        })?;
                let nsup = sym.nsup();
                for (code, m) in unpack_blocks(payload) {
                    let (i, j) = (code / nsup, code % nsup);
                    store
                        .get_mut(i, j)
                        .ok_or_else(|| FailKind::Solver {
                            phase: "reduce".to_string(),
                            supernode: Some(s),
                            level: Some(l_a),
                            detail: format!("reduction target ({i},{j}) missing"),
                        })?
                        .add_assign(&m);
                }
            }
        }
    }
    Ok(())
}
