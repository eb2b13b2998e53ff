//! Algorithm 1: the 3D sparse LU factorization driver.
//!
//! Every rank executes its layer of the machine's [`FactorProgram`]: per
//! active forest level, it factors the layer's local forest `E_f[lvl]` with
//! the 2D kernel (`dSparseLU2D`) in the program's panel order, updating its
//! replicated ancestor copies, then takes its side of the level's ancestor
//! reduction. Communication in the reduction is purely point-to-point
//! between ranks with identical `(x, y)` grid coordinates — the z-axis of
//! the 3D grid.

use crate::program::{FactorProgram, Reduction};
use simgrid::topology::GridComms;
use simgrid::{FailKind, Grid3d, Rank};
use slu2d::factor2d::{factor_nodes, FactorEnv, FactorOpts};
use slu2d::store::{pack_blocks, BlockStore, PackedBlocks};
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

/// Run Algorithm 1: execute layer `z` of `program` on this rank. `store`
/// must have been built with the program's keep and value-initialization
/// rules ([`FactorProgram::keeps`], [`FactorProgram::initializes`]).
/// Returns per-rank counters; the factored panels are left distributed
/// exactly as the paper's "final state": each supernode's factors on the
/// grid that factored it.
///
/// A z-line reduction whose message cannot be received (stalled peer past
/// the receive deadline, dead peer, deadlock), a sender missing one of the
/// ancestor blocks it must send, or a message that does not carry exactly
/// the receiver's own block list surfaces as a structured
/// [`FailKind::Solver`] naming the phase, supernode, and forest level,
/// instead of poisoning a channel or summing a short message — the caller
/// fails the rank with it (`rank.fail`), keeping machine-level failure
/// attribution intact.
pub async fn factor_3d(
    rank: &mut Rank,
    grid3: &Grid3d,
    comms: &GridComms,
    store: &mut BlockStore,
    sym: &Symbolic,
    program: &FactorProgram,
    opts: FactorOpts,
) -> Result<Outcome3d, FailKind> {
    assert_eq!(grid3.pz, program.pz(), "grid/program Pz mismatch");
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
        let lvl = program.level_of(i.min(j));
        let class = if lvl < program.leaf_level() {
            simgrid::MemClass::AncestorReplica
        } else if i < j {
            simgrid::MemClass::UPanel
        } else {
            simgrid::MemClass::LPanel
        };
        (class, lvl as u32)
    });
    let env = FactorEnv {
        grid: grid3.grid2d,
        my_r,
        my_c,
        row: comms.row.clone(),
        col: comms.col.clone(),
        opts,
    };

    let mut outcome = Outcome3d::default();
    for level in program.layer(my_z) {
        let lvl = level.lvl;
        outcome.active_levels += 1;
        rank.set_tree_level(lvl as u32);
        // One span per active forest level; the `fact`/`reduce` phase spans
        // and per-supernode node spans nest underneath it.
        let lvl_span = rank.span_enter(simgrid::SpanCat::Level, format_args!("level{lvl}"));
        rank.set_phase("fact");
        let fo = factor_nodes(rank, &env, store, sym, &level.nodes, &level.order)
            .await
            .map_err(|mut e| {
                if let FailKind::Solver { level, .. } = &mut e {
                    *level = Some(lvl);
                }
                e
            })?;
        outcome.perturbations += fo.perturbations;
        outcome.lookahead_hits += fo.lookahead_hits;
        if let Some(reduction) = &level.reduction {
            rank.set_phase("reduce");
            reduce_ancestors(rank, &env, comms, store, sym, program, reduction).await?;
        }
        rank.span_exit(lvl_span);
    }
    Ok(outcome)
}

/// This rank's side of one ancestor reduction with its z-line peer: one
/// packed message per ancestor supernode it holds blocks of, in the
/// program's `(l_a desc, s asc)` order. Sender and receiver read their
/// block lists off the same rule ([`FactorProgram::reduction_blocks`]), so
/// no negotiation traffic is needed, and each side checks the other
/// against it.
async fn reduce_ancestors(
    rank: &mut Rank,
    env: &FactorEnv,
    comms: &GridComms,
    store: &mut BlockStore,
    sym: &Symbolic,
    program: &FactorProgram,
    reduction: &Reduction,
) -> Result<(), FailKind> {
    let (my_z, peer_z) = (comms.coords.2, reduction.peer);
    let nsup = sym.nsup();
    for &(l_a, s) in &reduction.ancestors {
        let blocks: Vec<(usize, usize)> = program
            .reduction_blocks(sym, env.grid, s, (env.my_r, env.my_c), my_z)
            .collect();
        if blocks.is_empty() {
            continue;
        }
        let fail = |detail: String| FailKind::Solver {
            phase: "reduce".to_string(),
            supernode: Some(s),
            level: Some(l_a),
            detail,
        };
        let tag = T_REDUCE | s as u64;
        if reduction.send {
            let items = blocks
                .iter()
                .map(|&(i, j)| store.get(i, j).map(|m| (i * nsup + j, m)))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| fail(format!("an ancestor block of {blocks:?} is not held")))?;
            let sent_bytes: u64 = items
                .iter()
                .map(|(_, m)| (m.rows() * m.cols()) as u64 * 8)
                .sum();
            let payload = pack_blocks(&items);
            rank.with_comm_class(simgrid::CommClass::ZReduction, async |rank| {
                rank.send(&comms.zline, peer_z, tag, payload)
            })
            .await;
            // This grid retires after sending: its replica of ancestor
            // `s` is dead, so release the bytes charged at store build
            // (class AncestorReplica, level `l_a`).
            rank.mem_credit_at(simgrid::MemClass::AncestorReplica, l_a as u32, sent_bytes);
        } else {
            let payload = rank
                .recv_checked(&comms.zline, peer_z, tag)
                .await
                .map_err(|e| fail(format!("z-line reduction recv from z={peer_z} failed: {e}")))?;
            let expected: Vec<_> = blocks
                .iter()
                .map(|&(i, j)| {
                    let (rows, cols) = sym.block_shape(i, j);
                    (i * nsup + j, rows, cols)
                })
                .collect();
            let received = PackedBlocks::from_payload(payload, &expected)
                .map_err(|d| fail(format!("z={peer_z} sent {d}; this rank reduces {blocks:?}")))?;
            for ((i, j), (_, m)) in blocks.iter().copied().zip(received.iter()) {
                store
                    .get_mut(i, j)
                    .ok_or_else(|| fail(format!("reduction target ({i},{j}) missing")))?
                    .add_assign(m);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::EtreeForest;
    use simgrid::topology::build_grid_comms;
    use simgrid::{Backend, Machine, TimeModel};
    use slu2d::driver::Prepared;
    use sparsemat::matgen::grid2d_5pt;
    use sparsemat::testmats::Geometry;
    use std::sync::Arc;

    /// A sending layer whose store has lost one of the ancestor blocks its
    /// reduction ships fails that rank with a structured error naming the
    /// supernode — it used to send a short message the receiver summed
    /// without a word, leaving factors unreduced. The machine reports the
    /// sender, not the receiver left waiting, and nothing aborts — on both
    /// backends.
    #[test]
    fn a_missing_ancestor_block_is_a_structured_failure_naming_the_supernode() {
        let prep = Prepared::new(
            grid2d_5pt(16, 16, 0.1, 3),
            Geometry::Grid2d { nx: 16, ny: 16 },
            8,
            8,
        );
        let grid3 = Grid3d::new(2, 2, 2);
        let sym = &prep.sym;
        let forest = EtreeForest::build(&prep.tree, sym, grid3.pz);
        let program = Arc::new(FactorProgram::new(sym, &forest, 8));
        // Layer 1 sends at the leaf level. Lose a block of its reduction
        // that none of its own Schur updates targets, so the reduction is
        // the first step to look for it.
        let level = program.level(1, 1).expect("layer 1 runs the leaf level");
        let reduction = level
            .reduction
            .as_ref()
            .filter(|r| r.send)
            .expect("it sends");
        let updated = |i: usize, j: usize| {
            let targets = |k: usize| {
                let st = &sym.fill.struct_of[k];
                st.contains(&i) && st.contains(&j)
            };
            level.nodes.iter().any(|&k| targets(k))
        };
        let positions = (0..2).flat_map(|r| (0..2).map(move |c| (r, c)));
        let (s, at, (i, j)) = reduction
            .ancestors
            .iter()
            .flat_map(|&(_, s)| positions.clone().map(move |at| (s, at)))
            .find_map(|(s, at)| {
                let mut blocks = program.reduction_blocks(sym, grid3.grid2d, s, at, 1);
                blocks.find(|&(i, j)| !updated(i, j)).map(|b| (s, at, b))
            })
            .expect("an ancestor block no update on layer 1 targets");
        for backend in [Backend::Threaded, Backend::Event] {
            let machine = Machine::new(grid3.size(), TimeModel::zero()).with_backend(backend);
            let (pa, sym, program) = (
                Arc::clone(&prep.pa),
                Arc::clone(&prep.sym),
                Arc::clone(&program),
            );
            let failure = machine
                .try_run_tasks(async move |rank| {
                    let comms = build_grid_comms(rank, &grid3);
                    let (my_r, my_c, my_z) = comms.coords;
                    let mut store = BlockStore::build_with_value_pred(
                        &pa,
                        &sym,
                        &grid3.grid2d,
                        my_r,
                        my_c,
                        &|s| program.keeps(s, my_z),
                        &|i, j| program.initializes(i, j, my_z),
                    );
                    if (my_r, my_c, my_z) == (at.0, at.1, 1) {
                        store.take(i, j).expect("the sender holds it");
                    }
                    let opts = FactorOpts::default();
                    factor_3d(rank, &grid3, &comms, &mut store, &sym, &program, opts)
                        .await
                        .unwrap_or_else(|kind| rank.fail(kind));
                })
                .expect_err("the reduction cannot complete");
            let primary = failure.primary();
            assert_eq!(primary.rank, grid3.rank_of(at.0, at.1, 1), "{backend}");
            assert!(
                matches!(&primary.kind, FailKind::Solver { phase, supernode, .. }
                    if phase == "reduce" && *supernode == Some(s)),
                "{backend}: {}",
                primary.kind
            );
        }
    }
}
