//! The node-list factorization driver: `dSparseLU2D(A, nList)` from the
//! paper's Algorithm 1, with the elimination-tree lookahead of §II-F.

use crate::kernels::{factor_step_panel, factor_step_schur, factor_step_schur_batched, PanelData};
use crate::store::{BlockStore, SchurScratch};
use simgrid::{Comm, Grid2d, MemClass, Rank, SpanCat};
use std::collections::HashMap;
use symbolic::Symbolic;

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
    /// Run the Schur-complement update through the batched
    /// gather-GEMM-scatter path ([`factor_step_schur_batched`]): owned
    /// panel pieces are aggregated into contiguous scratch panels and
    /// multiplied by one register-blocked GEMM per supernode instead of one
    /// tiny GEMM per block pair. Bit-identical factors either way; this is
    /// purely a host-performance knob (see docs/perf.md).
    pub batched_schur: bool,
}

impl Default for FactorOpts {
    fn default() -> Self {
        FactorOpts {
            lookahead: 8,
            pivot_threshold: 1e-10,
            batched_schur: false,
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
    factor_nodes_with(rank, env, store, sym, nodes, done, &mut |_, _, _| {})
}

/// [`factor_nodes`] with a progress hook for the 3D task-graph schedule:
/// `after_schur(rank, store, pos)` is called once per scheduled node,
/// immediately after the Schur update of `nodes[pos - 1]` completes (so
/// `pos` runs 1..=nodes.len()). At that point every block whose last
/// writer is `nodes[pos - 1]` holds its final value for this node list —
/// the hook may ship such blocks (eager ancestor-reduction sends) but must
/// not mutate blocks still pending updates. The hook runs outside any node
/// span, and the compute schedule is identical to [`factor_nodes`]'s, so a
/// no-op hook is bitwise equivalent.
pub fn factor_nodes_with(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &mut BlockStore,
    sym: &Symbolic,
    nodes: &[usize],
    done: &mut [bool],
    after_schur: &mut dyn FnMut(&mut Rank, &mut BlockStore, usize),
) -> FactorOutcome {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must ascend");
    let mut outcome = FactorOutcome::default();

    // Unprocessed-children counts for the lookahead readiness test. A node
    // is panel-ready when every not-yet-done elimination-tree child has been
    // processed: its column then has all updates applied.
    let children = sym.fill.children();

    // Validate the `done[]` contract up front: every scheduled node's
    // children must either be marked done (processed earlier, or owned by
    // another grid whose contribution arrives via ancestor reduction) or be
    // scheduled before it in this list. A violation used to surface as a
    // bare "current node must be panel-ready" panic deep inside the loop;
    // failing here names the offending supernode and child instead.
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

    let mut pending: HashMap<usize, usize> = HashMap::new();
    for &k in nodes {
        pending.insert(k, children[k].iter().filter(|&&c| !done[c]).count());
    }

    let mut panels: HashMap<usize, PanelData> = HashMap::new();
    let mut paneled = vec![false; nodes.len()];
    // Scratch arena for the batched Schur path, reused across every
    // supernode of this node list; released (ledger-credited) at the end.
    let mut scratch = SchurScratch::new();

    for idx in 0..nodes.len() {
        let k = nodes[idx];
        // Run panel phases for the window [idx, idx + lookahead], in order,
        // for every node whose children are all done. All ranks compute the
        // same schedule from shared symbolic state, keeping the collective
        // broadcasts aligned.
        let w_end = (idx + env.opts.lookahead + 1).min(nodes.len());
        for j in idx..w_end {
            let m = nodes[j];
            if paneled[j] || pending[&m] > 0 {
                continue;
            }
            let (pd, pert) = rank.with_span(SpanCat::Node, format_args!("panel{m}"), |rank| {
                factor_step_panel(rank, env, store, sym, m)
            });
            outcome.perturbations += pert;
            if j > idx {
                outcome.lookahead_hits += 1;
            }
            // Panel pieces held for a pending Schur update are transient
            // Schur-buffer memory; credited when the update consumes them.
            rank.mem_charge(MemClass::SchurBuf, pd.words() * 8);
            panels.insert(m, pd);
            paneled[j] = true;
        }

        let pd = panels
            .remove(&k)
            .expect("current node must be panel-ready (children all done)");
        rank.with_span(SpanCat::Node, format_args!("schur{k}"), |rank| {
            if env.opts.batched_schur {
                factor_step_schur_batched(rank, env, store, sym, k, &pd, &mut scratch);
            } else {
                factor_step_schur(rank, env, store, sym, k, &pd);
            }
        });
        rank.mem_credit(MemClass::SchurBuf, pd.words() * 8);
        done[k] = true;
        // The Schur update completes node k; decrement its etree parent's
        // pending count if the parent is in this list.
        if let Some(p) = sym.fill.parent[k] {
            if let Some(cnt) = pending.get_mut(&p) {
                *cnt -= 1;
            }
        }
        after_schur(rank, store, idx + 1);
    }
    scratch.release(rank);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InitValues;
    use ordering::{nested_dissection, Graph, NdOptions};
    use simgrid::{Machine, TimeModel};
    use sparsemat::matgen::grid2d_5pt;
    use sparsemat::testmats::Geometry;
    use std::panic::AssertUnwindSafe;
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
                // Schedule only the root; nothing is done: contract violated.
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
}
