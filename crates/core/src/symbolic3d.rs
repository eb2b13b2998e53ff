//! Distributed symbolic factorization: the block-fill analysis computed in
//! parallel with Algorithm 1's own skeleton.
//!
//! SuperLU_DIST performs symbolic factorization in parallel; this
//! reproduction's sequential `symbolic::block_symbolic` plays that role for
//! the numeric experiments, and the routine here demonstrates the
//! distributed counterpart on the simulated machine:
//!
//! 1. partition the separator tree by **vertex counts** (no flop model
//!    exists before the symbolic phase — this is exactly why a cheap
//!    balance heuristic is needed here),
//! 2. each z-grid runs the symbolic recurrence over its own subtree
//!    supernodes, recording the structs that propagate to replicated
//!    ancestors,
//! 3. pairs of grids **union** their pending ancestor contributions along
//!    the z-axis (the set analogue of the paper's ancestor reduction) and
//!    the surviving grid continues with the next level,
//! 4. grid 0 finally gathers the per-supernode structs so the result can
//!    be compared against the sequential analysis (they match exactly —
//!    tested).
//!
//! Only the lead rank `(0, 0)` of each layer computes; symbolic work is a
//! tiny serial fraction of factorization and SuperLU similarly runs it on
//! a rank subset.

use crate::forest::{EtreeForest, PartitionStrategy};
use ordering::SepTree;
use simgrid::topology::GridComms;
use simgrid::{Grid3d, Payload, Rank};
use std::collections::HashMap;
use symbolic::{BlockFill, SnPartition};

use simgrid::tags::{T_SYM_GATHER, T_SYM_RED};

/// Build the vertex-count-based tree-forest used by the symbolic phase.
pub fn symbolic_forest(tree: &SepTree, pz: usize) -> EtreeForest {
    let node_cost: Vec<u64> = tree.nodes.iter().map(|n| n.width() as u64).collect();
    EtreeForest::build_with_costs(tree, &node_cost, pz, PartitionStrategy::Greedy)
}

/// State of the distributed symbolic recurrence on one grid.
struct SymState {
    /// Completed structs, by supernode.
    struct_of: HashMap<usize, Vec<usize>>,
    /// Pending contributions to not-yet-processed supernodes: the structs
    /// of children whose elimination-tree parent lies above the current
    /// level.
    pending: HashMap<usize, Vec<Vec<usize>>>,
}

impl SymState {
    /// Run the symbolic recurrence over `nodes` (ascending), consuming any
    /// pending contributions addressed to them.
    fn process(&mut self, ablocks: &HashMap<usize, Vec<usize>>, nodes: &[usize]) {
        for &s in nodes {
            let mut merged: Vec<usize> = ablocks.get(&s).cloned().unwrap_or_default();
            if let Some(contribs) = self.pending.remove(&s) {
                for c in contribs {
                    merged.extend(c.into_iter().filter(|&i| i > s));
                }
            }
            merged.sort_unstable();
            merged.dedup();
            if let Some(&p) = merged.first() {
                // Propagate to the elimination-tree parent (which is either
                // later in this node list or a replicated ancestor).
                self.pending.entry(p).or_default().push(merged.clone());
            }
            self.struct_of.insert(s, merged);
        }
    }
}

/// Run the distributed symbolic factorization. Every rank calls this; the
/// complete [`BlockFill`] is returned on world rank 0 (`None` elsewhere).
///
/// `a` must be the reordered pattern-symmetric matrix and `part` the
/// supernode partition — both cheap, local preprocessing products.
pub fn distributed_symbolic(
    rank: &mut Rank,
    grid3: &Grid3d,
    comms: &GridComms,
    a: &sparsemat::Csr,
    part: &SnPartition,
    tree: &SepTree,
) -> Option<BlockFill> {
    let forest = symbolic_forest(tree, grid3.pz);
    let l = forest.l;
    let (my_r, my_c, my_z) = comms.coords;
    let lead = my_r == 0 && my_c == 0;
    let nsup = part.nsup();

    // Local (cheap, replicated) prep: the block pattern of A's lower
    // triangle, restricted to the supernodes this grid keeps.
    let mut ablocks: HashMap<usize, Vec<usize>> = HashMap::new();
    if lead {
        for i in 0..a.nrows {
            let si = part.sn_of_col[i];
            for &j in a.row_cols(i) {
                let sj = part.sn_of_col[j];
                if si > sj && forest.keeps(part.node_of_sn[sj], my_z) {
                    ablocks.entry(sj).or_default().push(si);
                }
            }
        }
        for v in ablocks.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
    }

    let mut st = SymState {
        struct_of: HashMap::new(),
        pending: HashMap::new(),
    };

    for lvl in (0..=l).rev() {
        let step = 1usize << (l - lvl);
        if my_z % step != 0 {
            continue;
        }
        if lead {
            let q = my_z >> (l - lvl);
            let nodes = forest.supernodes_of(lvl, q, part);
            st.process(&ablocks, &nodes);
        }
        if lvl == 0 {
            break;
        }
        // Pairwise union of pending ancestor contributions along z.
        let k = my_z / step;
        if lead {
            if k.is_multiple_of(2) {
                let src_z = my_z + step;
                let payload = rank.recv(&comms.zline, src_z, T_SYM_RED | lvl as u64);
                for (s, contrib) in decode_pending(payload) {
                    st.pending.entry(s).or_default().push(contrib);
                }
            } else {
                let dest_z = my_z - step;
                let payload = encode_pending(&st.pending);
                st.pending.clear();
                rank.send(&comms.zline, dest_z, T_SYM_RED | lvl as u64, payload);
            }
        }
    }

    // Gather completed structs to grid 0's lead rank.
    if lead {
        if my_z != 0 {
            rank.send(&comms.zline, 0, T_SYM_GATHER, encode_structs(&st.struct_of));
            None
        } else {
            for src_z in 1..grid3.pz {
                let payload = rank.recv(&comms.zline, src_z, T_SYM_GATHER);
                for (s, v) in decode_pending(payload) {
                    // Factoring grids own their supernodes exclusively; a
                    // struct may arrive only once.
                    st.struct_of.entry(s).or_insert(v);
                }
            }
            // Assemble the BlockFill in supernode order.
            let mut struct_of = Vec::with_capacity(nsup);
            let mut parent = Vec::with_capacity(nsup);
            for s in 0..nsup {
                let v = st.struct_of.remove(&s).unwrap_or_default();
                parent.push(v.first().copied());
                struct_of.push(v);
            }
            Some(BlockFill::new(struct_of, parent))
        }
    } else {
        None
    }
}

fn encode_pending(pending: &HashMap<usize, Vec<Vec<usize>>>) -> Payload {
    let mut meta = Vec::new();
    let mut keys: Vec<&usize> = pending.keys().collect();
    keys.sort_unstable();
    for &&s in &keys {
        for contrib in &pending[&s] {
            meta.push(s);
            meta.push(contrib.len());
            meta.extend_from_slice(contrib);
        }
    }
    Payload::Idx(meta)
}

fn encode_structs(structs: &HashMap<usize, Vec<usize>>) -> Payload {
    let mut meta = Vec::new();
    let mut keys: Vec<&usize> = structs.keys().collect();
    keys.sort_unstable();
    for &&s in &keys {
        meta.push(s);
        meta.push(structs[&s].len());
        meta.extend_from_slice(&structs[&s]);
    }
    Payload::Idx(meta)
}

fn decode_pending(payload: Payload) -> Vec<(usize, Vec<usize>)> {
    let meta = payload.into_idx();
    let mut out = Vec::new();
    let mut off = 0;
    while off < meta.len() {
        let s = meta[off];
        let len = meta[off + 1];
        out.push((s, meta[off + 2..off + 2 + len].to_vec()));
        off += 2 + len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ordering::{nested_dissection, Graph, NdOptions};
    use simgrid::topology::build_grid_comms;
    use simgrid::{Machine, TimeModel};
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt, random_band};
    use sparsemat::testmats::Geometry;
    use std::sync::Arc;
    use symbolic::block_symbolic;

    /// Distributed and sequential symbolic must agree bit for bit.
    fn check_equivalence(a: sparsemat::Csr, geometry: Geometry, pr: usize, pc: usize, pz: usize) {
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry,
                ..Default::default()
            },
        );
        let pa = Arc::new(a.permute_sym(&tree.perm).symmetrize_pattern());
        let part = Arc::new(SnPartition::from_septree(&tree, 8));
        let seq = block_symbolic(&pa, &part);

        let grid3 = Grid3d::new(pr, pc, pz);
        let machine = Machine::new(grid3.size(), TimeModel::zero());
        let tree = Arc::new(tree);
        let pa2 = Arc::clone(&pa);
        let part2 = Arc::clone(&part);
        let out = machine.run(move |rank| {
            let comms = build_grid_comms(rank, &grid3);
            distributed_symbolic(rank, &grid3, &comms, &pa2, &part2, &tree)
        });
        let dist = out.results[0].as_ref().expect("rank 0 gets the result");
        assert_eq!(dist.struct_of, seq.struct_of);
        assert_eq!(dist.parent, seq.parent);
        // Everyone else returns None.
        assert!(out.results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn matches_sequential_on_planar_grid() {
        check_equivalence(
            grid2d_5pt(14, 14, 0.1, 1),
            Geometry::Grid2d { nx: 14, ny: 14 },
            1,
            1,
            4,
        );
    }

    #[test]
    fn matches_sequential_on_3d_grid_with_layers() {
        check_equivalence(
            grid3d_7pt(5, 5, 5, 0.1, 2),
            Geometry::Grid3d {
                nx: 5,
                ny: 5,
                nz: 5,
            },
            2,
            2,
            2,
        );
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 0..4 {
            check_equivalence(random_band(70, 4, 0.6, seed), Geometry::General, 1, 2, 4);
        }
    }

    #[test]
    fn pz1_degenerates_to_sequential() {
        check_equivalence(
            grid2d_5pt(10, 10, 0.1, 3),
            Geometry::Grid2d { nx: 10, ny: 10 },
            1,
            1,
            1,
        );
    }

    #[test]
    fn reduction_traffic_exists_for_pz_gt_1() {
        let a = grid2d_5pt(12, 12, 0.1, 4);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry: Geometry::Grid2d { nx: 12, ny: 12 },
                ..Default::default()
            },
        );
        let pa = Arc::new(a.permute_sym(&tree.perm).symmetrize_pattern());
        let part = Arc::new(SnPartition::from_septree(&tree, 8));
        let tree = Arc::new(tree);
        let grid3 = Grid3d::new(1, 1, 4);
        let machine = Machine::new(4, TimeModel::zero());
        let out = machine.run(move |rank| {
            let comms = build_grid_comms(rank, &grid3);
            distributed_symbolic(rank, &grid3, &comms, &pa, &part, &tree).is_some()
        });
        let s = out.summary();
        assert!(s.total_sent_words > 0, "symbolic must exchange structs");
        assert!(out.results[0]);
    }
}
