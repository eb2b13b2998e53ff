//! The elimination tree-forest `E_f` and the greedy inter-grid load
//! balancing heuristic (paper §III-C).
//!
//! The separator tree is recursively split `l = log2 Pz` times. Each split
//! takes a forest `F` and produces a top part `S` (kept/replicated on the
//! whole grid range) and two child forests `C1`, `C2` (handed to the two
//! half ranges), chosen greedily to minimize the critical-path cost
//! `T(S) + max(T(C1), T(C2))` with the per-node flop count as the cost
//! function `T(v)` — exactly the paper's heuristic (Fig. 8). A part may
//! contain several disjoint subtrees, which is why `E_f` is a tree of
//! *forests*.

use ordering::SepTree;
use std::collections::BinaryHeap;
use symbolic::Symbolic;

/// The partition of the separator tree into `E_f`.
#[derive(Clone, Debug)]
pub struct EtreeForest {
    /// `log2 Pz`.
    pub l: usize,
    /// `parts[lvl][q]` = separator-tree node ids of part `q` at forest
    /// level `lvl` (ascending node id order). `parts[lvl].len() == 2^lvl`.
    pub parts: Vec<Vec<Vec<usize>>>,
    /// Forest level of each tree node.
    pub part_level: Vec<usize>,
    /// Part index (within its level) of each tree node.
    pub part_index: Vec<usize>,
}

/// How to split the separator tree into the forest hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// The paper's greedy load-balance heuristic (§III-C): pull expensive
    /// subtrees into the shared ancestor part until the remaining forest
    /// packs into balanced halves.
    Greedy,
    /// The naive nested-dissection mapping the paper's Fig. 8 compares
    /// against: the top part is exactly the forest roots; children split by
    /// position, costs ignored.
    NaiveNd,
}

impl EtreeForest {
    /// Greedily partition `tree` for `pz = 2^l` grids, using per-node flop
    /// costs derived from the symbolic analysis.
    pub fn build(tree: &SepTree, sym: &Symbolic, pz: usize) -> EtreeForest {
        Self::build_with_strategy(tree, sym, pz, PartitionStrategy::Greedy)
    }

    /// Partition with an explicit strategy (the ablation harness compares
    /// [`PartitionStrategy::Greedy`] against [`PartitionStrategy::NaiveNd`]).
    pub fn build_with_strategy(
        tree: &SepTree,
        sym: &Symbolic,
        pz: usize,
        strategy: PartitionStrategy,
    ) -> EtreeForest {
        // Per-node cost: total flops of the node's supernodes (the paper's
        // heuristic cost function T(v)).
        let nn = tree.nodes.len();
        let mut node_cost = vec![0u64; nn];
        for (node, sns) in sym.part.sns_of_node.iter().enumerate() {
            node_cost[node] = sns.iter().map(|&s| sym.cost.flops[s]).sum();
        }
        assert!(pz.is_power_of_two(), "Pz must be a power of two");
        let l = pz.trailing_zeros() as usize;
        // Subtree costs (nodes are in postorder: children precede parents).
        let mut subtree_cost = node_cost.clone();
        for i in 0..nn {
            for &c in &tree.nodes[i].children {
                subtree_cost[i] += subtree_cost[c];
            }
        }

        let mut parts: Vec<Vec<Vec<usize>>> =
            (0..=l).map(|lvl| vec![Vec::new(); 1 << lvl]).collect();
        let mut part_level = vec![usize::MAX; nn];
        let mut part_index = vec![usize::MAX; nn];

        // Recursive splitting, iterative via an explicit work list.
        let mut work: Vec<(usize, usize, Vec<usize>)> = vec![(0, 0, vec![tree.root()])];
        while let Some((lvl, q, roots)) = work.pop() {
            if lvl == l {
                // Deepest level: the whole remaining forest belongs here.
                let mut all = Vec::new();
                let mut stack = roots;
                while let Some(v) = stack.pop() {
                    all.push(v);
                    stack.extend_from_slice(&tree.nodes[v].children);
                }
                all.sort_unstable();
                for &v in &all {
                    part_level[v] = lvl;
                    part_index[v] = q;
                }
                parts[lvl][q] = all;
                continue;
            }
            let (s, c1, c2) = match strategy {
                PartitionStrategy::Greedy => split_forest(tree, &node_cost, &subtree_cost, &roots),
                PartitionStrategy::NaiveNd => split_naive(tree, &roots),
            };
            let mut s = s;
            s.sort_unstable();
            for &v in &s {
                part_level[v] = lvl;
                part_index[v] = q;
            }
            parts[lvl][q] = s;
            work.push((lvl + 1, 2 * q, c1));
            work.push((lvl + 1, 2 * q + 1, c2));
        }

        EtreeForest {
            l,
            parts,
            part_level,
            part_index,
        }
    }

    /// Number of grids `Pz`.
    pub fn pz(&self) -> usize {
        1 << self.l
    }

    /// The grid range `[start, start + len)` a tree node is replicated on.
    pub fn grid_range_of_node(&self, node: usize) -> (usize, usize) {
        let lvl = self.part_level[node];
        let q = self.part_index[node];
        let len = 1 << (self.l - lvl);
        (q * len, len)
    }

    /// Does grid `z` keep (allocate blocks of) this tree node?
    pub fn keeps(&self, node: usize, z: usize) -> bool {
        let (start, len) = self.grid_range_of_node(node);
        z >= start && z < start + len
    }

    /// The grid that *factors* this node (first of its replication range) —
    /// also the grid whose copy is initialized with the values of `A`
    /// (paper §III-A: other copies start at zero).
    pub fn factoring_grid(&self, node: usize) -> usize {
        self.grid_range_of_node(node).0
    }

    /// Ascending supernode list of part `(lvl, q)`.
    pub fn supernodes_of(&self, lvl: usize, q: usize, part: &symbolic::SnPartition) -> Vec<usize> {
        let mut sns: Vec<usize> = self.parts[lvl][q]
            .iter()
            .flat_map(|&node| part.sns_of_node[node].iter().copied())
            .collect();
        sns.sort_unstable();
        sns
    }

    /// Critical-path cost of the partition:
    /// `T(E_f) = T(S) + max over children, recursively` (paper Fig. 8).
    pub fn critical_path_cost(&self, tree: &SepTree, sym: &Symbolic) -> u64 {
        let mut node_cost = vec![0u64; tree.nodes.len()];
        for (node, sns) in sym.part.sns_of_node.iter().enumerate() {
            node_cost[node] = sns.iter().map(|&s| sym.cost.flops[s]).sum();
        }
        let part_cost = |lvl: usize, q: usize| -> u64 {
            self.parts[lvl][q].iter().map(|&v| node_cost[v]).sum()
        };
        // cost(lvl, q) = part cost + max of the two child parts.
        fn rec(
            f: &EtreeForest,
            lvl: usize,
            q: usize,
            part_cost: &dyn Fn(usize, usize) -> u64,
        ) -> u64 {
            let own = part_cost(lvl, q);
            if lvl == f.l {
                own
            } else {
                own + rec(f, lvl + 1, 2 * q, part_cost).max(rec(f, lvl + 1, 2 * q + 1, part_cost))
            }
        }
        rec(self, 0, 0, &part_cost)
    }

    /// Validate the structural invariants: every tree node is in exactly one
    /// part, and every node's parent sits in a part whose grid range
    /// contains the node's own range.
    pub fn validate(&self, tree: &SepTree) -> Result<(), String> {
        for (v, node) in tree.nodes.iter().enumerate() {
            if self.part_level[v] == usize::MAX {
                return Err(format!("node {v} unassigned"));
            }
            if let Some(p) = node.parent {
                let (cs, cl) = self.grid_range_of_node(v);
                let (ps, pl) = self.grid_range_of_node(p);
                if !(ps <= cs && cs + cl <= ps + pl) {
                    return Err(format!(
                        "node {v} range ({cs},{cl}) not inside parent {p} range ({ps},{pl})"
                    ));
                }
            }
        }
        for (lvl, level_parts) in self.parts.iter().enumerate() {
            for (q, part) in level_parts.iter().enumerate() {
                for &v in part {
                    if self.part_level[v] != lvl || self.part_index[v] != q {
                        return Err(format!("node {v} part bookkeeping inconsistent"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// One greedy split: pull the most expensive subtrees off the frontier into
/// the top part `S` until the remaining forest packs into two balanced
/// halves; keep the expansion with the best critical-path cost.
fn split_forest(
    tree: &SepTree,
    node_cost: &[u64],
    subtree_cost: &[u64],
    roots: &[usize],
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    // Max-heap of frontier subtrees by subtree cost.
    let mut frontier: BinaryHeap<(u64, usize)> =
        roots.iter().map(|&r| (subtree_cost[r], r)).collect();
    let mut s: Vec<usize> = Vec::new();
    let mut s_cost = 0u64;

    // (critical-path cost, ancestor part, child forest 1, child forest 2)
    type Candidate = (u64, Vec<usize>, Vec<usize>, Vec<usize>);
    let mut best: Option<Candidate> = None;
    loop {
        // Greedy 2-way packing of the current frontier (descending cost,
        // lighter bin first).
        let mut items: Vec<(u64, usize)> = frontier.iter().copied().collect();
        items.sort_unstable_by(|a, b| b.cmp(a));
        let mut bins = [0u64; 2];
        let mut packs: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for (c, v) in items {
            let t = if bins[0] <= bins[1] { 0 } else { 1 };
            bins[t] += c;
            packs[t].push(v);
        }
        let cost = s_cost + bins[0].max(bins[1]);
        if best.as_ref().is_none_or(|(bc, ..)| cost < *bc) {
            best = Some((cost, s.clone(), packs[0].clone(), packs[1].clone()));
        }
        // Stop when S alone already exceeds the best seen, or nothing left.
        if frontier.is_empty() {
            break;
        }
        if let Some((bc, ..)) = &best {
            if s_cost > *bc {
                break;
            }
        }
        let (_, v) = frontier.pop().expect("non-empty frontier");
        s.push(v);
        s_cost += node_cost[v];
        for &c in &tree.nodes[v].children {
            frontier.push((subtree_cost[c], c));
        }
    }
    let (_, s, c1, c2) = best.expect("at least one candidate split");
    (s, c1, c2)
}

/// The naive split: ancestors = the forest roots, children distributed by
/// position without looking at costs (the paper's Fig. 8 left).
fn split_naive(tree: &SepTree, roots: &[usize]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let s: Vec<usize> = roots.to_vec();
    let children: Vec<usize> = roots
        .iter()
        .flat_map(|&r| tree.nodes[r].children.iter().copied())
        .collect();
    let mut c1 = Vec::new();
    let mut c2 = Vec::new();
    for (i, c) in children.into_iter().enumerate() {
        if i % 2 == 0 {
            c1.push(c);
        } else {
            c2.push(c);
        }
    }
    (s, c1, c2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ordering::{nested_dissection, Graph, NdOptions};
    use slu2d::driver::Prepared;
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt};
    use sparsemat::testmats::Geometry;

    fn prep(k: usize) -> Prepared {
        Prepared::new(
            grid2d_5pt(k, k, 0.0, 0),
            Geometry::Grid2d { nx: k, ny: k },
            8,
            8,
        )
    }

    #[test]
    fn pz1_puts_everything_in_one_part() {
        let p = prep(12);
        let f = EtreeForest::build(&p.tree, &p.sym, 1);
        f.validate(&p.tree).unwrap();
        assert_eq!(f.l, 0);
        assert_eq!(f.parts[0][0].len(), p.tree.nodes.len());
    }

    #[test]
    fn pz2_splits_cover_everything_once() {
        let p = prep(16);
        let f = EtreeForest::build(&p.tree, &p.sym, 2);
        f.validate(&p.tree).unwrap();
        let total: usize = f.parts.iter().flatten().map(|part| part.len()).sum();
        assert_eq!(total, p.tree.nodes.len());
        // The root must be in the shared top part.
        assert_eq!(f.part_level[p.tree.root()], 0);
        // Each deepest part must be nonempty on a healthy balanced tree.
        assert!(!f.parts[1][0].is_empty());
        assert!(!f.parts[1][1].is_empty());
    }

    #[test]
    fn greedy_balances_subtree_costs() {
        let p = prep(24);
        let f = EtreeForest::build(&p.tree, &p.sym, 2);
        let mut node_cost = vec![0u64; p.tree.nodes.len()];
        for (node, sns) in p.sym.part.sns_of_node.iter().enumerate() {
            node_cost[node] = sns.iter().map(|&s| p.sym.cost.flops[s]).sum();
        }
        let cost = |part: &Vec<usize>| -> u64 { part.iter().map(|&v| node_cost[v]).sum() };
        let c1 = cost(&f.parts[1][0]);
        let c2 = cost(&f.parts[1][1]);
        let imb = c1.max(c2) as f64 / c1.min(c2).max(1) as f64;
        assert!(imb < 1.6, "child imbalance {imb} ({c1} vs {c2})");
    }

    #[test]
    fn critical_path_beats_or_matches_whole_tree() {
        let p = prep(24);
        let f1 = EtreeForest::build(&p.tree, &p.sym, 1);
        let f4 = EtreeForest::build(&p.tree, &p.sym, 4);
        f4.validate(&p.tree).unwrap();
        let t1 = f1.critical_path_cost(&p.tree, &p.sym);
        let t4 = f4.critical_path_cost(&p.tree, &p.sym);
        assert!(t4 < t1, "3D critical path {t4} not below 2D {t1}");
    }

    #[test]
    fn replication_ranges_nest() {
        let a = grid3d_7pt(6, 6, 6, 0.0, 0);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 12,
                geometry: Geometry::Grid3d {
                    nx: 6,
                    ny: 6,
                    nz: 6,
                },
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = symbolic::Symbolic::analyze(&pa, &tree, 16);
        let f = EtreeForest::build(&tree, &sym, 4);
        f.validate(&tree).unwrap();
        // keeps() must be consistent with grid_range_of_node.
        for v in 0..tree.nodes.len() {
            let (s, len) = f.grid_range_of_node(v);
            for z in 0..4 {
                assert_eq!(f.keeps(v, z), z >= s && z < s + len);
            }
            assert_eq!(f.factoring_grid(v), s);
        }
    }

    #[test]
    fn supernode_lists_ascend_and_partition() {
        let p = prep(16);
        let f = EtreeForest::build(&p.tree, &p.sym, 4);
        let mut seen = vec![false; p.sym.nsup()];
        for lvl in 0..=f.l {
            for q in 0..(1 << lvl) {
                let sns = f.supernodes_of(lvl, q, &p.sym.part);
                assert!(sns.windows(2).all(|w| w[0] < w[1]));
                for s in sns {
                    assert!(!seen[s], "supernode {s} in two parts");
                    seen[s] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }
}
