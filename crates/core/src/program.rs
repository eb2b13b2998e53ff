//! Algorithm 1's program, derived once per machine from symbolic state
//! alone.
//!
//! Which levels a layer runs, the order of each level's panel and Schur
//! steps, and which ancestor blocks each level's z-line reduction moves
//! are fixed before any numeric work: the forest, the grid and the
//! lookahead window decide them. [`FactorProgram`] derives them once.
//! [`crate::factor3d::factor_3d`] executes it on every rank, and `commplan`
//! projects the same program into per-rank communication events, so
//! neither keeps a rule of its own.
//!
//! At level `lvl` (counting `l = log2 Pz` at the leaves down to `0` at the
//! root) the layers whose `z` is a multiple of `2^(l-lvl)` are active: each
//! factors its forest part `(lvl, z >> (l-lvl))`, then the odd member of
//! each active pair sends its ancestor copies down the z-line to the even
//! member and retires.

use crate::forest::EtreeForest;
use simgrid::Grid2d;
use symbolic::{LookaheadStep, Symbolic};

/// One forest level as a layer runs it.
#[derive(Debug)]
pub struct Level {
    /// Forest level: `l` at the leaves, `0` at the root.
    pub lvl: usize,
    /// The supernodes of the layer's part at this level, ascending.
    pub nodes: Vec<usize>,
    /// The panel and Schur steps over `nodes`, in the lookahead order
    /// ([`symbolic::BlockFill::lookahead_order`]).
    pub order: Vec<LookaheadStep>,
    /// The ancestor reduction that ends the level; `None` at the root.
    pub reduction: Option<Reduction>,
}

/// One side of a level's z-line ancestor reduction.
#[derive(Debug)]
pub struct Reduction {
    /// The partner layer.
    pub peer: usize,
    /// Whether this layer sends its ancestor copies (and retires) rather
    /// than summing the partner's into its own.
    pub send: bool,
    /// `(l_a, s)` for every supernode `s` of the ancestor parts the pair
    /// shares, forest level `l_a` descending and `s` ascending within it:
    /// the order of the reduction's messages, one per supernode with
    /// blocks ([`FactorProgram::reduction_blocks`]).
    pub ancestors: Vec<(usize, usize)>,
}

/// The whole factorization program: per layer, the levels it runs.
#[derive(Debug)]
pub struct FactorProgram {
    forest: EtreeForest,
    /// The separator-tree node of each supernode.
    node_of_sn: Vec<usize>,
    /// `layers[z]`: the levels layer `z` runs, leaves first.
    layers: Vec<Vec<Level>>,
}

impl FactorProgram {
    /// Derive the program of `forest` with the lookahead window
    /// `lookahead` (§II-F; `0` disables it).
    pub fn new(sym: &Symbolic, forest: &EtreeForest, lookahead: usize) -> FactorProgram {
        let mut program = FactorProgram {
            forest: forest.clone(),
            node_of_sn: sym.part.node_of_sn.clone(),
            layers: Vec::new(),
        };
        program.layers = (0..forest.pz())
            .map(|z| program.derive_layer(sym, lookahead, z))
            .collect();
        program
    }

    fn derive_layer(&self, sym: &Symbolic, lookahead: usize, z: usize) -> Vec<Level> {
        let l = self.forest.l;
        let part_of = |lvl: usize| self.forest.supernodes_of(lvl, z >> (l - lvl), &sym.part);
        // Supernodes this layer does not keep are done from the start:
        // their updates arrive through the ancestor reduction.
        let mut done: Vec<bool> = (0..sym.nsup()).map(|s| !self.keeps(s, z)).collect();
        let mut levels = Vec::new();
        for lvl in (0..=l).rev() {
            let step = 1usize << (l - lvl);
            if !z.is_multiple_of(step) {
                break; // retired after sending at the level below
            }
            let nodes = part_of(lvl);
            let order = sym.fill.lookahead_order(&nodes, &done, lookahead);
            for &k in &nodes {
                done[k] = true;
            }
            let reduction = (lvl > 0).then(|| {
                let send = !(z / step).is_multiple_of(2);
                Reduction {
                    peer: if send { z - step } else { z + step },
                    send,
                    ancestors: (0..lvl)
                        .rev()
                        .flat_map(|l_a| part_of(l_a).into_iter().map(move |s| (l_a, s)))
                        .collect(),
                }
            });
            levels.push(Level {
                lvl,
                nodes,
                order,
                reduction,
            });
        }
        levels
    }

    /// Number of layers `Pz`.
    pub fn pz(&self) -> usize {
        self.layers.len()
    }

    /// The deepest forest level, `log2 Pz`: supernodes above it are
    /// replicated ancestors.
    pub fn leaf_level(&self) -> usize {
        self.forest.l
    }

    /// The levels layer `z` runs, leaves first.
    pub fn layer(&self, z: usize) -> &[Level] {
        &self.layers[z]
    }

    /// Level `lvl` of layer `z`, if the layer is active there.
    pub fn level(&self, z: usize, lvl: usize) -> Option<&Level> {
        self.layers[z].get(self.forest.l - lvl)
    }

    /// The forest level of supernode `s`.
    pub fn level_of(&self, s: usize) -> usize {
        self.forest.part_level[self.node_of_sn[s]]
    }

    /// Does layer `z` keep (allocate the blocks of) supernode `s`: one of
    /// its forest parts, or a replicated ancestor above them?
    pub fn keeps(&self, s: usize, z: usize) -> bool {
        self.forest.keeps(self.node_of_sn[s], z)
    }

    /// Does layer `z` start block `(i, j)` from the values of `A`? Each
    /// block's values land on exactly one layer — the one that factors its
    /// deeper endpoint — and start at zero on the others (§III-A).
    pub fn initializes(&self, i: usize, j: usize, z: usize) -> bool {
        let deeper = if self.level_of(i) >= self.level_of(j) {
            i
        } else {
            j
        };
        self.forest.factoring_grid(self.node_of_sn[deeper]) == z
    }

    /// The blocks of ancestor `s` that grid position `at` of layer `z`
    /// sends or receives in a reduction, in message order: the diagonal,
    /// then `L(i, s)` and `U(s, i)` for each `i` of `struct(s)`, each if
    /// the block-cyclic layout places it at `at` and the layer keeps both
    /// endpoints — exactly the blocks of `s` the rank's store allocates.
    /// Empty: no message.
    pub fn reduction_blocks<'a>(
        &'a self,
        sym: &'a Symbolic,
        grid: Grid2d,
        s: usize,
        at: (usize, usize),
        z: usize,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let kept = self.keeps(s, z);
        let panels = sym.fill.struct_of[s]
            .iter()
            .filter(move |&&i| self.keeps(i, z))
            .flat_map(move |&i| [(i, s), (s, i)]);
        std::iter::once((s, s))
            .chain(panels)
            .filter(move |&(i, j)| kept && grid.owner(i, j) == at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slu2d::driver::Prepared;
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt, kkt_3d};
    use sparsemat::testmats::Geometry;

    /// A planar, a 3D Poisson or a KKT matrix, growing with `k`.
    fn prepared(gen: u8, k: usize) -> Prepared {
        let (a, geometry) = match gen {
            0 => (grid2d_5pt(k, k, 0.1, 1), Geometry::Grid2d { nx: k, ny: k }),
            1 => (grid3d_7pt(k / 3, k / 3, k / 3, 0.1, 1), Geometry::General),
            _ => (kkt_3d(k / 4, 3, 3, 1e-2, 1), Geometry::General),
        };
        Prepared::new(a, geometry, 8, 8)
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 24,
            .. ProptestConfig::default()
        })]

        /// What the runtime and the plan both read from the program: per
        /// layer, each listed supernode gets one panel step before its one
        /// Schur step, and a panel only after every child was updated on
        /// the layer or is not kept there; every supernode is factored on
        /// exactly one layer, its factoring grid; and the two sides of each
        /// z-pair agree on the ancestors and, per grid position, on the
        /// blocks.
        #[test]
        fn program_schedules_each_supernode_once_and_pairs_agree(
            gen in 0u8..3,
            k in 10usize..24,
            pr in 1usize..4,
            pc in 1usize..4,
            lpz in 0usize..4,
            lookahead in 0usize..10,
        ) {
            let prep = prepared(gen, k);
            let sym = &prep.sym;
            let forest = EtreeForest::build(&prep.tree, sym, 1 << lpz);
            let program = FactorProgram::new(sym, &forest, lookahead);
            let grid = Grid2d::new(pr, pc);
            let children = sym.fill.children();
            let mut factored_on = vec![None; sym.nsup()];
            for z in 0..program.pz() {
                let mut updated = vec![false; sym.nsup()];
                for level in program.layer(z) {
                    let mut paneled = vec![false; level.nodes.len()];
                    let mut schured = vec![false; level.nodes.len()];
                    for &step in &level.order {
                        match step {
                            LookaheadStep::Panel(j) => {
                                let node = level.nodes[j];
                                prop_assert!(!paneled[j], "z{} panel {} twice", z, node);
                                paneled[j] = true;
                                for &c in &children[node] {
                                    prop_assert!(
                                        updated[c] || !program.keeps(c, z),
                                        "z{} panel {} before child {}", z, node, c
                                    );
                                }
                            }
                            LookaheadStep::Schur(j) => {
                                let node = level.nodes[j];
                                prop_assert!(paneled[j] && !schured[j], "z{} schur {}", z, node);
                                schured[j] = true;
                                updated[node] = true;
                            }
                        }
                    }
                    prop_assert!(paneled.iter().chain(&schured).all(|&b| b));
                    for &node in &level.nodes {
                        prop_assert!(factored_on[node].is_none(), "supernode {} twice", node);
                        factored_on[node] = Some(z);
                    }
                    let Some(red) = level.reduction.as_ref().filter(|r| r.send) else {
                        continue;
                    };
                    let peer = program.level(red.peer, level.lvl).expect("the partner is active");
                    let back = peer.reduction.as_ref().expect("the partner reduces");
                    prop_assert!(!back.send && back.peer == z);
                    prop_assert_eq!(&back.ancestors, &red.ancestors);
                    for &(l_a, s) in &red.ancestors {
                        prop_assert!(l_a < level.lvl && program.level_of(s) == l_a);
                        for at in (0..pr).flat_map(|r| (0..pc).map(move |c| (r, c))) {
                            let mine: Vec<_> = program.reduction_blocks(sym, grid, s, at, z).collect();
                            let theirs: Vec<_> =
                                program.reduction_blocks(sym, grid, s, at, red.peer).collect();
                            prop_assert!(mine == theirs, "s{} at {:?}", s, at);
                        }
                    }
                }
            }
            for (s, z) in factored_on.iter().enumerate() {
                let node = sym.part.node_of_sn[s];
                prop_assert!(*z == Some(forest.factoring_grid(node)), "supernode {}", s);
            }
        }
    }
}
