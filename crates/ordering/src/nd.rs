//! The recursive nested-dissection driver.
//!
//! Dispatches between the geometric (grid) and multilevel (general graph)
//! bisection engines, recurses until subdomains fall below the leaf size,
//! and emits a [`SepTree`] in postorder together with the fill-reducing
//! permutation: within every subtree, the two halves are numbered first and
//! the separator last (paper §II-B and Fig. 2a).

use crate::geometric::{plane_bisect, Coords};
use crate::graph::Graph;
use crate::multilevel::{multilevel_vertex_separator_in, Workspace};
use crate::refine::assert_packable;
use crate::septree::{SepNode, SepTree};
use sparsemat::testmats::Geometry;
use sparsemat::{Csr, Perm};

/// Nested-dissection configuration.
#[derive(Clone, Copy, Debug)]
pub struct NdOptions {
    /// Subdomains at or below this size become leaves (dense supernodes
    /// downstream). SuperLU's supernode relaxation plays the same role.
    pub leaf_size: usize,
    /// Seed for the randomized multilevel engine (geometric ND is exact and
    /// ignores it).
    pub seed: u64,
    /// Use geometric plane separators when the matrix carries a grid
    /// geometry; fall back to multilevel otherwise.
    pub geometry: Geometry,
}

impl Default for NdOptions {
    fn default() -> Self {
        NdOptions {
            leaf_size: 32,
            seed: 0x5a1a,
            geometry: Geometry::General,
        }
    }
}

/// The bisection engine of one ordering, with the state it keeps between
/// bisections.
enum Engine<'g> {
    /// Coordinate planes on a regular grid.
    Geometric(Coords),
    /// Multilevel bisection of induced subgraphs of `g`.
    Multilevel {
        g: &'g Graph,
        /// Original → subgraph vertex id, `usize::MAX` outside the subgraph
        /// being built; `Graph::subgraph_in` resets what it sets.
        local: Vec<usize>,
        ws: Box<Workspace>,
    },
}

struct NdState<'g> {
    engine: Engine<'g>,
    opts: NdOptions,
    /// Output nodes, in postorder.
    nodes: Vec<SepNode>,
    /// `order[new] = old`, filled in as vertices are numbered.
    order: Vec<usize>,
}

impl<'g> NdState<'g> {
    /// Bisect `vertices`; returns `(c1, c2, sep)` or `None` if the subgraph
    /// should become a leaf (bisection failed to split it).
    fn bisect(
        &mut self,
        vertices: &[usize],
        level: usize,
    ) -> Option<(Vec<usize>, Vec<usize>, Vec<usize>)> {
        let (c1, c2, sep) = match &mut self.engine {
            Engine::Geometric(coords) => plane_bisect(coords, vertices),
            Engine::Multilevel { g, local, ws } => {
                let sub = g.subgraph_in(vertices, local);
                let seed = self.opts.seed ^ (level as u64) << 8;
                let (assign, _) = multilevel_vertex_separator_in(&sub, seed, ws);
                let mut c1 = Vec::new();
                let mut c2 = Vec::new();
                let mut sep = Vec::new();
                for (&orig, &part) in vertices.iter().zip(&assign) {
                    match part {
                        0 => c1.push(orig),
                        1 => c2.push(orig),
                        _ => sep.push(orig),
                    }
                }
                (c1, c2, sep)
            }
        };
        // A degenerate split (everything in one part) cannot recurse.
        if c1.is_empty() && c2.is_empty() {
            return None;
        }
        if (c1.is_empty() || c2.is_empty()) && sep.is_empty() {
            return None;
        }
        Some((c1, c2, sep))
    }

    /// Recurse on `vertices`; creates this subtree's nodes in postorder and
    /// returns the subtree root's node index.
    fn recurse(&mut self, vertices: Vec<usize>, level: usize) -> usize {
        // Fewer than two vertices cannot be bisected, whatever the leaf size.
        if vertices.len() <= self.opts.leaf_size.max(1) {
            return self.emit_leaf(vertices, level);
        }
        match self.bisect(&vertices, level) {
            None => self.emit_leaf(vertices, level),
            Some((c1, c2, sep)) => {
                let mut children = Vec::new();
                if !c1.is_empty() {
                    children.push(self.recurse(c1, level + 1));
                }
                if !c2.is_empty() {
                    children.push(self.recurse(c2, level + 1));
                }
                let start = self.order.len();
                self.order.extend_from_slice(&sep);
                let idx = self.nodes.len();
                self.nodes.push(SepNode {
                    parent: None,
                    children: children.clone(),
                    cols: start..self.order.len(),
                    level,
                    is_leaf: children.is_empty(),
                });
                for c in children {
                    self.nodes[c].parent = Some(idx);
                }
                idx
            }
        }
    }

    fn emit_leaf(&mut self, vertices: Vec<usize>, level: usize) -> usize {
        let start = self.order.len();
        self.order.extend_from_slice(&vertices);
        let idx = self.nodes.len();
        self.nodes.push(SepNode {
            parent: None,
            children: Vec::new(),
            cols: start..self.order.len(),
            level,
            is_leaf: true,
        });
        idx
    }
}

/// Run nested dissection on the adjacency graph `g` of a matrix.
///
/// The returned tree's permutation maps the matrix into elimination order:
/// factor it with `a.permute_sym(&tree.perm)`. A grid geometry reads only
/// `g.n()`; [`order_symmetric`] orders a matrix without building `g`.
///
/// ```
/// use ordering::{nested_dissection, Graph, NdOptions};
/// use sparsemat::matgen::grid2d_5pt;
/// use sparsemat::testmats::Geometry;
///
/// let a = grid2d_5pt(16, 16, 0.0, 0);
/// let tree = nested_dissection(
///     &Graph::from_matrix(&a),
///     NdOptions {
///         leaf_size: 16,
///         geometry: Geometry::Grid2d { nx: 16, ny: 16 },
///         ..Default::default()
///     },
/// );
/// tree.validate().unwrap();
/// // The top separator of a 16x16 grid is one 16-vertex plane.
/// assert_eq!(tree.nodes[tree.root()].width(), 16);
/// ```
pub fn nested_dissection(g: &Graph, opts: NdOptions) -> SepTree {
    dissect(g.n(), opts, Some(g))
}

/// [`nested_dissection`] of `Graph::from_matrix(a)`, given
/// `s = a.symmetrize_pattern()`: the same tree, with the adjacency graph
/// built only for [`Geometry::General`] (a grid geometry orders from
/// coordinates and the dimension alone).
pub fn order_symmetric(s: &Csr, opts: NdOptions) -> SepTree {
    match opts.geometry {
        Geometry::General => nested_dissection(&Graph::from_symmetric(s), opts),
        _ => dissect(s.nrows, opts, None),
    }
}

/// The ordering core: nested dissection of `n` vertices, with the graph
/// `g` the multilevel engine bisects (`None` only for a grid geometry).
fn dissect(n: usize, opts: NdOptions, g: Option<&Graph>) -> SepTree {
    assert!(n > 0, "empty graph");
    let engine = match opts.geometry {
        Geometry::General => {
            let g = g.expect("multilevel ordering needs the graph");
            assert_packable(g);
            Engine::Multilevel {
                g,
                local: vec![usize::MAX; n],
                ws: Box::default(),
            }
        }
        geom => {
            let c = Coords::from_geometry(&geom);
            assert_eq!(
                c.len(),
                n,
                "geometry size does not match graph vertex count"
            );
            Engine::Geometric(c)
        }
    };
    let mut state = NdState {
        engine,
        opts,
        nodes: Vec::new(),
        order: Vec::with_capacity(n),
    };
    let all: Vec<usize> = (0..n).collect();
    let root = state.recurse(all, 0);
    debug_assert_eq!(root, state.nodes.len() - 1);

    // Root ended up at level 0 by construction; levels already measure depth
    // from the root, as SepTree requires.
    let tree = SepTree {
        nodes: state.nodes,
        perm: Perm::from_old_order(state.order),
    };
    debug_assert!(tree.validate().is_ok(), "{:?}", tree.validate());
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt, kkt_3d};
    use sparsemat::testmats::Geometry;

    #[test]
    fn geometric_nd_on_square_grid() {
        let k = 16;
        let a = grid2d_5pt(k, k, 0.0, 0);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry: Geometry::Grid2d { nx: k, ny: k },
                ..Default::default()
            },
        );
        tree.validate().unwrap();
        assert_eq!(tree.n(), 256);
        // Top separator of a 16x16 grid is one 16-vertex column.
        let root = &tree.nodes[tree.root()];
        assert_eq!(root.width(), k);
        assert!(!root.is_leaf);
    }

    #[test]
    fn separator_cascade_follows_sqrt_law() {
        let k = 32;
        let a = grid2d_5pt(k, k, 0.0, 0);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 4,
                geometry: Geometry::Grid2d { nx: k, ny: k },
                ..Default::default()
            },
        );
        let sizes = tree.separator_sizes_by_level();
        // Level 0: one column (32). Level 1: two half-rows (2*16=32 minus
        // overlaps). The totals should grow at most ~sqrt(2)^i.
        assert_eq!(sizes[0], 32);
        assert!(sizes[1] >= 24 && sizes[1] <= 40, "{sizes:?}");
    }

    #[test]
    fn multilevel_nd_on_3d_grid() {
        let a = grid3d_7pt(6, 6, 6, 0.0, 0);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 16,
                geometry: Geometry::General,
                ..Default::default()
            },
        );
        tree.validate().unwrap();
        assert_eq!(tree.n(), 216);
        assert!(tree.height() >= 3);
    }

    #[test]
    fn nd_on_kkt_matrix() {
        let a = kkt_3d(4, 4, 3, 1e-2, 0);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 12,
                geometry: Geometry::General,
                ..Default::default()
            },
        );
        tree.validate().unwrap();
        assert_eq!(tree.n(), 96);
    }

    #[test]
    fn leaf_size_zero_is_leaf_size_one_on_both_engines() {
        // Nothing smaller than two vertices can be bisected: the multilevel
        // engine used to panic on leaf size 0 where the geometric one ran.
        let kkt = Graph::from_matrix(&kkt_3d(3, 3, 3, 1e-2, 0));
        let grid = Graph::from_matrix(&grid2d_5pt(8, 8, 0.0, 0));
        for (g, geometry) in [
            (&kkt, Geometry::General),
            (&grid, Geometry::General),
            (&grid, Geometry::Grid2d { nx: 8, ny: 8 }),
        ] {
            let run = |leaf_size| {
                let tree = nested_dissection(
                    g,
                    NdOptions {
                        leaf_size,
                        geometry,
                        ..Default::default()
                    },
                );
                tree.validate().unwrap();
                tree
            };
            let (zero, one) = (run(0), run(1));
            assert_eq!(zero.perm.old_order(), one.perm.old_order());
            assert_eq!(zero.nodes.len(), one.nodes.len());
        }
    }

    #[test]
    fn permutation_respects_tree_locality() {
        // Every vertex's new index must fall inside its tree node's range —
        // guaranteed by construction, but check the separator property too:
        // after permutation, no entry of the reordered matrix may connect
        // the two sibling subtrees directly.
        let k = 12;
        let a = grid2d_5pt(k, k, 0.0, 0);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry: Geometry::Grid2d { nx: k, ny: k },
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm);
        let root = &tree.nodes[tree.root()];
        let [left, right] = [root.children[0], root.children[1]];
        let lr = collect_range(&tree, left);
        let rr = collect_range(&tree, right);
        for i in lr.clone() {
            for &j in pa.row_cols(i) {
                assert!(
                    !rr.contains(&j),
                    "entry ({i},{j}) connects sibling subtrees"
                );
            }
        }
    }

    /// All new column indices covered by the subtree rooted at `node`.
    fn collect_range(tree: &SepTree, node: usize) -> std::ops::Range<usize> {
        // Postorder + contiguous numbering means a subtree covers the range
        // from its leftmost descendant's start to its own end.
        let mut lo = tree.nodes[node].cols.start;
        let mut stack = vec![node];
        while let Some(v) = stack.pop() {
            lo = lo.min(tree.nodes[v].cols.start);
            stack.extend_from_slice(&tree.nodes[v].children);
        }
        lo..tree.nodes[node].cols.end
    }

    #[test]
    fn leaf_size_respected() {
        let a = grid2d_5pt(20, 20, 0.0, 0);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 10,
                geometry: Geometry::Grid2d { nx: 20, ny: 20 },
                ..Default::default()
            },
        );
        for node in &tree.nodes {
            if node.is_leaf {
                assert!(node.width() <= 10, "leaf width {}", node.width());
            }
        }
    }
}
