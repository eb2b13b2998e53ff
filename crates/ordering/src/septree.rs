//! The separator tree: output of nested dissection, input to the symbolic
//! phase and the 3D algorithm's tree partitioner.

use sparsemat::Perm;
use std::ops::Range;

/// One node of the separator tree: either an internal separator or a leaf
/// subdomain.
#[derive(Clone, Debug)]
pub struct SepNode {
    /// Parent node index, `None` for the root.
    pub parent: Option<usize>,
    /// Child node indices (empty for leaves; usually 2, possibly more when a
    /// subgraph fell apart into components).
    pub children: Vec<usize>,
    /// Half-open range of *new* (post-permutation) column indices owned by
    /// this node. Children always occupy lower ranges than their parent
    /// (required for bottom-up elimination order). May be empty for an
    /// empty separator of a disconnected subgraph.
    pub cols: Range<usize>,
    /// Depth from the root (root = 0) — the level index used throughout the
    /// paper's analysis.
    pub level: usize,
    /// True for leaf subdomains (no further dissection).
    pub is_leaf: bool,
}

impl SepNode {
    /// Number of vertices owned by this node.
    pub fn width(&self) -> usize {
        self.cols.end - self.cols.start
    }
}

/// The complete nested-dissection result: nodes in **postorder** (every
/// child precedes its parent; the root is last) plus the fill-reducing
/// permutation.
#[derive(Clone, Debug)]
pub struct SepTree {
    pub nodes: Vec<SepNode>,
    pub perm: Perm,
}

impl SepTree {
    /// The root node index (always the last node).
    pub fn root(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.perm.len()
    }

    /// Height of the tree (max level + 1).
    pub fn height(&self) -> usize {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0) + 1
    }

    /// Sizes of separators by level: `sizes[level] = total vertices in
    /// separator nodes at that level`. Used to compare measured separator
    /// growth against the `sqrt(n / 2^i)` planar model.
    pub fn separator_sizes_by_level(&self) -> Vec<usize> {
        let h = self.height();
        let mut sizes = vec![0usize; h];
        for node in &self.nodes {
            if !node.is_leaf {
                sizes[node.level] += node.width();
            }
        }
        sizes
    }

    /// Validate all structural invariants; called by tests and debug
    /// assertions:
    /// 1. nodes are in postorder (children before parents),
    /// 2. column ranges of children are below their parent's,
    /// 3. the column ranges of all nodes exactly tile `0..n`,
    /// 4. parent/child links are mutually consistent.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n();
        let mut covered = vec![false; n];
        for (i, node) in self.nodes.iter().enumerate() {
            for &c in &node.children {
                if c >= i {
                    return Err(format!("child {c} does not precede parent {i}"));
                }
                if self.nodes[c].parent != Some(i) {
                    return Err(format!("child {c} has wrong parent link"));
                }
                if self.nodes[c].cols.end > node.cols.start {
                    return Err(format!(
                        "child {c} range {:?} not below parent {i} range {:?}",
                        self.nodes[c].cols, node.cols
                    ));
                }
                if self.nodes[c].level != node.level + 1 {
                    return Err(format!("child {c} level inconsistent"));
                }
            }
            if let Some(p) = node.parent {
                if !self.nodes[p].children.contains(&i) {
                    return Err(format!("parent {p} missing child link to {i}"));
                }
            } else if i != self.root() {
                return Err(format!("non-root node {i} has no parent"));
            }
            for k in node.cols.clone() {
                if covered[k] {
                    return Err(format!("column {k} covered twice"));
                }
                covered[k] = true;
            }
            if node.is_leaf != node.children.is_empty() {
                return Err(format!("node {i} leaf flag inconsistent"));
            }
        }
        if let Some(k) = covered.iter().position(|&c| !c) {
            return Err(format!("column {k} not covered by any node"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built 3-node tree: two leaves + root separator.
    fn tiny_tree() -> SepTree {
        SepTree {
            nodes: vec![
                SepNode {
                    parent: Some(2),
                    children: vec![],
                    cols: 0..3,
                    level: 1,
                    is_leaf: true,
                },
                SepNode {
                    parent: Some(2),
                    children: vec![],
                    cols: 3..6,
                    level: 1,
                    is_leaf: true,
                },
                SepNode {
                    parent: None,
                    children: vec![0, 1],
                    cols: 6..8,
                    level: 0,
                    is_leaf: false,
                },
            ],
            perm: Perm::identity(8),
        }
    }

    #[test]
    fn tiny_tree_validates() {
        let t = tiny_tree();
        assert!(t.validate().is_ok());
        assert_eq!(t.root(), 2);
        assert_eq!(t.height(), 2);
        assert_eq!(t.separator_sizes_by_level(), vec![2, 0]);
    }

    #[test]
    fn validation_catches_overlap() {
        let mut t = tiny_tree();
        t.nodes[1].cols = 2..6; // overlaps node 0
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_order() {
        let mut t = tiny_tree();
        t.nodes[2].cols = 0..2;
        t.nodes[0].cols = 6..8; // child range above parent
        assert!(t.validate().is_err());
    }
}
