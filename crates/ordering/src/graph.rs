//! Weighted undirected graphs in compressed adjacency form, plus the
//! traversal utilities the partitioners need.

use sparsemat::Csr;

/// An undirected graph with integer vertex and edge weights, stored as a
/// symmetric compressed adjacency structure (every edge appears in both
/// endpoint lists). Vertex weights track how many fine vertices a coarse
/// vertex represents during multilevel coarsening.
#[derive(Clone, Debug)]
pub struct Graph {
    pub xadj: Vec<usize>,
    pub adj: Vec<usize>,
    /// Edge weights, parallel to `adj`.
    pub ewgt: Vec<u64>,
    /// Vertex weights.
    pub vwgt: Vec<u64>,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges (each stored twice).
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Neighbour/edge-weight pairs of `v`.
    #[inline]
    pub fn neighbors_weighted(&self, v: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.adj[self.xadj[v]..self.xadj[v + 1]]
            .iter()
            .copied()
            .zip(self.ewgt[self.xadj[v]..self.xadj[v + 1]].iter().copied())
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Build the adjacency graph of a sparse matrix: the pattern of
    /// `A + A^T` without the diagonal, unit weights (paper §II-B).
    pub fn from_matrix(a: &Csr) -> Graph {
        let (xadj, adj) = a.adjacency();
        let ewgt = vec![1; adj.len()];
        let vwgt = vec![1; a.nrows];
        Graph {
            xadj,
            adj,
            ewgt,
            vwgt,
        }
    }

    /// Build from raw symmetric adjacency with unit weights. Validates
    /// symmetry in debug builds.
    pub fn from_adjacency(xadj: Vec<usize>, adj: Vec<usize>) -> Graph {
        let n = xadj.len() - 1;
        let g = Graph {
            ewgt: vec![1; adj.len()],
            vwgt: vec![1; n],
            xadj,
            adj,
        };
        debug_assert!(g.check_symmetric(), "adjacency must be symmetric");
        g
    }

    /// Verify every edge appears in both directions (test helper).
    pub fn check_symmetric(&self) -> bool {
        for v in 0..self.n() {
            for &u in self.neighbors(v) {
                if u >= self.n() || !self.neighbors(u).contains(&v) {
                    return false;
                }
            }
        }
        true
    }

    /// The induced subgraph on `vertices` (original ids). Returns the
    /// subgraph and the map from subgraph id to original id.
    pub fn subgraph(&self, vertices: &[usize]) -> (Graph, Vec<usize>) {
        let mut local = vec![usize::MAX; self.n()];
        (self.subgraph_in(vertices, &mut local), vertices.to_vec())
    }

    /// [`Graph::subgraph`] on the caller's original→local map: `local` has
    /// one entry per vertex of `self`, all `usize::MAX` on entry and again
    /// on return, so a caller that keeps it pays O(|subgraph| + its edges)
    /// per call instead of O(n).
    pub(crate) fn subgraph_in(&self, vertices: &[usize], local: &mut [usize]) -> Graph {
        for (i, &v) in vertices.iter().enumerate() {
            local[v] = i;
        }
        let degree_sum = vertices.iter().map(|&v| self.degree(v)).sum();
        let mut xadj = Vec::with_capacity(vertices.len() + 1);
        let mut adj = Vec::with_capacity(degree_sum);
        let mut ewgt = Vec::with_capacity(degree_sum);
        let mut vwgt = Vec::with_capacity(vertices.len());
        xadj.push(0);
        for &v in vertices {
            for (u, w) in self.neighbors_weighted(v) {
                if local[u] != usize::MAX {
                    adj.push(local[u]);
                    ewgt.push(w);
                }
            }
            vwgt.push(self.vwgt[v]);
            xadj.push(adj.len());
        }
        for &v in vertices {
            local[v] = usize::MAX;
        }
        Graph {
            xadj,
            adj,
            ewgt,
            vwgt,
        }
    }

    /// Connected components: returns (component id per vertex, #components).
    pub fn components(&self) -> (Vec<usize>, usize) {
        let n = self.n();
        let mut comp = vec![usize::MAX; n];
        let mut ncomp = 0;
        let mut stack = Vec::new();
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            comp[s] = ncomp;
            stack.push(s);
            while let Some(v) = stack.pop() {
                for &u in self.neighbors(v) {
                    if comp[u] == usize::MAX {
                        comp[u] = ncomp;
                        stack.push(u);
                    }
                }
            }
            ncomp += 1;
        }
        (comp, ncomp)
    }

    /// Breadth-first level structure from `start`: returns (level per
    /// vertex, vertices in BFS order). Unreached vertices get
    /// `usize::MAX`.
    pub fn bfs_levels(&self, start: usize) -> (Vec<usize>, Vec<usize>) {
        let mut buf = BfsBuffers::default();
        self.bfs_levels_in(start, &mut buf);
        (buf.level, buf.order)
    }

    /// [`Graph::bfs_levels`] into the caller's buffers; `buf.order` doubles
    /// as the queue.
    fn bfs_levels_in(&self, start: usize, buf: &mut BfsBuffers) {
        let BfsBuffers { level, order } = buf;
        level.clear();
        level.resize(self.n(), usize::MAX);
        order.clear();
        order.push(start);
        level[start] = 0;
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &u in self.neighbors(v) {
                if level[u] == usize::MAX {
                    level[u] = level[v] + 1;
                    order.push(u);
                }
            }
        }
    }

    /// A pseudo-peripheral vertex: repeated BFS from the farthest vertex
    /// until eccentricity stops growing. Classic starting point for
    /// graph-growing bisection.
    pub fn pseudo_peripheral(&self, start: usize) -> usize {
        self.pseudo_peripheral_in(start, &mut BfsBuffers::default())
    }

    /// [`Graph::pseudo_peripheral`] on the caller's buffers.
    pub(crate) fn pseudo_peripheral_in(&self, start: usize, buf: &mut BfsBuffers) -> usize {
        let mut v = start;
        let mut ecc = 0;
        for _ in 0..8 {
            self.bfs_levels_in(v, buf);
            let far = *buf.order.last().unwrap_or(&v);
            let far_ecc = buf.level[far];
            if far_ecc <= ecc {
                break;
            }
            ecc = far_ecc;
            v = far;
        }
        v
    }
}

/// The two vectors a breadth-first search fills.
#[derive(Default)]
pub(crate) struct BfsBuffers {
    level: Vec<usize>,
    order: Vec<usize>,
}

/// A random weighted graph for the differential tests: symmetric, no
/// self-loops, each possible edge present with probability `density` (low
/// values leave it disconnected), edge weights 1..=50, vertex weights 1..=20
/// with about one vertex in eight several times heavier — heavier than the
/// 5%-of-total balance slack, so refinement's balance test refuses moves.
#[cfg(test)]
pub(crate) fn random_weighted(rng: &mut rand::rngs::StdRng, n: usize, density: f64) -> Graph {
    use rand::Rng;
    let mut rows: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    for v in 0..n {
        for u in v + 1..n {
            if rng.gen_bool(density) {
                let w = rng.gen_range(1u64..51);
                rows[v].push((u, w));
                rows[u].push((v, w));
            }
        }
    }
    let mut g = Graph {
        xadj: vec![0],
        adj: Vec::new(),
        ewgt: Vec::new(),
        vwgt: Vec::new(),
    };
    for row in rows {
        for (u, w) in row {
            g.adj.push(u);
            g.ewgt.push(w);
        }
        g.xadj.push(g.adj.len());
        let heavy = rng.gen_bool(0.125);
        g.vwgt
            .push(rng.gen_range(1u64..21) * if heavy { 8 } else { 1 });
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::matgen::grid2d_5pt;

    fn path_graph(n: usize) -> Graph {
        let mut xadj = vec![0usize];
        let mut adj = Vec::new();
        for v in 0..n {
            if v > 0 {
                adj.push(v - 1);
            }
            if v + 1 < n {
                adj.push(v + 1);
            }
            xadj.push(adj.len());
        }
        Graph::from_adjacency(xadj, adj)
    }

    #[test]
    fn from_matrix_grid() {
        let a = grid2d_5pt(4, 4, 0.0, 0);
        let g = Graph::from_matrix(&a);
        assert_eq!(g.n(), 16);
        assert!(g.check_symmetric());
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(5), 4); // interior
    }

    #[test]
    fn subgraph_preserves_internal_edges() {
        let a = grid2d_5pt(3, 3, 0.0, 0);
        let g = Graph::from_matrix(&a);
        // Take the left 2x3 column block: vertices {0,1,3,4,6,7}.
        let verts = vec![0, 1, 3, 4, 6, 7];
        let (sg, map) = g.subgraph(&verts);
        assert_eq!(sg.n(), 6);
        assert_eq!(map, verts);
        assert!(sg.check_symmetric());
        // vertex 0 (orig 0) connects to orig 1 and orig 3, both inside.
        assert_eq!(sg.degree(0), 2);
    }

    #[test]
    fn components_of_disconnected() {
        // Two disjoint paths.
        let mut xadj = vec![0usize];
        let mut adj = Vec::new();
        // path 0-1
        adj.push(1);
        xadj.push(adj.len());
        adj.push(0);
        xadj.push(adj.len());
        // isolated 2
        xadj.push(adj.len());
        let g = Graph::from_adjacency(xadj, adj);
        let (comp, ncomp) = g.components();
        assert_eq!(ncomp, 2);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = path_graph(5);
        let (levels, order) = g.bfs_levels(0);
        assert_eq!(levels, vec![0, 1, 2, 3, 4]);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pseudo_peripheral_finds_path_end() {
        let g = path_graph(9);
        let v = g.pseudo_peripheral(4);
        assert!(v == 0 || v == 8);
    }
}
