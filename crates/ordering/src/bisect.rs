//! Initial bisection heuristics for general graphs.
//!
//! The multilevel partitioner needs an edge bisection of the coarsest graph;
//! [`graph_growing_bisection`] provides it by growing a region from a
//! pseudo-peripheral vertex until it holds half the total vertex weight,
//! trying several seeds and keeping the best cut. [`vertex_separator_from_bisection`]
//! then converts an edge bisection into the vertex separator nested
//! dissection needs.

use crate::graph::{BfsBuffers, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A two-way edge partition: `side[v] in {0, 1}`.
#[derive(Clone, Debug)]
pub struct Bisection {
    pub side: Vec<u8>,
    /// Sum of edge weights crossing the cut.
    pub cut: u64,
    /// Total vertex weight on each side.
    pub weight: [u64; 2],
}

impl Bisection {
    /// Recompute cut and side weights from scratch (used by the initial
    /// bisection, by debug cross-checks and by tests).
    pub fn recompute(g: &Graph, side: Vec<u8>) -> Bisection {
        let mut cut = 0;
        let mut weight = [0u64; 2];
        for v in 0..g.n() {
            weight[side[v] as usize] += g.vwgt[v];
            for (u, w) in g.neighbors_weighted(v) {
                if side[u] != side[v] {
                    cut += w;
                }
            }
        }
        Bisection {
            side,
            cut: cut / 2, // each crossing edge counted twice
            weight,
        }
    }

    /// True if `cut` and `weight` are what [`Bisection::recompute`] finds for
    /// `side`: the debug cross-check behind every place that carries them
    /// along instead of recomputing.
    pub(crate) fn is_consistent(&self, g: &Graph) -> bool {
        let fresh = Bisection::recompute(g, self.side.clone());
        (fresh.cut, fresh.weight) == (self.cut, self.weight)
    }

    /// Imbalance ratio: max side weight over ideal half.
    pub fn imbalance(&self) -> f64 {
        let total = (self.weight[0] + self.weight[1]).max(1);
        let maxw = self.weight[0].max(self.weight[1]);
        2.0 * maxw as f64 / total as f64
    }
}

/// Buffers of [`graph_growing_bisection`], reused across tries and calls.
#[derive(Default)]
pub(crate) struct GrowWorkspace {
    /// The side vector of the try that lost the last comparison.
    side: Vec<u8>,
    visited: Vec<bool>,
    queue: VecDeque<usize>,
    bfs: BfsBuffers,
}

/// Grow a region from a pseudo-peripheral vertex by BFS until it holds half
/// the total vertex weight; repeat for `ntries` seeds and keep the smallest
/// cut among balanced results. Handles disconnected graphs by continuing
/// growth from unvisited vertices.
pub fn graph_growing_bisection(g: &Graph, ntries: usize, seed: u64) -> Bisection {
    graph_growing_bisection_in(g, ntries, seed, &mut GrowWorkspace::default())
}

/// [`graph_growing_bisection`] on the caller's buffers.
pub(crate) fn graph_growing_bisection_in(
    g: &Graph,
    ntries: usize,
    seed: u64,
    ws: &mut GrowWorkspace,
) -> Bisection {
    let n = g.n();
    assert!(n >= 2, "bisection needs at least 2 vertices");
    let total = g.total_vwgt();
    let target = total / 2;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best: Option<Bisection> = None;

    for t in 0..ntries.max(1) {
        let start0 = rng.gen_range(0..n);
        let start = if t == 0 {
            g.pseudo_peripheral_in(start0, &mut ws.bfs)
        } else {
            start0
        };
        let mut side = std::mem::take(&mut ws.side);
        side.clear();
        side.resize(n, 1u8);
        let mut grown = 0u64;
        let visited = &mut ws.visited;
        visited.clear();
        visited.resize(n, false);
        let queue = &mut ws.queue;
        queue.clear();
        queue.push_back(start);
        visited[start] = true;
        let mut next_unvisited = 0usize;
        while grown < target {
            let v = match queue.pop_front() {
                Some(v) => v,
                None => {
                    // Disconnected: pick the next unvisited vertex.
                    while next_unvisited < n && visited[next_unvisited] {
                        next_unvisited += 1;
                    }
                    if next_unvisited >= n {
                        break;
                    }
                    visited[next_unvisited] = true;
                    next_unvisited
                }
            };
            side[v] = 0;
            grown += g.vwgt[v];
            for &u in g.neighbors(v) {
                if !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
        let b = Bisection::recompute(g, side);
        let better = match &best {
            None => true,
            Some(cur) => {
                // Prefer balanced cuts; among comparably balanced, prefer
                // smaller cuts.
                let bal_b = b.imbalance();
                let bal_c = cur.imbalance();
                if (bal_b - bal_c).abs() > 0.2 {
                    bal_b < bal_c
                } else {
                    b.cut < cur.cut
                }
            }
        };
        // The loser's side vector is the next try's.
        let loser = if better { best.replace(b) } else { Some(b) };
        if let Some(loser) = loser {
            ws.side = loser.side;
        }
    }
    best.expect("at least one bisection attempt")
}

/// Turn an edge bisection into a vertex separator: take the boundary
/// vertices of the side whose boundary is smaller (by vertex weight). The
/// separator is assigned `side = 2`; remaining vertices keep 0/1.
///
/// Returns `(assignment, separator size)` where `assignment[v] in {0,1,2}`.
pub fn vertex_separator_from_bisection(g: &Graph, bis: &Bisection) -> (Vec<u8>, usize) {
    let n = g.n();
    let mut boundary = [Vec::new(), Vec::new()];
    for v in 0..n {
        let s = bis.side[v] as usize;
        if g.neighbors(v).iter().any(|&u| bis.side[u] != bis.side[v]) {
            boundary[s].push(v);
        }
    }
    let bw: [u64; 2] = [
        boundary[0].iter().map(|&v| g.vwgt[v]).sum(),
        boundary[1].iter().map(|&v| g.vwgt[v]).sum(),
    ];
    let sep_side = if bw[0] <= bw[1] { 0 } else { 1 };
    let mut assign: Vec<u8> = bis.side.clone();
    for &v in &boundary[sep_side] {
        assign[v] = 2;
    }
    let sep_size = boundary[sep_side].len();
    (assign, sep_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::matgen::grid2d_5pt;

    #[test]
    fn bisects_grid_roughly_in_half() {
        let a = grid2d_5pt(12, 12, 0.0, 0);
        let g = Graph::from_matrix(&a);
        let b = graph_growing_bisection(&g, 4, 42);
        assert!(b.imbalance() < 1.3, "imbalance {}", b.imbalance());
        // A 12x12 grid has a cut of ~12 for a clean split; allow slack.
        assert!(b.cut <= 40, "cut {}", b.cut);
    }

    #[test]
    fn separator_separates() {
        let a = grid2d_5pt(10, 10, 0.0, 0);
        let g = Graph::from_matrix(&a);
        let b = graph_growing_bisection(&g, 4, 1);
        let (assign, sep) = vertex_separator_from_bisection(&g, &b);
        assert!(sep > 0);
        // No edge may connect side 0 to side 1 directly.
        for v in 0..g.n() {
            if assign[v] == 2 {
                continue;
            }
            for &u in g.neighbors(v) {
                if assign[u] != 2 {
                    assert_eq!(assign[u], assign[v], "edge {v}-{u} crosses sides");
                }
            }
        }
    }

    #[test]
    fn handles_disconnected_graph() {
        // Two separate 4-cycles.
        let mut xadj = vec![0usize];
        let mut adj = Vec::new();
        for base in [0usize, 4] {
            for i in 0..4 {
                adj.push(base + (i + 1) % 4);
                adj.push(base + (i + 3) % 4);
                xadj.push(adj.len());
            }
        }
        let g = Graph::from_adjacency(xadj, adj);
        let b = graph_growing_bisection(&g, 3, 0);
        assert!(b.weight[0] > 0 && b.weight[1] > 0);
    }

    #[test]
    fn cut_of_recompute_matches_manual() {
        // Path 0-1-2: side = [0,0,1] cuts exactly edge (1,2).
        let xadj = vec![0, 1, 3, 4];
        let adj = vec![1, 0, 2, 1];
        let g = Graph::from_adjacency(xadj, adj);
        let b = Bisection::recompute(&g, vec![0, 0, 1]);
        assert_eq!(b.cut, 1);
        assert_eq!(b.weight, [2, 1]);
    }
}
