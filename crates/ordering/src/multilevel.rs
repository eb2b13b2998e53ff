//! Multilevel graph bisection: coarsen → bisect → uncoarsen + refine.
//!
//! This is the METIS recipe: heavy-edge matching halves the graph until it
//! is small, a graph-growing heuristic bisects the coarsest graph, and the
//! partition is projected back up with Fiduccia–Mattheyses refinement at
//! every level.

use crate::bisect::{
    graph_growing_bisection_in, vertex_separator_from_bisection, Bisection, GrowWorkspace,
};
use crate::graph::Graph;
use crate::refine::{fm_refine_in, FmWorkspace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Stop coarsening when the graph is this small.
const COARSEST_SIZE: usize = 80;
/// Stop coarsening when a round shrinks the graph by less than this factor
/// (protects against matching-resistant graphs).
const MIN_SHRINK: f64 = 0.9;
/// FM passes per uncoarsening level.
const REFINE_PASSES: usize = 4;
/// Graph-growing tries for the initial bisection.
const INITIAL_TRIES: usize = 6;

/// The initial bisection draws from its own stream.
fn initial_seed(seed: u64) -> u64 {
    seed ^ 0x9e3779b9
}

/// One level of the coarsening hierarchy.
struct CoarseLevel {
    /// The coarse graph of this level.
    graph: Graph,
    /// Map from the vertices of the next finer graph (the previous level's,
    /// or the input graph) to the vertices of `graph`.
    fine_to_coarse: Vec<usize>,
}

/// Every buffer a multilevel bisection needs besides the coarse graphs
/// themselves. Nested dissection keeps one for the whole ordering, so the
/// ~n/leaf bisections of a run share their allocations.
#[derive(Default)]
pub(crate) struct Workspace {
    pub fm: FmWorkspace,
    grow: GrowWorkspace,
    /// Matching: visit order and mates.
    order: Vec<usize>,
    mate: Vec<usize>,
    /// Contraction: fine vertices bucketed by coarse id (`members`, with
    /// bucket `c` ending at `member_end[c]`), the coarse row being built, and
    /// per coarse vertex its position in that row — `usize::MAX` outside the
    /// row, which `contract` restores before it moves on.
    member_end: Vec<usize>,
    members: Vec<usize>,
    row: Vec<(usize, u64)>,
    slot: Vec<usize>,
    /// Projection target, swapped with the bisection's side vector.
    side: Vec<u8>,
}

/// Heavy-edge matching: visit vertices in random order; match each unmatched
/// vertex with its unmatched neighbour of maximal edge weight. Returns the
/// fine→coarse map and the coarse vertex count.
fn heavy_edge_matching(g: &Graph, rng: &mut StdRng, ws: &mut Workspace) -> (Vec<usize>, usize) {
    let n = g.n();
    let order = &mut ws.order;
    order.clear();
    order.extend(0..n);
    order.shuffle(rng);
    let mate = &mut ws.mate;
    mate.clear();
    mate.resize(n, usize::MAX);
    for &v in order.iter() {
        if mate[v] != usize::MAX {
            continue;
        }
        let mut best = usize::MAX;
        let mut best_w = 0u64;
        for (u, w) in g.neighbors_weighted(v) {
            if u != v && mate[u] == usize::MAX && w >= best_w {
                best = u;
                best_w = w;
            }
        }
        if best != usize::MAX {
            mate[v] = best;
            mate[best] = v;
        } else {
            mate[v] = v; // stays single
        }
    }
    // Assign coarse ids: the smaller endpoint of each pair names the pair.
    let mut fine_to_coarse = vec![usize::MAX; n];
    let mut next = 0usize;
    for v in 0..n {
        if fine_to_coarse[v] != usize::MAX {
            continue;
        }
        let m = mate[v];
        fine_to_coarse[v] = next;
        if m != v {
            fine_to_coarse[m] = next;
        }
        next += 1;
    }
    (fine_to_coarse, next)
}

/// Build the coarse graph induced by a fine→coarse map, merging parallel
/// edges (summing weights) and dropping self-loops. Rows come out in
/// ascending neighbour id.
fn contract(g: &Graph, fine_to_coarse: &[usize], nc: usize, ws: &mut Workspace) -> Graph {
    let n = g.n();
    // Bucket the fine vertices by coarse id (counting sort).
    let member_end = &mut ws.member_end;
    member_end.clear();
    member_end.resize(nc, 0);
    for &c in fine_to_coarse {
        member_end[c] += 1;
    }
    let mut start = 0;
    for e in member_end.iter_mut() {
        // Holds the bucket's start until the fill below advances it to the end.
        start += std::mem::replace(e, start);
    }
    let members = &mut ws.members;
    members.clear();
    members.resize(n, 0);
    for (v, &c) in fine_to_coarse.iter().enumerate() {
        members[member_end[c]] = v;
        member_end[c] += 1;
    }

    let slot = &mut ws.slot;
    if slot.len() < nc {
        slot.resize(nc, usize::MAX);
    }
    let row = &mut ws.row;
    // Contraction only merges and drops edges, so the fine edge count bounds
    // the coarse one: reserved once, never regrown.
    let mut xadj = Vec::with_capacity(nc + 1);
    let mut adj = Vec::with_capacity(g.adj.len());
    let mut ewgt = Vec::with_capacity(g.adj.len());
    let mut vwgt = Vec::with_capacity(nc);
    xadj.push(0);
    let mut lo = 0;
    for (c, &hi) in member_end.iter().enumerate() {
        let mut weight = 0;
        for &v in &members[lo..hi] {
            weight += g.vwgt[v];
            for (u, w) in g.neighbors_weighted(v) {
                let cu = fine_to_coarse[u];
                if cu == c {
                    continue;
                }
                if slot[cu] == usize::MAX {
                    slot[cu] = row.len();
                    row.push((cu, w));
                } else {
                    row[slot[cu]].1 += w;
                }
            }
        }
        row.sort_unstable_by_key(|&(cu, _)| cu);
        for (cu, w) in row.drain(..) {
            slot[cu] = usize::MAX;
            adj.push(cu);
            ewgt.push(w);
        }
        vwgt.push(weight);
        xadj.push(adj.len());
        lo = hi;
    }
    Graph {
        xadj,
        adj,
        ewgt,
        vwgt,
    }
}

/// Coarsening phase: halve the graph by heavy-edge matching until it is
/// small or matching stalls. `g` itself is the finest graph and stays
/// borrowed; the result holds only the coarser ones, finest first.
fn coarsen(g: &Graph, rng: &mut StdRng, ws: &mut Workspace) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    loop {
        let cur = levels.last().map_or(g, |l| &l.graph);
        if cur.n() <= COARSEST_SIZE {
            break;
        }
        let (fine_to_coarse, nc) = heavy_edge_matching(cur, rng, ws);
        if (nc as f64) > MIN_SHRINK * cur.n() as f64 {
            break; // matching stalled
        }
        let graph = contract(cur, &fine_to_coarse, nc, ws);
        levels.push(CoarseLevel {
            graph,
            fine_to_coarse,
        });
    }
    levels
}

/// Carry a bisection of `level.graph` to the next finer graph `fine`.
/// Projection moves no weight across the cut (a coarse edge is the sum of
/// the fine edges between two coarse vertices, a coarse vertex the sum of
/// its members), so `cut` and `weight` stay as they are.
fn project(level: &CoarseLevel, fine: &Graph, bis: &mut Bisection, side: &mut Vec<u8>) {
    side.clear();
    side.extend(level.fine_to_coarse.iter().map(|&c| bis.side[c]));
    std::mem::swap(&mut bis.side, side);
    debug_assert!(
        bis.is_consistent(fine),
        "projection preserves cut and weights"
    );
}

/// Multilevel edge bisection of `g`.
pub fn multilevel_bisection(g: &Graph, seed: u64) -> Bisection {
    multilevel_bisection_in(g, seed, &mut Workspace::default())
}

/// [`multilevel_bisection`] on the caller's buffers.
pub(crate) fn multilevel_bisection_in(g: &Graph, seed: u64, ws: &mut Workspace) -> Bisection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut levels = coarsen(g, &mut rng, ws);

    // Initial bisection at the coarsest level.
    let coarsest = levels.last().map_or(g, |l| &l.graph);
    let mut bis =
        graph_growing_bisection_in(coarsest, INITIAL_TRIES, initial_seed(seed), &mut ws.grow);
    fm_refine_in(coarsest, &mut bis, REFINE_PASSES, &mut ws.fm);

    // Uncoarsening phase: project and refine.
    while let Some(level) = levels.pop() {
        let fine = levels.last().map_or(g, |l| &l.graph);
        project(&level, fine, &mut bis, &mut ws.side);
        fm_refine_in(fine, &mut bis, REFINE_PASSES, &mut ws.fm);
    }
    bis
}

/// Multilevel *vertex-separator* bisection: the entry point nested
/// dissection uses for general graphs. Returns `assignment[v] in {0,1,2}`
/// (2 = separator) and the separator size.
pub fn multilevel_vertex_separator(g: &Graph, seed: u64) -> (Vec<u8>, usize) {
    multilevel_vertex_separator_in(g, seed, &mut Workspace::default())
}

/// [`multilevel_vertex_separator`] on the caller's buffers.
pub(crate) fn multilevel_vertex_separator_in(
    g: &Graph,
    seed: u64,
    ws: &mut Workspace,
) -> (Vec<u8>, usize) {
    let bis = multilevel_bisection_in(g, seed, ws);
    vertex_separator_from_bisection(g, &bis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::random_weighted;
    use crate::refine::exhaustive_twin;
    use proptest::prelude::*;
    use rand::Rng;
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt};
    use std::collections::BTreeMap;

    /// `contract` as it was before it lost its hash maps, on an ordered map:
    /// one accumulator per coarse vertex, rows read back in key order.
    fn contract_reference(g: &Graph, fine_to_coarse: &[usize], nc: usize) -> Graph {
        let mut vwgt = vec![0u64; nc];
        let mut edges: Vec<BTreeMap<usize, u64>> = vec![BTreeMap::new(); nc];
        for v in 0..g.n() {
            let cv = fine_to_coarse[v];
            vwgt[cv] += g.vwgt[v];
            for (u, w) in g.neighbors_weighted(v) {
                let cu = fine_to_coarse[u];
                if cu != cv {
                    *edges[cv].entry(cu).or_insert(0) += w;
                }
            }
        }
        let mut xadj = vec![0];
        let mut adj = Vec::new();
        let mut ewgt = Vec::new();
        for e in &edges {
            adj.extend(e.keys());
            ewgt.extend(e.values());
            xadj.push(adj.len());
        }
        Graph {
            xadj,
            adj,
            ewgt,
            vwgt,
        }
    }

    /// Everything `contract` promises about `coarse`, checked directly and
    /// against the reference.
    fn check_contraction(g: &Graph, map: &[usize], nc: usize, coarse: &Graph) {
        let reference = contract_reference(g, map, nc);
        assert_eq!(coarse.xadj, reference.xadj);
        assert_eq!(coarse.adj, reference.adj);
        assert_eq!(coarse.ewgt, reference.ewgt);
        assert_eq!(coarse.vwgt, reference.vwgt);
        for c in 0..nc {
            let row = coarse.neighbors(c);
            assert!(row.windows(2).all(|p| p[0] < p[1]), "row {c}: {row:?}");
            assert!(!row.contains(&c), "self-loop at {c}");
        }
        assert!(coarse.check_symmetric());
        assert_eq!(coarse.total_vwgt(), g.total_vwgt());
        let inside: u64 = (0..g.n())
            .flat_map(|v| g.neighbors_weighted(v).map(move |(u, w)| (v, u, w)))
            .filter(|&(v, u, _)| map[v] == map[u])
            .map(|(_, _, w)| w)
            .sum();
        let fine_total: u64 = g.ewgt.iter().sum();
        assert_eq!(coarse.ewgt.iter().sum::<u64>(), fine_total - inside);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Contraction without hash maps is contraction: two levels of real
        /// matchings and one arbitrary map (groups of any size, some coarse
        /// vertices empty), all through one workspace.
        #[test]
        fn contract_equals_ordered_map_reference(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2usize..64);
            let density = [0.03, 0.1, 0.3][rng.gen_range(0usize..3)];
            let g = random_weighted(&mut rng, n, density);
            let mut ws = Workspace::default();

            let (map, nc) = heavy_edge_matching(&g, &mut rng, &mut ws);
            let coarse = contract(&g, &map, nc, &mut ws);
            check_contraction(&g, &map, nc, &coarse);

            let (map2, nc2) = heavy_edge_matching(&coarse, &mut rng, &mut ws);
            let coarser = contract(&coarse, &map2, nc2, &mut ws);
            check_contraction(&coarse, &map2, nc2, &coarser);

            let groups = rng.gen_range(1usize..n + 1);
            let any_map: Vec<usize> = (0..n).map(|_| rng.gen_range(0..groups)).collect();
            let merged = contract(&g, &any_map, groups, &mut ws);
            check_contraction(&g, &any_map, groups, &merged);
        }
    }

    /// The work pin: no wall clock, a count. On the top-level bisection of a
    /// 64 x 64 grid the shipped passes reach, level by level, exactly the
    /// bisections the exhaustive passes reach, with at most half the moves.
    /// A regression to full passes fails here.
    #[test]
    fn shipped_passes_make_at_most_half_the_exhaustive_moves() {
        let g = Graph::from_matrix(&grid2d_5pt(64, 64, 0.0, 0));
        let seed = 7;
        let mut ws = Workspace::default();
        let mut exhaustive = (0, 0);
        let mut twin = |graph: &Graph, bis: &mut Bisection, ws: &mut Workspace| {
            let (moves, kept) = exhaustive_twin(graph, bis, REFINE_PASSES, &mut ws.fm);
            exhaustive.0 += moves;
            exhaustive.1 += kept;
        };

        // `multilevel_bisection_in`, with every refinement run twice.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut levels = coarsen(&g, &mut rng, &mut ws);
        assert!(levels.len() >= 5, "{} levels", levels.len());
        let coarsest = &levels.last().unwrap().graph;
        let mut bis =
            graph_growing_bisection_in(coarsest, INITIAL_TRIES, initial_seed(seed), &mut ws.grow);
        twin(coarsest, &mut bis, &mut ws);
        while let Some(level) = levels.pop() {
            let fine = levels.last().map_or(&g, |l| &l.graph);
            project(&level, fine, &mut bis, &mut ws.side);
            twin(fine, &mut bis, &mut ws);
        }
        assert_eq!(bis.side, multilevel_bisection(&g, seed).side);

        let shipped = ws.fm.stats;
        assert_eq!(shipped.kept, exhaustive.1);
        assert!(shipped.kept > 0);
        assert!(
            2 * shipped.moves <= exhaustive.0,
            "shipped {shipped:?}, exhaustive (moves, kept) {exhaustive:?}"
        );
    }

    #[test]
    fn matching_halves_grid() {
        let g = Graph::from_matrix(&grid2d_5pt(10, 10, 0.0, 0));
        let mut rng = StdRng::seed_from_u64(1);
        let mut ws = Workspace::default();
        let (map, nc) = heavy_edge_matching(&g, &mut rng, &mut ws);
        assert!((50..=70).contains(&nc), "nc={nc}");
        // Weight conservation in contraction.
        let cg = contract(&g, &map, nc, &mut ws);
        assert_eq!(cg.total_vwgt(), 100);
        assert!(cg.check_symmetric());
    }

    #[test]
    fn multilevel_cut_near_optimal_on_grid() {
        // A k x k grid has an optimal bisection cut of k.
        let k = 24;
        let g = Graph::from_matrix(&grid2d_5pt(k, k, 0.0, 0));
        let bis = multilevel_bisection(&g, 7);
        assert!(bis.imbalance() < 1.25, "imbalance {}", bis.imbalance());
        assert!(bis.cut <= 2 * k as u64, "cut {} vs optimal {k}", bis.cut);
    }

    #[test]
    fn separator_size_scales_like_sqrt_n_on_planar() {
        // Doubling grid side should roughly double the separator (sqrt(n)).
        let g1 = Graph::from_matrix(&grid2d_5pt(16, 16, 0.0, 0));
        let g2 = Graph::from_matrix(&grid2d_5pt(32, 32, 0.0, 0));
        let (_, s1) = multilevel_vertex_separator(&g1, 3);
        let (_, s2) = multilevel_vertex_separator(&g2, 3);
        assert!(s1 > 0 && s2 > 0);
        let ratio = s2 as f64 / s1 as f64;
        assert!(ratio > 1.0 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn separator_separates_3d() {
        let g = Graph::from_matrix(&grid3d_7pt(6, 6, 6, 0.0, 0));
        let (assign, sep) = multilevel_vertex_separator(&g, 11);
        assert!(sep > 0);
        for v in 0..g.n() {
            if assign[v] == 2 {
                continue;
            }
            for &u in g.neighbors(v) {
                if assign[u] != 2 {
                    assert_eq!(assign[u], assign[v]);
                }
            }
        }
    }
}
