//! Fiduccia–Mattheyses (FM) refinement of an edge bisection.
//!
//! One FM pass tentatively moves vertices at most once each, always picking
//! the highest-gain movable vertex (subject to a balance constraint),
//! remembers the best prefix of the move sequence, and rolls back to it.
//! A handful of passes converges; this is the refinement engine the
//! multilevel partitioner runs at every uncoarsening level, as METIS does —
//! with one difference in how a pass ends. METIS stops a pass after a fixed
//! number of consecutive non-improving moves, a heuristic that changes which
//! prefix is found. Here a pass ends on a *proved* lower bound on every cut
//! it could still reach (see [`fm_refine`]), so it returns exactly what the
//! pass that moves every vertex returns, only sooner.

use crate::bisect::Bisection;
use crate::graph::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Maximum allowed side weight as a fraction of total (1.0 = perfectly
/// balanced halves are required; METIS-style default allows some slack).
const BALANCE_SLACK: f64 = 1.10;

/// Heap key: largest gain first, then smallest vertex id.
type HeapKey = (i64, Reverse<usize>);

/// What the passes run through one workspace did, summed.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FmStats {
    /// Passes started.
    pub passes: usize,
    /// Vertices moved (balance-locked vertices are not moves).
    pub moves: usize,
    /// Moves that survived the roll-back to the best prefix.
    pub kept: usize,
    /// Passes ended by the lower bound with unlocked vertices left.
    pub cut_short: usize,
}

/// Buffers of a pass, reused across passes, levels and bisections.
#[derive(Default)]
pub(crate) struct FmWorkspace {
    locked: Vec<bool>,
    /// Current gain of every unlocked vertex.
    gain: Vec<i64>,
    /// Per unlocked vertex, the weight of its edges to locked neighbours,
    /// by the side those neighbours are locked on.
    to_locked: Vec<[i64; 2]>,
    /// Lazy priority queue: an entry is live iff its vertex is unlocked and
    /// its gain equals `gain[v]`; every unlocked vertex has a live entry.
    heap: BinaryHeap<HeapKey>,
    /// Move log for the roll-back.
    moves: Vec<usize>,
    pub stats: FmStats,
}

/// The gain of moving `v` to the other side: external minus internal edge
/// weight.
fn gain_of(g: &Graph, side: &[u8], v: usize) -> i64 {
    let mut ext = 0i64;
    let mut int = 0i64;
    for (u, w) in g.neighbors_weighted(v) {
        if side[u] == side[v] {
            int += w as i64;
        } else {
            ext += w as i64;
        }
    }
    ext - int
}

/// Run up to `passes` FM passes on `bis`, improving the cut in place.
/// Returns the number of passes that made an improvement.
///
/// # Why a pass may stop early without changing its result
///
/// The pass that defines the result moves *every* vertex once, in order of
/// (largest gain, smallest id), records a prefix of that sequence only when
/// the running cut is strictly below the best recorded so far, and rolls
/// back to the recorded prefix. The shipped pass makes the same moves in the
/// same order and stops as soon as `bound >= best_cut`, where
///
/// ```text
/// bound = locked_cut + Σ over unlocked u of min(to_locked[u][0], to_locked[u][1])
/// ```
///
/// `locked_cut` is the weight of the edges whose two endpoints are both
/// locked (moved, or refused by the balance test) and lie on opposite sides,
/// and `to_locked[u][s]` the weight of the edges from `u` to neighbours
/// locked on side `s`.
///
/// 1. A locked vertex never changes side again within the pass. So in every
///    later state of the pass an edge counted in `locked_cut` is still cut,
///    and an unlocked `u`, whichever side `t` it then sits on, has all its
///    edges to the neighbours locked on the other side cut: at least
///    `min(to_locked[u][0], to_locked[u][1])`. No edge is counted twice
///    (locked–locked edges in the first term, unlocked–locked edges once,
///    under their unlocked endpoint), so every later running cut is at
///    least `bound`.
/// 2. `best_cut` only falls, and a later prefix replaces the recorded one
///    only if its running cut is *strictly* below `best_cut`.
/// 3. Hence once `bound >= best_cut` no later prefix can be recorded. The
///    recorded prefix — and with it the sides, cut and weights the pass
///    commits, and whether the pass counts as an improvement — is what the
///    exhaustive pass records after moving everything else.
///
/// When `v` locks on side `s` its own `min` term leaves the sum, its edges
/// to neighbours locked on the other side join `locked_cut`, and each
/// unlocked neighbour gains a locked neighbour on `s`: the bound is kept in
/// the neighbour loop a move runs anyway.
///
/// `fm_refine_exhaustive` (test builds only) is that defining pass, kept
/// verbatim; the tests compare the two on random graphs.
pub fn fm_refine(g: &Graph, bis: &mut Bisection, passes: usize) -> usize {
    fm_refine_in(g, bis, passes, &mut FmWorkspace::default())
}

/// [`fm_refine`] on the caller's buffers.
pub(crate) fn fm_refine_in(
    g: &Graph,
    bis: &mut Bisection,
    passes: usize,
    ws: &mut FmWorkspace,
) -> usize {
    let max_side = ((g.total_vwgt() as f64 / 2.0) * BALANCE_SLACK).ceil() as u64;
    (0..passes)
        .take_while(|_| fm_pass(g, bis, max_side, ws))
        .count()
}

/// One pass; true if it lowered the cut (and committed the best prefix).
fn fm_pass(g: &Graph, bis: &mut Bisection, max_side: u64, ws: &mut FmWorkspace) -> bool {
    let n = g.n();
    let side = &mut bis.side;
    let FmWorkspace {
        locked,
        gain,
        to_locked,
        moves,
        ..
    } = ws;
    locked.clear();
    locked.resize(n, false);
    to_locked.clear();
    to_locked.resize(n, [0; 2]);
    gain.clear();
    gain.extend((0..n).map(|v| gain_of(g, side, v)));
    moves.clear();
    // Heapify in O(n) on the previous pass's storage.
    let mut keys = std::mem::take(&mut ws.heap).into_vec();
    keys.clear();
    keys.extend(gain.iter().enumerate().map(|(v, &gv)| (gv, Reverse(v))));
    let mut heap = BinaryHeap::from(keys);

    let start_cut = bis.cut as i64;
    let mut weight = bis.weight;
    let mut cur_cut = start_cut;
    let mut best_cut = start_cut;
    let mut best_len = 0usize;
    let mut best_weight = weight;
    let mut bound = 0i64;
    let mut nlocked = 0usize;

    while bound < best_cut {
        let Some((gv, Reverse(v))) = heap.pop() else {
            break;
        };
        if locked[v] || gv != gain[v] {
            continue; // stale entry
        }
        let from = side[v] as usize;
        let to = 1 - from;
        let vw = g.vwgt[v];
        // Balance check: would the destination overflow, or the source
        // become empty? Then `v` is locked where it is for this pass.
        let refused = weight[to] + vw > max_side || weight[from] <= vw;
        let stays = if refused { from } else { to };
        locked[v] = true;
        nlocked += 1;
        bound += to_locked[v][1 - stays] - to_locked[v][0].min(to_locked[v][1]);
        if !refused {
            side[v] = to as u8;
            weight[from] -= vw;
            weight[to] += vw;
            cur_cut -= gv;
            moves.push(v);
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_len = moves.len();
                best_weight = weight;
            }
        }
        for (u, w) in g.neighbors_weighted(v) {
            if locked[u] {
                continue;
            }
            let w = w as i64;
            let t = &mut to_locked[u];
            bound -= t[0].min(t[1]);
            t[stays] += w;
            bound += t[0].min(t[1]);
            if !refused {
                // The edge (u, v) turned internal for `u` if it sits on
                // `to`, external otherwise.
                gain[u] += if side[u] as usize == to {
                    -2 * w
                } else {
                    2 * w
                };
                heap.push((gain[u], Reverse(u)));
            }
        }
    }
    ws.heap = heap;
    ws.stats.passes += 1;
    ws.stats.moves += moves.len();
    ws.stats.kept += best_len;
    ws.stats.cut_short += usize::from(nlocked < n && bound >= best_cut);

    // Keep the best prefix, undo the rest (all of it if nothing improved).
    for &v in &moves[best_len..] {
        side[v] ^= 1;
    }
    if best_cut >= start_cut {
        return false;
    }
    bis.cut = best_cut as u64;
    bis.weight = best_weight;
    debug_assert!(
        bis.is_consistent(g),
        "cut and weights carried through the pass"
    );
    true
}

/// The pass that defines the result: every vertex is moved (or refused by
/// the balance test) before the best prefix is taken. Kept as the oracle for
/// [`fm_refine`]; reports `(moves, kept)` summed over its passes.
#[cfg(test)]
fn fm_refine_exhaustive(g: &Graph, bis: &mut Bisection, passes: usize) -> (usize, usize) {
    #[derive(PartialEq, Eq)]
    struct HeapItem {
        gain: i64,
        v: usize,
        stamp: u64,
    }

    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.gain
                .cmp(&other.gain)
                .then_with(|| other.v.cmp(&self.v))
        }
    }

    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let n = g.n();
    let total = g.total_vwgt();
    let max_side = ((total as f64 / 2.0) * BALANCE_SLACK).ceil() as u64;
    let mut stats = (0, 0);

    for _ in 0..passes {
        let mut side = bis.side.clone();
        let mut weight = bis.weight;
        let mut locked = vec![false; n];
        let mut stamp = vec![0u64; n];
        let mut heap = BinaryHeap::new();
        for v in 0..n {
            heap.push(HeapItem {
                gain: gain_of(g, &side, v),
                v,
                stamp: 0,
            });
        }

        // Move log for rollback: (vertex, cut delta after the move).
        let mut cur_cut = bis.cut as i64;
        let mut best_cut = cur_cut;
        let mut best_len = 0usize;
        let mut moves: Vec<usize> = Vec::new();

        while let Some(item) = heap.pop() {
            let v = item.v;
            if locked[v] || item.stamp != stamp[v] {
                continue; // stale entry
            }
            let from = side[v] as usize;
            let to = 1 - from;
            // Balance check: would the destination overflow, or the source
            // become empty?
            if weight[to] + g.vwgt[v] > max_side || weight[from] <= g.vwgt[v] {
                locked[v] = true; // cannot move this pass
                continue;
            }
            // Apply the move.
            locked[v] = true;
            side[v] = to as u8;
            weight[from] -= g.vwgt[v];
            weight[to] += g.vwgt[v];
            cur_cut -= item.gain;
            moves.push(v);
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_len = moves.len();
            }
            // Update neighbour gains (lazy: push fresh entries).
            for &u in g.neighbors(v) {
                if !locked[u] {
                    stamp[u] += 1;
                    heap.push(HeapItem {
                        gain: gain_of(g, &side, u),
                        v: u,
                        stamp: stamp[u],
                    });
                }
            }
        }
        stats.0 += moves.len();

        if best_cut >= bis.cut as i64 {
            break; // no improvement this pass; converged
        }
        stats.1 += best_len;
        // Roll forward only the best prefix.
        let mut side = bis.side.clone();
        for &v in &moves[..best_len] {
            side[v] = 1 - side[v];
        }
        *bis = Bisection::recompute(g, side);
        debug_assert_eq!(bis.cut as i64, best_cut);
    }
    stats
}

#[cfg(test)]
pub(crate) use tests::exhaustive_twin;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisect::graph_growing_bisection;
    use crate::graph::random_weighted;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sparsemat::matgen::grid2d_5pt;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Refine a copy of `bis` with the exhaustive pass and `bis` itself with
    /// the shipped one; they must agree in every field. Returns the
    /// exhaustive `(moves, kept)`; the shipped counters accumulate in `ws`.
    pub(crate) fn exhaustive_twin(
        g: &Graph,
        bis: &mut Bisection,
        passes: usize,
        ws: &mut FmWorkspace,
    ) -> (usize, usize) {
        let mut twin = bis.clone();
        let before = ws.stats;
        let exhaustive = fm_refine_exhaustive(g, &mut twin, passes);
        fm_refine_in(g, bis, passes, ws);
        assert_eq!(bis.side, twin.side, "sides after {passes} passes");
        assert_eq!(bis.cut, twin.cut, "cut after {passes} passes");
        assert_eq!(bis.weight, twin.weight, "weights after {passes} passes");
        assert_eq!(ws.stats.kept - before.kept, exhaustive.1, "moves kept");
        exhaustive
    }

    const TWIN_CASES: u32 = 256;
    static TWIN_SEEN: AtomicU32 = AtomicU32::new(0);
    static TWIN_CUT_SHORT: AtomicU32 = AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig { cases: TWIN_CASES, ..ProptestConfig::default() })]

        /// The cut-off is exact: on random weighted graphs (disconnected
        /// ones and balance-refused heavy vertices included) and random
        /// starting sides, the shipped pass and the exhaustive one commit
        /// the same bisection — and the cut-off actually fires, or this
        /// would compare the exhaustive pass with itself.
        #[test]
        fn cut_off_pass_equals_exhaustive_pass(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2usize..48);
            let density = [0.03, 0.1, 0.3][rng.gen_range(0usize..3)];
            let g = random_weighted(&mut rng, n, density);
            let side: Vec<u8> = (0..n).map(|_| rng.gen_range(0usize..2) as u8).collect();
            let start = Bisection::recompute(&g, side);

            let mut ws = FmWorkspace::default();
            exhaustive_twin(&g, &mut start.clone(), 1, &mut ws);
            exhaustive_twin(&g, &mut start.clone(), 4, &mut ws);

            TWIN_CUT_SHORT.fetch_add(u32::from(ws.stats.cut_short > 0), Ordering::Relaxed);
            if TWIN_SEEN.fetch_add(1, Ordering::Relaxed) + 1 == TWIN_CASES {
                let cut_short = TWIN_CUT_SHORT.load(Ordering::Relaxed);
                prop_assert!(
                    2 * cut_short >= TWIN_CASES,
                    "only {cut_short} of {TWIN_CASES} cases had a pass cut short"
                );
            }
        }
    }

    #[test]
    fn refinement_never_worsens_cut() {
        let a = grid2d_5pt(16, 16, 0.0, 0);
        let g = Graph::from_matrix(&a);
        for seed in 0..4 {
            let mut b = graph_growing_bisection(&g, 1, seed);
            let before = b.cut;
            fm_refine(&g, &mut b, 6);
            assert!(b.cut <= before, "seed {seed}: {} -> {}", before, b.cut);
            assert!(b.imbalance() < 1.4);
        }
    }

    #[test]
    fn refinement_fixes_bad_cut() {
        // Start from a deliberately awful interleaved assignment on a grid;
        // FM should reduce the cut dramatically.
        let a = grid2d_5pt(12, 12, 0.0, 0);
        let g = Graph::from_matrix(&a);
        let side: Vec<u8> = (0..g.n()).map(|v| (v % 2) as u8).collect();
        let mut b = Bisection::recompute(&g, side);
        let before = b.cut;
        fm_refine(&g, &mut b, 10);
        assert!(
            b.cut * 3 < before,
            "cut only improved from {before} to {}",
            b.cut
        );
    }

    #[test]
    fn gain_formula() {
        // Path 0-1-2 with side [0,1,1]: moving 1 to side 0 cuts edge (1,2)
        // but joins (0,1): gain = ext(1) - int(1) = 1 - 1 = 0.
        let xadj = vec![0, 1, 3, 4];
        let adj = vec![1, 0, 2, 1];
        let g = Graph::from_adjacency(xadj, adj);
        let side = vec![0u8, 1, 1];
        assert_eq!(gain_of(&g, &side, 1), 0);
        assert_eq!(gain_of(&g, &side, 0), 1);
        assert_eq!(gain_of(&g, &side, 2), -1);
    }
}
