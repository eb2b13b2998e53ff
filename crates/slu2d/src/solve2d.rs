//! Distributed triangular solves on the 2D grid.
//!
//! Fan-in / fan-out substitution, executed by **waves**: a node list's
//! supernodes are grouped by dependency height ([`BlockFill::solve_waves`]),
//! and every supernode of a wave with the same diagonal owner — its *root* —
//! forms one [`Batch`]. Per wave a rank takes part in at most one reduction
//! per root column of its process row (the concatenated partial sums of the
//! batch), the root solves the whole batch, and at most one broadcast per
//! root row of its process column carries the concatenated solutions.
//! Independent subtrees share a wave, so they neither wait on each other nor
//! pay a message latency each.
//!
//! Each collective reaches only its batch's roster ([`SolveLayout`]): a
//! reduction the columns holding a partial sum of one of the batch's
//! supernodes, a broadcast the rows holding a block that reads one of its
//! solutions (docs/perf.md, "The solve goes only where it is read").
//!
//! Every rank visits a wave's roots in ascending order, all reductions
//! before any broadcast. A reduction waits only on ranks of its own process
//! row working down the same list, a broadcast only on a root that has
//! finished its row's reductions, and nothing in a wave waits on a later
//! one, so no two collectives can wait on each other (docs/perf.md, "The
//! solve: waves"); dropping ranks from a collective keeps that order on the
//! ranks that remain.
//!
//! The forward and backward phases are exposed separately with an explicit
//! [`DistSolveState`] so the 3D solver can interleave them with z-axis
//! reductions and broadcasts (mirroring Algorithm 1's structure for the
//! solve, see `lu3d::solve3d`).

use crate::factor2d::FactorEnv;
use crate::store::BlockStore;
use densela::{backward_subst, flops, forward_subst_unit, Mat};
use simgrid::{FailKind, Grid2d, HostPhase, Payload, Rank};
use std::collections::BTreeMap;
use std::ops::Range;
use symbolic::{BlockFill, PanelRosters, SnPartition, Symbolic};

use simgrid::tags::{T_BWD_BC, T_BWD_RED, T_FWD_BC, T_FWD_RED};

/// The supernodes of one wave that one rank solves: those whose diagonal
/// block it owns.
#[derive(Debug)]
pub struct Batch {
    /// Process row and column of the diagonal owner.
    pub root: (usize, usize),
    /// Who takes part in each of the batch's four collectives: the union of
    /// its supernodes' rosters (see [`SolveLayout::rosters`]).
    pub rosters: Rosters,
    /// The batch's supernodes, as a range of its plan's wave order.
    nodes: Range<usize>,
}

/// The ascending members of one supernode's (or batch's) four solve
/// collectives, each with the root on it: process columns of the root's row
/// for the reductions, process rows of its column for the broadcasts.
#[derive(Clone, Debug)]
pub struct Rosters {
    /// Forward reduction: the columns holding an `L(k, j)` block of row `k`,
    /// whose forward sweeps (or z-line accumulators) add into `k`'s sum.
    pub fwd_red: Vec<usize>,
    /// Forward broadcast: the rows holding an `L(i, k)` block, which apply
    /// `y_k`.
    pub fwd_bc: Vec<usize>,
    /// Backward reduction: the columns holding a `U(k, j)` block.
    pub bwd_red: Vec<usize>,
    /// Backward broadcast: the rows holding a `U(j, k)` block, which apply
    /// `x_k`.
    pub bwd_bc: Vec<usize>,
}

impl Rosters {
    /// Add `other`'s members to this one's, keeping each list ascending.
    fn merge(&mut self, other: &Rosters) {
        for (into, from) in [
            (&mut self.fwd_red, &other.fwd_red),
            (&mut self.fwd_bc, &other.fwd_bc),
            (&mut self.bwd_red, &other.bwd_red),
            (&mut self.bwd_bc, &other.bwd_bc),
        ] {
            into.extend_from_slice(from);
            into.sort_unstable();
            into.dedup();
        }
    }
}

/// Is `x` on the ascending `roster`?
pub fn on(roster: &[usize], x: usize) -> bool {
    roster.binary_search(&x).is_ok()
}

/// The triangular sweeps of one node list on one 2D grid, batched by wave.
/// A pure function of symbolic state and the grid shape: derived once per
/// machine, read by every rank and every solve.
#[derive(Debug)]
pub struct SweepPlan {
    /// The node list, ascending.
    nodes: Vec<usize>,
    /// The same supernodes by (wave, root, index).
    order: Vec<usize>,
    /// One batch per (wave, root), in that order.
    batches: Vec<Batch>,
    /// `batches[wave_ptr[w]..wave_ptr[w + 1]]` is wave `w`.
    wave_ptr: Vec<usize>,
}

impl SweepPlan {
    /// Batch the sweeps over `nodes` (ascending) for `grid`, whose rosters
    /// `layout` holds.
    pub fn new(
        sym: &Symbolic,
        grid: &Grid2d,
        layout: &SolveLayout,
        nodes: Vec<usize>,
    ) -> SweepPlan {
        let wave = sym.fill.solve_waves(&nodes);
        let key = |pos: usize| (wave[pos], grid.owner(nodes[pos], nodes[pos]));
        let mut by_batch: Vec<usize> = (0..nodes.len()).collect();
        by_batch.sort_by_key(|&pos| key(pos));
        let mut batches: Vec<Batch> = Vec::new();
        let mut wave_ptr = Vec::new();
        for (at, &pos) in by_batch.iter().enumerate() {
            let (w, root) = key(pos);
            let rosters = layout.rosters(nodes[pos]);
            // Every wave below the highest has a node, so they start in turn.
            let new_wave = w == wave_ptr.len();
            if new_wave {
                wave_ptr.push(batches.len());
            }
            match batches.last_mut() {
                Some(last) if !new_wave && last.root == root => {
                    last.nodes.end += 1;
                    last.rosters.merge(&rosters);
                }
                _ => batches.push(Batch {
                    root,
                    rosters,
                    nodes: at..at + 1,
                }),
            }
        }
        wave_ptr.push(batches.len());
        SweepPlan {
            order: by_batch.into_iter().map(|pos| nodes[pos]).collect(),
            nodes,
            batches,
            wave_ptr,
        }
    }

    /// The node list, ascending.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// The waves in forward order, each its batches by ascending root.
    pub fn waves(&self) -> impl DoubleEndedIterator<Item = &[Batch]> + ExactSizeIterator {
        self.wave_ptr.windows(2).map(|w| &self.batches[w[0]..w[1]])
    }

    /// The supernodes of one of this plan's batches, ascending.
    pub fn nodes_of(&self, batch: &Batch) -> &[usize] {
        &self.order[batch.nodes.clone()]
    }
}

/// Block lists dealt by process row: for each supernode `k`, the entries `i`
/// of its list with `i % pr == r`, ascending, for every `r`.
#[derive(Debug)]
struct RowDeal {
    pr: usize,
    /// Hand `(k, r)` is `idx[ptr[k * pr + r]..ptr[k * pr + r + 1]]`.
    ptr: Vec<u32>,
    idx: Vec<u32>,
}

impl RowDeal {
    fn new(lists: &[Vec<usize>], pr: usize) -> RowDeal {
        let entries = lists.iter().map(Vec::len).sum();
        assert!(
            lists.len().max(entries) < u32::MAX as usize,
            "solve layout indexes supernodes and blocks with u32"
        );
        let mut ptr = Vec::with_capacity(lists.len() * pr + 1);
        let mut idx = Vec::with_capacity(entries);
        ptr.push(0);
        for list in lists {
            for r in 0..pr {
                idx.extend(list.iter().filter(|&&i| i % pr == r).map(|&i| i as u32));
                ptr.push(idx.len() as u32);
            }
        }
        RowDeal { pr, ptr, idx }
    }

    fn hand(&self, k: usize, r: usize) -> impl Iterator<Item = usize> + '_ {
        let at = k * self.pr + r;
        self.idx[self.ptr[at] as usize..self.ptr[at + 1] as usize]
            .iter()
            .map(|&i| i as usize)
    }
}

/// Which off-diagonal blocks of a solved supernode's column each process row
/// applies, and who takes part in each supernode's collectives: derived once
/// per machine, so no rank re-scans `struct_of[k]` with an ownership test
/// per entry in every sweep of every solve.
#[derive(Debug)]
pub struct SolveLayout {
    /// The `L(i, k)` blocks of column `k` (`struct_of[k]`).
    below: RowDeal,
    /// The `U(j, k)` blocks of column `k` (`blocks_into()[k]`).
    above: RowDeal,
    /// Rosters of the `struct_of` deal: the `L(i, k)` rows and `U(k, j)`
    /// columns.
    panel: PanelRosters,
    /// Rosters of the transposed deal: the `U(j, k)` rows and `L(k, j)`
    /// columns.
    transposed: PanelRosters,
}

impl SolveLayout {
    pub fn new(fill: &BlockFill, grid: &Grid2d) -> SolveLayout {
        SolveLayout {
            below: RowDeal::new(&fill.struct_of, grid.pr),
            above: RowDeal::new(fill.blocks_into(), grid.pr),
            panel: fill.panel_rosters(grid.pr, grid.pc),
            transposed: fill.transposed_rosters(grid.pr, grid.pc),
        }
    }

    /// Supernode `k`'s four rosters. A rank off one holds nothing the
    /// collective carries or reads: a partial sum of `k` lives only on the
    /// columns of its row's blocks (the z-line moves accumulators between
    /// equal coordinates), and only a block of `k`'s column reads its
    /// solution.
    pub fn rosters(&self, k: usize) -> Rosters {
        Rosters {
            fwd_red: self.fwd_red(k).to_vec(),
            fwd_bc: self.panel.rows(k).to_vec(),
            bwd_red: self.panel.cols(k).to_vec(),
            bwd_bc: self.bwd_bc(k).to_vec(),
        }
    }

    /// The forward reduction's roster of `k`: [`Rosters::fwd_red`].
    pub fn fwd_red(&self, k: usize) -> &[usize] {
        self.transposed.cols(k)
    }

    /// The backward broadcast's roster of `k`: [`Rosters::bwd_bc`].
    pub fn bwd_bc(&self, k: usize) -> &[usize] {
        self.transposed.rows(k)
    }
}

/// Per-rank running state of a distributed triangular solve.
pub struct DistSolveState {
    /// Forward partial sums: this rank's accumulated `L(I,j) y_j`
    /// contributions, indexed by global (permuted) vector position.
    pub acc: Vec<f64>,
    /// Backward partial sums: accumulated `U(j,k) x_k` contributions.
    pub accu: Vec<f64>,
    /// Forward solutions this rank reads back: the solved buffer of each
    /// batch it is the root of, by the batch's first supernode.
    y: BTreeMap<usize, Vec<f64>>,
    /// Backward solutions known to this rank (the members of each
    /// supernode's backward broadcast), ordered by supernode.
    pub x: BTreeMap<usize, Vec<f64>>,
}

impl DistSolveState {
    /// Fresh state for a solve over `sym`'s supernodes.
    pub fn new(sym: &Symbolic) -> DistSolveState {
        let n = sym.part.n();
        DistSolveState {
            acc: vec![0.0; n],
            accu: vec![0.0; n],
            y: BTreeMap::new(),
            x: BTreeMap::new(),
        }
    }
}

/// A sweep found its own data missing: a broken invariant of the caller's
/// store or call order, reported like any other solver-stage failure.
fn sweep_failure(phase: &str, supernode: usize, detail: &str) -> FailKind {
    FailKind::Solver {
        phase: phase.to_string(),
        supernode: Some(supernode),
        level: None,
        detail: detail.to_string(),
    }
}

fn diag_of<'a>(store: &'a BlockStore, phase: &str, k: usize) -> Result<&'a Mat, FailKind> {
    store
        .get(k, k)
        .ok_or_else(|| sweep_failure(phase, k, "diagonal block missing on its owner"))
}

/// The segments of `nodes` in `from`, concatenated: a reduction's operand,
/// a z-line or a point-to-point message of solved segments.
pub fn gather_segments(part: &SnPartition, nodes: &[usize], from: &[f64]) -> Vec<f64> {
    let mut seg = Vec::with_capacity(nodes.iter().map(|&k| part.width(k)).sum());
    for &k in nodes {
        seg.extend_from_slice(&from[part.ranges[k].clone()]);
    }
    seg
}

/// `into_i += B(i, k) v` for every block of column `k` in `rows` this rank
/// holds (a layer of a 3D grid keeps only its own subtrees' blocks).
fn apply_column(
    store: &BlockStore,
    sym: &Symbolic,
    rows: impl Iterator<Item = usize>,
    k: usize,
    v: &[f64],
    into: &mut [f64],
) {
    for i in rows {
        if let Some(block) = store.get(i, k) {
            let contrib = block.matvec(v);
            for (a, c) in into[sym.part.ranges[i].clone()].iter_mut().zip(contrib) {
                *a += c;
            }
        }
    }
}

/// Forward substitution over `sweep`'s node list: computes `y_k` on each
/// diagonal owner and spreads `L(I,k) y_k` contributions into `st.acc`.
/// `b` is read only on diagonal owners, at their supernodes' rows.
/// Collective across the layer.
#[allow(clippy::too_many_arguments)]
pub fn forward_nodes(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &BlockStore,
    sym: &Symbolic,
    layout: &SolveLayout,
    sweep: &SweepPlan,
    b: &[f64],
    st: &mut DistSolveState,
) -> Result<(), FailKind> {
    let _host = rank.host_scope(HostPhase::SolveFwd);
    let part = &sym.part;
    for wave in sweep.waves() {
        // 1. Reduce the partial sums of each batch along its root's process
        //    row; the root solves its batch.
        let mut solved = None;
        let reducing = |b: &&Batch| b.root.0 == env.my_r && on(&b.rosters.fwd_red, env.my_c);
        for batch in wave.iter().filter(reducing) {
            let nodes = sweep.nodes_of(batch);
            let seg = gather_segments(&sym.part, nodes, &st.acc);
            let tag = T_FWD_RED | nodes[0] as u64;
            let roster = &batch.rosters.fwd_red;
            if let Some(mut y) = rank.reduce_sum_among(&env.row, roster, batch.root.1, seg, tag) {
                let f0 = flops::get();
                let mut off = 0;
                for &k in nodes {
                    let rows = part.ranges[k].clone();
                    let yk = &mut y[off..off + rows.len()];
                    off += rows.len();
                    for (s, i) in yk.iter_mut().zip(rows) {
                        *s = b[i] - *s;
                    }
                    forward_subst_unit(diag_of(store, "solve-fwd", k)?, yk);
                }
                rank.advance_compute(flops::get() - f0);
                solved = Some(y);
            }
        }
        // 2. Broadcast each batch's solutions down its root's process
        //    column; column ranks apply their L(I,k) blocks.
        let reading = |b: &&Batch| b.root.1 == env.my_c && on(&b.rosters.fwd_bc, env.my_r);
        for batch in wave.iter().filter(reading) {
            let nodes = sweep.nodes_of(batch);
            let mine = batch.root.0 == env.my_r;
            let data = solved.take_if(|_| mine).map(Payload::F64s);
            let tag = T_FWD_BC | nodes[0] as u64;
            let roster = &batch.rosters.fwd_bc;
            let y = rank
                .bcast_among(&env.col, roster, batch.root.0, data, tag)
                .into_f64s();
            let f0 = flops::get();
            let mut off = 0;
            for &k in nodes {
                let yk = &y[off..off + part.width(k)];
                off += yk.len();
                let rows = layout.below.hand(k, env.my_r);
                apply_column(store, sym, rows, k, yk, &mut st.acc);
            }
            rank.advance_compute(flops::get() - f0);
            // Only the root reads its batch back (backward phase).
            if mine {
                st.y.insert(nodes[0], y);
            }
        }
    }
    Ok(())
}

/// Apply an externally received ancestor solution `x_k` to this rank's
/// backward accumulators: `accu_j += U(j,k) x_k` for every owned `U(j,k)`.
/// Used by the 3D solve when ancestor solutions arrive over the z-axis
/// instead of through this layer's own backward pass. The caller must be in
/// process column `k % pc`.
#[allow(clippy::too_many_arguments)]
pub fn apply_ancestor_x(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &BlockStore,
    sym: &Symbolic,
    layout: &SolveLayout,
    k: usize,
    xk: &[f64],
    st: &mut DistSolveState,
) {
    debug_assert_eq!(env.my_c, k % env.grid.pc);
    let f0 = flops::get();
    let rows = layout.above.hand(k, env.my_r);
    apply_column(store, sym, rows, k, xk, &mut st.accu);
    rank.advance_compute(flops::get() - f0);
    st.x.insert(k, xk.to_vec());
}

/// Backward substitution over `sweep`'s node list, its waves in reverse:
/// computes `x_k` on each diagonal owner, writing solved segments into
/// `x_out`, and spreads `U(j,k) x_k` contributions into `st.accu`. The
/// forward sweep over the same plan must have run on `st`. Collective across
/// the layer.
#[allow(clippy::too_many_arguments)]
pub fn backward_nodes(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &BlockStore,
    sym: &Symbolic,
    layout: &SolveLayout,
    sweep: &SweepPlan,
    st: &mut DistSolveState,
    x_out: &mut [f64],
) -> Result<(), FailKind> {
    let _host = rank.host_scope(HostPhase::SolveBwd);
    let part = &sym.part;
    for wave in sweep.waves().rev() {
        let mut solved = None;
        let reducing = |b: &&Batch| b.root.0 == env.my_r && on(&b.rosters.bwd_red, env.my_c);
        for batch in wave.iter().filter(reducing) {
            let nodes = sweep.nodes_of(batch);
            let seg = gather_segments(&sym.part, nodes, &st.accu);
            let tag = T_BWD_RED | nodes[0] as u64;
            let roster = &batch.rosters.bwd_red;
            if let Some(sum) = rank.reduce_sum_among(&env.row, roster, batch.root.1, seg, tag) {
                let f0 = flops::get();
                let mut x = st.y.remove(&nodes[0]).ok_or_else(|| {
                    sweep_failure("solve-bwd", nodes[0], "no forward solution on the root")
                })?;
                for (s, a) in x.iter_mut().zip(sum) {
                    *s -= a;
                }
                let mut off = 0;
                for &k in nodes {
                    let rows = part.ranges[k].clone();
                    let xk = &mut x[off..off + rows.len()];
                    off += rows.len();
                    backward_subst(diag_of(store, "solve-bwd", k)?, xk);
                    x_out[rows].copy_from_slice(xk);
                }
                rank.advance_compute(flops::get() - f0);
                solved = Some(x);
            }
        }
        let reading = |b: &&Batch| b.root.1 == env.my_c && on(&b.rosters.bwd_bc, env.my_r);
        for batch in wave.iter().filter(reading) {
            let nodes = sweep.nodes_of(batch);
            let data = solved
                .take_if(|_| batch.root.0 == env.my_r)
                .map(Payload::F64s);
            let tag = T_BWD_BC | nodes[0] as u64;
            let roster = &batch.rosters.bwd_bc;
            let x = rank
                .bcast_among(&env.col, roster, batch.root.0, data, tag)
                .into_f64s();
            let f0 = flops::get();
            let mut off = 0;
            for &k in nodes {
                let xk = &x[off..off + part.width(k)];
                off += xk.len();
                let rows = layout.above.hand(k, env.my_r);
                apply_column(store, sym, rows, k, xk, &mut st.accu);
                st.x.insert(k, xk.to_vec());
            }
            rank.advance_compute(flops::get() - f0);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Prepared;
    use crate::factor2d::FactorOpts;
    use crate::store::InitValues;
    use simgrid::topology::build_grid_comms;
    use simgrid::{Backend, Grid3d, Machine, TimeModel};
    use sparsemat::matgen::grid2d_5pt;
    use sparsemat::testmats::Geometry;
    use std::sync::Arc;

    /// A sweep whose store lacks a diagonal block fails its rank with a
    /// structured error naming the supernode; the machine reports that rank,
    /// not the peers left waiting for it, and nothing aborts.
    #[test]
    fn a_missing_diagonal_block_is_a_structured_failure_naming_the_supernode() {
        let prep = Prepared::new(
            grid2d_5pt(12, 12, 0.1, 3),
            Geometry::Grid2d { nx: 12, ny: 12 },
            8,
            8,
        );
        let grid3 = Grid3d::new(2, 2, 1);
        let nodes: Vec<usize> = (0..prep.sym.nsup()).collect();
        let lost = nodes.len() / 2;
        let layout = Arc::new(SolveLayout::new(&prep.sym.fill, &grid3.grid2d));
        let sweep = Arc::new(SweepPlan::new(&prep.sym, &grid3.grid2d, &layout, nodes));
        for backend in [Backend::Threaded, Backend::Event] {
            let machine = Machine::new(grid3.size(), TimeModel::zero()).with_backend(backend);
            let (pa, sym) = (Arc::clone(&prep.pa), Arc::clone(&prep.sym));
            let (sweep, layout) = (Arc::clone(&sweep), Arc::clone(&layout));
            let failure = machine
                .try_run(move |rank| {
                    let comms = build_grid_comms(rank, &grid3);
                    let (my_r, my_c, _) = comms.coords;
                    let env = FactorEnv {
                        grid: grid3.grid2d,
                        my_r,
                        my_c,
                        row: comms.row.clone(),
                        col: comms.col.clone(),
                        opts: FactorOpts::default(),
                    };
                    // The substitution never looks at values: the unfactored
                    // blocks of A stand in for the factors.
                    let mut store = BlockStore::build(
                        &pa,
                        &sym,
                        &env.grid,
                        my_r,
                        my_c,
                        &|_| true,
                        InitValues::FromMatrix,
                    );
                    if env.grid.owner(lost, lost) == (my_r, my_c) {
                        store.take(lost, lost).expect("the owner holds it");
                    }
                    let b = vec![1.0; sym.part.n()];
                    let mut st = DistSolveState::new(&sym);
                    forward_nodes(rank, &env, &store, &sym, &layout, &sweep, &b, &mut st)
                        .unwrap_or_else(|kind| rank.fail(kind));
                })
                .expect_err("the sweep cannot complete");
            let primary = failure.primary();
            let (r, c) = grid3.grid2d.owner(lost, lost);
            assert_eq!(primary.rank, grid3.rank_of(r, c, 0), "{backend}");
            assert!(
                matches!(&primary.kind, FailKind::Solver { phase, supernode, .. }
                    if phase == "solve-fwd" && *supernode == Some(lost)),
                "{backend}: {}",
                primary.kind
            );
        }
    }
}
