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
//! before any broadcast, and only the batches whose rosters include it: its
//! steps are listed per grid position once per machine ([`SweepPlan`]). A
//! reduction waits only on ranks of its own process row working down the
//! same list, a broadcast only on a root that has finished its row's
//! reductions, and nothing in a wave waits on a later one, so no two
//! collectives can wait on each other (docs/perf.md, "The solve: waves");
//! dropping ranks from a collective keeps that order on the ranks that
//! remain.
//!
//! The forward and backward phases are exposed separately with an explicit
//! [`DistSolveState`] so the 3D solver can interleave them with z-axis
//! reductions and broadcasts (mirroring Algorithm 1's structure for the
//! solve, see `lu3d::solve3d`).
//!
//! A rank holds only its share of every vector ([`SegVec`]): its process
//! row's supernodes for the partial sums, since every block it applies adds
//! into a row `i % pr == my_r` and every batch it reduces is rooted there,
//! and its own supernodes for the right-hand side and the solution
//! (docs/perf.md, "The solve holds its share").

use crate::factor2d::FactorEnv;
use crate::positions::ByPosition;
use crate::store::BlockStore;
use densela::{backward_subst, flops, forward_subst_unit, Mat};
use simgrid::{FailKind, Grid2d, HostPhase, Packed, Payload, Rank};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use symbolic::{PanelRosters, SnPartition, Symbolic};

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

/// One step of a rank's sweep, by batch index in its [`SweepPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepStep {
    /// Take part in the batch's reduction (and solve it, on the root).
    Reduce(usize),
    /// Take part in the broadcast of the batch's solutions (and apply them).
    Read(usize),
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
    /// Per grid position, the forward sweep's steps there: wave by wave,
    /// the batches whose reduction it is on, then those whose broadcast it
    /// is on, each by ascending root.
    fwd: ByPosition<SweepStep>,
    /// The backward sweep's, its waves in reverse.
    bwd: ByPosition<SweepStep>,
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
        let waves = wave_ptr.windows(2).map(|w| w[0]..w[1]);
        let fwd = deal_steps(grid, &batches, waves.clone(), |r| &r.fwd_red, |r| &r.fwd_bc);
        let bwd = deal_steps(grid, &batches, waves.rev(), |r| &r.bwd_red, |r| &r.bwd_bc);
        SweepPlan {
            order: by_batch.into_iter().map(|pos| nodes[pos]).collect(),
            nodes,
            batches,
            wave_ptr,
            fwd,
            bwd,
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

    /// The batch a [`SweepStep`] names.
    pub fn batch(&self, b: usize) -> &Batch {
        &self.batches[b]
    }

    /// The forward sweep's steps at grid position `at`, in the order the
    /// rank there takes them.
    pub fn forward_steps(&self, at: (usize, usize)) -> &[SweepStep] {
        self.fwd.at(at)
    }

    /// The backward sweep's steps at grid position `at`.
    pub fn backward_steps(&self, at: (usize, usize)) -> &[SweepStep] {
        self.bwd.at(at)
    }
}

/// One sweep's steps by grid position, over `waves` (ranges of `batches`) in
/// the order the sweep takes them: per wave, each batch's reduction along
/// its root's row to the columns of roster `red`, then each broadcast down
/// its root's column to the rows of roster `bc`.
fn deal_steps(
    grid: &Grid2d,
    batches: &[Batch],
    waves: impl Iterator<Item = Range<usize>>,
    red: fn(&Rosters) -> &Vec<usize>,
    bc: fn(&Rosters) -> &Vec<usize>,
) -> ByPosition<SweepStep> {
    let mut steps = Vec::new();
    for wave in waves {
        for b in wave.clone() {
            let (root, rosters) = (batches[b].root, &batches[b].rosters);
            steps.extend(
                red(rosters)
                    .iter()
                    .map(|&c| ((root.0, c), SweepStep::Reduce(b))),
            );
        }
        for b in wave {
            let (root, rosters) = (batches[b].root, &batches[b].rosters);
            steps.extend(
                bc(rosters)
                    .iter()
                    .map(|&r| ((r, root.1), SweepStep::Read(b))),
            );
        }
    }
    ByPosition::deal(*grid, steps)
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

/// Where the segments of an ascending supernode list sit in a vector that
/// holds only them, back to back in list order. Derived once per machine —
/// a process row's supernodes, a rank's own — and read by every solve.
#[derive(Debug)]
pub struct Segments {
    nodes: Vec<usize>,
    /// `ptr[p]..ptr[p + 1]` holds `nodes[p]`'s segment.
    ptr: Vec<usize>,
}

impl Segments {
    /// The segments of `nodes` (ascending) of `part`.
    pub fn new(part: &SnPartition, nodes: Vec<usize>) -> Segments {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must ascend");
        let mut ptr = Vec::with_capacity(nodes.len() + 1);
        ptr.push(0);
        for &k in &nodes {
            ptr.push(ptr[ptr.len() - 1] + part.width(k));
        }
        Segments { nodes, ptr }
    }

    /// The supernodes, ascending.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Words of a vector over these segments.
    pub fn words(&self) -> usize {
        self.ptr[self.nodes.len()]
    }

    /// Where supernode `k`'s segment sits. Asking for a supernode that is
    /// not on the list is a broken invariant of the caller.
    fn range(&self, k: usize) -> Range<usize> {
        let p = self
            .nodes
            .binary_search(&k)
            .unwrap_or_else(|_| panic!("supernode {k} is not a segment of this vector"));
        self.ptr[p]..self.ptr[p + 1]
    }
}

/// The values of a [`Segments`] list: one rank's share of a vector of
/// length n, sized by the segments the rank touches.
#[derive(Debug)]
pub struct SegVec<'a> {
    index: &'a Segments,
    data: Vec<f64>,
}

impl<'a> SegVec<'a> {
    /// Zero on every segment of `index`.
    pub fn zeros(index: &'a Segments) -> SegVec<'a> {
        SegVec {
            index,
            data: vec![0.0; index.words()],
        }
    }

    /// `full`'s values (a vector of length n) on `index`'s segments.
    pub fn from_full(index: &'a Segments, part: &SnPartition, full: &[f64]) -> SegVec<'a> {
        let mut data = Vec::with_capacity(index.words());
        for &k in &index.nodes {
            data.extend_from_slice(&full[part.ranges[k].clone()]);
        }
        SegVec { index, data }
    }

    /// This vector's values on the segments of `wider`, which must hold all
    /// of its own; zero on the others.
    pub fn widened<'b>(&self, wider: &'b Segments) -> SegVec<'b> {
        let mut out = SegVec::zeros(wider);
        for &k in &self.index.nodes {
            out.seg_mut(k).copy_from_slice(self.seg(k));
        }
        out
    }

    /// The segments this vector holds.
    pub fn index(&self) -> &'a Segments {
        self.index
    }

    /// Words held.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Supernode `k`'s segment.
    pub fn seg(&self, k: usize) -> &[f64] {
        &self.data[self.index.range(k)]
    }

    /// Supernode `k`'s segment, writable.
    pub fn seg_mut(&mut self, k: usize) -> &mut [f64] {
        let at = self.index.range(k);
        &mut self.data[at]
    }

    /// The segments of `nodes`, concatenated: a reduction's operand, a
    /// z-line or a point-to-point message of solved segments.
    pub fn gather(&self, nodes: &[usize]) -> Vec<f64> {
        nodes.iter().flat_map(|&k| self.seg(k)).copied().collect()
    }

    /// The values, segment after segment: over every supernode, the vector
    /// of length n itself.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

/// Which off-diagonal blocks of a solved supernode's column each process row
/// applies, who takes part in each supernode's collectives, and which
/// segments a process row's partial sums hold: derived once per machine, so
/// no rank re-scans `struct_of[k]` with an ownership test per entry in every
/// sweep of every solve.
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
    /// Per process row `r`, the supernodes `r, r + pr, …`: every segment a
    /// partial sum of that row is written or read at.
    rows: Vec<Segments>,
}

impl SolveLayout {
    pub fn new(sym: &Symbolic, grid: &Grid2d) -> SolveLayout {
        let fill = &sym.fill;
        SolveLayout {
            below: RowDeal::new(&fill.struct_of, grid.pr),
            above: RowDeal::new(fill.blocks_into(), grid.pr),
            panel: fill.panel_rosters(grid.pr, grid.pc),
            transposed: fill.transposed_rosters(grid.pr, grid.pc),
            rows: (0..grid.pr)
                .map(|r| Segments::new(&sym.part, (r..sym.nsup()).step_by(grid.pr).collect()))
                .collect(),
        }
    }

    /// The segments of process row `r`'s partial sums.
    pub fn row(&self, r: usize) -> &Segments {
        &self.rows[r]
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
pub struct DistSolveState<'a> {
    /// Forward partial sums: this rank's accumulated `L(I,j) y_j`
    /// contributions, on its process row's segments.
    pub acc: SegVec<'a>,
    /// Backward partial sums: accumulated `U(j,k) x_k` contributions, on
    /// the same segments.
    pub accu: SegVec<'a>,
    /// Forward solutions this rank reads back: the broadcast buffer of each
    /// batch it is the root of, by the batch's first supernode.
    y: BTreeMap<usize, Arc<Packed>>,
    /// Backward solutions known to this rank (the members of each
    /// supernode's backward broadcast), ordered by supernode.
    pub x: BTreeMap<usize, Vec<f64>>,
    /// What [`apply_column`] computes per block, reused from block to block.
    scratch: BlockScratch,
}

/// The two vectors of one block's product: the gathered `x` of a `U` block
/// and the block times its `x`.
#[derive(Default)]
struct BlockScratch {
    gathered: Vec<f64>,
    product: Vec<f64>,
}

impl<'a> DistSolveState<'a> {
    /// Fresh state for a rank of process row `my_r`: partial sums over that
    /// row's segments, about 2n/pr words.
    pub fn new(layout: &'a SolveLayout, my_r: usize) -> DistSolveState<'a> {
        DistSolveState {
            acc: SegVec::zeros(layout.row(my_r)),
            accu: SegVec::zeros(layout.row(my_r)),
            y: BTreeMap::new(),
            x: BTreeMap::new(),
            scratch: BlockScratch::default(),
        }
    }

    /// Words of the two partial-sum vectors.
    pub fn words(&self) -> usize {
        self.acc.words() + self.accu.words()
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

/// `into_i += B(i, k) v` for every block of column `k` in `rows` this rank
/// holds (a layer of a 3D grid keeps only its own subtrees' blocks). An
/// `L(i, k)` block (`i > k`) adds into the rows of `i` it keeps; a `U(i, k)`
/// block reads the entries of `v` it keeps columns for.
fn apply_column(
    store: &BlockStore,
    sym: &Symbolic,
    rows: impl Iterator<Item = usize>,
    k: usize,
    v: &[f64],
    into: &mut SegVec,
    scratch: &mut BlockScratch,
) {
    let kept = |hi: usize, lo: usize| sym.fill.kept_rows(hi, lo).expect("a block of the pattern");
    let BlockScratch { gathered, product } = scratch;
    for i in rows {
        let Some(block) = store.get(i, k) else {
            continue;
        };
        let seg = into.seg_mut(i);
        if i > k {
            block.matvec_into(v, product);
            for (r, c) in kept(i, k).iter().zip(product.iter()) {
                seg[r] += c;
            }
        } else {
            gathered.clear();
            gathered.extend(kept(k, i).iter().map(|c| v[c]));
            block.matvec_into(gathered, product);
            for (a, c) in seg.iter_mut().zip(product.iter()) {
                *a += c;
            }
        }
    }
}

/// A batch's solutions as broadcast: one shared buffer, no header, exactly
/// the batch's segments. Any other payload is a structured failure of
/// `phase`.
fn solutions(
    payload: Payload,
    part: &SnPartition,
    nodes: &[usize],
    phase: &str,
) -> Result<Arc<Packed>, FailKind> {
    let want: usize = nodes.iter().map(|&k| part.width(k)).sum();
    let fail = |detail: String| sweep_failure(phase, nodes[0], &detail);
    match payload.try_into_packed() {
        Ok(p) if p.meta().is_empty() && p.data().len() == want => Ok(p),
        Ok(p) => Err(fail(format!(
            "solution broadcast of {} values with a {}-word header, expected {want} bare",
            p.data().len(),
            p.meta().len()
        ))),
        Err(e) => Err(fail(format!("solution broadcast: {e}"))),
    }
}

/// Forward substitution over `sweep`'s node list: computes `y_k` on each
/// diagonal owner and spreads `L(I,k) y_k` contributions into `st.acc`.
/// `b` must hold the segments of the supernodes this rank is the diagonal
/// owner of; no other rank reads them.
///
/// Every rank of the layer calls it with the same plan, and each takes only
/// its own steps ([`SweepPlan::forward_steps`]): the reductions and
/// broadcasts whose rosters include its grid position, no other batch.
#[allow(clippy::too_many_arguments)]
pub async fn forward_nodes(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &BlockStore,
    sym: &Symbolic,
    layout: &SolveLayout,
    sweep: &SweepPlan,
    b: &SegVec<'_>,
    st: &mut DistSolveState<'_>,
) -> Result<(), FailKind> {
    let _host = rank.host_scope(HostPhase::SolveFwd);
    let part = &sym.part;
    // The solutions of the batch this rank roots in the current wave, from
    // its reduction to its broadcast.
    let mut solved = None;
    for &step in sweep.forward_steps((env.my_r, env.my_c)) {
        match step {
            // Reduce the partial sums of the batch along its root's process
            // row; the root solves the batch.
            SweepStep::Reduce(i) => {
                let batch = sweep.batch(i);
                let nodes = sweep.nodes_of(batch);
                let seg = st.acc.gather(nodes);
                let tag = T_FWD_RED | nodes[0] as u64;
                let roster = &batch.rosters.fwd_red;
                let root = batch.root.1;
                if let Some(mut y) = rank
                    .reduce_sum_among(&env.row, roster, root, seg, tag)
                    .await
                {
                    let f0 = flops::get();
                    let mut off = 0;
                    for &k in nodes {
                        let yk = &mut y[off..off + part.width(k)];
                        off += yk.len();
                        for (s, bi) in yk.iter_mut().zip(b.seg(k)) {
                            *s = bi - *s;
                        }
                        forward_subst_unit(diag_of(store, "solve-fwd", k)?, yk);
                    }
                    rank.advance_compute(flops::get() - f0);
                    solved = Some(y);
                }
            }
            // Broadcast the batch's solutions down its root's process
            // column, one shared buffer; column ranks apply their L(I,k)
            // blocks.
            SweepStep::Read(i) => {
                let batch = sweep.batch(i);
                let nodes = sweep.nodes_of(batch);
                let mine = batch.root.0 == env.my_r;
                let data = solved
                    .take_if(|_| mine)
                    .map(|y| Payload::packed(Vec::new(), y));
                let tag = T_FWD_BC | nodes[0] as u64;
                let roster = &batch.rosters.fwd_bc;
                let y = rank
                    .bcast_among(&env.col, roster, batch.root.0, data, tag)
                    .await;
                let y = solutions(y, part, nodes, "solve-fwd")?;
                let f0 = flops::get();
                let mut off = 0;
                for &k in nodes {
                    let yk = &y.data()[off..off + part.width(k)];
                    off += yk.len();
                    let rows = layout.below.hand(k, env.my_r);
                    apply_column(store, sym, rows, k, yk, &mut st.acc, &mut st.scratch);
                }
                rank.advance_compute(flops::get() - f0);
                // Only the root reads its batch back (backward phase).
                if mine {
                    st.y.insert(nodes[0], y);
                }
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
    apply_column(store, sym, rows, k, xk, &mut st.accu, &mut st.scratch);
    rank.advance_compute(flops::get() - f0);
    st.x.insert(k, xk.to_vec());
}

/// Backward substitution over `sweep`'s node list, its waves in reverse:
/// computes `x_k` on each diagonal owner, writing solved segments into
/// `x_out`, which must hold the segments of the supernodes this rank is the
/// diagonal owner of, and spreads `U(j,k) x_k` contributions into
/// `st.accu`. The forward sweep over the same plan must have run on `st`.
/// Like [`forward_nodes`], each rank takes only its own steps
/// ([`SweepPlan::backward_steps`]).
#[allow(clippy::too_many_arguments)]
pub async fn backward_nodes(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &BlockStore,
    sym: &Symbolic,
    layout: &SolveLayout,
    sweep: &SweepPlan,
    st: &mut DistSolveState<'_>,
    x_out: &mut SegVec<'_>,
) -> Result<(), FailKind> {
    let _host = rank.host_scope(HostPhase::SolveBwd);
    let part = &sym.part;
    let mut solved = None;
    for &step in sweep.backward_steps((env.my_r, env.my_c)) {
        match step {
            SweepStep::Reduce(b) => {
                let batch = sweep.batch(b);
                let nodes = sweep.nodes_of(batch);
                let seg = st.accu.gather(nodes);
                let tag = T_BWD_RED | nodes[0] as u64;
                let roster = &batch.rosters.bwd_red;
                let root = batch.root.1;
                if let Some(mut x) = rank
                    .reduce_sum_among(&env.row, roster, root, seg, tag)
                    .await
                {
                    let f0 = flops::get();
                    let y = st.y.remove(&nodes[0]).ok_or_else(|| {
                        sweep_failure("solve-bwd", nodes[0], "no forward solution on the root")
                    })?;
                    // x = y - sum, in the reduced buffer.
                    for (s, yi) in x.iter_mut().zip(y.data()) {
                        *s = yi - *s;
                    }
                    let mut off = 0;
                    for &k in nodes {
                        let xk = &mut x[off..off + part.width(k)];
                        off += xk.len();
                        backward_subst(diag_of(store, "solve-bwd", k)?, xk);
                        x_out.seg_mut(k).copy_from_slice(xk);
                    }
                    rank.advance_compute(flops::get() - f0);
                    solved = Some(x);
                }
            }
            SweepStep::Read(b) => {
                let batch = sweep.batch(b);
                let nodes = sweep.nodes_of(batch);
                let data = solved
                    .take_if(|_| batch.root.0 == env.my_r)
                    .map(|x| Payload::packed(Vec::new(), x));
                let tag = T_BWD_BC | nodes[0] as u64;
                let roster = &batch.rosters.bwd_bc;
                let x = rank
                    .bcast_among(&env.col, roster, batch.root.0, data, tag)
                    .await;
                let x = solutions(x, part, nodes, "solve-bwd")?;
                let f0 = flops::get();
                let mut off = 0;
                for &k in nodes {
                    let xk = &x.data()[off..off + part.width(k)];
                    off += xk.len();
                    let rows = layout.above.hand(k, env.my_r);
                    apply_column(store, sym, rows, k, xk, &mut st.accu, &mut st.scratch);
                    st.x.insert(k, xk.to_vec());
                }
                rank.advance_compute(flops::get() - f0);
            }
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
        let layout = Arc::new(SolveLayout::new(&prep.sym, &grid3.grid2d));
        let sweep = Arc::new(SweepPlan::new(&prep.sym, &grid3.grid2d, &layout, nodes));
        for backend in [Backend::Threaded, Backend::Event] {
            let machine = Machine::new(grid3.size(), TimeModel::zero()).with_backend(backend);
            let (pa, sym) = (Arc::clone(&prep.pa), Arc::clone(&prep.sym));
            let (sweep, layout) = (Arc::clone(&sweep), Arc::clone(&layout));
            let failure = machine
                .try_run_tasks(async move |rank| {
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
                    let own = (0..sym.nsup()).filter(|&k| env.grid.owner(k, k) == (my_r, my_c));
                    let own = Segments::new(&sym.part, own.collect());
                    let b = SegVec::from_full(&own, &sym.part, &vec![1.0; sym.part.n()]);
                    let mut st = DistSolveState::new(&layout, my_r);
                    forward_nodes(rank, &env, &store, &sym, &layout, &sweep, &b, &mut st)
                        .await
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

    /// Three supernodes of widths 2, 3 and 1.
    fn partition() -> SnPartition {
        SnPartition {
            ranges: vec![0..2, 2..5, 5..6],
            sn_of_col: vec![0, 0, 1, 1, 1, 2],
            node_of_sn: vec![0; 3],
            sns_of_node: vec![vec![0, 1, 2]],
        }
    }

    #[test]
    fn a_segment_vector_holds_exactly_its_segments() {
        let part = partition();
        let full = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let ends = Segments::new(&part, vec![0, 2]);
        assert_eq!((ends.nodes(), ends.words()), (&[0, 2][..], 3));
        let mut v = SegVec::from_full(&ends, &part, &full);
        assert_eq!((v.seg(0), v.seg(2)), (&[1.0, 2.0][..], &[6.0][..]));
        v.seg_mut(2)[0] += 1.0;
        assert_eq!(v.gather(&[2, 0]), [7.0, 1.0, 2.0]);
        let all = Segments::new(&part, vec![0, 1, 2]);
        assert_eq!(v.widened(&all).into_vec(), [1.0, 2.0, 0.0, 0.0, 0.0, 7.0]);
        assert_eq!(SegVec::zeros(&all).words(), 6);
    }

    #[test]
    #[should_panic(expected = "supernode 1 is not a segment")]
    fn a_segment_a_vector_does_not_hold_is_a_broken_invariant() {
        let part = partition();
        let ends = Segments::new(&part, vec![0, 2]);
        SegVec::zeros(&ends).seg(1);
    }

    /// A rank's partial sums hold its process row's supernodes and nothing
    /// else: about 2n/pr words, never 2n.
    #[test]
    fn partial_sums_are_sized_by_the_process_row() {
        let prep = Prepared::new(
            grid2d_5pt(12, 12, 0.1, 3),
            Geometry::Grid2d { nx: 12, ny: 12 },
            8,
            8,
        );
        let part = &prep.sym.part;
        for pr in 1..=4 {
            let layout = SolveLayout::new(&prep.sym, &Grid2d::new(pr, 2));
            let mut total = 0;
            for r in 0..pr {
                let row: Vec<usize> = (0..part.nsup()).filter(|s| s % pr == r).collect();
                let words: usize = row.iter().map(|&s| part.width(s)).sum();
                assert_eq!(layout.row(r).nodes(), row, "pr={pr} r={r}");
                assert_eq!(DistSolveState::new(&layout, r).words(), 2 * words);
                total += words;
            }
            assert_eq!(total, part.n(), "pr={pr}: the rows partition the vector");
        }
    }

    /// A solution broadcast must be one bare buffer of exactly the batch's
    /// words: anything else names the batch's first supernode.
    #[test]
    fn a_malformed_solution_broadcast_is_a_structured_failure() {
        let part = partition();
        let nodes = [1, 2];
        let good = solutions(
            Payload::packed(Vec::new(), vec![0.5; 4]),
            &part,
            &nodes,
            "solve-bwd",
        );
        assert_eq!(good.unwrap().data(), [0.5; 4]);
        for (payload, said) in [
            (Payload::packed(Vec::new(), vec![0.5; 3]), "3 values"),
            (Payload::packed(vec![1], vec![0.5; 4]), "1-word header"),
            (Payload::F64s(vec![0.5; 4]), "expected Packed"),
        ] {
            let err = solutions(payload, &part, &nodes, "solve-bwd").unwrap_err();
            assert!(
                matches!(&err, FailKind::Solver { phase, supernode: Some(1), detail, .. }
                    if phase == "solve-bwd" && detail.contains(said)),
                "{err}"
            );
        }
    }
}
