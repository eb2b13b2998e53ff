//! Per-rank storage of supernodal blocks, plus panel packing for messages.
//!
//! Blocks are stored as zero-padded dense panels (`n_I x n_J` for block
//! `(I, J)`), the granularity substitution documented in DESIGN.md: it
//! preserves the block sparsity, distribution, and communication pattern of
//! SuperLU_DIST while making every Schur update a plain GEMM.
//!
//! Where a block lives is decided once per machine, not once per rank: a
//! [`StoreLayout`] maps every block of the symbolic pattern to its
//! block-cyclic owner and to a slot in that owner's share, and buckets the
//! matrix entries by owner. A [`BlockStore`] is then a flat vector of blocks
//! addressed through the shared layout — the supernodal index arrays of the
//! SuperLU_DIST lineage, set up once and read by every rank.

use densela::Mat;
use simgrid::{Grid2d, MemClass, Payload, Rank};
use std::sync::Arc;
use symbolic::Symbolic;

/// Bytes of symbolic bookkeeping charged to the memory ledger per stored
/// block: the `(i, j)` key, the dimension header, and the owner-map entry
/// (4 machine words).
pub const SYMBOLIC_META_BYTES: u64 = 32;

/// Which blocks a store holds values for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitValues {
    /// Scatter the matrix values into owned blocks (normal case).
    FromMatrix,
    /// Allocate owned blocks but initialize them to zero — the replicated
    /// ancestor copies on non-primary grids in the 3D algorithm (paper
    /// §III-A: "In grid-1, we initialize the blocks of A(S) with zeros").
    Zero,
}

/// "Not held" in [`BlockStore::pos`].
const ABSENT: u32 = u32::MAX;

/// The placement of the symbolic block pattern on one 2D process grid,
/// derived once per machine and shared read-only by the stores of all its
/// ranks (every layer of a 3D grid uses the same 2D placement).
///
/// Pattern blocks are numbered in ascending `(i, j)` order; each owner's
/// *share* — the blocks the block-cyclic layout assigns to it — is numbered
/// in the same order, so walking a share walks its keys sorted. The entries
/// of the matrix are bucketed by owner as indices into its value array: a
/// rank fills its store from its own bucket and never scans the rest.
#[derive(Debug)]
pub struct StoreLayout {
    grid: Grid2d,
    /// The block pattern in CSR form: block row `i` holds the ascending
    /// block columns `cols[row_ptr[i]..row_ptr[i + 1]]` (the `L(i, ·)`
    /// blocks, the diagonal, the `U(i, ·)` blocks).
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    /// Per pattern block (indexed like `cols`): its slot in its owner's share.
    slot: Vec<u32>,
    /// Per owner (layer rank): the keys of its share, in slot order.
    share: Vec<Vec<(u32, u32)>>,
    /// Per owner: the matrix entries that fall into its share, as
    /// `(index into the value array, share slot)`, ascending by index.
    entries: Vec<Vec<(u32, u32)>>,
}

impl StoreLayout {
    /// Place the pattern of `sym` and the entries of `a` (the reordered,
    /// pattern-symmetric matrix `sym` was analyzed from) on `grid`.
    pub fn new(a: &sparsemat::Csr, sym: &Symbolic, grid: &Grid2d) -> StoreLayout {
        Self::derive(a, sym, grid, None)
    }

    /// With `only = Some(owner)`, the layout as that one rank needs it: only
    /// its share and bucket are filled in, so deriving it costs no more than
    /// the scan a rank without a shared layout has to make anyway.
    fn derive(
        a: &sparsemat::Csr,
        sym: &Symbolic,
        grid: &Grid2d,
        only: Option<usize>,
    ) -> StoreLayout {
        let part = &sym.part;
        let fill = &sym.fill;
        let nsup = part.nsup();
        let into = fill.blocks_into();
        assert!(
            nsup < ABSENT as usize && a.nnz() < ABSENT as usize,
            "store layout indexes blocks and entries with u32"
        );
        let owner_of = |i: usize, j: usize| {
            let (r, c) = grid.owner(i, j);
            grid.rank_of(r, c)
        };
        let wanted = |owner: usize| only.is_none_or(|me| me == owner);

        let nblocks: usize = nsup + 2 * fill.num_lblocks();
        let mut row_ptr = Vec::with_capacity(nsup + 1);
        let mut cols = Vec::with_capacity(nblocks);
        let mut slot = Vec::with_capacity(nblocks);
        let mut share: Vec<Vec<(u32, u32)>> = vec![Vec::new(); grid.size()];
        row_ptr.push(0);
        for i in 0..nsup {
            let row = into[i]
                .iter()
                .chain(std::iter::once(&i))
                .chain(&fill.struct_of[i]);
            for &j in row {
                let owner = owner_of(i, j);
                if wanted(owner) {
                    slot.push(share[owner].len() as u32);
                    share[owner].push((i as u32, j as u32));
                } else {
                    slot.push(ABSENT);
                }
                cols.push(j as u32);
            }
            row_ptr.push(cols.len());
        }

        let mut layout = StoreLayout {
            grid: *grid,
            row_ptr,
            cols,
            slot,
            share,
            entries: vec![Vec::new(); grid.size()],
        };
        for row in 0..a.nrows {
            let bi = part.sn_of_col[row];
            // Columns ascend within a CSR row, so entries of one block are
            // adjacent: look a block up once per run of them.
            let mut run = (usize::MAX, 0usize, ABSENT);
            for e in a.row_ptr[row]..a.row_ptr[row + 1] {
                let bj = part.sn_of_col[a.col_idx[e]];
                if run.0 != bj {
                    let owner = owner_of(bi, bj);
                    let s = if wanted(owner) {
                        // The pattern contains all of A.
                        let id = layout
                            .find(bi, bj)
                            .expect("matrix entry outside the symbolic pattern");
                        layout.slot[id]
                    } else {
                        ABSENT
                    };
                    run = (bj, owner, s);
                }
                let (_, owner, s) = run;
                if s != ABSENT {
                    layout.entries[owner].push((e as u32, s));
                }
            }
        }
        layout
    }

    /// Number of blocks in the pattern.
    pub fn num_blocks(&self) -> usize {
        self.cols.len()
    }

    /// Index of pattern block `(i, j)`, if the pattern has it.
    fn find(&self, i: usize, j: usize) -> Option<usize> {
        let (lo, hi) = (*self.row_ptr.get(i)?, *self.row_ptr.get(i + 1)?);
        let row = &self.cols[lo..hi];
        row.binary_search(&(j as u32)).ok().map(|p| lo + p)
    }
}

/// The blocks a simulated rank owns, keyed by `(block_row, block_col)`
/// supernode ids: a flat vector of blocks addressed through the machine's
/// shared [`StoreLayout`]. A store holds any subset of its rank's share of
/// the pattern (the kept supernodes of its layer); it cannot hold a block
/// the layout assigns to another rank.
#[derive(Clone, Debug)]
pub struct BlockStore {
    layout: Arc<StoreLayout>,
    /// This rank's index into the layout's per-owner tables.
    owner: usize,
    /// Share slot → index into `blocks`, or [`ABSENT`].
    pos: Vec<u32>,
    blocks: Vec<Mat>,
    /// Indices of `blocks` vacated by [`BlockStore::take`], reused by
    /// [`BlockStore::insert`].
    free: Vec<u32>,
}

impl BlockStore {
    /// A store for grid position `(my_r, my_c)` of `layout` that holds no
    /// block yet.
    pub fn empty(layout: Arc<StoreLayout>, my_r: usize, my_c: usize) -> BlockStore {
        let owner = layout.grid.rank_of(my_r, my_c);
        BlockStore {
            pos: vec![ABSENT; layout.share[owner].len()],
            layout,
            owner,
            blocks: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Build the store for one rank of a 2D grid: allocates every block of
    /// the symbolic pattern whose supernodes pass `keep` and whose
    /// block-cyclic owner is `(my_r, my_c)`, then scatters matrix values
    /// (or zeros, per `init`).
    ///
    /// `keep(j)` selects the supernodes this grid handles — the full set in
    /// pure 2D mode, a subtree forest plus replicated ancestors in 3D mode.
    /// A block `(I, J)` is allocated when *both* endpoints are kept.
    ///
    /// `a` is the reordered, pattern-symmetric matrix (shared, read-only).
    /// Derives a private [`StoreLayout`] for this one rank; the ranks of a
    /// machine share one through [`BlockStore::from_layout`] instead.
    pub fn build(
        a: &sparsemat::Csr,
        sym: &Symbolic,
        grid: &Grid2d,
        my_r: usize,
        my_c: usize,
        keep: &dyn Fn(usize) -> bool,
        init: InitValues,
    ) -> BlockStore {
        let value_pred: &dyn Fn(usize, usize) -> bool = match init {
            InitValues::FromMatrix => &|_, _| true,
            InitValues::Zero => &|_, _| false,
        };
        Self::build_with_value_pred(a, sym, grid, my_r, my_c, keep, value_pred)
    }

    /// Like [`BlockStore::build`], but with per-block control over value
    /// initialization: `value_pred(i, j)` decides whether block `(i, j)`
    /// receives the values of `A` (true) or starts at zero (false). The 3D
    /// algorithm initializes each replicated block's values on exactly one
    /// grid — the factoring grid of the deeper endpoint — and zeros
    /// elsewhere (paper §III-A).
    pub fn build_with_value_pred(
        a: &sparsemat::Csr,
        sym: &Symbolic,
        grid: &Grid2d,
        my_r: usize,
        my_c: usize,
        keep: &dyn Fn(usize) -> bool,
        value_pred: &dyn Fn(usize, usize) -> bool,
    ) -> BlockStore {
        let layout = StoreLayout::derive(a, sym, grid, Some(grid.rank_of(my_r, my_c)));
        Self::from_layout(Arc::new(layout), a, sym, my_r, my_c, keep, value_pred)
    }

    /// [`BlockStore::build_with_value_pred`] on a layout shared by every
    /// rank of the machine: walks this rank's share and its bucket of
    /// matrix entries only. `layout` must have been derived from the same
    /// `a` and `sym`.
    pub fn from_layout(
        layout: Arc<StoreLayout>,
        a: &sparsemat::Csr,
        sym: &Symbolic,
        my_r: usize,
        my_c: usize,
        keep: &dyn Fn(usize) -> bool,
        value_pred: &dyn Fn(usize, usize) -> bool,
    ) -> BlockStore {
        let part = &sym.part;
        let owner = layout.grid.rank_of(my_r, my_c);
        let share = &layout.share[owner];
        let kept: Vec<bool> = (0..part.nsup()).map(keep).collect();
        let held = |&(i, j): &(u32, u32)| kept[i as usize] && kept[j as usize];

        // Allocate the kept part of the share; exactly sized, so a layer
        // that keeps a quarter of the pattern pays for a quarter.
        let count = share.iter().filter(|key| held(key)).count();
        let mut pos = vec![ABSENT; share.len()];
        let mut blocks = Vec::with_capacity(count);
        let mut from_matrix = Vec::with_capacity(count);
        for (s, key) in share.iter().enumerate() {
            if held(key) {
                let (i, j) = (key.0 as usize, key.1 as usize);
                pos[s] = blocks.len() as u32;
                blocks.push(Mat::zeros(part.width(i), part.width(j)));
                from_matrix.push(value_pred(i, j));
            }
        }

        // Scatter this rank's bucket of matrix values. The bucket ascends by
        // entry index, so the row of an entry is found by walking `row_ptr`.
        let mut row = 0usize;
        for &(e, s) in &layout.entries[owner] {
            let p = pos[s as usize];
            if p == ABSENT || !from_matrix[p as usize] {
                continue;
            }
            let e = e as usize;
            while a.row_ptr[row + 1] <= e {
                row += 1;
            }
            let (bi, bj) = share[s as usize];
            let r_off = row - part.ranges[bi as usize].start;
            let c_off = a.col_idx[e] - part.ranges[bj as usize].start;
            *blocks[p as usize].at_mut(r_off, c_off) += a.values[e];
        }
        BlockStore {
            layout,
            owner,
            pos,
            blocks,
            free: Vec::new(),
        }
    }

    /// This rank's share slot of block `(i, j)`, if the layout assigns the
    /// block to this rank. A slot numbered in another owner's share names a
    /// different key here (or none), which is the ownership test.
    #[inline]
    fn slot_of(&self, i: usize, j: usize) -> Option<usize> {
        let layout = &*self.layout;
        let s = layout.slot[layout.find(i, j)?] as usize;
        (layout.share[self.owner].get(s) == Some(&(i as u32, j as u32))).then_some(s)
    }

    /// Index into `blocks` of block `(i, j)`, if held.
    #[inline]
    fn index_of(&self, i: usize, j: usize) -> Option<usize> {
        let p = self.pos[self.slot_of(i, j)?];
        (p != ABSENT).then_some(p as usize)
    }

    /// Borrow a block.
    pub fn get(&self, i: usize, j: usize) -> Option<&Mat> {
        self.index_of(i, j).map(|p| &self.blocks[p])
    }

    /// Borrow a block mutably.
    pub fn get_mut(&mut self, i: usize, j: usize) -> Option<&mut Mat> {
        self.index_of(i, j).map(|p| &mut self.blocks[p])
    }

    /// Insert (or replace) a block. Panics when the layout does not assign
    /// block `(i, j)` to this store's rank.
    pub fn insert(&mut self, i: usize, j: usize, m: Mat) {
        let s = self.slot_of(i, j).unwrap_or_else(|| {
            panic!("block ({i},{j}) is not in this rank's share of the pattern")
        });
        if self.pos[s] != ABSENT {
            self.blocks[self.pos[s] as usize] = m;
        } else if let Some(p) = self.free.pop() {
            self.blocks[p as usize] = m;
            self.pos[s] = p;
        } else {
            self.pos[s] = self.blocks.len() as u32;
            self.blocks.push(m);
        }
    }

    /// Remove a block, returning it.
    pub fn take(&mut self, i: usize, j: usize) -> Option<Mat> {
        let s = self.slot_of(i, j)?;
        let p = self.pos[s];
        if p == ABSENT {
            return None;
        }
        self.pos[s] = ABSENT;
        self.free.push(p);
        Some(std::mem::replace(
            &mut self.blocks[p as usize],
            Mat::zeros(0, 0),
        ))
    }

    /// Whether a block is present.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.index_of(i, j).is_some()
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.len() - self.free.len()
    }

    /// True when no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total words of block storage — the per-rank memory statistic behind
    /// the paper's Fig. 11.
    pub fn total_words(&self) -> u64 {
        // Vacated entries are 0 x 0.
        self.blocks
            .iter()
            .map(|m| (m.rows() * m.cols()) as u64)
            .sum()
    }

    /// The stored blocks with their `(block_row, block_col)` keys, in
    /// ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), &Mat)> + '_ {
        let share = &self.layout.share[self.owner];
        share
            .iter()
            .zip(&self.pos)
            .filter(|(_, &p)| p != ABSENT)
            .map(|(&(i, j), &p)| ((i as usize, j as usize), &self.blocks[p as usize]))
    }

    /// Iterate over `(block_row, block_col)` keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.iter().map(|(key, _)| key)
    }

    /// Charge every stored block (plus [`SYMBOLIC_META_BYTES`] of metadata
    /// each) to `rank`'s memory ledger in ascending key order, classifying
    /// each block with `class_of(i, j) -> (class, tree level)`.
    pub fn charge_to_ledger(
        &self,
        rank: &mut Rank,
        class_of: impl Fn(usize, usize) -> (MemClass, u32),
    ) {
        for ((i, j), m) in self.iter() {
            let (class, level) = class_of(i, j);
            rank.mem_charge_at(class, level, (m.rows() * m.cols()) as u64 * 8);
            rank.mem_charge_at(MemClass::SymbolicMeta, level, SYMBOLIC_META_BYTES);
        }
    }
}

/// Reusable per-rank scratch arena for the batched gather-GEMM-scatter
/// Schur update: one contiguous panel each for the gathered L-blocks and
/// the gathered U-panel pieces (the Schur targets are updated in place by
/// the tiled GEMM, so they need no scratch). The panels are reshaped in
/// place per supernode (keeping their allocations), and the arena's
/// high-water footprint is charged to [`MemClass::SchurBuf`] on the owning
/// rank's memory ledger — charged as it grows, credited once when the
/// factorization loop releases the arena.
#[derive(Debug)]
pub struct SchurScratch {
    /// Stacked L-blocks: `(sum of owned row widths) x width(k)`.
    pub l: Mat,
    /// Concatenated U pieces: `width(k) x (sum of owned col widths)`.
    pub u: Mat,
    /// Bytes currently charged to the ledger (the arena's high water).
    charged_bytes: u64,
}

impl Default for SchurScratch {
    fn default() -> Self {
        SchurScratch {
            l: Mat::zeros(0, 0),
            u: Mat::zeros(0, 0),
            charged_bytes: 0,
        }
    }
}

impl SchurScratch {
    pub fn new() -> Self {
        SchurScratch::default()
    }

    /// Shape the panels for one supernode's update (`m` gathered rows,
    /// supernode width `w`, `n` gathered columns), reusing prior
    /// allocations; contents are unspecified until the gathers fill them.
    /// Ledger charge grows monotonically to the arena's high water;
    /// shrinking shapes keep the charge (the backing memory stays
    /// allocated).
    pub fn shape(&mut self, rank: &mut Rank, m: usize, w: usize, n: usize) {
        // Every entry of every panel is overwritten by the gathers before
        // the GEMM reads it, so stale values need not be cleared.
        self.l.reshape_for_overwrite(m, w);
        self.u.reshape_for_overwrite(w, n);
        let bytes = 8 * (m * w + w * n) as u64;
        if bytes > self.charged_bytes {
            rank.mem_charge(MemClass::SchurBuf, bytes - self.charged_bytes);
            self.charged_bytes = bytes;
        }
    }

    /// Release the arena: credit the full high-water charge back to the
    /// ledger. Must run at the same tree level as the charges (the arena
    /// lives within one `factor_nodes` call).
    pub fn release(&mut self, rank: &mut Rank) {
        if self.charged_bytes > 0 {
            rank.mem_credit(MemClass::SchurBuf, self.charged_bytes);
            self.charged_bytes = 0;
        }
    }
}

/// Pack a list of `(block_id, Mat)` into one wire payload: the shape of a
/// SuperLU packed panel message. Meta layout: `[count, id0, rows0, cols0,
/// id1, ...]`, data: concatenated column-major buffers.
pub fn pack_blocks(items: &[(usize, &Mat)]) -> Payload {
    let mut meta = Vec::with_capacity(1 + 3 * items.len());
    meta.push(items.len());
    let mut total = 0usize;
    for (id, m) in items {
        meta.push(*id);
        meta.push(m.rows());
        meta.push(m.cols());
        total += m.rows() * m.cols();
    }
    let mut data = Vec::with_capacity(total);
    for (_, m) in items {
        data.extend_from_slice(m.as_slice());
    }
    Payload::Packed { meta, data }
}

/// Unpack a payload produced by [`pack_blocks`] into `(block_id, Mat)`
/// pairs.
pub fn unpack_blocks(payload: Payload) -> Vec<(usize, Mat)> {
    let (meta, data) = payload.into_packed();
    let count = meta[0];
    let mut out = Vec::with_capacity(count);
    let mut off = 0usize;
    for k in 0..count {
        let id = meta[1 + 3 * k];
        let rows = meta[2 + 3 * k];
        let cols = meta[3 + 3 * k];
        let len = rows * cols;
        out.push((id, Mat::from_vec(rows, cols, data[off..off + len].to_vec())));
        off += len;
    }
    debug_assert_eq!(off, data.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ordering::{nested_dissection, Graph, NdOptions};
    use sparsemat::matgen::grid2d_5pt;
    use sparsemat::testmats::Geometry;

    fn setup(k: usize) -> (sparsemat::Csr, Symbolic) {
        let a = grid2d_5pt(k, k, 0.1, 0);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry: Geometry::Grid2d { nx: k, ny: k },
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = Symbolic::analyze(&pa, &tree, 8);
        (pa, sym)
    }

    #[test]
    fn distributed_stores_partition_all_values() {
        let (pa, sym) = setup(8);
        let grid = Grid2d::new(2, 2);
        let stores: Vec<BlockStore> = (0..4)
            .map(|p| {
                let (r, c) = grid.coords_of(p);
                BlockStore::build(&pa, &sym, &grid, r, c, &|_| true, InitValues::FromMatrix)
            })
            .collect();
        // Every matrix entry appears in exactly one store with its value.
        for i in 0..pa.nrows {
            let bi = sym.part.sn_of_col[i];
            for (j, v) in pa.row_cols(i).iter().zip(pa.row_vals(i)) {
                let bj = sym.part.sn_of_col[*j];
                let (r, c) = grid.owner(bi, bj);
                let store = &stores[grid.rank_of(r, c)];
                let m = store.get(bi, bj).expect("owner must hold the block");
                let got = m.at(i - sym.part.ranges[bi].start, j - sym.part.ranges[bj].start);
                assert_eq!(got, *v);
                // And in no other store.
                for (p, other) in stores.iter().enumerate() {
                    if p != grid.rank_of(r, c) {
                        assert!(other.get(bi, bj).is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn zero_init_allocates_but_blank() {
        let (pa, sym) = setup(8);
        let grid = Grid2d::new(1, 1);
        let z = BlockStore::build(&pa, &sym, &grid, 0, 0, &|_| true, InitValues::Zero);
        let f = BlockStore::build(&pa, &sym, &grid, 0, 0, &|_| true, InitValues::FromMatrix);
        assert_eq!(z.len(), f.len());
        assert!(z
            .keys()
            .all(|(i, j)| z.get(i, j).unwrap().as_slice().iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn keep_filter_limits_blocks() {
        let (pa, sym) = setup(8);
        let grid = Grid2d::new(1, 1);
        let nsup = sym.nsup();
        let half = nsup / 2;
        let s = BlockStore::build(
            &pa,
            &sym,
            &grid,
            0,
            0,
            &|j| j < half,
            InitValues::FromMatrix,
        );
        for (i, j) in s.keys() {
            assert!(i < half && j < half);
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let m1 = Mat::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        let m2 = Mat::from_fn(1, 4, |_, j| j as f64);
        let p = pack_blocks(&[(7, &m1), (9, &m2)]);
        assert_eq!(p.words(), (1 + 6) as u64 + (6 + 4) as u64);
        let out = unpack_blocks(p);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 7);
        assert_eq!(out[0].1, m1);
        assert_eq!(out[1].0, 9);
        assert_eq!(out[1].1, m2);
    }

    #[test]
    fn pack_empty_list() {
        let p = pack_blocks(&[]);
        assert_eq!(unpack_blocks(p).len(), 0);
    }

    #[test]
    fn memory_accounting_matches_block_sizes() {
        let (pa, sym) = setup(8);
        let grid = Grid2d::new(1, 1);
        let s = BlockStore::build(&pa, &sym, &grid, 0, 0, &|_| true, InitValues::FromMatrix);
        let manual: u64 = s
            .keys()
            .map(|(i, j)| {
                let m = s.get(i, j).unwrap();
                (m.rows() * m.cols()) as u64
            })
            .sum();
        assert_eq!(s.total_words(), manual);
        // Must equal the symbolic prediction.
        let predicted: u64 = sym.cost.factor_words.iter().sum();
        assert_eq!(s.total_words(), predicted);
    }
}
