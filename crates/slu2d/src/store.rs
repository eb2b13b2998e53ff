//! Per-rank storage of supernodal blocks, plus panel packing for messages.
//!
//! Blocks are stored compressed, as SuperLU_DIST stores them: a diagonal
//! block is dense, `L(I, K)` holds only the rows of `I` structurally
//! nonzero in `K`'s columns (`|kept| x n_K`) and `U(K, I)` the same set as
//! columns (`n_K x |kept|`), the rows [`symbolic::BlockFill::kept`] names.
//! The shapes come from [`Symbolic::block_shape`], so every store, pack and
//! plan agrees on them, and no kernel, message or solve pays for a row that
//! stays zero.
//!
//! Where a block lives is decided once per machine, not once per rank: a
//! [`StoreLayout`] maps every block of the symbolic pattern to its
//! block-cyclic owner and to a slot in that owner's share, and buckets the
//! matrix entries by owner. A [`BlockStore`] is then a flat vector of blocks
//! addressed through the shared layout — the supernodal index arrays of the
//! SuperLU_DIST lineage, set up once and read by every rank.

use crate::kernels::UpdateMaps;
use densela::{Mat, MatRef};
use simgrid::{Grid2d, MemClass, Packed, PackedBlock, Payload, Rank};
use std::sync::Arc;
use symbolic::{PanelRosters, Symbolic};

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
/// rank fills its store from its own bucket and never scans the rest. The
/// layout also carries who reads each supernode's panel on this grid, its
/// [`PanelRosters`].
#[derive(Debug)]
pub struct StoreLayout {
    grid: Grid2d,
    rosters: PanelRosters,
    /// The block pattern in CSR form: block row `i` holds the ascending
    /// block columns `cols[row_ptr[i]..row_ptr[i + 1]]` (the `L(i, ·)`
    /// blocks, the diagonal, the `U(i, ·)` blocks).
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    /// Per pattern block (indexed like `cols`): its slot in its owner's share.
    slot: Vec<u32>,
    /// Per owner (layer rank): the keys of its share, in slot order.
    share: Vec<Vec<(u32, u32)>>,
    /// Per owner: the stored `(rows, cols)` of each block of its share.
    dims: Vec<Vec<(u32, u32)>>,
    /// Per owner: the matrix entries that fall into its share, as `(index
    /// into the value array, share slot, offset in the stored block)`,
    /// ascending by index.
    entries: Vec<Vec<(u32, u32, u32)>>,
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
        let mut dims: Vec<Vec<(u32, u32)>> = vec![Vec::new(); grid.size()];
        row_ptr.push(0);
        for i in 0..nsup {
            let row = into[i]
                .iter()
                .chain(std::iter::once(&i))
                .chain(&fill.struct_of[i]);
            for &j in row {
                let owner = owner_of(i, j);
                if wanted(owner) {
                    let (rows, cols) = sym.block_shape(i, j);
                    slot.push(share[owner].len() as u32);
                    share[owner].push((i as u32, j as u32));
                    dims[owner].push((rows as u32, cols as u32));
                } else {
                    slot.push(ABSENT);
                }
                cols.push(j as u32);
            }
            row_ptr.push(cols.len());
        }

        let mut layout = StoreLayout {
            grid: *grid,
            rosters: fill.panel_rosters(grid.pr, grid.pc),
            row_ptr,
            cols,
            slot,
            share,
            dims,
            entries: vec![Vec::new(); grid.size()],
        };
        for row in 0..a.nrows {
            let bi = part.sn_of_col[row];
            let r = row - part.ranges[bi].start;
            // Columns ascend within a CSR row, so entries of one block are
            // adjacent: look a block up once per run of them.
            let mut run = (usize::MAX, 0usize, ABSENT, None, 0usize);
            for e in a.row_ptr[row]..a.row_ptr[row + 1] {
                let col = a.col_idx[e];
                let bj = part.sn_of_col[col];
                if run.0 != bj {
                    let owner = owner_of(bi, bj);
                    let (s, kept, rows) = if wanted(owner) {
                        // The pattern contains all of A.
                        let id = layout
                            .find(bi, bj)
                            .expect("matrix entry outside the symbolic pattern");
                        let s = layout.slot[id];
                        let rows = layout.dims[owner][s as usize].0 as usize;
                        // The compressed side: L's rows, U's columns.
                        let kept = (bi != bj).then(|| {
                            fill.kept_rows(bi.max(bj), bi.min(bj))
                                .expect("a pattern block has kept rows")
                        });
                        (s, kept, rows)
                    } else {
                        (ABSENT, None, 0)
                    };
                    run = (bj, owner, s, kept, rows);
                }
                let (_, owner, s, kept, rows) = run;
                if s == ABSENT {
                    continue;
                }
                // The place `Symbolic::stored_at` gives, the kept set looked
                // up once per run.
                let c = col - part.ranges[bj].start;
                let at = |kept: symbolic::RowSet, x: usize| {
                    kept.position(x)
                        .expect("the kept rows hold every entry of A")
                };
                let (r, c) = match kept {
                    Some(kept) if bi > bj => (at(kept, r), c),
                    Some(kept) => (r, at(kept, c)),
                    None => (r, c),
                };
                layout.entries[owner].push((e as u32, s, (r + c * rows) as u32));
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
        for (s, (key, &(rows, cols))) in share.iter().zip(&layout.dims[owner]).enumerate() {
            if held(key) {
                pos[s] = blocks.len() as u32;
                blocks.push(Mat::zeros(rows as usize, cols as usize));
                from_matrix.push(value_pred(key.0 as usize, key.1 as usize));
            }
        }

        // Scatter this rank's bucket of matrix values, each to the offset the
        // layout found for it.
        for &(e, s, off) in &layout.entries[owner] {
            let p = pos[s as usize];
            if p != ABSENT && from_matrix[p as usize] {
                blocks[p as usize].as_mut_slice()[off as usize] += a.values[e as usize];
            }
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

    /// The panel-step rosters of the store's grid, derived with its layout.
    pub fn rosters(&self) -> &PanelRosters {
        &self.layout.rosters
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

/// Reusable per-rank scratch arena for the Schur update: one contiguous
/// panel each for the gathered L-blocks and the gathered U-panel pieces of
/// the batched gather-GEMM-scatter (the Schur targets are updated in place
/// by the tiled GEMM, so they need no scratch), and the index maps of
/// either kernel. The panels are reshaped in place per supernode (keeping
/// their allocations), and their high-water footprint is charged to
/// [`MemClass::SchurBuf`] on the owning rank's memory ledger — charged as
/// it grows, credited once when the factorization loop releases the arena.
/// The maps are host bookkeeping, like the GEMM's packing workspace, and
/// are not charged.
#[derive(Debug)]
pub struct SchurScratch {
    /// Stacked L-blocks: `(sum of owned kept rows) x width(k)`.
    pub l: Mat,
    /// Concatenated U pieces: `width(k) x (sum of owned kept columns)`.
    pub u: Mat,
    /// Where the update lands in each target block.
    pub(crate) maps: UpdateMaps,
    /// Bytes currently charged to the ledger (the arena's high water).
    charged_bytes: u64,
}

impl Default for SchurScratch {
    fn default() -> Self {
        SchurScratch {
            l: Mat::zeros(0, 0),
            u: Mat::zeros(0, 0),
            maps: UpdateMaps::default(),
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

/// Words on the wire of a [`pack_blocks`] payload holding blocks of the
/// given `(rows, cols)` shapes: `1 + 3·count + Σ rows·cols`. The static
/// communication plan counts every packed message with it.
pub fn packed_words(shapes: impl IntoIterator<Item = (usize, usize)>) -> u64 {
    let (count, data) = shapes
        .into_iter()
        .fold((0, 0), |(n, d), (rows, cols)| (n + 1, d + rows * cols));
    (1 + 3 * count + data) as u64
}

/// Pack a list of `(block_id, Mat)` into one wire payload: the shape of a
/// SuperLU packed panel message. Meta layout: `[count, id0, rows0, cols0,
/// id1, ...]`, data: concatenated column-major buffers; [`packed_words`]
/// words in all. The one copy a panel's values make on their way to every
/// reader: the payload is shared from here on, and receivers read it in
/// place through [`PackedBlocks`].
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
    let payload = Payload::packed(meta, data);
    debug_assert_eq!(
        payload.words(),
        packed_words(items.iter().map(|(_, m)| (m.rows(), m.cols())))
    );
    payload
}

/// The blocks of a received [`pack_blocks`] payload, read in place: the
/// shared buffer plus, per block, its id and where it sits. The sender packs
/// once, every reader holds the same buffer, and the last reader to drop
/// its `PackedBlocks` frees it. The default holds no blocks.
#[derive(Debug, Default)]
pub struct PackedBlocks {
    buf: Option<Arc<Packed>>,
    index: Vec<PackedBlock>,
}

impl PackedBlocks {
    /// Read `payload` as the pack of exactly the blocks `expected` lists,
    /// as `(id, rows, cols)` in order. Any other payload kind, a header that
    /// does not follow the layout, values too few or too many for its
    /// blocks, or another block list is an error saying which.
    pub fn from_payload(
        payload: Payload,
        expected: &[(usize, usize, usize)],
    ) -> Result<PackedBlocks, String> {
        let buf = payload.try_into_packed().map_err(|e| e.to_string())?;
        let len = buf.data().len();
        let index = buf
            .blocks()
            .ok_or_else(|| format!("malformed header, or blocks past the {len} values"))?;
        let end = index.last().map_or(0, |b| b.offset + b.rows * b.cols);
        if end != len {
            return Err(format!("blocks of {end} values in a payload of {len}"));
        }
        if !index
            .iter()
            .map(|b| (b.id, b.rows, b.cols))
            .eq(expected.iter().copied())
        {
            let got: Vec<_> = index.iter().map(|b| (b.id, b.rows, b.cols)).collect();
            return Err(format!(
                "blocks {got:?} (id, rows, cols), expected {expected:?}"
            ));
        }
        Ok(PackedBlocks {
            buf: Some(buf),
            index,
        })
    }

    /// The blocks as `(id, view)`, in pack order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, MatRef<'_>)> + '_ {
        let data = self.buf.as_deref().map_or(&[][..], Packed::data);
        self.index.iter().map(move |b| {
            let end = b.offset + b.rows * b.cols;
            (b.id, MatRef::new(b.rows, b.cols, &data[b.offset..end]))
        })
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no block is held.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Words of block values held (for Schur-buffer memory accounting).
    pub fn words(&self) -> u64 {
        self.index.iter().map(|b| (b.rows * b.cols) as u64).sum()
    }
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
                let (dr, dc) = (i - sym.part.ranges[bi].start, j - sym.part.ranges[bj].start);
                let (sr, sc) = sym.stored_at(bi, bj, dr, dc).expect("A's entries are kept");
                assert_eq!(m.at(sr, sc), *v);
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
    fn packed_blocks_read_the_pack_in_place() {
        let m1 = Mat::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        let m2 = Mat::from_fn(1, 4, |_, j| j as f64);
        let p = pack_blocks(&[(7, &m1), (9, &m2)]);
        assert_eq!(p.words(), (1 + 6) as u64 + (6 + 4) as u64);
        let Payload::Packed(buf) = &p else {
            panic!("a pack is a Packed payload")
        };
        let buf = Arc::clone(buf);
        let blocks = PackedBlocks::from_payload(p, &[(7, 3, 2), (9, 1, 4)]).unwrap();
        assert_eq!((blocks.len(), blocks.words()), (2, 10));
        let got: Vec<(usize, MatRef)> = blocks.iter().collect();
        assert_eq!((got[0].0, got[0].1.as_slice()), (7, m1.as_slice()));
        assert_eq!((got[1].0, got[1].1.as_slice()), (9, m2.as_slice()));
        // In place: the views point into the sender's buffer.
        assert!(std::ptr::eq(got[0].1.as_slice(), &buf.data()[..6]));
    }

    #[test]
    fn pack_empty_list() {
        let p = pack_blocks(&[]);
        let blocks = PackedBlocks::from_payload(p, &[]).unwrap();
        assert!(blocks.is_empty());
        assert!(PackedBlocks::default().iter().next().is_none());
    }

    /// Short, long, mislabelled, misshapen and wrong-kind payloads are
    /// errors, never a panic or a silently accepted block.
    #[test]
    fn malformed_packs_are_rejected() {
        let m = Mat::from_fn(3, 2, |i, j| (i + j) as f64);
        let want = [(7, 3, 2)];
        let check = |p: Payload, what: &str, needle: &str| {
            let e = PackedBlocks::from_payload(p, &want).expect_err(what);
            assert!(e.contains(needle), "{what}: {e}");
        };
        let body = m.as_slice().to_vec();
        let short = body[..5].to_vec();
        let long = [&body[..], &[0.0]].concat();
        check(
            Payload::packed(vec![1, 7, 3, 2], short),
            "short",
            "past the 5 values",
        );
        check(
            Payload::packed(vec![1, 7, 3, 2], long),
            "long",
            "blocks of 6 values in a payload of 7",
        );
        check(
            Payload::packed(vec![1, 8, 3, 2], body.clone()),
            "wrong id",
            "expected [(7, 3, 2)]",
        );
        check(
            Payload::packed(vec![1, 7, 2, 3], body.clone()),
            "wrong shape",
            "expected [(7, 3, 2)]",
        );
        check(
            Payload::packed(vec![2, 7, 3, 2], body.clone()),
            "miscounted",
            "malformed header",
        );
        check(
            Payload::F64s(body),
            "wrong kind",
            "expected Packed payload, got F64s",
        );
        assert!(PackedBlocks::from_payload(pack_blocks(&[(7, &m)]), &want).is_ok());
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
        // Must equal the symbolic prediction of the compressed blocks, and
        // hold less than the dense-block cost model counts.
        assert_eq!(s.total_words(), sym.stored_words());
        let padded: u64 = sym.cost.factor_words.iter().sum();
        assert!(s.total_words() < padded, "{} of {padded}", s.total_words());
    }
}
