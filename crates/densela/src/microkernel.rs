//! Packed, register-blocked GEMM for batched supernodal Schur updates.
//!
//! The batched gather-GEMM-scatter path concatenates a supernode's owned
//! L-blocks and U-panel pieces into two contiguous panels and multiplies
//! them in one call. At that size the axpy kernel in [`crate::gemm`] leaves
//! performance on the table: it rereads and rewrites each C column once per
//! `k` step. This kernel uses the classical BLIS decomposition instead —
//! pack A into `MR`-row slabs and B into `NR`-column slabs, then drive an
//! `MR x NR` register tile over the packed operands with `KC`/`MC`/`NC`
//! cache blocking — so each C tile stays in registers across the whole
//! inner-product loop.
//!
//! ## Bitwise contract
//!
//! [`gemm_blocked`] produces **bit-identical** results to [`crate::gemm::gemm`]
//! for every input. Floating-point addition is not associative, so this
//! pins down the exact per-element operation sequence both kernels share:
//! for each `C(i, j)`, contributions `(alpha * B(kk, j)) * A(i, kk)` are
//! added in ascending `kk` order, one rounding per multiply and per add (no
//! FMA contraction — Rust compiles strict IEEE ops), and contributions
//! whose scale `alpha * B(kk, j)` equals `0.0` are skipped entirely. The
//! register tiling only changes *which* intermediate values live in
//! registers, never the arithmetic sequence, so the factorization's
//! determinism regression holds with either kernel. The packed B panel
//! stores `alpha * B(kk, j)` so the scale product is computed exactly once,
//! with the same rounding as the axpy kernel's `alpha * bj[kk]`.
//!
//! Flop accounting follows the [`crate::flops`] contract: only performed
//! multiply-adds are charged; zero-scale pairs go to the skipped ledger.

use crate::flops;
use crate::matrix::Mat;
use std::cell::RefCell;

/// Register-tile rows: each micro-tile update keeps `MR x NR` C values in
/// registers (16 x 4 doubles = 8 512-bit accumulator vectors, or 16 256-bit
/// ones on AVX2-only hosts).
pub const MR: usize = 16;
/// Register-tile columns.
pub const NR: usize = 4;
/// Cache-block over `k`: the packed slabs hold `KC` inner-product steps.
const KC: usize = 128;
/// Cache-block over `m` (rows of A packed per slab); multiple of `MR`.
/// One A block (`MC x KC` doubles) stays resident in L2 while every
/// B column-tile sweeps over it.
const MC: usize = 256;
/// Shapes with `m` or `n` at or below this are slivers: the packing
/// overhead outweighs register reuse, so they take the axpy kernel.
pub const SLIVER: usize = 4;

/// Reusable per-thread packing workspace. Supernodal Schur updates issue
/// thousands of small-panel GEMM calls; allocating (and zero-filling)
/// fresh pack slabs per call would swamp the kernel time, so the slabs
/// persist across calls. Every region the kernel reads is written by the
/// same call's packing first, so stale contents are harmless.
#[derive(Default)]
struct Workspace {
    ap: Vec<f64>,
    bp: Vec<f64>,
    tile_kks: Vec<u16>,
    tile_len: Vec<usize>,
    tile_zeros: Vec<u64>,
    row_map: Vec<(u32, u32)>,
    col_map: Vec<(u32, u32)>,
    /// Per target block, the first row of its row map when the map is one
    /// run of consecutive rows, else [`SCATTERED`].
    runs: Vec<u32>,
    /// The stripe stretches of every MR-row tile of the current `MC` block:
    /// tile `it` is `frags[frag_ptr[it]..frag_ptr[it + 1]]`.
    frags: Vec<Frag>,
    frag_ptr: Vec<usize>,
}

/// The rows of one MR-row tile that lie in one row stripe: `len` stripe
/// rows from `lr` of stripe `bi`, in accumulator lanes from `lane`.
#[derive(Clone, Copy, Debug, Default)]
struct Frag {
    bi: u32,
    lr: u32,
    len: u32,
    lane: u32,
}

/// A row map that is not one run of consecutive rows.
const SCATTERED: u32 = u32::MAX;

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Grow `v` to at least `len` entries (never shrinks, keeps contents).
fn ensure<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// `C = beta*C + alpha * A * B`, bit-identical to [`crate::gemm::gemm`]
/// (see the module docs for the shared arithmetic contract) but register-
/// blocked for large panels. Sliver shapes (`m <= 4` or `n <= 4`) fall
/// back to the axpy kernel directly.
pub fn gemm_blocked(alpha: f64, a: &Mat, b: &Mat, beta: f64, c: &mut Mat) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm_blocked: inner dimensions differ");
    assert_eq!(c.rows(), m, "gemm_blocked: C row count mismatch");
    assert_eq!(c.cols(), n, "gemm_blocked: C col count mismatch");
    if m <= SLIVER || n <= SLIVER {
        return crate::gemm::gemm(alpha, a, b, beta, c);
    }
    if beta != 1.0 {
        for v in c.as_mut_slice() {
            *v *= beta;
        }
    }
    let (rows, cols): (Vec<u32>, Vec<u32>) = ((0..m as u32).collect(), (0..n as u32).collect());
    let whole = BlockMap {
        rows: &rows,
        cols: &cols,
    };
    gemm_core(
        alpha,
        a,
        b,
        &[0, m],
        &[0, n],
        std::slice::from_mut(c),
        &[whole],
    );
}

/// Where one target block of [`gemm_blocked_tiled`] takes its stripes:
/// stripe row `r` lands on block row `rows[r]`, stripe column `c` on block
/// column `cols[c]`. Both maps ascend strictly — a compressed panel's rows
/// among the rows its target keeps.
#[derive(Clone, Copy, Debug)]
pub struct BlockMap<'a> {
    pub rows: &'a [u32],
    pub cols: &'a [u32],
}

/// `C += alpha * A * B` where C is a panel *tiled from disjoint blocks*:
/// `blocks[bi * (col_off.len() - 1) + bj]` takes global rows
/// `row_off[bi]..row_off[bi + 1]` and columns `col_off[bj]..col_off[bj + 1]`,
/// at the rows and columns its [`BlockMap`] names. The kernel loads and
/// stores its C register tiles directly from the blocks, so callers with
/// block-partitioned targets (the batched Schur update) pay no panel gather
/// or scatter copies — the scatter *is* the tile store; a run of
/// consecutive target rows moves as one slice. Same bitwise contract and
/// flop accounting as [`gemm_blocked`]; no sliver fallback (tile
/// fragmentation, not shape, decides the cost here, and the arithmetic is
/// identical either way).
pub fn gemm_blocked_tiled(
    alpha: f64,
    a: &Mat,
    b: &Mat,
    row_off: &[usize],
    col_off: &[usize],
    blocks: &mut [Mat],
    maps: &[BlockMap<'_>],
) {
    let m = a.rows();
    let n = b.cols();
    assert_eq!(b.rows(), a.cols(), "gemm_blocked_tiled: inner dims differ");
    assert_eq!(
        *row_off.last().unwrap(),
        m,
        "row offsets must cover A's rows"
    );
    assert_eq!(
        *col_off.last().unwrap(),
        n,
        "col offsets must cover B's cols"
    );
    let s_cols = col_off.len() - 1;
    assert_eq!(
        blocks.len(),
        (row_off.len() - 1) * s_cols,
        "need one block per (row stripe, col stripe) pair"
    );
    assert_eq!(maps.len(), blocks.len(), "need one map per block");
    // A map shorter than its stripe would stall the tile loads on a
    // zero-length fragment; one leaving its block, or not ascending, would
    // update the wrong entries.
    for (bi, rows) in row_off.windows(2).enumerate() {
        for (bj, cols) in col_off.windows(2).enumerate() {
            let (blk, map) = (&blocks[bi * s_cols + bj], &maps[bi * s_cols + bj]);
            assert!(
                (map.rows.len(), map.cols.len()) == (rows[1] - rows[0], cols[1] - cols[0])
                    && crate::gemm::ascending_within(map.rows, blk.rows())
                    && crate::gemm::ascending_within(map.cols, blk.cols()),
                "block ({bi},{bj}) does not map its stripes into itself"
            );
        }
    }
    gemm_core(alpha, a, b, row_off, col_off, blocks, maps);
}

/// Shared core of [`gemm_blocked`] / [`gemm_blocked_tiled`]: accumulating
/// (`beta = 1`) register-blocked GEMM onto a stripe-tiled C.
fn gemm_core(
    alpha: f64,
    a: &Mat,
    b: &Mat,
    row_off: &[usize],
    col_off: &[usize],
    blocks: &mut [Mat],
    maps: &[BlockMap<'_>],
) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    if k == 0 || alpha == 0.0 || m == 0 || n == 0 {
        return;
    }
    WORKSPACE.with(|ws| {
        let ws = &mut *ws.borrow_mut();
        gemm_core_ws(alpha, a, b, row_off, col_off, blocks, maps, ws);
    });
}

/// The target blocks of one tiled GEMM with their maps, `s_cols` per row
/// stripe.
struct Tiles<'b, 'm> {
    blocks: &'b mut [Mat],
    maps: &'b [BlockMap<'m>],
    /// [`Workspace::runs`] of `maps`.
    runs: &'b [u32],
    s_cols: usize,
}

#[allow(clippy::too_many_arguments)]
fn gemm_core_ws(
    alpha: f64,
    a: &Mat,
    b: &Mat,
    row_off: &[usize],
    col_off: &[usize],
    blocks: &mut [Mat],
    maps: &[BlockMap<'_>],
    ws: &mut Workspace,
) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    let s_cols = col_off.len() - 1;
    ws.runs.clear();
    ws.runs.extend(maps.iter().map(|map| match map.rows {
        [first, ..] if is_run(map.rows) => *first,
        _ => SCATTERED,
    }));
    let mut tiles = Tiles {
        blocks,
        maps,
        runs: &ws.runs,
        s_cols,
    };
    // Global index -> (stripe, local index) maps for C tile loads/stores.
    ensure(&mut ws.row_map, m);
    let row_map = &mut ws.row_map[..m];
    for bi in 0..row_off.len() - 1 {
        for (lr, rm) in row_map[row_off[bi]..row_off[bi + 1]].iter_mut().enumerate() {
            *rm = (bi as u32, lr as u32);
        }
    }
    ensure(&mut ws.col_map, n);
    let col_map = &mut ws.col_map[..n];
    for bj in 0..s_cols {
        for (lc, cm) in col_map[col_off[bj]..col_off[bj + 1]].iter_mut().enumerate() {
            *cm = (bj as u32, lc as u32);
        }
    }

    let a_buf = a.as_slice();
    let b_buf = b.as_slice();
    // Packed slabs, reused across blocks. A slab: MR-row tiles, each laid
    // out kk-major (`ap[tile][kk * MR + r]`); B slab: NR-column tiles, each
    // kk-major (`bp[tile][t * NR + c]` for the `t`-th *kept* `kk`), with
    // alpha folded in. Edge tiles are zero-padded so the micro-kernel never
    // branches on ragged bounds.
    //
    // Zeros of a gathered U panel that fill a whole row of a tile (a row
    // of `k` that a few kept columns do not reach) are compressed out per
    // tile by the packing: `kk` steps whose every real column has a zero
    // scale are dropped (their contributions would all be skipped
    // anyway), and `tile_kks` records the surviving original `kk` indices,
    // ascending — the arithmetic sequence per element is exactly the axpy
    // kernel's.
    // The B panel spans the full column range: supernodal Schur updates
    // always have `k <= KC` (the supernode width), so the entire packed B
    // fits one `KC`-deep panel and packs exactly once — and with no outer
    // column loop, A also packs exactly once. The inner loops then stream
    // the (L3-resident) B panel over each L2-resident A block; at the
    // sizes the solver produces that replaces `n / NC` re-packs of A with
    // cheap streaming reads of compressed B.
    // Slabs are sized for the depth in use, not for `KC`: a width-32
    // supernode packs a quarter of a `KC`-deep panel, and every rank thread
    // holds its own workspace.
    let ncb = n.div_ceil(NR) * NR;
    let kc_max = KC.min(k);
    ensure(&mut ws.ap, MC * kc_max);
    ensure(&mut ws.bp, kc_max * ncb);
    ensure(&mut ws.tile_kks, (ncb / NR) * KC);
    ensure(&mut ws.tile_len, ncb / NR);
    // Zero scales remaining among kept rows' real columns: tiles with none
    // take the branch-free micro-kernel (the common, dense case).
    ensure(&mut ws.tile_zeros, ncb / NR);
    let (ap, bp) = (&mut ws.ap[..], &mut ws.bp[..]);
    let (tile_kks, tile_len, tile_zeros) = (
        &mut ws.tile_kks[..],
        &mut ws.tile_len[..],
        &mut ws.tile_zeros[..],
    );
    let (frags, frag_ptr) = (&mut ws.frags, &mut ws.frag_ptr);
    let mut performed_madds = 0u64;
    let mut skipped_pairs = 0u64;

    for jc in (0..n).step_by(ncb) {
        let nc_len = ncb.min(n - jc);
        let n_tiles = nc_len.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc_len = KC.min(k - pc);
            // Pack B(pc..pc+kc_len, jc..jc+nc_len), premultiplied by alpha,
            // counting the zero scales each column-tile will skip and
            // dropping all-zero rows.
            let mut zero_pairs = 0u64;
            for jt in 0..n_tiles {
                let base = jt * NR * kc_len;
                let kbase = jt * KC;
                let tile_cols = NR.min(nc_len - jt * NR);
                let mut len = 0usize;
                let mut tz = 0u64;
                for kk in 0..kc_len {
                    let mut scales = [0.0f64; NR];
                    let mut row_zeros = 0u64;
                    for (cc, s) in scales.iter_mut().enumerate().take(tile_cols) {
                        *s = alpha * b_buf[(jc + jt * NR + cc) * k + pc + kk];
                        if *s == 0.0 {
                            row_zeros += 1;
                        }
                    }
                    zero_pairs += row_zeros;
                    if row_zeros == tile_cols as u64 {
                        continue; // every real contribution skipped: drop row
                    }
                    tz += row_zeros;
                    bp[base + len * NR..base + len * NR + NR].copy_from_slice(&scales);
                    tile_kks[kbase + len] = kk as u16;
                    len += 1;
                }
                tile_len[jt] = len;
                tile_zeros[jt] = tz;
            }
            let real_pairs = (kc_len * nc_len) as u64;
            performed_madds += m as u64 * (real_pairs - zero_pairs);
            skipped_pairs += zero_pairs;

            for ic in (0..m).step_by(MC) {
                let mc_len = MC.min(m - ic);
                let m_tiles = mc_len.div_ceil(MR);
                // Pack A(ic..ic+mc_len, pc..pc+kc_len).
                for it in 0..m_tiles {
                    let i0 = ic + it * MR;
                    let rows = MR.min(m - i0);
                    let base = it * MR * kc_len;
                    for kk in 0..kc_len {
                        let src = (pc + kk) * m + i0;
                        let dst = base + kk * MR;
                        ap[dst..dst + rows].copy_from_slice(&a_buf[src..src + rows]);
                        for r in rows..MR {
                            ap[dst + r] = 0.0;
                        }
                    }
                }
                // The stripe stretches of each tile, shared by every column
                // tile it meets.
                frags.clear();
                frag_ptr.clear();
                frag_ptr.push(0);
                for it in 0..m_tiles {
                    let i0 = ic + it * MR;
                    let mr_len = MR.min(m - i0);
                    let mut r = 0;
                    while r < mr_len {
                        let (bi, lr) = row_map[i0 + r];
                        let height = row_off[bi as usize + 1] - row_off[bi as usize];
                        let len = (mr_len - r).min(height - lr as usize);
                        frags.push(Frag {
                            bi,
                            lr,
                            len: len as u32,
                            lane: r as u32,
                        });
                        r += len;
                    }
                    frag_ptr.push(frags.len());
                }

                for jt in 0..n_tiles {
                    let len = tile_len[jt];
                    if len == 0 {
                        continue; // every contribution in this tile is skipped
                    }
                    let j0 = jc + jt * NR;
                    let nr_len = NR.min(n - j0);
                    let dense = tile_zeros[jt] == 0;
                    let kks = &tile_kks[jt * KC..jt * KC + len];
                    let b_tile = &bp[jt * NR * kc_len..jt * NR * kc_len + len * NR];
                    let cols = &col_map[j0..j0 + nr_len];
                    for it in 0..m_tiles {
                        let a_tile = &ap[it * MR * kc_len..(it + 1) * MR * kc_len];
                        let tile = &frags[frag_ptr[it]..frag_ptr[it + 1]];
                        let mut acc = [0.0f64; MR * NR];
                        tiles.load(tile, cols, &mut acc);
                        if dense {
                            micro_tile_dense(a_tile, b_tile, kks, &mut acc);
                        } else {
                            micro_tile(a_tile, b_tile, kks, &mut acc);
                        }
                        tiles.store(tile, cols, &acc);
                    }
                }
            }
        }
    }
    flops::add(2 * performed_madds);
    flops::add_skipped(2 * m as u64 * skipped_pairs);
}

/// `dst = src` for the at most `MR` values of one tile stretch: a loop of
/// fixed trip count the compiler unrolls, where `copy_from_slice` would call
/// `memcpy` for a handful of values.
#[inline(always)]
fn copy_short(dst: &mut [f64], src: &[f64]) {
    let len = dst.len();
    for i in 0..MR {
        if i < len {
            dst[i] = src[i];
        }
    }
}

/// True when the ascending `rows` are consecutive: one slice of a column.
#[inline]
fn is_run(rows: &[u32]) -> bool {
    rows[rows.len() - 1] - rows[0] == rows.len() as u32 - 1
}

/// Where stretch `f` of a tile lands in target block `b`: `Ok(first row)`
/// when on consecutive rows, else the rows.
#[inline]
fn rows_of<'a>(
    maps: &[BlockMap<'a>],
    runs: &[u32],
    b: usize,
    f: &Frag,
) -> Result<usize, &'a [u32]> {
    if runs[b] != SCATTERED {
        return Ok((runs[b] + f.lr) as usize);
    }
    let rows = &maps[b].rows[f.lr as usize..(f.lr + f.len) as usize];
    if is_run(rows) {
        Ok(rows[0] as usize)
    } else {
        Err(rows)
    }
}

impl Tiles<'_, '_> {
    /// Block and target column of stretch `f` in the tile column of global
    /// column `(bj, lc)`.
    #[inline]
    fn target(&self, f: &Frag, (bj, lc): (u32, u32)) -> (usize, usize) {
        let b = f.bi as usize * self.s_cols + bj as usize;
        (b, self.maps[b].cols[lc as usize] as usize)
    }

    /// Load a C tile — its stripe stretches `tile` over the global columns
    /// `cols` — into the register-tile accumulator. A whole column of the
    /// tile on consecutive target rows — the common case — moves as one
    /// fixed `[f64; MR]`, a shorter run as one slice, anything else entry
    /// by entry. Unloaded accumulator lanes stay zero (padded rows/columns)
    /// and are never stored back.
    #[inline]
    fn load(&self, tile: &[Frag], cols: &[(u32, u32)], acc: &mut [f64; MR * NR]) {
        for (lanes, &col_at) in acc.chunks_exact_mut(MR).zip(cols) {
            for f in tile {
                let (b, c) = self.target(f, col_at);
                let col = self.blocks[b].col(c);
                let lanes = &mut lanes[f.lane as usize..(f.lane + f.len) as usize];
                match rows_of(self.maps, self.runs, b, f) {
                    Ok(r0) if lanes.len() == MR => {
                        let src: &[f64; MR] = col[r0..r0 + MR].try_into().unwrap();
                        let dst: &mut [f64; MR] = lanes.try_into().unwrap();
                        *dst = *src;
                    }
                    Ok(r0) => copy_short(lanes, &col[r0..r0 + lanes.len()]),
                    Err(rows) => {
                        for (v, &r) in lanes.iter_mut().zip(rows) {
                            *v = col[r as usize];
                        }
                    }
                }
            }
        }
    }

    /// Inverse of [`Tiles::load`]: write the accumulator's real lanes back
    /// into the target blocks.
    #[inline]
    fn store(&mut self, tile: &[Frag], cols: &[(u32, u32)], acc: &[f64; MR * NR]) {
        for (lanes, &col_at) in acc.chunks_exact(MR).zip(cols) {
            for f in tile {
                let (b, c) = self.target(f, col_at);
                let rows = rows_of(self.maps, self.runs, b, f);
                let col = self.blocks[b].col_mut(c);
                let lanes = &lanes[f.lane as usize..(f.lane + f.len) as usize];
                match rows {
                    Ok(r0) if lanes.len() == MR => {
                        let dst: &mut [f64; MR] = (&mut col[r0..r0 + MR]).try_into().unwrap();
                        let src: &[f64; MR] = lanes.try_into().unwrap();
                        *dst = *src;
                    }
                    Ok(r0) => copy_short(&mut col[r0..r0 + lanes.len()], lanes),
                    Err(rows) => {
                        for (&v, &r) in lanes.iter().zip(rows) {
                            col[r as usize] = v;
                        }
                    }
                }
            }
        }
    }
}

/// One `MR x NR` register-tile update: accumulate the packed inner
/// products over the kept `kk` steps (listed ascending in `kks`) into the
/// pre-loaded accumulator. Padded rows are computed against zero-packed A
/// lanes and never stored; padded columns carry zero scales and are
/// skipped like any other zero.
#[inline]
fn micro_tile(a_tile: &[f64], b_tile: &[f64], kks: &[u16], acc: &mut [f64; MR * NR]) {
    // Work on a by-value copy: a local array the compiler can keep in
    // registers for the whole inner-product loop (the referenced `acc` is
    // pinned to memory by the fragment copies around this call).
    let mut t_acc = *acc;
    for (t, &kk) in kks.iter().enumerate() {
        let ak = &a_tile[kk as usize * MR..kk as usize * MR + MR];
        for cc in 0..NR {
            let s = b_tile[t * NR + cc];
            if s == 0.0 {
                continue;
            }
            for rr in 0..MR {
                t_acc[cc * MR + rr] += s * ak[rr];
            }
        }
    }
    *acc = t_acc;
}

/// Branch-free variant of [`micro_tile`] for B tiles whose kept rows carry
/// no zero scales in their real columns: the skip test disappears from the
/// inner loop, so the whole `MR x NR` accumulator updates as straight-line
/// vector code. Bitwise identical to [`micro_tile`] on such tiles — the
/// skip branch would never fire. Padded columns do carry zero scales;
/// computing on them touches only accumulator lanes that are never stored.
#[inline]
fn micro_tile_dense(a_tile: &[f64], b_tile: &[f64], kks: &[u16], acc: &mut [f64; MR * NR]) {
    // By-value accumulator copy, as in [`micro_tile`]: keeps the register
    // tile in registers.
    let mut t_acc = *acc;
    for (t, &kk) in kks.iter().enumerate() {
        let ak: &[f64; MR] = a_tile[kk as usize * MR..kk as usize * MR + MR]
            .try_into()
            .unwrap();
        let bk: &[f64; NR] = b_tile[t * NR..t * NR + NR].try_into().unwrap();
        for cc in 0..NR {
            let s = bk[cc];
            for rr in 0..MR {
                t_acc[cc * MR + rr] += s * ak[rr];
            }
        }
    }
    *acc = t_acc;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, gemm_naive};

    fn mk(m: usize, n: usize, seed: u64) -> Mat {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(m, n, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 500.0 - 1.0
        })
    }

    /// Sprinkle exact zeros so the skip branch is exercised.
    fn mk_sparse(m: usize, n: usize, seed: u64) -> Mat {
        let mut a = mk(m, n, seed);
        for j in 0..n {
            for i in 0..m {
                if (i * 31 + j * 17 + seed as usize).is_multiple_of(3) {
                    *a.at_mut(i, j) = 0.0;
                }
            }
        }
        a
    }

    #[test]
    fn bitwise_identical_to_axpy_kernel() {
        // The load-bearing contract: register blocking must not change a
        // single bit versus the axpy kernel, across interior and ragged
        // tile shapes, multiple cache blocks, and zero-skip patterns.
        for &(m, n, k) in &[
            (8usize, 8usize, 8usize),
            (5, 7, 3),
            (16, 12, 64),
            (33, 29, 70),
            (130, 131, 65), // crosses MC/KC boundaries
            (256, 140, 90),
        ] {
            for &(alpha, beta) in &[(1.0, 1.0), (-1.0, 1.0), (1.5, -0.5), (2.0, 0.0)] {
                let a = mk_sparse(m, k, 1 + m as u64);
                let b = mk_sparse(k, n, 2 + n as u64);
                let mut c1 = mk(m, n, 3);
                let mut c2 = c1.clone();
                gemm(alpha, &a, &b, beta, &mut c1);
                gemm_blocked(alpha, &a, &b, beta, &mut c2);
                for j in 0..n {
                    for i in 0..m {
                        assert_eq!(
                            c1.at(i, j).to_bits(),
                            c2.at(i, j).to_bits(),
                            "({m},{n},{k}) alpha={alpha} beta={beta} at ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    /// `m` rows, ascending, with every `step`-th left out after the third
    /// (none when `step` is 0) — a compressed stripe's rows among its
    /// target's.
    fn sparse_map(m: usize, step: usize) -> Vec<u32> {
        (0u32..)
            .filter(|&r| step == 0 || r < 3 || !(r as usize - 3).is_multiple_of(step))
            .take(m)
            .collect()
    }

    /// Tile `C` from stripes over `row_off x col_off`, each block mapped
    /// from its stripe through [`sparse_map`] with `step` (so larger than
    /// its stripe unless `step` is 0); run the tiled kernel and one
    /// [`gemm_scatter`] per block, and compare every bit.
    fn tiled_matches_gemm_scatter_per_block(
        row_off: &[usize],
        col_off: &[usize],
        k: usize,
        step: usize,
        seed: u64,
    ) {
        let (m, n) = (*row_off.last().unwrap(), *col_off.last().unwrap());
        let a = mk_sparse(m, k, seed);
        let b = mk_sparse(k, n, seed + 1);
        let (mut blocks, mut want, mut maps) = (Vec::new(), Vec::new(), Vec::new());
        for rows in row_off.windows(2) {
            for cols in col_off.windows(2) {
                let (h, w) = (rows[1] - rows[0], cols[1] - cols[0]);
                let (rmap, cmap) = (sparse_map(h, step), sparse_map(w, step));
                let (th, tw) = (
                    rmap.last().map_or(0, |&r| r as usize + 1),
                    cmap.last().map_or(0, |&c| c as usize + 1),
                );
                let c = mk(th + 1, tw, (rows[0] * 100 + cols[0]) as u64 + seed);
                let mut updated = c.clone();
                let a_blk = a.block(rows[0], 0, h, k);
                let b_blk = b.block(0, cols[0], k, w);
                crate::gemm::gemm_scatter(-1.0, &a_blk, &b_blk, &mut updated, &rmap, &cmap);
                blocks.push(c);
                want.push(updated);
                maps.push((rmap, cmap));
            }
        }
        let maps: Vec<BlockMap> = maps
            .iter()
            .map(|(rows, cols)| BlockMap { rows, cols })
            .collect();
        gemm_blocked_tiled(-1.0, &a, &b, row_off, col_off, &mut blocks, &maps);
        for (i, (got, want)) in blocks.iter().zip(&want).enumerate() {
            let same = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "step {step}: block {i} differs");
        }
    }

    #[test]
    fn tiled_matches_one_axpy_gemm_per_block() {
        // C tiled from ragged stripes (crossing MR/NR tile boundaries): the
        // fused scatter must equal one axpy GEMM per block, bit for bit —
        // onto blocks of the stripes' own shape and onto larger blocks the
        // stripes map into with gaps.
        for step in [0, 6, 2] {
            tiled_matches_gemm_scatter_per_block(&[0, 7, 24, 41], &[0, 3, 22], 19, step, 1);
            // Stripes [0, 37) and [38, 75) hold whole MR-row tiles (one
            // fixed-array move per column when their rows are consecutive);
            // the tile at row 32 straddles the one-row stripe [37, 38), and
            // the last one is partial.
            tiled_matches_gemm_scatter_per_block(&[0, 37, 38, 75], &[0, 9, 22], 23, step, 4);
        }
    }

    #[test]
    fn scatter_lands_where_the_maps_say_and_nowhere_else() {
        let (a, b) = (mk_sparse(5, 6, 7), mk_sparse(6, 3, 8));
        let (rows, cols) = ([1u32, 2, 4, 7, 8], [0u32, 2, 3]);
        let mut c = mk(9, 4, 9);
        let before = c.clone();
        crate::gemm::gemm_scatter(-1.0, &a, &b, &mut c, &rows, &cols);
        let mut dense = Mat::zeros(5, 3);
        for (jj, &j) in cols.iter().enumerate() {
            for (ii, &i) in rows.iter().enumerate() {
                *dense.at_mut(ii, jj) = before.at(i as usize, j as usize);
            }
        }
        gemm(-1.0, &a, &b, 1.0, &mut dense);
        for j in 0..4 {
            for i in 0..9 {
                let mapped = rows.iter().position(|&r| r as usize == i);
                let want = match (mapped, cols.iter().position(|&c| c as usize == j)) {
                    (Some(ii), Some(jj)) => dense.at(ii, jj),
                    _ => before.at(i, j),
                };
                assert_eq!(c.at(i, j).to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not map its stripes into itself")]
    fn tiled_rejects_blocks_that_do_not_match_their_stripes() {
        // Stripe 1 claims a row that belongs to block 0: used to spin
        // forever on a zero-length tile fragment.
        let a = mk(10, 4, 1);
        let b = mk(4, 6, 2);
        let mut blocks = vec![mk(5, 6, 3), mk(5, 6, 4)];
        let (rows, cols): (Vec<u32>, Vec<u32>) = ((0..5).collect(), (0..6).collect());
        let maps = [
            BlockMap {
                rows: &rows[..4],
                cols: &cols,
            },
            BlockMap {
                rows: &rows,
                cols: &cols,
            },
        ];
        gemm_blocked_tiled(-1.0, &a, &b, &[0, 4, 10], &[0, 6], &mut blocks, &maps);
    }

    #[test]
    fn sliver_shapes_match_gemm_naive() {
        // m or n <= 4 takes the axpy fallback; results must agree with the
        // reference triple loop to rounding accuracy.
        for &(m, n, k) in &[
            (1usize, 9usize, 12usize),
            (4, 33, 16),
            (3, 128, 64),
            (17, 2, 20),
            (129, 4, 65),
            (2, 3, 1),
        ] {
            assert!(m <= SLIVER || n <= SLIVER);
            let a = mk(m, k, 11);
            let b = mk(k, n, 12);
            let mut c1 = mk(m, n, 13);
            let mut c2 = c1.clone();
            gemm_blocked(-1.0, &a, &b, 1.0, &mut c1);
            gemm_naive(-1.0, &a, &b, 1.0, &mut c2);
            for j in 0..n {
                for i in 0..m {
                    assert!(
                        (c1.at(i, j) - c2.at(i, j)).abs() < 1e-10,
                        "({m},{n},{k}) at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn charges_same_flops_as_axpy_kernel() {
        let (m, n, k) = (40usize, 37usize, 70usize);
        let a = mk_sparse(m, k, 21);
        let b = mk_sparse(k, n, 22);
        let mut c1 = Mat::zeros(m, n);
        let mut c2 = Mat::zeros(m, n);
        flops::reset();
        flops::reset_skipped();
        gemm(-1.0, &a, &b, 1.0, &mut c1);
        let (f1, s1) = (flops::reset(), flops::reset_skipped());
        gemm_blocked(-1.0, &a, &b, 1.0, &mut c2);
        let (f2, s2) = (flops::reset(), flops::reset_skipped());
        assert_eq!(f1, f2, "charged flops must match the axpy kernel");
        assert_eq!(s1, s2, "skipped flops must match the axpy kernel");
        assert_eq!(f1 + s1, flops::gemm_flops(m, n, k));
    }

    #[test]
    fn empty_k_only_scales() {
        let a = Mat::zeros(6, 0);
        let b = Mat::zeros(0, 8);
        let mut c = Mat::from_fn(6, 8, |i, j| (i + j) as f64);
        gemm_blocked(2.0, &a, &b, 0.5, &mut c);
        assert_eq!(c.at(5, 7), 6.0);
    }
}
