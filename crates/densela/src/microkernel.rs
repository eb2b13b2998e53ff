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
//! C reaches the register tiles through one staging panel per `MC`-row
//! block and `NR`-column tile (`MC x NR` doubles): the panel is gathered
//! once from the target blocks, every `MR`-row tile of the block loads its
//! columns from it as fixed `[f64; MR]` arrays and stores them back, and
//! the panel is scattered back once. The tiles never see how C is cut into
//! blocks.
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
use std::ops::Range;

/// Register-tile rows: each micro-tile update keeps `MR x NR` C values in
/// registers (16 x 4 doubles = 16 256-bit accumulator vectors; the
/// `target-cpu=native` build keeps to 256-bit vectors on AVX-512 hosts too,
/// LLVM's prefer-256-bit tuning).
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
    col_map: Vec<(u32, u32)>,
}

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
/// at the rows and columns its [`BlockMap`] names. The kernel gathers its
/// staging panels straight from the blocks and scatters them straight back,
/// so callers with block-partitioned targets (the batched Schur update)
/// copy no C panel of their own; a stripe's run of consecutive target rows
/// moves as one slice, a scattered map entry by entry. Same bitwise
/// contract and flop accounting as [`gemm_blocked`]; no sliver fallback
/// (the stripes, not the shape, decide the cost here, and the arithmetic
/// is identical either way).
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
    // A map shorter than its stripe would end the panel moves on an index
    // past it; one leaving its block, or not ascending, would update the
    // wrong entries.
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
/// stripe, the row stripes starting at `row_off`.
struct Targets<'b, 'm> {
    blocks: &'b mut [Mat],
    maps: &'b [BlockMap<'m>],
    row_off: &'b [usize],
    s_cols: usize,
}

impl Targets<'_, '_> {
    /// Move global rows `rows` (one `MC` block, whose first row lies in
    /// stripe `bi0`) of the global columns `cols` between the target blocks
    /// and the staging panel: into it when `STORE` is false, back out when
    /// true. Each stripe's stretch of a column moves as one slice where its
    /// target rows are consecutive, else entry by entry through the map.
    fn exchange<const STORE: bool>(
        &mut self,
        stage: &mut [f64; MC * NR],
        bi0: usize,
        rows: Range<usize>,
        cols: &[(u32, u32)],
    ) {
        for (panel, &(bj, lc)) in stage.chunks_exact_mut(MC).zip(cols) {
            let mut bi = bi0;
            while self.row_off[bi] < rows.end {
                let (start, end) = (
                    self.row_off[bi].max(rows.start),
                    self.row_off[bi + 1].min(rows.end),
                );
                if start < end {
                    let b = bi * self.s_cols + bj as usize;
                    let map = &self.maps[b];
                    let lr = start - self.row_off[bi];
                    let at = &mut panel[start - rows.start..end - rows.start];
                    let target_rows = &map.rows[lr..lr + at.len()];
                    let col = self.blocks[b].col_mut(map.cols[lc as usize] as usize);
                    if is_run(target_rows) {
                        let r0 = target_rows[0] as usize;
                        let run = &mut col[r0..r0 + at.len()];
                        if STORE {
                            run.copy_from_slice(at);
                        } else {
                            at.copy_from_slice(run);
                        }
                    } else if STORE {
                        for (&v, &r) in at.iter().zip(target_rows) {
                            col[r as usize] = v;
                        }
                    } else {
                        for (v, &r) in at.iter_mut().zip(target_rows) {
                            *v = col[r as usize];
                        }
                    }
                }
                bi += 1;
            }
        }
    }
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
    let mut targets = Targets {
        blocks,
        maps,
        row_off,
        s_cols,
    };
    // Global column -> (stripe, local column).
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
    let n_tiles = n.div_ceil(NR);
    let kc_max = KC.min(k);
    ensure(&mut ws.ap, MC * kc_max);
    ensure(&mut ws.bp, kc_max * n_tiles * NR);
    ensure(&mut ws.tile_kks, n_tiles * KC);
    ensure(&mut ws.tile_len, n_tiles);
    // Zero scales remaining among kept rows' real columns: tiles with none
    // take the branch-free micro-kernel (the common, dense case).
    ensure(&mut ws.tile_zeros, n_tiles);
    let (ap, bp) = (&mut ws.ap[..], &mut ws.bp[..]);
    let (tile_kks, tile_len, tile_zeros) = (
        &mut ws.tile_kks[..],
        &mut ws.tile_len[..],
        &mut ws.tile_zeros[..],
    );
    // The C staging panel: one column tile of one `MC` block, `NR` columns
    // of `MC` rows. Rows past the block's last and columns past `n` are
    // padding the micro-kernel computes on and nothing reads back.
    let mut stage = [0.0f64; MC * NR];
    let mut performed_madds = 0u64;
    let mut skipped_pairs = 0u64;

    for pc in (0..k).step_by(KC) {
        let kc_len = KC.min(k - pc);
        // Pack B(pc..pc+kc_len, ..), premultiplied by alpha, counting the
        // zero scales each column-tile will skip and dropping all-zero rows.
        let mut zero_pairs = 0u64;
        for jt in 0..n_tiles {
            let base = jt * NR * kc_len;
            let kbase = jt * KC;
            let tile_cols = NR.min(n - jt * NR);
            let mut len = 0usize;
            let mut tz = 0u64;
            for kk in 0..kc_len {
                let mut scales = [0.0f64; NR];
                let mut row_zeros = 0u64;
                for (cc, s) in scales.iter_mut().enumerate().take(tile_cols) {
                    *s = alpha * b_buf[(jt * NR + cc) * k + pc + kk];
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
        let real_pairs = (kc_len * n) as u64;
        performed_madds += m as u64 * (real_pairs - zero_pairs);
        skipped_pairs += zero_pairs;

        // The row stripe holding the current block's first row.
        let mut bi0 = 0;
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
                    let dst: &mut [f64; MR] = (&mut ap[base + kk * MR..][..MR]).try_into().unwrap();
                    if rows == MR {
                        *dst = a_buf[src..src + MR].try_into().unwrap();
                    } else {
                        dst[..rows].copy_from_slice(&a_buf[src..src + rows]);
                        dst[rows..].fill(0.0);
                    }
                }
            }
            while row_off[bi0 + 1] <= ic {
                bi0 += 1;
            }

            for jt in 0..n_tiles {
                let len = tile_len[jt];
                if len == 0 {
                    continue; // every contribution in this tile is skipped
                }
                let j0 = jt * NR;
                let cols = &col_map[j0..n.min(j0 + NR)];
                let dense = tile_zeros[jt] == 0;
                let kks = &tile_kks[jt * KC..jt * KC + len];
                let b_tile = &bp[jt * NR * kc_len..jt * NR * kc_len + len * NR];
                targets.exchange::<false>(&mut stage, bi0, ic..ic + mc_len, cols);
                for it in 0..m_tiles {
                    let a_tile = &ap[it * MR * kc_len..(it + 1) * MR * kc_len];
                    if dense {
                        micro_tile_dense(a_tile, b_tile, kks, &mut stage, it * MR);
                    } else {
                        micro_tile(a_tile, b_tile, kks, &mut stage, it * MR);
                    }
                }
                targets.exchange::<true>(&mut stage, bi0, ic..ic + mc_len, cols);
            }
        }
    }
    flops::add(2 * performed_madds);
    flops::add_skipped(2 * m as u64 * skipped_pairs);
}

/// True when the ascending `rows` are consecutive: one slice of a column.
#[inline]
fn is_run(rows: &[u32]) -> bool {
    rows[rows.len() - 1] - rows[0] == rows.len() as u32 - 1
}

/// The `MR x NR` register tile of the staging panel at row `r0`, one
/// fixed `[f64; MR]` per column.
#[inline(always)]
fn load_tile(stage: &[f64; MC * NR], r0: usize) -> [[f64; MR]; NR] {
    std::array::from_fn(|cc| stage[cc * MC + r0..][..MR].try_into().unwrap())
}

/// Inverse of [`load_tile`].
#[inline(always)]
fn store_tile(stage: &mut [f64; MC * NR], r0: usize, acc: &[[f64; MR]; NR]) {
    for (cc, col) in acc.iter().enumerate() {
        stage[cc * MC + r0..][..MR].copy_from_slice(col);
    }
}

/// One `MR x NR` register-tile update of the staging panel at row `r0`:
/// load the tile into the accumulator, accumulate the packed inner
/// products over the kept `kk` steps (listed ascending in `kks`), store it
/// back. Padded rows are computed against zero-packed A lanes and never
/// scattered; padded columns carry zero scales and are skipped like any
/// other zero.
#[inline]
fn micro_tile(a_tile: &[f64], b_tile: &[f64], kks: &[u16], stage: &mut [f64; MC * NR], r0: usize) {
    let mut acc = load_tile(stage, r0);
    for (t, &kk) in kks.iter().enumerate() {
        let ak = &a_tile[kk as usize * MR..kk as usize * MR + MR];
        for (cc, col) in acc.iter_mut().enumerate() {
            let s = b_tile[t * NR + cc];
            if s == 0.0 {
                continue;
            }
            for rr in 0..MR {
                col[rr] += s * ak[rr];
            }
        }
    }
    store_tile(stage, r0, &acc);
}

/// Branch-free variant of [`micro_tile`] for B tiles whose kept rows carry
/// no zero scales in their real columns: the skip test disappears from the
/// inner loop, so the whole `MR x NR` accumulator updates as straight-line
/// vector code. Bitwise identical to [`micro_tile`] on such tiles — the
/// skip branch would never fire. Padded columns do carry zero scales;
/// computing on them touches only panel columns that are never scattered.
#[inline]
fn micro_tile_dense(
    a_tile: &[f64],
    b_tile: &[f64],
    kks: &[u16],
    stage: &mut [f64; MC * NR],
    r0: usize,
) {
    let mut acc = load_tile(stage, r0);
    for (t, &kk) in kks.iter().enumerate() {
        let ak: &[f64; MR] = a_tile[kk as usize * MR..kk as usize * MR + MR]
            .try_into()
            .unwrap();
        let bk: &[f64; NR] = b_tile[t * NR..t * NR + NR].try_into().unwrap();
        for (col, &s) in acc.iter_mut().zip(bk) {
            for rr in 0..MR {
                col[rr] += s * ak[rr];
            }
        }
    }
    store_tile(stage, r0, &acc);
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
            (257, 37, 33), // one row past the first MC block
            (600, 45, 40), // three MC blocks, the last partial
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

    /// The zero pattern of [`mk_sparse`]: a third of the entries, spread.
    fn scattered_zeros(seed: u64) -> impl Fn(usize, usize) -> bool {
        move |i, j| (i * 31 + j * 17 + seed as usize).is_multiple_of(3)
    }

    /// Zero scales shaped like a gathered U panel's: column tile 2 is zero
    /// in every step (the whole tile is skipped), step `kk % 7 == 3` is zero
    /// in every column (dropped from every tile, which stays dense), and
    /// step `kk % 5 == 1` is zero in the columns `j % 8 == 1` (tiles 0, 4,
    /// 6, ... keep a zero among their kept steps and take the skipping
    /// micro-tile). Tiles 1, 3, 5, ... are dense.
    fn structural_zeros(kk: usize, j: usize) -> bool {
        j / NR == 2 || kk % 7 == 3 || (kk % 5 == 1 && j % 8 == 1)
    }

    /// Tile `C` from stripes over `row_off x col_off`, each block mapped
    /// from its stripe through [`sparse_map`] with `step` (so larger than
    /// its stripe unless `step` is 0); B is zero where `b_zero(kk, j)`
    /// holds. Run the tiled kernel and one [`gemm_scatter`] per block, and
    /// compare every bit and the flop and skipped-flop charges.
    fn tiled_matches_gemm_scatter_per_block(
        row_off: &[usize],
        col_off: &[usize],
        k: usize,
        step: usize,
        seed: u64,
        b_zero: impl Fn(usize, usize) -> bool,
    ) {
        let (m, n) = (*row_off.last().unwrap(), *col_off.last().unwrap());
        let a = mk_sparse(m, k, seed);
        let mut b = mk(k, n, seed + 1);
        for j in 0..n {
            for kk in 0..k {
                if b_zero(kk, j) {
                    *b.at_mut(kk, j) = 0.0;
                }
            }
        }
        let (mut blocks, mut want, mut maps) = (Vec::new(), Vec::new(), Vec::new());
        flops::reset();
        flops::reset_skipped();
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
        let charged = (flops::reset(), flops::reset_skipped());
        let maps: Vec<BlockMap> = maps
            .iter()
            .map(|(rows, cols)| BlockMap { rows, cols })
            .collect();
        gemm_blocked_tiled(-1.0, &a, &b, row_off, col_off, &mut blocks, &maps);
        let at = format!("stripes {row_off:?} x {col_off:?}, step {step}");
        assert_eq!((flops::reset(), flops::reset_skipped()), charged, "{at}");
        for (i, (got, want)) in blocks.iter().zip(&want).enumerate() {
            let same = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "{at}: block {i} differs");
        }
    }

    #[test]
    fn tiled_matches_one_axpy_gemm_per_block() {
        // C tiled from ragged stripes (crossing MR/NR tile boundaries): the
        // staged panels must equal one axpy GEMM per block, bit for bit —
        // onto blocks of the stripes' own shape and onto larger blocks the
        // stripes map into with gaps.
        for step in [0, 6, 2] {
            let zeros = scattered_zeros(1);
            tiled_matches_gemm_scatter_per_block(&[0, 7, 24, 41], &[0, 3, 22], 19, step, 1, zeros);
            // Stripes [0, 37) and [38, 75) hold whole MR-row tiles; the
            // tile at row 32 straddles the one-row stripe [37, 38), and the
            // last one is partial.
            let zeros = scattered_zeros(4);
            tiled_matches_gemm_scatter_per_block(&[0, 37, 38, 75], &[0, 9, 22], 23, step, 4, zeros);
        }
        // 600 rows make three MC = 256 row blocks, the last partial. One-row
        // stripes close the first block ([255, 256)) and open the second
        // ([256, 257)), [500, 530) straddles the second block's edge, and
        // [530, 531) is one row inside the third. 37 columns end in a
        // partial NR tile.
        let rows = [0, 25, 100, 250, 255, 256, 257, 300, 500, 530, 531, 600];
        let cols = [0, 9, 25, 37];
        for step in [0, 2, 6] {
            tiled_matches_gemm_scatter_per_block(&rows, &cols, 33, step, 7, scattered_zeros(7));
            tiled_matches_gemm_scatter_per_block(&rows, &cols, 33, step, 8, structural_zeros);
        }
        // Evenly cut, as the batched Schur update cuts it: 24 stripes of 25
        // rows ([250, 275) and [500, 525) straddle block edges) against
        // 6-column stripes, 22 columns.
        let rows: Vec<usize> = (0..=24).map(|s| s * 25).collect();
        let cols = [0, 6, 12, 22];
        for step in [0, 2, 6] {
            tiled_matches_gemm_scatter_per_block(&rows, &cols, 32, step, 9, structural_zeros);
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
