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
    gemm_core(alpha, a, b, &[0, m], &[0, n], std::slice::from_mut(c));
}

/// `C += alpha * A * B` where C is a panel *tiled from disjoint blocks*:
/// `blocks[bi * (col_off.len() - 1) + bj]` covers global rows
/// `row_off[bi]..row_off[bi + 1]` and columns `col_off[bj]..col_off[bj + 1]`.
/// The kernel loads and stores its C register tiles directly from the
/// blocks, so callers with block-partitioned targets (the batched Schur
/// update) pay no panel gather or scatter copies — the scatter *is* the
/// tile store. Same bitwise contract and flop accounting as
/// [`gemm_blocked`]; no sliver fallback (tile fragmentation, not shape,
/// decides the cost here, and the arithmetic is identical either way).
pub fn gemm_blocked_tiled(
    alpha: f64,
    a: &Mat,
    b: &Mat,
    row_off: &[usize],
    col_off: &[usize],
    blocks: &mut [Mat],
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
    // A block smaller than its stripe would stall the tile loads on a
    // zero-length fragment; a larger one would be silently half-updated.
    for (bi, rows) in row_off.windows(2).enumerate() {
        for (bj, cols) in col_off.windows(2).enumerate() {
            let blk = &blocks[bi * s_cols + bj];
            assert_eq!(
                (blk.rows(), blk.cols()),
                (rows[1] - rows[0], cols[1] - cols[0]),
                "block ({bi},{bj}) does not have the shape of its stripes"
            );
        }
    }
    gemm_core(alpha, a, b, row_off, col_off, blocks);
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
) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    if k == 0 || alpha == 0.0 || m == 0 || n == 0 {
        return;
    }
    WORKSPACE.with(|ws| {
        let ws = &mut *ws.borrow_mut();
        gemm_core_ws(alpha, a, b, row_off, col_off, blocks, ws);
    });
}

#[allow(clippy::too_many_arguments)]
fn gemm_core_ws(
    alpha: f64,
    a: &Mat,
    b: &Mat,
    row_off: &[usize],
    col_off: &[usize],
    blocks: &mut [Mat],
    ws: &mut Workspace,
) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    // Global index -> (stripe, local index) maps for C tile loads/stores.
    let s_cols = col_off.len() - 1;
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
    // Gathered U panels are riddled with structural zeros that arrive as
    // whole zero rows, so packing compresses them out per tile: `kk` steps
    // whose every real column has a zero scale are dropped (their
    // contributions would all be skipped anyway), and `tile_kks` records
    // the surviving original `kk` indices, ascending — the arithmetic
    // sequence per element is exactly the axpy kernel's.
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
                    for it in 0..m_tiles {
                        let i0 = ic + it * MR;
                        let mr_len = MR.min(m - i0);
                        let a_tile = &ap[it * MR * kc_len..(it + 1) * MR * kc_len];
                        let mut acc = [0.0f64; MR * NR];
                        load_tile(
                            &mut acc, blocks, s_cols, row_map, col_map, i0, j0, mr_len, nr_len,
                        );
                        if dense {
                            micro_tile_dense(a_tile, b_tile, kks, &mut acc);
                        } else {
                            micro_tile(a_tile, b_tile, kks, &mut acc);
                        }
                        store_tile(
                            &acc, blocks, s_cols, row_map, col_map, i0, j0, mr_len, nr_len,
                        );
                    }
                }
            }
        }
    }
    flops::add(2 * performed_madds);
    flops::add_skipped(2 * m as u64 * skipped_pairs);
}

/// The row stripe and local row of a full `MR`-row tile starting at global
/// row `i0` that lies inside one stripe — the common case, which the tile
/// loads and stores copy as one fixed `[f64; MR]` per column — or `None`
/// for a partial or stripe-straddling tile.
#[inline]
fn whole_tile_row(
    blocks: &[Mat],
    s_cols: usize,
    row_map: &[(u32, u32)],
    i0: usize,
    mr_len: usize,
) -> Option<(usize, usize)> {
    let (bi, lr) = row_map[i0];
    let (bi, lr) = (bi as usize, lr as usize);
    (mr_len == MR && lr + MR <= blocks[bi * s_cols].rows()).then_some((bi, lr))
}

/// Load the `mr_len x nr_len` C tile at `(i0, j0)` into the register-tile
/// accumulator, pulling each column's row range from the stripe blocks it
/// crosses. Unloaded accumulator lanes stay zero (padded rows/columns) and
/// are never stored back.
#[allow(clippy::too_many_arguments)]
#[inline]
fn load_tile(
    acc: &mut [f64; MR * NR],
    blocks: &[Mat],
    s_cols: usize,
    row_map: &[(u32, u32)],
    col_map: &[(u32, u32)],
    i0: usize,
    j0: usize,
    mr_len: usize,
    nr_len: usize,
) {
    if let Some((bi, lr)) = whole_tile_row(blocks, s_cols, row_map, i0, mr_len) {
        for (cc, lanes) in acc.chunks_exact_mut(MR).take(nr_len).enumerate() {
            let (bj, lc) = col_map[j0 + cc];
            let col = blocks[bi * s_cols + bj as usize].col(lc as usize);
            let src: &[f64; MR] = col[lr..lr + MR].try_into().unwrap();
            let dst: &mut [f64; MR] = lanes.try_into().unwrap();
            *dst = *src;
        }
        return;
    }
    for cc in 0..nr_len {
        let (bj, lc) = col_map[j0 + cc];
        let mut r = 0usize;
        while r < mr_len {
            let (bi, lr) = row_map[i0 + r];
            let col = blocks[bi as usize * s_cols + bj as usize].col(lc as usize);
            let lr = lr as usize;
            let frag = (mr_len - r).min(col.len() - lr);
            acc[cc * MR + r..cc * MR + r + frag].copy_from_slice(&col[lr..lr + frag]);
            r += frag;
        }
    }
}

/// Inverse of [`load_tile`]: write the accumulator's real lanes back into
/// the stripe blocks.
#[allow(clippy::too_many_arguments)]
#[inline]
fn store_tile(
    acc: &[f64; MR * NR],
    blocks: &mut [Mat],
    s_cols: usize,
    row_map: &[(u32, u32)],
    col_map: &[(u32, u32)],
    i0: usize,
    j0: usize,
    mr_len: usize,
    nr_len: usize,
) {
    if let Some((bi, lr)) = whole_tile_row(blocks, s_cols, row_map, i0, mr_len) {
        for (cc, lanes) in acc.chunks_exact(MR).take(nr_len).enumerate() {
            let (bj, lc) = col_map[j0 + cc];
            let col = blocks[bi * s_cols + bj as usize].col_mut(lc as usize);
            let dst: &mut [f64; MR] = (&mut col[lr..lr + MR]).try_into().unwrap();
            let src: &[f64; MR] = lanes.try_into().unwrap();
            *dst = *src;
        }
        return;
    }
    for cc in 0..nr_len {
        let (bj, lc) = col_map[j0 + cc];
        let mut r = 0usize;
        while r < mr_len {
            let (bi, lr) = row_map[i0 + r];
            let col = blocks[bi as usize * s_cols + bj as usize].col_mut(lc as usize);
            let lr = lr as usize;
            let frag = (mr_len - r).min(col.len() - lr);
            col[lr..lr + frag].copy_from_slice(&acc[cc * MR + r..cc * MR + r + frag]);
            r += frag;
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

    #[test]
    fn tiled_matches_one_axpy_gemm_per_block() {
        // C tiled from ragged stripes (crossing MR/NR tile boundaries): the
        // fused scatter must equal one axpy GEMM per block, bit for bit.
        let (row_off, col_off, k) = ([0usize, 7, 24, 41], [0usize, 3, 22], 19);
        let (m, n) = (41, 22);
        let a = mk_sparse(m, k, 1);
        let b = mk_sparse(k, n, 2);
        let (mut blocks, mut want) = (Vec::new(), Vec::new());
        for rows in row_off.windows(2) {
            for cols in col_off.windows(2) {
                let (h, w) = (rows[1] - rows[0], cols[1] - cols[0]);
                let c = mk(h, w, (rows[0] * 100 + cols[0]) as u64 + 3);
                let mut updated = c.clone();
                let a_blk = a.block(rows[0], 0, h, k);
                let b_blk = b.block(0, cols[0], k, w);
                gemm(-1.0, &a_blk, &b_blk, 1.0, &mut updated);
                blocks.push(c);
                want.push(updated);
            }
        }
        gemm_blocked_tiled(-1.0, &a, &b, &row_off, &col_off, &mut blocks);
        for (i, (got, want)) in blocks.iter().zip(&want).enumerate() {
            let same = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "block {i} differs");
        }
    }

    #[test]
    fn whole_and_straddling_tiles_match_one_axpy_gemm_per_block() {
        // Row stripes [0, 37) and [38, 75) hold whole MR-row tiles (the
        // fixed-array loads and stores); the tile at row 32 straddles the
        // one-row stripe [37, 38), and the last one is partial (the
        // fragment walk). Both must equal one axpy GEMM per block, bit for
        // bit.
        let (row_off, col_off, k) = ([0usize, 37, 38, 75], [0usize, 9, 22], 23);
        let (m, n) = (75, 22);
        let row_map: Vec<(u32, u32)> = row_off
            .windows(2)
            .enumerate()
            .flat_map(|(bi, r)| (0..r[1] - r[0]).map(move |lr| (bi as u32, lr as u32)))
            .collect();
        let stripes = [Mat::zeros(37, 1), Mat::zeros(1, 1), Mat::zeros(37, 1)];
        let whole: Vec<bool> = (0..m)
            .step_by(MR)
            .map(|i0| whole_tile_row(&stripes, 1, &row_map, i0, MR.min(m - i0)).is_some())
            .collect();
        assert_eq!(whole, [true, true, false, true, false]);
        let a = mk_sparse(m, k, 4);
        let b = mk_sparse(k, n, 5);
        let (mut blocks, mut want) = (Vec::new(), Vec::new());
        for rows in row_off.windows(2) {
            for cols in col_off.windows(2) {
                let (h, w) = (rows[1] - rows[0], cols[1] - cols[0]);
                let c = mk(h, w, (rows[0] * 100 + cols[0]) as u64 + 6);
                let mut updated = c.clone();
                let a_blk = a.block(rows[0], 0, h, k);
                let b_blk = b.block(0, cols[0], k, w);
                gemm(-1.0, &a_blk, &b_blk, 1.0, &mut updated);
                blocks.push(c);
                want.push(updated);
            }
        }
        gemm_blocked_tiled(-1.0, &a, &b, &row_off, &col_off, &mut blocks);
        for (i, (got, want)) in blocks.iter().zip(&want).enumerate() {
            let same = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "block {i} differs");
        }
    }

    #[test]
    #[should_panic(expected = "does not have the shape of its stripes")]
    fn tiled_rejects_blocks_that_do_not_match_their_stripes() {
        // Stripe 1 claims a row that belongs to block 0: used to spin
        // forever on a zero-length tile fragment.
        let a = mk(10, 4, 1);
        let b = mk(4, 6, 2);
        let mut blocks = vec![mk(5, 6, 3), mk(5, 6, 4)];
        gemm_blocked_tiled(-1.0, &a, &b, &[0, 4, 10], &[0, 6], &mut blocks);
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
