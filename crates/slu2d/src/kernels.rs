//! The per-supernode factorization kernels of §II-E: diagonal
//! factorization, diagonal broadcast, panel solve, panel broadcast, and the
//! Schur-complement update.

use crate::factor2d::FactorEnv;
use crate::store::{pack_blocks, BlockStore, PackedBlocks, SchurScratch};
use densela::{
    flops, getrf, trsm_left_lower_unit, trsm_left_lower_unit_rows, trsm_right_upper, BlockMap, Mat,
    MatRef, PivotPolicy,
};
use simgrid::{CommClass, FailKind, HostPhase, Payload, Rank};
use std::cmp::Ordering;
use symbolic::Symbolic;

// Message-tag kinds (shifted above the supernode id) come from the
// workspace-wide audited registry.
use simgrid::tags::{T_DIAG_COL, T_DIAG_ROW, T_LPANEL, T_UPANEL};

/// The L and U panel pieces a rank reads after the panel phase of
/// supernode `k`, in place in the buffers the panel broadcasts delivered:
/// `l` holds `(I, L(I,k))` for the block rows `I` of `struct(k)` in this
/// rank's process row, `u` holds `(J, U(k,J))` for the block columns `J` in
/// its process column, both ascending — the sublists of `struct(k)` the
/// Schur kernels range over. A rank off `k`'s rosters has no update of `k`
/// to apply and takes neither step.
#[derive(Default)]
pub struct PanelData {
    pub l: PackedBlocks,
    pub u: PackedBlocks,
}

impl PanelData {
    /// Total words of panel storage held (for Schur-buffer memory
    /// accounting).
    pub fn words(&self) -> u64 {
        self.l.words() + self.u.words()
    }
}

/// Run the panel phase for supernode `k`: kernels 1-4 of §II-E. Exactly the
/// ranks in `rows(k) × cols(k)` of the store's [`symbolic::PanelRosters`]
/// call it, and every broadcast reaches just the rows or columns of its
/// roster — the ranks holding a block that reads it. Returns the panel
/// data this rank needs for its Schur updates, and the number of
/// static-pivot perturbations (nonzero only on the diagonal owner). A
/// block this rank's share should hold but does not, or a received
/// diagonal or panel other than the one this rank reads, is a
/// [`FailKind::Solver`] naming `k`.
///
/// Every broadcast ships one shared buffer: the root packs its blocks once,
/// and every member — the root included — reads them in place.
pub async fn factor_step_panel(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &mut BlockStore,
    sym: &Symbolic,
    k: usize,
) -> Result<(PanelData, usize), FailKind> {
    let rosters = store.rosters();
    let (my_r, my_c) = (env.my_r, env.my_c);
    debug_assert!(
        rosters.rows(k).binary_search(&my_r).is_ok()
            && rosters.cols(k).binary_search(&my_c).is_ok(),
        "({my_r},{my_c}) is off supernode {k}'s panel rosters"
    );
    let (row_holds_l, col_holds_u) = (rosters.row_holds_l(k, my_r), rosters.col_holds_u(k, my_c));
    // Host-time attribution: everything in this step is panel work except
    // the nested collective waits, which the simulator's own CommWait
    // scopes subtract out as self-time of their own phase.
    let _host = rank.host_scope(HostPhase::PanelFactor);
    // This rank's flops only: other ranks may run while it awaits a
    // broadcast.
    let mut meter = flops::Meter::start();
    let (kr, kc) = (k % env.grid.pr, k % env.grid.pc);
    let struct_k = &sym.fill.struct_of[k];
    let missing = |detail: &str| FailKind::Solver {
        phase: "fact".to_string(),
        supernode: Some(k),
        level: None,
        detail: detail.to_string(),
    };
    let mut perturbations = 0usize;

    // 1. Diagonal factorization on the owner.
    let mut diag_data = None;
    if (my_r, my_c) == (kr, kc) {
        let d = store
            .get_mut(k, k)
            .ok_or_else(|| missing("diagonal owner must hold the diagonal block"))?;
        let info = getrf(
            d,
            PivotPolicy::Static {
                threshold: env.opts.pivot_threshold,
            },
        );
        perturbations = info.perturbations;
        // A bare block with no header: its shape is known to every reader.
        diag_data =
            (!struct_k.is_empty()).then(|| Payload::packed(Vec::new(), d.as_slice().to_vec()));
    }

    // 2. Diagonal broadcast. The packed LU of A_kk goes along the owner's
    //    process row to the columns holding U blocks (for the U panel
    //    solves) and down its process column to the rows holding L blocks
    //    (for the L panel solves), one buffer for both. Skipped entirely
    //    when the supernode has no off-diagonal blocks.
    let w = sym.part.width(k);
    let mut diag_lu = None;
    if !struct_k.is_empty() {
        let rosters = store.rosters();
        let read_diag = |buf: Payload| match buf.try_into_packed() {
            Ok(p) if p.meta().is_empty() && p.data().len() == w * w => Ok(p),
            Ok(p) => Err(missing(&format!(
                "diagonal broadcast of {} values with a {}-word header, expected {w}x{w} bare",
                p.data().len(),
                p.meta().len()
            ))),
            Err(e) => Err(missing(&format!("diagonal broadcast: {e}"))),
        };
        if my_r == kr {
            let data = diag_data.clone();
            let bcast =
                rank.bcast_among(&env.row, rosters.cols(k), kc, data, T_DIAG_ROW | k as u64);
            diag_lu = Some(read_diag(meter.excluding(bcast).await)?);
        }
        if my_c == kc {
            let tag = T_DIAG_COL | k as u64;
            let bcast = rank.bcast_among(&env.col, rosters.rows(k), kr, diag_data, tag);
            diag_lu = Some(read_diag(meter.excluding(bcast).await)?);
        }
    }
    let diag_lu = diag_lu.as_deref().map(|p| MatRef::new(w, w, p.data()));

    // 3. Panel solves.
    if row_holds_l && my_c == kc {
        let d = diag_lu.ok_or_else(|| missing("column owners received the diagonal"))?;
        let mine = struct_k.iter().filter(|&&i| i % env.grid.pr == my_r);
        let mut l: Vec<Mat> = mine
            .clone()
            .map(|&i| store.take(i, k))
            .collect::<Option<_>>()
            .ok_or_else(|| missing("panel owner must hold its L block"))?;
        trsm_l_blocks(d, &mut l);
        for (&i, b) in mine.zip(l) {
            store.insert(i, k, b);
        }
    }
    if col_holds_u && my_r == kr {
        let d = diag_lu.ok_or_else(|| missing("row owners received the diagonal"))?;
        let mine = struct_k.iter().filter(|&&j| j % env.grid.pc == my_c);
        let mut u: Vec<Mat> = mine
            .clone()
            .map(|&j| store.take(k, j))
            .collect::<Option<_>>()
            .ok_or_else(|| missing("panel owner must hold its U block"))?;
        trsm_u_blocks(d, &mut u);
        for (&j, b) in mine.zip(u) {
            store.insert(k, j, b);
        }
    }

    // 4. Panel broadcasts: one packed message per row holding L blocks, to
    //    the columns of the roster, and one per column holding U blocks, to
    //    its rows (both deterministic from the symbolic pattern, so every
    //    rank agrees without communication). Each member checks what it
    //    received against the sublist of `struct(k)` it reads.
    let rosters = store.rosters();
    // Kept rows of L(I, k), by I: the columns U(k, I) keeps too.
    let kept = |p: usize| sym.fill.kept(k, p).len();
    let read_panel = |what: &str, payload, expected: &[(usize, usize, usize)]| {
        PackedBlocks::from_payload(payload, expected)
            .map_err(|d| missing(&format!("{what} panel broadcast: {d}")))
    };
    let mut panel = PanelData::default();
    if row_holds_l {
        let mine: Vec<(usize, usize, usize)> = struct_k
            .iter()
            .enumerate()
            .filter(|&(_, &i)| i % env.grid.pr == my_r)
            .map(|(p, &i)| (i, kept(p), w))
            .collect();
        let data = if my_c == kc {
            let items: Vec<(usize, &Mat)> = mine
                .iter()
                .map(|&(i, ..)| store.get(i, k).map(|m| (i, m)))
                .collect::<Option<_>>()
                .ok_or_else(|| missing("panel owner must hold its L block"))?;
            Some(pack_blocks(&items))
        } else {
            None
        };
        let bcast = rank.with_comm_class(CommClass::LPanel, async |rank| {
            let tag = T_LPANEL | k as u64;
            rank.bcast_among(&env.row, rosters.cols(k), kc, data, tag)
                .await
        });
        panel.l = read_panel("L", meter.excluding(bcast).await, &mine)?;
    }
    if col_holds_u {
        let mine: Vec<(usize, usize, usize)> = struct_k
            .iter()
            .enumerate()
            .filter(|&(_, &j)| j % env.grid.pc == my_c)
            .map(|(p, &j)| (j, w, kept(p)))
            .collect();
        let data = if my_r == kr {
            let items: Vec<(usize, &Mat)> = mine
                .iter()
                .map(|&(j, ..)| store.get(k, j).map(|m| (j, m)))
                .collect::<Option<_>>()
                .ok_or_else(|| missing("panel owner must hold its U block"))?;
            Some(pack_blocks(&items))
        } else {
            None
        };
        let bcast = rank.with_comm_class(CommClass::UPanel, async |rank| {
            let tag = T_UPANEL | k as u64;
            rank.bcast_among(&env.col, rosters.rows(k), kr, data, tag)
                .await
        });
        panel.u = read_panel("U", meter.excluding(bcast).await, &mine)?;
    }

    rank.advance_compute(meter.total());
    Ok((panel, perturbations))
}

/// `L(I, k) = A(I, k) U_kk^{-1}` for every block of `blocks`, `lu` holding
/// `U_kk`: one solve over their rows stacked into one panel, so its inner
/// loops run over the kept rows of all of them at once. Rows are
/// independent, so every value is what a solve per block gives.
pub(crate) fn trsm_l_blocks(lu: MatRef<'_>, blocks: &mut [Mat]) {
    if let [b] = blocks {
        return trsm_right_upper(lu, b);
    }
    let w = lu.cols();
    let m: usize = blocks.iter().map(Mat::rows).sum();
    let mut stacked = Mat::zeros(m, w);
    for c in 0..w {
        let mut at = 0;
        for b in blocks.iter() {
            stacked.col_mut(c)[at..at + b.rows()].copy_from_slice(b.col(c));
            at += b.rows();
        }
    }
    trsm_right_upper(lu, &mut stacked);
    for c in 0..w {
        let mut at = 0;
        for b in blocks.iter_mut() {
            let rows = b.rows();
            b.col_mut(c).copy_from_slice(&stacked.col(c)[at..at + rows]);
            at += rows;
        }
    }
}

/// `U(k, J) = L_kk^{-1} A(k, J)` for every block of `blocks`, `lu` holding
/// `L_kk`: one solve over all their columns, copied row by row so the
/// solve's inner loops run along the kept columns of all of them at once.
/// Columns are independent, so every value is what a solve per block gives.
pub(crate) fn trsm_u_blocks(lu: MatRef<'_>, blocks: &mut [Mat]) {
    if let [b] = blocks {
        return trsm_left_lower_unit(lu, b);
    }
    let n: usize = blocks.iter().map(Mat::cols).sum();
    let mut rows = vec![0.0; lu.rows() * n];
    let mut at = 0;
    for b in blocks.iter() {
        for c in 0..b.cols() {
            for (k, &v) in b.col(c).iter().enumerate() {
                rows[k * n + at + c] = v;
            }
        }
        at += b.cols();
    }
    trsm_left_lower_unit_rows(lu, &mut rows, n);
    at = 0;
    for b in blocks.iter_mut() {
        for c in 0..b.cols() {
            for (k, v) in b.col_mut(c).iter_mut().enumerate() {
                *v = rows[k * n + at + c];
            }
        }
        at += b.cols();
    }
}

/// Below this many flops in one rank's share of a supernode's update (kept
/// rows x width x kept columns, times two), the gather/pack overhead of the
/// batched kernel outweighs its register blocking and the per-block loop is
/// faster (`kkt_scale` in the repo benchmark lives almost entirely below it,
/// `nonplanar_schur` almost entirely above; docs/perf.md, "Blocks hold only
/// their structural rows"). Both kernels are bitwise identical, so this is
/// purely a host-performance threshold.
pub(crate) const BATCH_MIN_FLOPS: u64 = 50_000;

/// The Schur-complement update for supernode `k` (§II-E): every rank
/// updates its owned trailing blocks `A(I,J) -= L(I,k) * U(k,J)` for
/// `I, J` in `struct(k)`. Purely local; the block-fill closure property
/// guarantees every target block exists and keeps the rows and columns the
/// update writes, and a store that lacks one ends the update with a
/// [`FailKind::Solver`] naming `k` (phase `fact`), the rank's share of the
/// store then incomplete.
///
/// The kernel is chosen per supernode from the size of this rank's share:
/// below `batch_min_flops` ([`BATCH_MIN_FLOPS`] unless a test forces one
/// kernel: `u64::MAX` always per block, `0` always batched) it runs one
/// [`densela::gemm_scatter`] per block pair, above it gathers the panel
/// pieces and runs one register-blocked GEMM over the whole update.
/// Factors, flop charges, and simulated clocks are bit-identical either way
/// (see docs/perf.md); `scratch` is the gather arena, reused across the
/// supernodes of one node list.
pub fn factor_step_schur(
    rank: &mut Rank,
    store: &mut BlockStore,
    sym: &Symbolic,
    k: usize,
    panels: &PanelData,
    scratch: &mut SchurScratch,
    batch_min_flops: u64,
) -> Result<(), FailKind> {
    let f0 = flops::get();
    let (l_ids, u_ids) = (
        panels.l.iter().map(|(i, _)| i),
        panels.u.iter().map(|(j, _)| j),
    );
    scratch
        .maps
        .build(sym, k, l_ids, u_ids)
        .map_err(|(i, j)| missing_target(k, i, j))?;
    // Size this rank's share: summed kept rows / columns both kernels visit.
    let m_total: usize = panels.l.iter().map(|(_, m)| m.rows()).sum();
    let n_total: usize = panels.u.iter().map(|(_, m)| m.cols()).sum();
    let dense_flops = 2 * (m_total * sym.part.width(k) * n_total) as u64;
    // `.max(1)`: an empty share is the per-block loop's no-op even when a
    // test forces the threshold to zero.
    if dense_flops < batch_min_flops.max(1) {
        schur_per_block(rank, store, k, panels, &scratch.maps)?;
    } else {
        schur_batched(rank, store, sym, k, panels, scratch)?;
    }
    let df = flops::get() - f0;
    if df > 0 {
        rank.metric_inc("schur.updates", 1);
        rank.metric_inc("schur.flops", df);
    } else {
        rank.metric_inc("schur.zero_flop_updates", 1);
    }
    rank.advance_compute(df);
    Ok(())
}

/// A target block of `k`'s update that the store does not hold, or that
/// does not keep a row or column the update writes.
fn missing_target(k: usize, i: usize, j: usize) -> FailKind {
    FailKind::Solver {
        phase: "fact".to_string(),
        supernode: Some(k),
        level: None,
        detail: format!("Schur target block ({i},{j}) missing — fill closure violated"),
    }
}

/// Where supernode `k`'s update lands in each of its target blocks: for
/// every pair of an `L(I, k)` and a `U(k, J)` piece, the target rows the
/// kept rows of `L(I, k)` take and the target columns the kept columns of
/// `U(k, J)` take. A diagonal or `U(I, J)` target keeps every row of `I`, so
/// the rows are the kept rows themselves; an `L(I, J)` target keeps its own
/// subset, so they are their positions there — and likewise for columns.
/// Rebuilt per supernode into buffers reused across supernodes.
#[derive(Debug, Default)]
pub(crate) struct UpdateMaps {
    idx: Vec<u32>,
    /// Per pair, row-major over (L piece, U piece): `[row start, row end,
    /// column start, column end]` in `idx`.
    pairs: Vec<[u32; 4]>,
    l: Vec<Piece>,
    u: Vec<Piece>,
}

/// A panel piece of one update: its supernode, its position in
/// `struct(k)`, and where its own kept rows sit in [`UpdateMaps::idx`].
#[derive(Clone, Copy, Debug)]
struct Piece {
    id: usize,
    pos: usize,
    own: [u32; 2],
}

impl UpdateMaps {
    /// The maps of `k`'s update of the pieces `L(i, k)`, `i` in `l_ids`, and
    /// `U(k, j)`, `j` in `u_ids` (both ascending sublists of `struct(k)`).
    /// `Err((i, j))` names a target that is not in the pattern or does not
    /// keep a row or column the update writes.
    pub(crate) fn build(
        &mut self,
        sym: &Symbolic,
        k: usize,
        l_ids: impl IntoIterator<Item = usize>,
        u_ids: impl IntoIterator<Item = usize>,
    ) -> Result<(), (usize, usize)> {
        let fill = &sym.fill;
        let struct_k = &fill.struct_of[k];
        let Self { idx, pairs, l, u } = self;
        idx.clear();
        pairs.clear();
        let mut own = |ids: &mut dyn Iterator<Item = usize>, into: &mut Vec<Piece>| {
            into.clear();
            let mut pos = 0;
            for id in ids {
                pos += struct_k[pos..].partition_point(|&s| s < id);
                debug_assert_eq!(struct_k.get(pos), Some(&id), "a piece of struct({k})");
                let start = idx.len() as u32;
                fill.kept(k, pos).extend_rows(idx);
                into.push(Piece {
                    id,
                    pos,
                    own: [start, idx.len() as u32],
                });
            }
        };
        own(&mut l_ids.into_iter(), l);
        own(&mut u_ids.into_iter(), u);
        for lp in l.iter() {
            for up in u.iter() {
                let (i, j) = (lp.id, up.id);
                // The compressed side of the target: L's rows or U's columns.
                let (hi, lo, from) = match i.cmp(&j) {
                    Ordering::Equal => {
                        pairs.push([lp.own[0], lp.own[1], up.own[0], up.own[1]]);
                        continue;
                    }
                    Ordering::Greater => (i, j, lp.pos),
                    Ordering::Less => (j, i, up.pos),
                };
                let start = idx.len() as u32;
                let target = fill.kept_rows(hi, lo).ok_or((i, j))?;
                if !fill.kept(k, from).extend_positions_in(target, idx) {
                    return Err((i, j));
                }
                let at = [start, idx.len() as u32];
                pairs.push(if i > j {
                    [at[0], at[1], up.own[0], up.own[1]]
                } else {
                    [lp.own[0], lp.own[1], at[0], at[1]]
                });
            }
        }
        Ok(())
    }

    /// The target rows and columns of pair `p` (row-major over the pieces).
    pub(crate) fn pair(&self, p: usize) -> BlockMap<'_> {
        let [r0, r1, c0, c1] = self.pairs[p];
        BlockMap {
            rows: &self.idx[r0 as usize..r1 as usize],
            cols: &self.idx[c0 as usize..c1 as usize],
        }
    }
}

/// One [`densela::gemm_scatter`] per owned `(I, J)` block pair — the same
/// loop the sequential reference [`crate::seq::seq_factor`] runs — reading
/// the panel blocks in place.
fn schur_per_block(
    rank: &mut Rank,
    store: &mut BlockStore,
    k: usize,
    panels: &PanelData,
    maps: &UpdateMaps,
) -> Result<(), FailKind> {
    let _host = rank.host_scope(HostPhase::Gemm);
    let nu = panels.u.len();
    for (b, (j, u)) in panels.u.iter().enumerate() {
        for (a, (i, l)) in panels.l.iter().enumerate() {
            let target = store.get_mut(i, j).ok_or_else(|| missing_target(k, i, j))?;
            let map = maps.pair(a * nu + b);
            densela::gemm_scatter(-1.0, l, u, target, map.rows, map.cols);
        }
    }
    Ok(())
}

/// Running sums of `extents`, from 0 to their total.
fn panel_offsets(extents: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut off = vec![0usize];
    for e in extents {
        off.push(off[off.len() - 1] + e);
    }
    off
}

/// Gather-GEMM-scatter: instead of one tiny GEMM per `(I, J)` block pair,
/// gather this rank's owned L-blocks and U-panel pieces into two contiguous
/// column-major panels and run ONE register-blocked GEMM over the whole
/// trailing update — the supernodal-panel aggregation of the SuperLU_DIST
/// lineage. The scatter is fused into the kernel
/// ([`densela::gemm_blocked_tiled`] gathers each C staging panel from the
/// target blocks and scatters it back, at the rows and columns the
/// [`UpdateMaps`] name), so no caller-side target panel exists.
/// Bit-identical to [`schur_per_block`]: every target element receives the
/// same contributions in the same ascending-`k` order with the same
/// zero-scale skips ([`densela::gemm_blocked`]'s contract), and the flop
/// count matches, so simulated clocks and traces are unchanged.
fn schur_batched(
    rank: &mut Rank,
    store: &mut BlockStore,
    sym: &Symbolic,
    k: usize,
    panels: &PanelData,
    scratch: &mut SchurScratch,
) -> Result<(), FailKind> {
    rank.metric_inc("schur.batched_supernodes", 1);
    let gather_scope = rank.host_scope(HostPhase::Gather);
    let w = sym.part.width(k);
    // Panel offsets of the participating block rows/columns (ascending
    // supernode order), closed by the panel's total extent.
    let row_off = panel_offsets(panels.l.iter().map(|(_, m)| m.rows()));
    let col_off = panel_offsets(panels.u.iter().map(|(_, m)| m.cols()));
    let (m_total, n_total) = (row_off[panels.l.len()], col_off[panels.u.len()]);
    scratch.shape(rank, m_total, w, n_total);
    // Gather L: stack each owned block's rows at its panel offset.
    for ((_, blk), ri) in panels.l.iter().zip(&row_off) {
        let wi = blk.rows();
        for c in 0..w {
            scratch.l.col_mut(c)[*ri..ri + wi].copy_from_slice(&blk.col(c)[..wi]);
        }
    }
    // Gather U: concatenate the owned pieces column-wise.
    for ((_, blk), cj) in panels.u.iter().zip(&col_off) {
        for c in 0..blk.cols() {
            scratch.u.col_mut(cj + c).copy_from_slice(blk.col(c));
        }
    }
    // Pull the target blocks out of the store (a pointer move each) so
    // the tiled GEMM reads and writes them in place: the result scatter
    // happens inside the kernel, through its per-block staging panels, with
    // no caller-side target-panel copy in either direction.
    let pairs = panels.l.len() * panels.u.len();
    let mut targets: Vec<Mat> = Vec::with_capacity(pairs);
    for (i, _) in panels.l.iter() {
        for (j, _) in panels.u.iter() {
            targets.push(store.take(i, j).ok_or_else(|| missing_target(k, i, j))?);
        }
    }
    let maps: Vec<BlockMap> = (0..pairs).map(|p| scratch.maps.pair(p)).collect();
    drop(gather_scope);
    let gemm_scope = rank.host_scope(HostPhase::Gemm);
    densela::gemm_blocked_tiled(
        -1.0,
        &scratch.l,
        &scratch.u,
        &row_off,
        &col_off,
        &mut targets,
        &maps,
    );
    drop(gemm_scope);
    let _scatter_scope = rank.host_scope(HostPhase::Scatter);
    let mut it = targets.into_iter();
    for (i, _) in panels.l.iter() {
        for (j, _) in panels.u.iter() {
            store.insert(i, j, it.next().expect("one target per block pair"));
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

    /// On a 1 x 2 grid rank 0 reads supernode `k`'s diagonal from rank 1,
    /// its owner. Under the event backend rank 0 parks inside its panel
    /// step's metered span while rank 1 factors the diagonal on the same
    /// thread: rank 0 must be charged its own flops only, so its clock is
    /// the threaded run's to the bit.
    #[test]
    fn a_panel_step_charges_only_its_own_flops_while_a_peer_runs() {
        let prep = Prepared::new(
            grid2d_5pt(12, 12, 0.1, 3),
            Geometry::Grid2d { nx: 12, ny: 12 },
            8,
            8,
        );
        let grid3 = Grid3d::new(1, 2, 1);
        let sym = &prep.sym;
        // Owned by column 1, with a U block in column 0 for rank 0 to solve.
        let k = (0..sym.nsup())
            .find(|&k| k % 2 == 1 && sym.fill.struct_of[k].iter().any(|&j| j % 2 == 0))
            .expect("a supernode of column 1 with a U block in column 0");
        let run = |backend| {
            let machine = Machine::new(2, TimeModel::edison_like()).with_backend(backend);
            machine.run_tasks(async |rank| {
                let comms = build_grid_comms(rank, &grid3);
                let (my_r, my_c, _) = comms.coords;
                let env = FactorEnv {
                    grid: grid3.grid2d,
                    my_r,
                    my_c,
                    row: comms.row,
                    col: comms.col,
                    opts: FactorOpts::default(),
                };
                let mut store = BlockStore::build(
                    &prep.pa,
                    sym,
                    &env.grid,
                    my_r,
                    my_c,
                    &|_| true,
                    InitValues::FromMatrix,
                );
                factor_step_panel(rank, &env, &mut store, sym, k)
                    .await
                    .expect("the panel step completes");
            })
        };
        let (threaded, event) = (run(Backend::Threaded), run(Backend::Event));
        let (reader, owner) = (&event.reports[0], &event.reports[1]);
        assert!(reader.flops > 0 && owner.flops > 0, "both ranks compute");
        for (t, e) in threaded.reports.iter().zip(&event.reports) {
            assert_eq!(t.flops, e.flops);
            assert_eq!(t.clock.to_bits(), e.clock.to_bits());
        }
    }

    /// What the diagonal owner sends its row in place of a sound panel
    /// step.
    #[derive(Clone, Copy, Debug)]
    enum Forged {
        ShortL,
        LongL,
        WrongIdL,
        WrongKindL,
        ShortDiag,
    }

    /// On a 1 x 2 grid the diagonal owner of `k` broadcasts a malformed
    /// diagonal or L panel to the other column, which reads `k`'s panel:
    /// the reader fails with a structured error naming `k` — it used to
    /// panic on a short panel and accept a long one — on both backends.
    #[test]
    fn a_malformed_panel_is_a_structured_failure_naming_the_supernode() {
        let prep = Prepared::new(
            grid2d_5pt(12, 12, 0.1, 3),
            Geometry::Grid2d { nx: 12, ny: 12 },
            8,
            8,
        );
        let grid3 = Grid3d::new(1, 2, 1);
        let sym = &prep.sym;
        // The reader must be on the row roster for the diagonal, so it
        // holds a U block of `k`.
        let k = (0..sym.nsup())
            .find(|&k| sym.fill.struct_of[k].iter().any(|&j| j % 2 != k % 2))
            .expect("a supernode with a U block in the other column");
        let (kc, reader) = (k % 2, 1 - k % 2);
        for forged in [
            Forged::ShortL,
            Forged::LongL,
            Forged::WrongIdL,
            Forged::WrongKindL,
            Forged::ShortDiag,
        ] {
            for backend in [Backend::Threaded, Backend::Event] {
                let machine = Machine::new(2, TimeModel::zero()).with_backend(backend);
                let (pa, sym) = (Arc::clone(&prep.pa), Arc::clone(&prep.sym));
                let failure = machine
                    .try_run_tasks(async move |rank| {
                        let comms = build_grid_comms(rank, &grid3);
                        let (my_r, my_c, _) = comms.coords;
                        let env = FactorEnv {
                            grid: grid3.grid2d,
                            my_r,
                            my_c,
                            row: comms.row,
                            col: comms.col,
                            opts: FactorOpts::default(),
                        };
                        let mut store = BlockStore::build(
                            &pa,
                            &sym,
                            &env.grid,
                            my_r,
                            my_c,
                            &|_| true,
                            InitValues::FromMatrix,
                        );
                        if my_c == reader {
                            if let Err(kind) =
                                factor_step_panel(rank, &env, &mut store, &sym, k).await
                            {
                                rank.fail(kind);
                            }
                            return;
                        }
                        let w = sym.part.width(k);
                        let cols = store.rosters().cols(k);
                        let mut diag = Mat::identity(w).into_vec();
                        if let Forged::ShortDiag = forged {
                            diag.pop();
                        }
                        let diag = Payload::packed(Vec::new(), diag);
                        let tag = T_DIAG_ROW | k as u64;
                        rank.bcast_among(&env.row, cols, kc, Some(diag), tag).await;
                        let l_ids = &sym.fill.struct_of[k];
                        let mut meta = vec![l_ids.len()];
                        for &i in l_ids {
                            meta.extend([i, sym.part.width(i), w]);
                        }
                        let values: usize = l_ids.iter().map(|&i| sym.part.width(i) * w).sum();
                        let panel = match forged {
                            Forged::ShortL => Payload::packed(meta, vec![1.0; values - 1]),
                            Forged::LongL => Payload::packed(meta, vec![1.0; values + 1]),
                            Forged::WrongIdL => {
                                meta[1] = k;
                                Payload::packed(meta, vec![1.0; values])
                            }
                            Forged::WrongKindL => Payload::F64s(vec![1.0; values]),
                            Forged::ShortDiag => return,
                        };
                        rank.with_comm_class(CommClass::LPanel, async |rank| {
                            let tag = T_LPANEL | k as u64;
                            rank.bcast_among(&env.row, cols, kc, Some(panel), tag).await
                        })
                        .await;
                    })
                    .expect_err("the reader cannot accept the panel");
                let primary = failure.primary();
                let ctx = format!("{forged:?} on {backend}");
                assert_eq!(primary.rank, grid3.rank_of(0, reader, 0), "{ctx}");
                let FailKind::Solver {
                    phase,
                    supernode,
                    detail,
                    ..
                } = &primary.kind
                else {
                    panic!("{ctx}: {}", primary.kind)
                };
                assert_eq!((phase.as_str(), *supernode), ("fact", Some(k)), "{ctx}");
                let what = match forged {
                    Forged::ShortDiag => "diagonal broadcast",
                    _ => "L panel broadcast",
                };
                assert!(detail.contains(what), "{ctx}: {detail}");
            }
        }
    }
}
