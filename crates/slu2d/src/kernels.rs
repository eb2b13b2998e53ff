//! The per-supernode factorization kernels of §II-E: diagonal
//! factorization, diagonal broadcast, panel solve, panel broadcast, and the
//! Schur-complement update.

use crate::factor2d::FactorEnv;
use crate::store::{pack_blocks, BlockStore, PackedBlocks, SchurScratch};
use densela::{flops, getrf, trsm_left_lower_unit, trsm_right_upper, Mat, MatRef, PivotPolicy};
use simgrid::{CommClass, FailKind, HostPhase, Payload, Rank};
use symbolic::Symbolic;

// Message-tag kinds (shifted above the supernode id) come from the
// workspace-wide audited registry.
use simgrid::tags::{T_DIAG_COL, T_DIAG_ROW, T_LPANEL, T_UPANEL};

/// The L and U panel pieces a rank reads after the panel phase of
/// supernode `k`, in place in the buffers the panel broadcasts delivered:
/// `l` holds `(I, L(I,k))` for the block rows `I` of `struct(k)` in this
/// rank's process row, `u` holds `(J, U(k,J))` for the block columns `J` in
/// its process column, both ascending — the sublists of `struct(k)` the
/// Schur kernels range over. Both are empty on a rank off `k`'s rosters,
/// which has no update of `k` to apply.
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

/// Run the panel phase for supernode `k`: kernels 1-4 of §II-E. Every rank
/// of the layer calls it with the same `k`; only the ranks in
/// `rows(k) × cols(k)` of the store's [`symbolic::PanelRosters`] take part,
/// and every broadcast reaches just the rows or columns of its roster — the
/// ranks holding a block that reads it. Returns the panel data this rank
/// needs for its Schur updates, and the number of static-pivot
/// perturbations (nonzero only on the diagonal owner). A block this rank's
/// share should hold but does not, or a received diagonal or panel other
/// than the one this rank reads, is a [`FailKind::Solver`] naming `k`.
///
/// Every broadcast ships one shared buffer: the root packs its blocks once,
/// and every member — the root included — reads them in place.
pub fn factor_step_panel(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &mut BlockStore,
    sym: &Symbolic,
    k: usize,
) -> Result<(PanelData, usize), FailKind> {
    let no_panel = PanelData::default();
    let rosters = store.rosters();
    let (my_r, my_c) = (env.my_r, env.my_c);
    let in_rows = rosters.rows(k).binary_search(&my_r).is_ok();
    if !in_rows || rosters.cols(k).binary_search(&my_c).is_err() {
        return Ok((no_panel, 0));
    }
    let (row_holds_l, col_holds_u) = (rosters.row_holds_l(k, my_r), rosters.col_holds_u(k, my_c));
    // Host-time attribution: everything in this step is panel work except
    // the nested collective waits, which the simulator's own CommWait
    // scopes subtract out as self-time of their own phase.
    let _host = rank.host_scope_sn(HostPhase::PanelFactor, k);
    let f0 = flops::get();
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
            let buf = rank.bcast_among(&env.row, rosters.cols(k), kc, data, T_DIAG_ROW | k as u64);
            diag_lu = Some(read_diag(buf)?);
        }
        if my_c == kc {
            let buf = rank.bcast_among(
                &env.col,
                rosters.rows(k),
                kr,
                diag_data,
                T_DIAG_COL | k as u64,
            );
            diag_lu = Some(read_diag(buf)?);
        }
    }
    let diag_lu = diag_lu.as_deref().map(|p| MatRef::new(w, w, p.data()));

    // 3. Panel solves.
    if row_holds_l && my_c == kc {
        let d = diag_lu.ok_or_else(|| missing("column owners received the diagonal"))?;
        for &i in struct_k {
            if i % env.grid.pr == my_r {
                let b = store
                    .get_mut(i, k)
                    .ok_or_else(|| missing("panel owner must hold its L block"))?;
                trsm_right_upper(d, b); // L(I,k) = A(I,k) * U_kk^{-1}
            }
        }
    }
    if col_holds_u && my_r == kr {
        let d = diag_lu.ok_or_else(|| missing("row owners received the diagonal"))?;
        for &j in struct_k {
            if j % env.grid.pc == my_c {
                let b = store
                    .get_mut(k, j)
                    .ok_or_else(|| missing("panel owner must hold its U block"))?;
                trsm_left_lower_unit(d, b); // U(k,J) = L_kk^{-1} A(k,J)
            }
        }
    }

    // 4. Panel broadcasts: one packed message per row holding L blocks, to
    //    the columns of the roster, and one per column holding U blocks, to
    //    its rows (both deterministic from the symbolic pattern, so every
    //    rank agrees without communication). Each member checks what it
    //    received against the sublist of `struct(k)` it reads.
    let rosters = store.rosters();
    let width = |s: usize| sym.part.width(s);
    let read_panel = |what: &str, payload, expected: &[(usize, usize, usize)]| {
        PackedBlocks::from_payload(payload, expected)
            .map_err(|d| missing(&format!("{what} panel broadcast: {d}")))
    };
    let mut panel = no_panel;
    if row_holds_l {
        let mine: Vec<(usize, usize, usize)> = struct_k
            .iter()
            .filter(|&&i| i % env.grid.pr == my_r)
            .map(|&i| (i, width(i), w))
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
        let payload = rank.with_comm_class(CommClass::LPanel, |rank| {
            rank.bcast_among(&env.row, rosters.cols(k), kc, data, T_LPANEL | k as u64)
        });
        panel.l = read_panel("L", payload, &mine)?;
    }
    if col_holds_u {
        let mine: Vec<(usize, usize, usize)> = struct_k
            .iter()
            .filter(|&&j| j % env.grid.pc == my_c)
            .map(|&j| (j, w, width(j)))
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
        let payload = rank.with_comm_class(CommClass::UPanel, |rank| {
            rank.bcast_among(&env.col, rosters.rows(k), kr, data, T_UPANEL | k as u64)
        });
        panel.u = read_panel("U", payload, &mine)?;
    }

    rank.advance_compute(flops::get() - f0);
    Ok((panel, perturbations))
}

/// Below this many (estimated dense) flops in one rank's share of a
/// supernode's update, the gather/pack overhead of the batched kernel
/// outweighs its register blocking and the per-block loop is faster
/// (`kkt_scale` in the repo benchmark lives entirely below it,
/// `nonplanar_schur` mostly above). Both kernels are bitwise identical, so
/// this is purely a host-performance threshold.
pub(crate) const BATCH_MIN_FLOPS: u64 = 1_000_000;

/// The Schur-complement update for supernode `k` (§II-E): every rank
/// updates its owned trailing blocks `A(I,J) -= L(I,k) * U(k,J)` for
/// `I, J` in `struct(k)`. Purely local; the block-fill closure property
/// guarantees every target block exists, and a store that lacks one ends
/// the update with a [`FailKind::Solver`] naming `k` (phase `fact`), the
/// rank's share of the store then incomplete.
///
/// The kernel is chosen per supernode from the size of this rank's share:
/// small updates run one `densela::gemm` per block pair, large ones gather
/// the panel pieces and run one register-blocked GEMM over the whole
/// update. Factors, flop charges, and simulated clocks are bit-identical
/// either way (see docs/perf.md); `scratch` is the gather arena, reused
/// across the supernodes of one node list.
pub fn factor_step_schur(
    rank: &mut Rank,
    store: &mut BlockStore,
    sym: &Symbolic,
    k: usize,
    panels: &PanelData,
    scratch: &mut SchurScratch,
) -> Result<(), FailKind> {
    factor_step_schur_at(rank, store, sym, k, panels, scratch, BATCH_MIN_FLOPS)
}

/// [`factor_step_schur`] with the dispatch threshold as an argument — the
/// crate-private seam the equivalence tests use to force one kernel for
/// every supernode (`u64::MAX`: always per-block, `0`: always batched).
pub(crate) fn factor_step_schur_at(
    rank: &mut Rank,
    store: &mut BlockStore,
    sym: &Symbolic,
    k: usize,
    panels: &PanelData,
    scratch: &mut SchurScratch,
    batch_min_flops: u64,
) -> Result<(), FailKind> {
    let f0 = flops::get();
    // Size this rank's share: summed widths of the block rows / columns
    // both kernels visit.
    let m_total: usize = panels.l.iter().map(|(_, m)| m.rows()).sum();
    let n_total: usize = panels.u.iter().map(|(_, m)| m.cols()).sum();
    let dense_flops = 2 * (m_total * sym.part.width(k) * n_total) as u64;
    // `.max(1)`: an empty share is the per-block loop's no-op even when a
    // test forces the threshold to zero.
    if dense_flops < batch_min_flops.max(1) {
        schur_per_block(rank, store, k, panels)?;
    } else {
        schur_batched(rank, store, sym, k, panels, scratch)?;
    }
    let df = flops::get() - f0;
    rank.metric_observe("gemm.flops_per_supernode", df as f64);
    rank.advance_compute(df);
    Ok(())
}

/// A target block of `k`'s update that the store does not hold.
fn missing_target(k: usize, i: usize, j: usize) -> FailKind {
    FailKind::Solver {
        phase: "fact".to_string(),
        supernode: Some(k),
        level: None,
        detail: format!("Schur target block ({i},{j}) missing — fill closure violated"),
    }
}

/// One `densela::gemm` per owned `(I, J)` block pair — the same loop the
/// sequential reference [`crate::seq::seq_factor`] runs — reading the panel
/// blocks in place.
fn schur_per_block(
    rank: &mut Rank,
    store: &mut BlockStore,
    k: usize,
    panels: &PanelData,
) -> Result<(), FailKind> {
    let _host = rank.host_scope_sn(HostPhase::Gemm, k);
    for (j, u) in panels.u.iter() {
        for (i, l) in panels.l.iter() {
            let target = store.get_mut(i, j).ok_or_else(|| missing_target(k, i, j))?;
            densela::gemm(-1.0, l, u, 1.0, target);
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
/// trailing update — the
/// supernodal-panel aggregation of the SuperLU_DIST lineage. The scatter is
/// fused into the kernel ([`densela::gemm_blocked_tiled`] stores its C
/// register tiles straight into the target blocks), so the targets are
/// never copied through a scratch panel. Bit-identical to
/// [`schur_per_block`]: every target element receives the same
/// contributions in the same ascending-`k` order with the same zero-scale
/// skips ([`densela::gemm_blocked`]'s contract), and the flop count
/// matches, so simulated clocks and traces are unchanged.
fn schur_batched(
    rank: &mut Rank,
    store: &mut BlockStore,
    sym: &Symbolic,
    k: usize,
    panels: &PanelData,
    scratch: &mut SchurScratch,
) -> Result<(), FailKind> {
    rank.metric_inc("schur.batched_supernodes", 1);
    let gather_scope = rank.host_scope_sn(HostPhase::Gather, k);
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
    // happens inside the kernel's C-tile stores, with no target-panel copy
    // in either direction.
    let mut targets: Vec<Mat> = Vec::with_capacity(panels.l.len() * panels.u.len());
    for (i, _) in panels.l.iter() {
        for (j, _) in panels.u.iter() {
            targets.push(store.take(i, j).ok_or_else(|| missing_target(k, i, j))?);
        }
    }
    drop(gather_scope);
    let gemm_scope = rank.host_scope_sn(HostPhase::Gemm, k);
    densela::gemm_blocked_tiled(
        -1.0,
        &scratch.l,
        &scratch.u,
        &row_off,
        &col_off,
        &mut targets,
    );
    drop(gemm_scope);
    let _scatter_scope = rank.host_scope_sn(HostPhase::Scatter, k);
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
                    .try_run(move |rank| {
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
                            if let Err(kind) = factor_step_panel(rank, &env, &mut store, &sym, k) {
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
                        rank.bcast_among(&env.row, cols, kc, Some(diag), T_DIAG_ROW | k as u64);
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
                        rank.with_comm_class(CommClass::LPanel, |rank| {
                            rank.bcast_among(&env.row, cols, kc, Some(panel), T_LPANEL | k as u64)
                        });
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
