//! The per-supernode factorization kernels of §II-E: diagonal
//! factorization, diagonal broadcast, panel solve, panel broadcast, and the
//! Schur-complement update.

use crate::factor2d::FactorEnv;
use crate::store::{pack_blocks, unpack_blocks, BlockStore, SchurScratch};
use densela::{flops, getrf, trsm_left_lower_unit, trsm_right_upper, Mat, PivotPolicy};
use simgrid::{CommClass, HostPhase, Payload, Rank};
use symbolic::Symbolic;

// Message-tag kinds (shifted above the supernode id) come from the
// workspace-wide audited registry.
use simgrid::tags::{T_DIAG_COL, T_DIAG_ROW, T_LPANEL, T_UPANEL};

/// The L and U panel pieces a rank holds after the panel phase of
/// supernode `k`, as the panel broadcasts delivered them: `l` holds
/// `(I, L(I,k))` for the block rows `I` of `struct(k)` in this rank's process
/// row, `u` holds `(J, U(k,J))` for the block columns `J` in its process
/// column, both ascending — the sublists of `struct(k)` the Schur kernels
/// range over.
pub struct PanelData {
    pub l: Vec<(usize, Mat)>,
    pub u: Vec<(usize, Mat)>,
}

impl PanelData {
    /// Total words of panel storage held (for Schur-buffer memory
    /// accounting).
    pub fn words(&self) -> u64 {
        self.l
            .iter()
            .chain(&self.u)
            .map(|(_, m)| (m.rows() * m.cols()) as u64)
            .sum()
    }
}

/// Run the panel phase for supernode `k`: kernels 1-4 of §II-E. Collective
/// across the 2D grid (every rank of the layer must call it with the same
/// `k`). Returns the panel data this rank needs for its Schur updates, and
/// the number of static-pivot perturbations (nonzero only on the diagonal
/// owner).
pub fn factor_step_panel(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &mut BlockStore,
    sym: &Symbolic,
    k: usize,
) -> (PanelData, usize) {
    // Host-time attribution: everything in this step is panel work except
    // the nested collective waits, which the simulator's own CommWait
    // scopes subtract out as self-time of their own phase.
    let _host = rank.host_scope_sn(HostPhase::PanelFactor, k);
    let f0 = flops::get();
    let grid = env.grid;
    let (kr, kc) = (k % grid.pr, k % grid.pc);
    let struct_k = &sym.fill.struct_of[k];
    let mut perturbations = 0usize;

    // 1. Diagonal factorization on the owner.
    if (env.my_r, env.my_c) == (kr, kc) {
        let d = store
            .get_mut(k, k)
            .expect("diagonal owner must hold the diagonal block");
        let info = getrf(
            d,
            PivotPolicy::Static {
                threshold: env.opts.pivot_threshold,
            },
        );
        perturbations = info.perturbations;
    }

    // 2. Diagonal broadcast. The packed LU of A_kk goes across the owner's
    //    process row (for the U panel solves) and process column (for the L
    //    panel solves). Skipped entirely when the supernode has no
    //    off-diagonal blocks.
    let mut diag_lu: Option<Mat> = None;
    if !struct_k.is_empty() {
        if env.my_r == kr {
            let data = if env.my_c == kc {
                Some(Payload::F64s(store.get(k, k).unwrap().as_slice().to_vec()))
            } else {
                None
            };
            let buf = rank
                .bcast(&env.row, kc, data, T_DIAG_ROW | k as u64)
                .into_f64s();
            let w = sym.part.width(k);
            diag_lu = Some(Mat::from_vec(w, w, buf));
        }
        if env.my_c == kc {
            let data = if env.my_r == kr {
                Some(Payload::F64s(store.get(k, k).unwrap().as_slice().to_vec()))
            } else {
                None
            };
            let buf = rank
                .bcast(&env.col, kr, data, T_DIAG_COL | k as u64)
                .into_f64s();
            let w = sym.part.width(k);
            diag_lu = Some(Mat::from_vec(w, w, buf));
        }
    }

    // 3. Panel solves.
    if !struct_k.is_empty() && env.my_c == kc {
        let d = diag_lu
            .as_ref()
            .expect("column owners received the diagonal");
        for &i in struct_k {
            if i % grid.pr == env.my_r {
                let b = store
                    .get_mut(i, k)
                    .expect("panel owner must hold its L block");
                trsm_right_upper(d, b); // L(I,k) = A(I,k) * U_kk^{-1}
            }
        }
    }
    if !struct_k.is_empty() && env.my_r == kr {
        let d = diag_lu.as_ref().expect("row owners received the diagonal");
        for &j in struct_k {
            if j % grid.pc == env.my_c {
                let b = store
                    .get_mut(k, j)
                    .expect("panel owner must hold its U block");
                trsm_left_lower_unit(d, b); // U(k,J) = L_kk^{-1} A(k,J)
            }
        }
    }

    // 4. Panel broadcasts: one packed message per participating row/column.
    //    My process row participates in the L broadcast iff some block row
    //    of the panel maps to it (deterministic from the symbolic pattern,
    //    so every rank agrees without communication).
    let mut l = Vec::new();
    let row_has_l = struct_k.iter().any(|&i| i % grid.pr == env.my_r);
    if row_has_l {
        let data = if env.my_c == kc {
            let items: Vec<(usize, &Mat)> = struct_k
                .iter()
                .filter(|&&i| i % grid.pr == env.my_r)
                .map(|&i| (i, store.get(i, k).expect("owned L block")))
                .collect();
            Some(pack_blocks(&items))
        } else {
            None
        };
        let payload = rank.with_comm_class(CommClass::LPanel, |rank| {
            rank.bcast(&env.row, kc, data, T_LPANEL | k as u64)
        });
        l = unpack_blocks(payload);
    }
    let mut u = Vec::new();
    let col_has_u = struct_k.iter().any(|&j| j % grid.pc == env.my_c);
    if col_has_u {
        let data = if env.my_r == kr {
            let items: Vec<(usize, &Mat)> = struct_k
                .iter()
                .filter(|&&j| j % grid.pc == env.my_c)
                .map(|&j| (j, store.get(k, j).expect("owned U block")))
                .collect();
            Some(pack_blocks(&items))
        } else {
            None
        };
        let payload = rank.with_comm_class(CommClass::UPanel, |rank| {
            rank.bcast(&env.col, kr, data, T_UPANEL | k as u64)
        });
        u = unpack_blocks(payload);
    }

    rank.advance_compute(flops::get() - f0);
    (PanelData { l, u }, perturbations)
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
/// guarantees every target block exists.
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
) {
    factor_step_schur_at(rank, store, sym, k, panels, scratch, BATCH_MIN_FLOPS);
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
) {
    let f0 = flops::get();
    // Size this rank's share: summed widths of the block rows / columns
    // both kernels visit.
    let m_total: usize = panels.l.iter().map(|(_, m)| m.rows()).sum();
    let n_total: usize = panels.u.iter().map(|(_, m)| m.cols()).sum();
    let dense_flops = 2 * (m_total * sym.part.width(k) * n_total) as u64;
    // `.max(1)`: an empty share is the per-block loop's no-op even when a
    // test forces the threshold to zero.
    if dense_flops < batch_min_flops.max(1) {
        schur_per_block(rank, store, k, panels);
    } else {
        schur_batched(rank, store, sym, k, panels, scratch);
    }
    let df = flops::get() - f0;
    rank.metric_observe("gemm.flops_per_supernode", df as f64);
    rank.advance_compute(df);
}

/// One `densela::gemm` per owned `(I, J)` block pair — the same loop the
/// sequential reference [`crate::seq::seq_factor`] runs.
fn schur_per_block(rank: &mut Rank, store: &mut BlockStore, k: usize, panels: &PanelData) {
    let _host = rank.host_scope_sn(HostPhase::Gemm, k);
    for (j, u) in &panels.u {
        for (i, l) in &panels.l {
            let target = store.get_mut(*i, *j).unwrap_or_else(|| {
                panic!("Schur target block ({i},{j}) missing — fill closure violated")
            });
            densela::gemm(-1.0, l, u, 1.0, target);
        }
    }
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
) {
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
    for &(i, _) in &panels.l {
        for &(j, _) in &panels.u {
            targets.push(store.take(i, j).unwrap_or_else(|| {
                panic!("Schur target block ({i},{j}) missing — fill closure violated")
            }));
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
    for &(i, _) in &panels.l {
        for &(j, _) in &panels.u {
            store.insert(i, j, it.next().expect("one target per block pair"));
        }
    }
}
