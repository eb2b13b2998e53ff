//! Distributed triangular solves on the 2D grid.
//!
//! Fan-in / fan-out substitution at supernode granularity: for each
//! supernode, partial products are reduced along the diagonal owner's
//! process row and the solved segment is broadcast down its process column.
//! Latency-bound (a few collectives per supernode), exactly like
//! SuperLU_DIST's solve phase.
//!
//! The forward and backward phases are exposed separately with an explicit
//! [`DistSolveState`] so the 3D solver can interleave them with z-axis
//! reductions and broadcasts (mirroring Algorithm 1's structure for the
//! solve, see `lu3d::solve3d`).

use crate::factor2d::FactorEnv;
use crate::store::BlockStore;
use densela::{backward_subst, flops, forward_subst_unit};
use simgrid::{HostPhase, Payload, Rank};
use std::collections::BTreeMap;
use symbolic::Symbolic;

use simgrid::tags::{T_BWD_BC, T_BWD_RED, T_FWD_BC, T_FWD_RED};

/// Per-rank running state of a distributed triangular solve.
pub struct DistSolveState {
    /// Forward partial sums: this rank's accumulated `L(I,j) y_j`
    /// contributions, indexed by global (permuted) vector position.
    pub acc: Vec<f64>,
    /// Backward partial sums: accumulated `U(j,k) x_k` contributions.
    pub accu: Vec<f64>,
    /// Forward solutions this rank reads back: `y_k` on the diagonal owner
    /// of `k`, ordered by supernode.
    pub y: BTreeMap<usize, Vec<f64>>,
    /// Backward solutions known to this rank (diagonal owners and their
    /// process columns), ordered by supernode.
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

/// Forward substitution over `nodes` (ascending): computes `y_k` on each
/// diagonal owner and spreads `L(I,k) y_k` contributions into `st.acc`.
/// Collective across the layer.
pub fn forward_nodes(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &BlockStore,
    sym: &Symbolic,
    nodes: &[usize],
    b: &[f64],
    st: &mut DistSolveState,
) {
    let _host = rank.host_scope(HostPhase::SolveFwd);
    let part = &sym.part;
    let grid = env.grid;
    for &k in nodes {
        let (kr, kc) = (k % grid.pr, k % grid.pc);
        let r = part.ranges[k].clone();
        // 1. Reduce partial sums along the owner's process row.
        let mut yk: Option<Vec<f64>> = None;
        if env.my_r == kr {
            let seg: Vec<f64> = st.acc[r.clone()].to_vec();
            let reduced = rank.reduce_sum(&env.row, kc, seg, T_FWD_RED | k as u64);
            if let Some(sum) = reduced {
                // 2. Diagonal owner solves its segment.
                let f0 = flops::get();
                let mut seg: Vec<f64> = r.clone().map(|i| b[i]).collect();
                for (s, a) in seg.iter_mut().zip(sum) {
                    *s -= a;
                }
                forward_subst_unit(store.get(k, k).expect("diag"), &mut seg);
                rank.advance_compute(flops::get() - f0);
                yk = Some(seg);
            }
        }
        // 3. Broadcast y_k down the owner's process column.
        if env.my_c == kc {
            let payload = rank.bcast(&env.col, kr, yk.map(Payload::F64s), T_FWD_BC | k as u64);
            let seg = payload.into_f64s();
            // 4. Column ranks apply their L(I,k) blocks.
            let f0 = flops::get();
            for &i in &sym.fill.struct_of[k] {
                if i % grid.pr == env.my_r {
                    if let Some(l) = store.get(i, k) {
                        let contrib = l.matvec(&seg);
                        let ri = part.ranges[i].clone();
                        for (a, c) in st.acc[ri].iter_mut().zip(contrib) {
                            *a += c;
                        }
                    }
                }
            }
            rank.advance_compute(flops::get() - f0);
            // Only the diagonal owner reads y_k back (backward phase).
            if env.my_r == kr {
                st.y.insert(k, seg);
            }
        }
    }
}

/// Apply an externally received ancestor solution `x_k` to this rank's
/// backward accumulators: `accu_j += U(j,k) x_k` for every owned `U(j,k)`.
/// Used by the 3D solve when ancestor solutions arrive over the z-axis
/// instead of through this layer's own backward pass. The caller must be in
/// process column `k % pc`.
pub fn apply_ancestor_x(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &BlockStore,
    sym: &Symbolic,
    k: usize,
    xk: &[f64],
    st: &mut DistSolveState,
) {
    debug_assert_eq!(env.my_c, k % env.grid.pc);
    let f0 = flops::get();
    for &j in &sym.fill.blocks_into()[k] {
        if j % env.grid.pr == env.my_r {
            if let Some(u) = store.get(j, k) {
                let contrib = u.matvec(xk);
                let rj = sym.part.ranges[j].clone();
                for (a, c) in st.accu[rj].iter_mut().zip(contrib) {
                    *a += c;
                }
            }
        }
    }
    rank.advance_compute(flops::get() - f0);
    st.x.insert(k, xk.to_vec());
}

/// Backward substitution over `nodes` (processed in descending order):
/// computes `x_k` on each diagonal owner, writing solved segments into
/// `x_out`, and spreads `U(j,k) x_k` contributions into `st.accu`.
/// Collective across the layer.
pub fn backward_nodes(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &BlockStore,
    sym: &Symbolic,
    nodes: &[usize],
    st: &mut DistSolveState,
    x_out: &mut [f64],
) {
    let _host = rank.host_scope(HostPhase::SolveBwd);
    let part = &sym.part;
    let grid = env.grid;
    for &k in nodes.iter().rev() {
        let (kr, kc) = (k % grid.pr, k % grid.pc);
        let r = part.ranges[k].clone();
        let mut xk: Option<Vec<f64>> = None;
        if env.my_r == kr {
            let seg: Vec<f64> = st.accu[r.clone()].to_vec();
            let reduced = rank.reduce_sum(&env.row, kc, seg, T_BWD_RED | k as u64);
            if let Some(sum) = reduced {
                let f0 = flops::get();
                let mut seg = st.y.get(&k).expect("diag owner solved y_k").clone();
                for (s, a) in seg.iter_mut().zip(sum) {
                    *s -= a;
                }
                backward_subst(store.get(k, k).expect("diag"), &mut seg);
                rank.advance_compute(flops::get() - f0);
                x_out[r.clone()].copy_from_slice(&seg);
                xk = Some(seg);
            }
        }
        if env.my_c == kc {
            let payload = rank.bcast(&env.col, kr, xk.map(Payload::F64s), T_BWD_BC | k as u64);
            let seg = payload.into_f64s();
            let f0 = flops::get();
            for &j in &sym.fill.blocks_into()[k] {
                if j % grid.pr == env.my_r {
                    if let Some(u) = store.get(j, k) {
                        let contrib = u.matvec(&seg);
                        let rj = part.ranges[j].clone();
                        for (a, c) in st.accu[rj].iter_mut().zip(contrib) {
                            *a += c;
                        }
                    }
                }
            }
            rank.advance_compute(flops::get() - f0);
            st.x.insert(k, seg);
        }
    }
}
