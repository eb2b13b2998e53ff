//! Derive the static communication program from symbolic analysis alone.
//!
//! The builder enumerates Algorithm 1's logical operations *globally* —
//! every (level, layer) iteration once — and appends the resulting
//! point-to-point events to each participating rank's sequence. Because
//! each rank belongs to exactly one layer, one row, one column, and one
//! z-line, the global enumeration preserves every rank's program order:
//!
//! - panels are enumerated in the exact `factor_nodes` lookahead schedule
//!   (replicated here from the shared symbolic state, like every rank does
//!   at runtime), and each panel's broadcasts in kernel order (diagonal
//!   row, diagonal column, L panel, U panel);
//! - broadcasts are expanded into their binomial-tree edges with the same
//!   relative-rank arithmetic as `simgrid::coll::bcast_inner`, so the plan
//!   predicts not just totals but each intermediate forward hop;
//! - ancestor reductions are enumerated per z-pair in `(l_a desc, s asc)`
//!   order with the packed-block word count derived from the same
//!   owned-blocks rule the runtime store implements.

use crate::{CommPlan, Dir, OpKind, OpMeta, PlanEvent};
use lu3d::EtreeForest;
use obs::CommClass;
use simgrid::tags::{coll_tag, PH_BCAST, T_DIAG_COL, T_DIAG_ROW, T_LPANEL, T_REDUCE, T_UPANEL};
use simgrid::Grid3d;
use std::collections::HashMap;
use symbolic::Symbolic;

/// Communicator context ids, mirroring `build_grid_comms` creation order
/// (`Rank::subset` hands out ids from a per-rank counter starting at 1;
/// world is 0): all layers, then all rows, then all columns, then all
/// z-lines.
struct CtxIds {
    pr: usize,
    pc: usize,
    pz: usize,
}

impl CtxIds {
    fn row(&self, z: usize, r: usize) -> u64 {
        (1 + self.pz + z * self.pr + r) as u64
    }
    fn col(&self, z: usize, c: usize) -> u64 {
        (1 + self.pz + self.pz * self.pr + z * self.pc + c) as u64
    }
    fn zline(&self, r: usize, c: usize) -> u64 {
        (1 + self.pz + self.pz * self.pr + self.pz * self.pc + r * self.pc + c) as u64
    }
}

struct Builder<'a> {
    sym: &'a Symbolic,
    forest: &'a EtreeForest,
    grid: Grid3d,
    ctx: CtxIds,
    plan: CommPlan,
}

/// Build the complete static communication program for one factorization
/// (`fact` + `reduce` phases; the solve adds traffic only when a right-hand
/// side is supplied, so plans are compared against factor-only ledgers).
///
/// `lookahead` must match `FactorOpts::lookahead`: it permutes the panel
/// schedule (and therefore per-channel event order), though aggregate
/// volumes are lookahead-invariant. Nothing else the solver decides touches
/// communication: which Schur kernel runs is local arithmetic, and pivoting
/// only perturbs values.
pub fn build_plan(
    sym: &Symbolic,
    forest: &EtreeForest,
    grid: Grid3d,
    lookahead: usize,
) -> CommPlan {
    let (pr, pc, pz) = (grid.grid2d.pr, grid.grid2d.pc, grid.pz);
    assert_eq!(pz, forest.pz(), "grid/forest Pz mismatch");
    let mut b = Builder {
        sym,
        forest,
        grid,
        ctx: CtxIds { pr, pc, pz },
        plan: CommPlan {
            grid,
            events: vec![Vec::new(); grid.size()],
            ops: Vec::new(),
        },
    };

    let l = forest.l;
    // Per-layer `done` state, evolved across levels exactly like each
    // rank's copy: supernodes whose node this layer never keeps are done up
    // front (their contributions arrive via ancestor reduction).
    let mut done: Vec<Vec<bool>> = (0..pz)
        .map(|z| {
            (0..sym.nsup())
                .map(|s| !forest.keeps(sym.part.node_of_sn[s], z))
                .collect()
        })
        .collect();

    for lvl in (0..=l).rev() {
        let step = 1usize << (l - lvl);
        for z in (0..pz).step_by(step) {
            let q = z >> (l - lvl);
            let nodes = forest.supernodes_of(lvl, q, &sym.part);
            for k in panel_order(sym, &nodes, &mut done[z], lookahead) {
                b.plan_panel(lvl, z, k);
            }
            if lvl == 0 {
                continue;
            }
            // Ancestor reduction: pair (k even) <- (k odd) along z. The odd
            // member of each active pair sends; enumerate at the sender so
            // each pair is planned exactly once. The receiver (z - step)
            // was enumerated earlier in this level, so its reduce receives
            // land after its fact events, matching its program order.
            if (z / step) % 2 == 1 {
                b.plan_reduce_pair(lvl, z - step, z);
            }
        }
    }
    b.plan
}

/// Replicate the `factor_nodes` lookahead schedule: the order panels (and
/// therefore their broadcasts) happen in. All ranks of a layer compute this
/// same schedule from shared symbolic state; `done` is the layer's copy and
/// is advanced for the next level.
fn panel_order(sym: &Symbolic, nodes: &[usize], done: &mut [bool], lookahead: usize) -> Vec<usize> {
    let children = sym.fill.children();
    let mut pending: HashMap<usize, usize> = HashMap::new();
    for &k in nodes {
        pending.insert(k, children[k].iter().filter(|&&c| !done[c]).count());
    }
    let mut paneled = vec![false; nodes.len()];
    let mut order = Vec::with_capacity(nodes.len());
    for idx in 0..nodes.len() {
        let k = nodes[idx];
        let w_end = (idx + lookahead + 1).min(nodes.len());
        for j in idx..w_end {
            let m = nodes[j];
            if paneled[j] || pending[&m] > 0 {
                continue;
            }
            order.push(m);
            paneled[j] = true;
        }
        done[k] = true;
        if let Some(p) = sym.fill.parent[k] {
            if let Some(cnt) = pending.get_mut(&p) {
                *cnt -= 1;
            }
        }
    }
    order
}

impl Builder<'_> {
    /// Plan the four broadcasts of one panel step (`factor_step_panel`):
    /// diagonal across the owner row and down the owner column, then one
    /// packed L-panel broadcast per participating row and one packed
    /// U-panel broadcast per participating column. A supernode with no
    /// off-diagonal structure communicates nothing.
    fn plan_panel(&mut self, lvl: usize, z: usize, k: usize) {
        let (pr, pc) = (self.grid.grid2d.pr, self.grid.grid2d.pc);
        let struct_k: &[usize] = &self.sym.fill.struct_of[k];
        if struct_k.is_empty() {
            return;
        }
        let (kr, kc) = (k % pr, k % pc);
        let wk = self.sym.part.width(k) as u64;

        let grid = self.grid;
        let row_members =
            |r: usize| -> Vec<usize> { (0..pc).map(|c| grid.rank_of(r, c, z)).collect() };
        let col_members =
            |c: usize| -> Vec<usize> { (0..pr).map(|r| grid.rank_of(r, c, z)).collect() };

        // Diagonal broadcasts: w(k)^2 words, classified Collective at
        // runtime via the COLL tag namespace fallback.
        self.plan_bcast(
            &row_members(kr),
            kc,
            self.ctx.row(z, kr),
            coll_tag(PH_BCAST, T_DIAG_ROW | k as u64),
            wk * wk,
            CommClass::Collective,
            lvl,
            format!("fact L{lvl} z{z} k{k} diag-row"),
        );
        self.plan_bcast(
            &col_members(kc),
            kr,
            self.ctx.col(z, kc),
            coll_tag(PH_BCAST, T_DIAG_COL | k as u64),
            wk * wk,
            CommClass::Collective,
            lvl,
            format!("fact L{lvl} z{z} k{k} diag-col"),
        );

        // L-panel broadcast per process row holding L blocks: the packed
        // payload ships (id, rows, cols) metadata plus column-major data.
        for r in 0..pr {
            let block_words: u64 = struct_k
                .iter()
                .filter(|&&i| i % pr == r)
                .map(|&i| self.sym.part.width(i) as u64 * wk)
                .sum();
            let cnt = struct_k.iter().filter(|&&i| i % pr == r).count() as u64;
            if cnt == 0 {
                continue;
            }
            self.plan_bcast(
                &row_members(r),
                kc,
                self.ctx.row(z, r),
                coll_tag(PH_BCAST, T_LPANEL | k as u64),
                1 + 3 * cnt + block_words,
                CommClass::LPanel,
                lvl,
                format!("fact L{lvl} z{z} k{k} lpanel r{r}"),
            );
        }
        // U-panel broadcast per process column holding U blocks.
        for c in 0..pc {
            let block_words: u64 = struct_k
                .iter()
                .filter(|&&j| j % pc == c)
                .map(|&j| wk * self.sym.part.width(j) as u64)
                .sum();
            let cnt = struct_k.iter().filter(|&&j| j % pc == c).count() as u64;
            if cnt == 0 {
                continue;
            }
            self.plan_bcast(
                &col_members(c),
                kr,
                self.ctx.col(z, c),
                coll_tag(PH_BCAST, T_UPANEL | k as u64),
                1 + 3 * cnt + block_words,
                CommClass::UPanel,
                lvl,
                format!("fact L{lvl} z{z} k{k} upanel c{c}"),
            );
        }
    }

    /// Expand one broadcast into its binomial-tree point-to-point edges,
    /// mirroring `simgrid::coll::bcast_inner` exactly: ranks are rotated so
    /// the root is relative 0, each non-root receives from its parent
    /// (lowest set bit cleared), and every rank forwards to children in
    /// decreasing bit order. `p - 1` messages total, zero when `p <= 1`.
    #[allow(clippy::too_many_arguments)]
    fn plan_bcast(
        &mut self,
        members: &[usize],
        root: usize,
        ctx: u64,
        tag: u64,
        words: u64,
        class: CommClass,
        lvl: usize,
        label: String,
    ) {
        let p = members.len();
        if p <= 1 {
            return;
        }
        let op = self.plan.ops.len() as u32;
        self.plan.ops.push(OpMeta {
            label,
            kind: OpKind::Bcast {
                members: members.to_vec(),
                root,
            },
            ctx,
            tag,
        });
        let phase = "fact";
        for local in 0..p {
            let relative = (local + p - root) % p;
            let world = members[local];
            let mut mask = 1usize;
            if relative == 0 {
                while mask < p {
                    mask <<= 1;
                }
            } else {
                loop {
                    if relative & mask != 0 {
                        let src = ((relative - mask) + root) % p;
                        self.plan.events[world].push(PlanEvent {
                            dir: Dir::Recv,
                            peer: members[src],
                            ctx,
                            tag,
                            words,
                            phase,
                            class,
                            level: lvl as u32,
                            op,
                        });
                        break;
                    }
                    mask <<= 1;
                }
            }
            let mut bit = mask >> 1;
            while bit > 0 {
                if relative + bit < p {
                    let dst = ((relative + bit) + root) % p;
                    self.plan.events[world].push(PlanEvent {
                        dir: Dir::Send,
                        peer: members[dst],
                        ctx,
                        tag,
                        words,
                        phase,
                        class,
                        level: lvl as u32,
                        op,
                    });
                }
                bit >>= 1;
            }
        }
    }

    /// Plan the level-`lvl` ancestor reduction for the active pair
    /// `(recv_z <- send_z)`: for every ancestor forest level `l_a < lvl`
    /// (descending) and supernode `s` of the shared ancestor part
    /// (ascending), each `(r, c)` position with owned blocks sends one
    /// packed message up its z-line. Sender and receiver derive identical
    /// block lists from shared symbolic state, so both sides are planned
    /// from the same owned-blocks rule.
    fn plan_reduce_pair(&mut self, lvl: usize, recv_z: usize, send_z: usize) {
        let (pr, pc) = (self.grid.grid2d.pr, self.grid.grid2d.pc);
        let l = self.forest.l;
        for l_a in (0..lvl).rev() {
            let q_a = send_z >> (l - l_a);
            for s in self.forest.supernodes_of(l_a, q_a, &self.sym.part) {
                for r in 0..pr {
                    for c in 0..pc {
                        let words = self.packed_ancestor_words(s, r, c, send_z);
                        if words == 0 {
                            continue;
                        }
                        let tag = T_REDUCE | s as u64;
                        let ctx = self.ctx.zline(r, c);
                        let op = self.plan.ops.len() as u32;
                        let src = self.grid.rank_of(r, c, send_z);
                        let dst = self.grid.rank_of(r, c, recv_z);
                        self.plan.ops.push(OpMeta {
                            label: format!(
                                "reduce L{lvl} la{l_a} s{s} ({r},{c}) z{send_z}->z{recv_z}"
                            ),
                            kind: OpKind::P2p { src, dst },
                            ctx,
                            tag,
                        });
                        let base = PlanEvent {
                            dir: Dir::Send,
                            peer: dst,
                            ctx,
                            tag,
                            words,
                            phase: "reduce",
                            class: CommClass::ZReduction,
                            level: lvl as u32,
                            op,
                        };
                        self.plan.events[src].push(base.clone());
                        self.plan.events[dst].push(PlanEvent {
                            dir: Dir::Recv,
                            peer: src,
                            ..base
                        });
                    }
                }
            }
        }
    }

    /// Packed words of the ancestor-reduction message for supernode `s`
    /// from grid position `(r, c)`: the owned-blocks rule of
    /// `owned_ancestor_blocks` evaluated symbolically. A block `(i, j)`
    /// exists on `(r, c, z)` iff the cyclic owner matches and the forest
    /// keeps both supernodes' nodes on layer `z` (the store's allocation
    /// predicate). Returns 0 when no blocks are owned (no message).
    fn packed_ancestor_words(&self, s: usize, r: usize, c: usize, z: usize) -> u64 {
        let g2 = self.grid.grid2d;
        let keep = |sn: usize| self.forest.keeps(self.sym.part.node_of_sn[sn], z);
        let ws = self.sym.part.width(s) as u64;
        let mut cnt = 0u64;
        let mut data = 0u64;
        if g2.owner(s, s) == (r, c) && keep(s) {
            cnt += 1;
            data += ws * ws;
        }
        for &i in &self.sym.fill.struct_of[s] {
            if !keep(i) || !keep(s) {
                continue;
            }
            let wi = self.sym.part.width(i) as u64;
            if g2.owner(i, s) == (r, c) {
                cnt += 1;
                data += wi * ws;
            }
            if g2.owner(s, i) == (r, c) {
                cnt += 1;
                data += ws * wi;
            }
        }
        if cnt == 0 {
            0
        } else {
            1 + 3 * cnt + data
        }
    }
}
