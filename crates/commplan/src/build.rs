//! Derive the static communication program from symbolic analysis alone.
//!
//! The builder enumerates Algorithm 1's logical operations *globally* —
//! every (level, layer) iteration once — and appends the resulting
//! point-to-point events to each participating rank's sequence. Because
//! each rank belongs to exactly one layer, one row, one column, and one
//! z-line, the global enumeration preserves every rank's program order:
//!
//! - panels are enumerated in the lookahead order `factor_nodes` executes
//!   (`BlockFill::lookahead_order`, the same call on the same symbolic
//!   state), and each panel's broadcasts in kernel order (diagonal row,
//!   diagonal column, L panel, U panel) over the rosters the kernel reads
//!   (`BlockFill::panel_rosters`, the same call);
//! - broadcasts are expanded into the binomial-tree edges `Rank::bcast`
//!   walks (`simgrid::coll::bcast_tree`), so the plan predicts not just
//!   totals but each intermediate forward hop, on the communicator context
//!   ids `build_grid_comms` hands out (`Grid3d::ctx_id`);
//! - ancestor reductions are enumerated per z-pair in `(l_a desc, s asc)`
//!   order with the packed-block word count derived from the same
//!   owned-blocks rule the runtime store implements.

use crate::{CommPlan, Dir, OpKind, OpMeta, PlanEvent};
use lu3d::EtreeForest;
use obs::CommClass;
use simgrid::coll::bcast_tree;
use simgrid::tags::{coll_tag, PH_BCAST, T_DIAG_COL, T_DIAG_ROW, T_LPANEL, T_REDUCE, T_UPANEL};
use simgrid::topology::CommFamily;
use simgrid::Grid3d;
use symbolic::{LookaheadStep, PanelRosters, Symbolic};

struct Builder<'a> {
    sym: &'a Symbolic,
    /// The panel rosters the runtime broadcasts over.
    rosters: &'a PanelRosters,
    forest: &'a EtreeForest,
    grid: Grid3d,
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
    let pz = grid.pz;
    assert_eq!(pz, forest.pz(), "grid/forest Pz mismatch");
    let rosters = sym.fill.panel_rosters(grid.grid2d.pr, grid.grid2d.pc);
    let mut b = Builder {
        sym,
        rosters: &rosters,
        forest,
        grid,
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
            for ahead in sym.fill.lookahead_order(&nodes, &done[z], lookahead) {
                match ahead {
                    LookaheadStep::Panel(j) => b.plan_panel(lvl, z, nodes[j]),
                    LookaheadStep::Schur(idx) => done[z][nodes[idx]] = true,
                }
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

impl Builder<'_> {
    /// Plan the four broadcasts of one panel step (`factor_step_panel`) over
    /// the rosters the runtime reads ([`symbolic::BlockFill::panel_rosters`]):
    /// diagonal along the owner row to `cols(k)` and down the owner column
    /// to `rows(k)`, then one packed L-panel broadcast per row holding L
    /// blocks, to `cols(k)`, and one packed U-panel broadcast per column
    /// holding U blocks, to `rows(k)`. A supernode with no off-diagonal
    /// structure communicates nothing.
    fn plan_panel(&mut self, lvl: usize, z: usize, k: usize) {
        let (pr, pc) = (self.grid.grid2d.pr, self.grid.grid2d.pc);
        let struct_k: &[usize] = &self.sym.fill.struct_of[k];
        if struct_k.is_empty() {
            return;
        }
        let (kr, kc) = (k % pr, k % pc);
        let wk = self.sym.part.width(k) as u64;

        let (grid, rosters) = (self.grid, self.rosters);
        let (rows, cols) = (rosters.rows(k), rosters.cols(k));
        // World ranks of the roster along row `r` / down column `c`, and the
        // root's position on it.
        let along_row =
            |r: usize| -> Vec<usize> { cols.iter().map(|&c| grid.rank_of(r, c, z)).collect() };
        let down_col =
            |c: usize| -> Vec<usize> { rows.iter().map(|&r| grid.rank_of(r, c, z)).collect() };
        let root_c = cols
            .binary_search(&kc)
            .expect("the diagonal column is on cols(k)");
        let root_r = rows
            .binary_search(&kr)
            .expect("the diagonal row is on rows(k)");
        // The packed payload of a panel piece: (id, rows, cols) metadata
        // plus column-major data.
        let packed_words = |mine: &dyn Fn(usize) -> bool| -> u64 {
            let (cnt, data) = struct_k
                .iter()
                .filter(|&&i| mine(i))
                .fold((0, 0), |(n, d), &i| {
                    (n + 1, d + self.sym.part.width(i) as u64 * wk)
                });
            1 + 3 * cnt + data
        };

        // Diagonal broadcasts: w(k)^2 words, classified Collective at
        // runtime via the COLL tag namespace fallback.
        self.plan_bcast(
            &along_row(kr),
            root_c,
            grid.ctx_id(CommFamily::Row, (kr, 0, z)),
            coll_tag(PH_BCAST, T_DIAG_ROW | k as u64),
            wk * wk,
            CommClass::Collective,
            lvl,
            format!("fact L{lvl} z{z} k{k} diag-row"),
        );
        self.plan_bcast(
            &down_col(kc),
            root_r,
            grid.ctx_id(CommFamily::Col, (0, kc, z)),
            coll_tag(PH_BCAST, T_DIAG_COL | k as u64),
            wk * wk,
            CommClass::Collective,
            lvl,
            format!("fact L{lvl} z{z} k{k} diag-col"),
        );

        // L-panel broadcast per process row holding L blocks.
        for &r in rows.iter().filter(|&&r| rosters.row_holds_l(k, r)) {
            self.plan_bcast(
                &along_row(r),
                root_c,
                grid.ctx_id(CommFamily::Row, (r, 0, z)),
                coll_tag(PH_BCAST, T_LPANEL | k as u64),
                packed_words(&|i| i % pr == r),
                CommClass::LPanel,
                lvl,
                format!("fact L{lvl} z{z} k{k} lpanel r{r}"),
            );
        }
        // U-panel broadcast per process column holding U blocks.
        for &c in cols.iter().filter(|&&c| rosters.col_holds_u(k, c)) {
            self.plan_bcast(
                &down_col(c),
                root_r,
                grid.ctx_id(CommFamily::Col, (0, c, z)),
                coll_tag(PH_BCAST, T_UPANEL | k as u64),
                packed_words(&|j| j % pc == c),
                CommClass::UPanel,
                lvl,
                format!("fact L{lvl} z{z} k{k} upanel c{c}"),
            );
        }
    }

    /// Expand one broadcast over `members` (world ranks in roster order,
    /// `root` a position on it) into its binomial-tree point-to-point edges
    /// ([`bcast_tree`], which `Rank::bcast_among` executes): each non-root
    /// receives from its parent, then every rank forwards to its children
    /// in sending order. `p - 1` messages total, zero when `p <= 1`.
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
        let event = |dir, peer: usize| PlanEvent {
            dir,
            peer: members[peer],
            ctx,
            tag,
            words,
            phase: "fact",
            class,
            level: lvl as u32,
            op,
        };
        for (local, &world) in members.iter().enumerate() {
            let (parent, children) = bcast_tree(p, root, local);
            let events = &mut self.plan.events[world];
            events.extend(parent.map(|src| event(Dir::Recv, src)));
            events.extend(children.map(|dst| event(Dir::Send, dst)));
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
                        let ctx = self.grid.ctx_id(CommFamily::Zline, (r, c, 0));
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
