//! Project the factorization program into the static communication plan.
//!
//! The runtime and the plan read one program, `lu3d::FactorProgram`: the
//! levels each layer runs, each level's panel order, and each level's
//! ancestor reduction with its block rule. The builder walks it *globally*
//! — every (level, layer) iteration once — and appends the resulting
//! point-to-point events to each participating rank's sequence. Because
//! each rank belongs to exactly one layer, one row, one column, and one
//! z-line, the global enumeration preserves every rank's program order:
//!
//! - each panel's broadcasts are expanded in kernel order (diagonal row,
//!   diagonal column, L panel, U panel) over the rosters the kernel reads
//!   (`BlockFill::panel_rosters`, the same call), with the words of
//!   `slu2d::store::packed_words`, the framing `pack_blocks` puts on the
//!   wire;
//! - broadcasts are expanded into the binomial-tree edges `Rank::bcast`
//!   walks (`simgrid::coll::bcast_tree`), so the plan predicts not just
//!   totals but each intermediate forward hop, on the communicator context
//!   ids `build_grid_comms` hands out (`Grid3d::ctx_id`);
//! - each ancestor reduction is planned once, at its sender, one message
//!   per supernode and grid position the block rule gives blocks
//!   (`FactorProgram::reduction_blocks`).

use crate::{CommPlan, Dir, OpKind, OpMeta, PlanEvent};
use lu3d::{EtreeForest, FactorProgram};
use obs::CommClass;
use simgrid::coll::bcast_tree;
use simgrid::tags::{coll_tag, PH_BCAST, T_DIAG_COL, T_DIAG_ROW, T_LPANEL, T_REDUCE, T_UPANEL};
use simgrid::topology::CommFamily;
use simgrid::Grid3d;
use slu2d::store::packed_words;
use symbolic::{LookaheadStep, PanelRosters, Symbolic};

struct Builder<'a> {
    sym: &'a Symbolic,
    /// The panel rosters the runtime broadcasts over.
    rosters: &'a PanelRosters,
    program: &'a FactorProgram,
    grid: Grid3d,
    plan: CommPlan,
}

/// Build the complete static communication program for one factorization
/// (`fact` + `reduce` phases; the solve adds traffic only when a right-hand
/// side is supplied, so plans are compared against factor-only ledgers).
///
/// `lookahead` must match `SolverConfig::lookahead`: it permutes the panel
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
    assert_eq!(grid.pz, forest.pz(), "grid/forest Pz mismatch");
    let program = FactorProgram::new(sym, forest, grid.grid2d, lookahead);
    let rosters = sym.fill.panel_rosters(grid.grid2d.pr, grid.grid2d.pc);
    let mut b = Builder {
        sym,
        rosters: &rosters,
        program: &program,
        grid,
        plan: CommPlan {
            grid,
            events: vec![Vec::new(); grid.size()],
            ops: Vec::new(),
        },
    };
    // Levels from the leaves, layers ascending within a level. A reduction
    // is planned at its sender, which comes after its receiver (`z - step`)
    // in the level: the receiver's reduce events follow its own panels.
    for lvl in (0..=forest.l).rev() {
        for z in 0..grid.pz {
            let Some(level) = program.level(z, lvl) else {
                continue;
            };
            for &step in &level.order {
                if let LookaheadStep::Panel(j) = step {
                    b.plan_panel(lvl, z, level.nodes[j]);
                }
            }
            if let Some(red) = level.reduction.as_ref().filter(|r| r.send) {
                b.plan_reduce_pair(lvl, red.peer, z, &red.ancestors);
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
        let part = &self.sym.part;
        let wk = part.width(k);

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
        // The packed payloads of row `r`'s L piece and column `c`'s U piece.
        let l_piece = |r: usize| {
            let held = struct_k.iter().filter(|&&i| i % pr == r);
            packed_words(held.map(|&i| self.sym.block_shape(i, k)))
        };
        let u_piece = |c: usize| {
            let held = struct_k.iter().filter(|&&j| j % pc == c);
            packed_words(held.map(|&j| self.sym.block_shape(k, j)))
        };

        // Diagonal broadcasts: w(k)^2 words, classified Collective at
        // runtime via the COLL tag namespace fallback.
        let diag_words = (wk * wk) as u64;
        self.plan_bcast(
            &along_row(kr),
            root_c,
            grid.ctx_id(CommFamily::Row, (kr, 0, z)),
            coll_tag(PH_BCAST, T_DIAG_ROW | k as u64),
            diag_words,
            CommClass::Collective,
            lvl,
            format!("fact L{lvl} z{z} k{k} diag-row"),
        );
        self.plan_bcast(
            &down_col(kc),
            root_r,
            grid.ctx_id(CommFamily::Col, (0, kc, z)),
            coll_tag(PH_BCAST, T_DIAG_COL | k as u64),
            diag_words,
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
                l_piece(r),
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
                u_piece(c),
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
    /// `(recv_z <- send_z)` over the program's `ancestors`: each `(r, c)`
    /// position holding blocks of supernode `s` sends one packed message up
    /// its z-line. Both endpoints of a message share one op id.
    fn plan_reduce_pair(
        &mut self,
        lvl: usize,
        recv_z: usize,
        send_z: usize,
        ancestors: &[(usize, usize)],
    ) {
        let g2 = self.grid.grid2d;
        for &(l_a, s) in ancestors {
            for r in 0..g2.pr {
                for c in 0..g2.pc {
                    let mut blocks = self
                        .program
                        .reduction_blocks(self.sym, g2, s, (r, c), send_z)
                        .peekable();
                    if blocks.peek().is_none() {
                        continue;
                    }
                    let words = packed_words(blocks.map(|(i, j)| self.sym.block_shape(i, j)));
                    let tag = T_REDUCE | s as u64;
                    let ctx = self.grid.ctx_id(CommFamily::Zline, (r, c, 0));
                    let op = self.plan.ops.len() as u32;
                    let src = self.grid.rank_of(r, c, send_z);
                    let dst = self.grid.rank_of(r, c, recv_z);
                    self.plan.ops.push(OpMeta {
                        label: format!("reduce L{lvl} la{l_a} s{s} ({r},{c}) z{send_z}->z{recv_z}"),
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
