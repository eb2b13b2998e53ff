#![forbid(unsafe_code)]

//! Static communication-plan analyzer for the 3D sparse LU factorization.
//!
//! The paper's central structural claim is that the 3D algorithm's
//! communication is *fully determined before numeric execution*: the
//! supernodal elimination forest, the `Pz`-replicated process grid, and the
//! solver options fix every message — who sends, who receives, on which
//! communicator, with which tag, and exactly how many words. This crate
//! makes that claim executable:
//!
//! - [`build_plan`] derives the complete expected communication program
//!   from symbolic analysis alone — per-rank event sequences (sends and
//!   receives in program order) for Algorithm 1's `fact` panel broadcasts
//!   (the binomial trees `simgrid`'s broadcast walks, from the function it
//!   walks them with) and `reduce` z-line ancestor reductions, keyed by the
//!   wire-ledger taxonomy (`obs::CommClass`, tree level, grid axis).
//! - [`check_plan`] verifies the plan statically, before any run: every
//!   planned receive has a matching planned send with identical words (and
//!   vice versa, per-channel FIFO order), collective rosters are complete,
//!   the tag space is collision-free (re-running the `simgrid::tags`
//!   registry audit plus a per-channel single-writer check — the plan-time
//!   promotion of the PR-4 runtime tag fixes), and the planned dependence
//!   graph is acyclic (static deadlock freedom).
//! - [`check_planar_volume`] bounds the planned per-rank volume against the
//!   `costmodel` planar predictions.
//! - [`compare_with_measured`] asserts a runtime `obs::commvol` ledger
//!   matches the plan *exactly* — per (phase, class, level, axis) cell and
//!   per peer edge, message counts and word volumes — replacing band-based
//!   conformance with equality for scheduled traffic. Recovered fault runs
//!   must also match: retransmissions are segregated into `fault.resent_*`
//!   and never touch the ledger.
//!
//! The plan is the static schedule the future event-driven backend
//! (ROADMAP item 1) will execute directly.

mod build;
mod checks;
mod compare;

pub use build::build_plan;
pub use checks::{check_plan, check_planar_volume, PlanAudit};
pub use compare::{compare_with_measured, plan_json, CompareStats};

use obs::{CommClass, GridAxis};
use simgrid::Grid3d;
use std::collections::BTreeMap;

/// Direction of a planned event, from the owning rank's perspective.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    Send,
    Recv,
}

/// One planned point-to-point message endpoint on one rank. A collective is
/// planned as its constituent point-to-point tree edges, exactly as
/// `simgrid::coll` executes it.
#[derive(Clone, Debug)]
pub struct PlanEvent {
    pub dir: Dir,
    /// World rank of the other endpoint.
    pub peer: usize,
    /// Communicator context id, as `simgrid::Grid3d::ctx_id` states it.
    pub ctx: u64,
    /// Full wire tag (collective-internal tags included).
    pub tag: u64,
    /// Exact payload words on the wire.
    pub words: u64,
    /// Ledger phase this event is charged to (`fact` or `reduce`).
    pub phase: &'static str,
    pub class: CommClass,
    /// Elimination-forest level active when the event happens (the sticky
    /// `set_tree_level` value, i.e. the *outer* loop level — ancestor
    /// reductions are charged at the level that triggers them).
    pub level: u32,
    /// Logical operation instance (one broadcast, one reduction message)
    /// this event belongs to; indexes [`CommPlan::ops`].
    pub op: u32,
}

/// What kind of logical operation an op id denotes.
#[derive(Clone, Debug)]
pub enum OpKind {
    /// A broadcast over `members` (world ranks, communicator order) rooted
    /// at local rank `root`.
    Bcast { members: Vec<usize>, root: usize },
    /// A single point-to-point message.
    P2p { src: usize, dst: usize },
}

/// Metadata for one logical operation in the plan.
#[derive(Clone, Debug)]
pub struct OpMeta {
    /// Human-readable description, e.g. `fact L2 k=17 lpanel row r=1 z=0`.
    pub label: String,
    pub kind: OpKind,
    pub ctx: u64,
    pub tag: u64,
}

/// The complete static communication program for one solver configuration.
#[derive(Clone, Debug)]
pub struct CommPlan {
    pub grid: Grid3d,
    /// Per world rank, in program order.
    pub events: Vec<Vec<PlanEvent>>,
    pub ops: Vec<OpMeta>,
}

/// A rank's planned wire ledger: the static mirror of `obs::CommReport`,
/// minus `struct_words` (zero-row detection is numeric, not symbolic).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlannedRank {
    /// (phase, class, level, axis) -> (msgs, words), sends only — exactly
    /// the key space of `obs::CommEntry`.
    pub entries: BTreeMap<(String, CommClass, u32, GridAxis), (u64, u64)>,
    /// Destination world rank -> (msgs, words).
    pub sent_to: BTreeMap<usize, (u64, u64)>,
    /// Source world rank -> (msgs, words).
    pub recv_from: BTreeMap<usize, (u64, u64)>,
}

impl CommPlan {
    /// Grid axis of an edge between two world ranks, mirroring the runtime
    /// classification (`Rank::comm_axis`).
    pub fn axis(&self, a: usize, b: usize) -> GridAxis {
        let (r0, c0, z0) = self.grid.coords_of(a);
        let (r1, c1, z1) = self.grid.coords_of(b);
        match (r0 != r1, c0 != c1, z0 != z1) {
            (false, true, false) => GridAxis::X,
            (true, false, false) => GridAxis::Y,
            (false, false, true) => GridAxis::Z,
            _ => GridAxis::Cross,
        }
    }

    /// Aggregate one rank's events into its planned ledger.
    pub fn rank_ledger(&self, rank: usize) -> PlannedRank {
        let mut out = PlannedRank::default();
        for ev in &self.events[rank] {
            match ev.dir {
                Dir::Send => {
                    let key = (
                        ev.phase.to_string(),
                        ev.class,
                        ev.level,
                        self.axis(rank, ev.peer),
                    );
                    let cell = out.entries.entry(key).or_insert((0, 0));
                    cell.0 += 1;
                    cell.1 += ev.words;
                    let edge = out.sent_to.entry(ev.peer).or_insert((0, 0));
                    edge.0 += 1;
                    edge.1 += ev.words;
                }
                Dir::Recv => {
                    let edge = out.recv_from.entry(ev.peer).or_insert((0, 0));
                    edge.0 += 1;
                    edge.1 += ev.words;
                }
            }
        }
        out
    }

    /// Planned ledgers for every rank.
    pub fn ledgers(&self) -> Vec<PlannedRank> {
        (0..self.events.len())
            .map(|r| self.rank_ledger(r))
            .collect()
    }

    /// Total planned messages (each message counted once, at its sender).
    pub fn total_msgs(&self) -> u64 {
        self.events
            .iter()
            .flatten()
            .filter(|e| e.dir == Dir::Send)
            .count() as u64
    }

    /// Total planned words (counted at senders).
    pub fn total_words(&self) -> u64 {
        self.events
            .iter()
            .flatten()
            .filter(|e| e.dir == Dir::Send)
            .map(|e| e.words)
            .sum()
    }

    /// Largest planned per-rank sent volume — the static analogue of
    /// `Output3d::max_rank_sent_words`.
    pub fn max_rank_sent_words(&self) -> u64 {
        self.events
            .iter()
            .map(|evs| {
                evs.iter()
                    .filter(|e| e.dir == Dir::Send)
                    .map(|e| e.words)
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }
}
