//! Deterministic fault injection and recovery for the simulated machine.
//!
//! The paper's algorithm is pitched at 1024-node runs where slow links,
//! stragglers, and dropped messages are the norm. This module gives the
//! simulator a *seeded, deterministic* fault model so chaos runs are exactly
//! reproducible — the injected schedule is a pure function of the plan seed
//! and each message's protocol identity `(src, dst, ctx, tag, seq)`, never
//! of wall-clock thread interleaving:
//!
//! - [`FaultPlan`]: per-edge message **drop / duplicate / delay** rules,
//!   per-rank **stall windows**, and **link-degradation** factors applied in
//!   the α-β time model. Built programmatically or parsed from the compact
//!   spec grammar of [`FaultPlan::parse`] (the `salu --faults` syntax).
//! - [`RetryPolicy`]: the recovery half — an ack/retransmit protocol with
//!   timeout + exponential backoff for droppable sends, simulated entirely
//!   in simulated time (see `Rank::send`). With recovery on, a faulted run
//!   delivers the exact same payload sequence as the fault-free run, so
//!   factors stay bitwise identical; only the clocks shift.
//! - [`FailureBoard`] / [`RankFailure`]: structured rank-failure collection
//!   replacing the panic-happy error paths. The first failure is recorded
//!   as *primary*; ranks that die in its wake (peer channels closed, waits
//!   that can never complete) are recorded as *cascade* failures, so
//!   [`crate::Machine::try_run`] reports the original failing rank instead
//!   of whichever thread happened to abort first.
//!
//! Interaction with the end-of-run unreceived-message check
//! ([`FailKind::Unreceived`]): recovery-internal retransmissions and
//! filtered duplicates are transport-level events, not protocol messages,
//! and are never reported. An unrecovered drop never reaches the
//! destination's queue, so it is not reported either: it surfaces as the
//! receiver's deadlock (caught by the wait-for-graph detector). An
//! unrecovered duplicate is a real extra message and fails the run as
//! unreceived. See `docs/faultlab.md`.

use crate::payload::PayloadKind;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Filter selecting the message edges a fault rule applies to. `None`
/// fields match anything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeFilter {
    /// Sender world rank.
    pub src: Option<usize>,
    /// Destination world rank.
    pub dst: Option<usize>,
    /// Communicator context id.
    pub ctx: Option<u64>,
    /// Message tag (exact match, after any collective namespacing).
    pub tag: Option<u64>,
}

impl EdgeFilter {
    /// The match-everything filter.
    pub fn any() -> Self {
        EdgeFilter::default()
    }

    fn matches(&self, src: usize, dst: usize, ctx: u64, tag: u64) -> bool {
        self.src.is_none_or(|v| v == src)
            && self.dst.is_none_or(|v| v == dst)
            && self.ctx.is_none_or(|v| v == ctx)
            && self.tag.is_none_or(|v| v == tag)
    }
}

/// What a matching [`FaultRule`] does to a message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Drop the message with probability `p` (per physical attempt: with
    /// recovery on, each retransmission re-rolls until one gets through or
    /// the retry budget caps out).
    Drop { p: f64 },
    /// Deliver a second, identical copy with probability `p`.
    Dup { p: f64 },
    /// Add `secs` of simulated in-flight latency with probability `p`.
    Delay { p: f64, secs: f64 },
}

/// One edge-scoped fault rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRule {
    pub edge: EdgeFilter,
    pub action: FaultAction,
}

/// A rank pauses for `secs` of simulated time at the first send at or after
/// simulated time `at` (stalls are applied at the send path, the injection
/// point of the fault layer).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StallRule {
    pub rank: usize,
    pub at: f64,
    pub secs: f64,
}

/// Transfer on matching edges costs `factor ×` the model's `α + β·w`
/// (degraded link), charged on both the sender and the receiver side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkRule {
    pub edge: EdgeFilter,
    pub factor: f64,
}

/// A seeded, deterministic fault plan. Decisions are pure functions of
/// `(seed, src, dst, ctx, tag, seq)` where `seq` is the sender's per-rank
/// message sequence number — identical across runs by SPMD determinism.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub rules: Vec<FaultRule>,
    pub stalls: Vec<StallRule>,
    pub links: Vec<LinkRule>,
}

/// The faults decided for one logical message.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultDecision {
    /// Number of physical attempts eaten by the network before one gets
    /// through (0 = first attempt delivered). Without recovery this is
    /// capped at 1 and means the message is simply lost.
    pub drops: u32,
    /// Deliver a duplicate copy behind the original.
    pub dup: bool,
    /// Extra in-flight latency (seconds of simulated time).
    pub delay: f64,
}

/// SplitMix64: tiny, high-quality, and dependency-free — exactly what a
/// deterministic decision hash needs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with a seed and no rules (useful as a builder base).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// True when the plan can never affect anything.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.stalls.is_empty() && self.links.is_empty()
    }

    /// A uniform draw in `[0, 1)` for one `(message identity, salt)` pair.
    /// Deterministic chain of SplitMix64 steps over the key components.
    fn draw(&self, salt: u64, src: usize, dst: usize, ctx: u64, tag: u64, seq: u64) -> f64 {
        let mut h = splitmix64(self.seed ^ salt);
        for v in [src as u64, dst as u64, ctx, tag, seq] {
            h = splitmix64(h ^ v);
        }
        // 53 high bits -> [0, 1) with full double precision.
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Decide the faults for the logical message `(src, dst, ctx, tag)`
    /// with sender sequence number `seq`. `max_drops` caps the number of
    /// consecutive lost attempts (retry budget − 1 with recovery on, 1
    /// without).
    pub fn decide(
        &self,
        src: usize,
        dst: usize,
        ctx: u64,
        tag: u64,
        seq: u64,
        max_drops: u32,
    ) -> FaultDecision {
        let mut d = FaultDecision::default();
        for (ri, rule) in self.rules.iter().enumerate() {
            if !rule.edge.matches(src, dst, ctx, tag) {
                continue;
            }
            // Each rule draws from its own salt stream (keyed by rule
            // index) so rules never consume each other's randomness.
            let salt = (ri as u64) << 32;
            match rule.action {
                FaultAction::Drop { p } => {
                    // Per-attempt loss: geometric run of failed attempts,
                    // each attempt re-drawn under its own salt.
                    let mut k = 0u32;
                    while k < max_drops
                        && self.draw(salt | u64::from(k) | 0x1_0000, src, dst, ctx, tag, seq) < p
                    {
                        k += 1;
                    }
                    d.drops = d.drops.max(k);
                }
                FaultAction::Dup { p } => {
                    if self.draw(salt | 0x2_0000, src, dst, ctx, tag, seq) < p {
                        d.dup = true;
                    }
                }
                FaultAction::Delay { p, secs } => {
                    if self.draw(salt | 0x3_0000, src, dst, ctx, tag, seq) < p {
                        d.delay += secs;
                    }
                }
            }
        }
        d
    }

    /// Combined link-degradation factor for an edge (product over matching
    /// rules; 1.0 when none match).
    pub fn link_factor(&self, src: usize, dst: usize, ctx: u64, tag: u64) -> f64 {
        let mut f = 1.0;
        for rule in &self.links {
            if rule.edge.matches(src, dst, ctx, tag) {
                f *= rule.factor;
            }
        }
        f
    }

    /// Stall windows for one rank, sorted by trigger time.
    pub fn stalls_for(&self, rank: usize) -> Vec<StallRule> {
        let mut v: Vec<StallRule> = self
            .stalls
            .iter()
            .copied()
            .filter(|s| s.rank == rank)
            .collect();
        v.sort_by(|a, b| a.at.total_cmp(&b.at));
        v
    }

    /// Parse the `salu --faults` spec grammar:
    ///
    /// ```text
    /// SPEC    := clause (';' clause)*
    /// clause  := drop | dup | delay | stall | degrade
    /// drop    := "drop:"    "p=" f64 edge*
    /// dup     := "dup:"     "p=" f64 edge*
    /// delay   := "delay:"   "p=" f64 ",secs=" f64 edge*
    /// stall   := "stall:"   "rank=" usize ",at=" f64 ",secs=" f64
    /// degrade := "degrade:" "factor=" f64 edge*
    /// edge    := ",src=" usize | ",dst=" usize | ",ctx=" u64 | ",tag=" u64
    /// ```
    ///
    /// Example: `drop:p=0.05,src=1,dst=0;delay:p=0.2,secs=1e-4;stall:rank=2,at=0.01,secs=0.5`.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::seeded(seed);
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let clause = clause.trim();
            let (kind, body) = clause
                .split_once(':')
                .ok_or_else(|| format!("fault clause `{clause}` is missing `kind:`"))?;
            let mut p = None;
            let mut secs = None;
            let mut factor = None;
            let mut rank = None;
            let mut at = None;
            let mut edge = EdgeFilter::any();
            for kv in body.split(',').filter(|s| !s.trim().is_empty()) {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("fault clause `{clause}`: `{kv}` is not key=value"))?;
                let bad = |what: &str| format!("fault clause `{clause}`: bad {what} `{v}`");
                match k.trim() {
                    "p" => p = Some(v.parse::<f64>().map_err(|_| bad("probability"))?),
                    "secs" => secs = Some(v.parse::<f64>().map_err(|_| bad("seconds"))?),
                    "factor" => factor = Some(v.parse::<f64>().map_err(|_| bad("factor"))?),
                    "rank" => rank = Some(v.parse::<usize>().map_err(|_| bad("rank"))?),
                    "at" => at = Some(v.parse::<f64>().map_err(|_| bad("time"))?),
                    "src" => edge.src = Some(v.parse().map_err(|_| bad("src"))?),
                    "dst" => edge.dst = Some(v.parse().map_err(|_| bad("dst"))?),
                    "ctx" => edge.ctx = Some(v.parse().map_err(|_| bad("ctx"))?),
                    "tag" => edge.tag = Some(v.parse().map_err(|_| bad("tag"))?),
                    other => return Err(format!("fault clause `{clause}`: unknown key `{other}`")),
                }
            }
            let need_p = || p.ok_or_else(|| format!("fault clause `{clause}` needs p="));
            match kind.trim() {
                "drop" => plan.rules.push(FaultRule {
                    edge,
                    action: FaultAction::Drop { p: need_p()? },
                }),
                "dup" => plan.rules.push(FaultRule {
                    edge,
                    action: FaultAction::Dup { p: need_p()? },
                }),
                "delay" => plan.rules.push(FaultRule {
                    edge,
                    action: FaultAction::Delay {
                        p: need_p()?,
                        secs: secs.ok_or_else(|| format!("fault clause `{clause}` needs secs="))?,
                    },
                }),
                "stall" => plan.stalls.push(StallRule {
                    rank: rank.ok_or_else(|| format!("fault clause `{clause}` needs rank="))?,
                    at: at.ok_or_else(|| format!("fault clause `{clause}` needs at="))?,
                    secs: secs.ok_or_else(|| format!("fault clause `{clause}` needs secs="))?,
                }),
                "degrade" => plan.links.push(LinkRule {
                    edge,
                    factor: factor
                        .ok_or_else(|| format!("fault clause `{clause}` needs factor="))?,
                }),
                other => return Err(format!("unknown fault kind `{other}` in `{clause}`")),
            }
        }
        Ok(plan)
    }
}

/// Recovery knobs for droppable sends: a (simulated) ack timeout with
/// exponential backoff, capping the total number of physical attempts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Simulated seconds the sender waits for the (implicit) ack before the
    /// first retransmission.
    pub timeout: f64,
    /// Multiplier applied to the timeout after each failed attempt.
    pub backoff: f64,
    /// Total physical send attempts (1 original + `max_attempts - 1`
    /// retransmissions). The fault layer never drops the last attempt, so
    /// a recovered run always delivers.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: 1e-3,
            backoff: 2.0,
            max_attempts: 5,
        }
    }
}

/// Why a blocking receive gave up. Returned by the `_checked` receive
/// variants; the panicking variants convert it into a [`RankFailure`].
#[derive(Clone, Debug, PartialEq)]
pub enum RecvError {
    /// The matching message arrived, but later than the machine's simulated
    /// receive deadline allows (`Machine::with_recv_deadline`).
    Deadline {
        src: usize,
        ctx: u64,
        tag: u64,
        /// Simulated seconds this rank would have waited.
        waited: f64,
        deadline: f64,
    },
    /// The wait-for-graph detector confirmed a deadlock involving this
    /// rank; `report` names the exact cycle.
    Deadlock { report: String },
    /// Every rank that could have satisfied this receive terminated after
    /// rank `origin` failed — the wait can never complete.
    PeerFailed {
        origin: usize,
        src: usize,
        ctx: u64,
        tag: u64,
    },
    /// The wall-clock backstop expired (`SALU_RECV_TIMEOUT_SECS`).
    WallTimeout {
        src: usize,
        ctx: u64,
        tag: u64,
        dump: String,
    },
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Deadline {
                src,
                ctx,
                tag,
                waited,
                deadline,
            } => write!(
                f,
                "recv deadline exceeded waiting for (ctx={ctx}, src={src}, tag={tag}): \
                 {waited:.3e}s of simulated wait > deadline {deadline:.3e}s"
            ),
            RecvError::Deadlock { report } => write!(f, "aborted by commcheck\n{report}"),
            RecvError::PeerFailed {
                origin,
                src,
                ctx,
                tag,
            } => write!(
                f,
                "aborted while waiting for (ctx={ctx}, src={src}, tag={tag}): \
                 peers terminated after rank {origin} failed"
            ),
            RecvError::WallTimeout {
                src,
                ctx,
                tag,
                dump,
            } => write!(
                f,
                "recv timeout waiting for (ctx={ctx}, src={src}, tag={tag})\n{dump}"
            ),
        }
    }
}

/// One message still queued at its destination when every rank had
/// returned (see [`FailKind::Unreceived`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnreceivedMsg {
    pub src: usize,
    pub dst: usize,
    pub ctx: u64,
    pub tag: u64,
    pub words: u64,
}

impl fmt::Display for UnreceivedMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} (ctx={}, tag={} [{}], {} words)",
            self.src,
            self.dst,
            self.ctx,
            self.tag,
            crate::tags::describe(self.tag),
            self.words
        )
    }
}

/// The structured cause of one rank's failure.
#[derive(Clone, Debug)]
pub enum FailKind {
    /// A blocking receive gave up (deadline, deadlock, dead peers, wall
    /// timeout).
    Recv(RecvError),
    /// A send found the peer's inbox closed: the peer thread is gone
    /// mid-run, i.e. it failed first.
    PeerDown { peer: usize },
    /// A typed receive got the wrong payload kind — a protocol error, now
    /// with full provenance instead of a bare `panic!`.
    PayloadMismatch {
        expected: PayloadKind,
        got: PayloadKind,
        src: usize,
        ctx: u64,
        tag: u64,
    },
    /// A solver-level failure surfaced gracefully (e.g. a stalled z-layer
    /// in `factor_3d`), carrying algorithmic context.
    Solver {
        phase: String,
        supernode: Option<usize>,
        level: Option<usize>,
        detail: String,
    },
    /// Every rank returned, yet messages were still queued at their
    /// destinations: sent but never received. Found by
    /// [`crate::Machine::try_run`] after the join, on every run, from the
    /// inboxes and unexpected-message queues the ranks hand back; listed in
    /// `(dst, src, send order)` order. Transport duplicates injected under
    /// recovery are not protocol messages and are not listed.
    Unreceived { msgs: Vec<UnreceivedMsg> },
    /// An invalid configuration rejected before any rank ran (e.g. a grid
    /// whose `pz` is not a power of two).
    Config { detail: String },
    /// An uncategorized panic unwound out of the SPMD closure.
    Panic { message: String },
}

impl FailKind {
    /// Failures caused by *another* rank's death are cascades; the board
    /// demotes them below primary causes when attributing the run failure.
    pub fn is_cascade(&self) -> bool {
        matches!(
            self,
            FailKind::PeerDown { .. } | FailKind::Recv(RecvError::PeerFailed { .. })
        )
    }
}

impl fmt::Display for FailKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailKind::Recv(e) => write!(f, "{e}"),
            FailKind::PeerDown { peer } => {
                write!(f, "send failed: peer rank {peer} terminated mid-run")
            }
            FailKind::PayloadMismatch {
                expected,
                got,
                src,
                ctx,
                tag,
            } => write!(
                f,
                "payload kind mismatch on recv (ctx={ctx}, src={src}, tag={tag}): \
                 expected {expected:?}, got {got:?}"
            ),
            FailKind::Solver {
                phase,
                supernode,
                level,
                detail,
            } => {
                write!(f, "solver failure in phase `{phase}`")?;
                if let Some(s) = supernode {
                    write!(f, ", supernode {s}")?;
                }
                if let Some(l) = level {
                    write!(f, ", level {l}")?;
                }
                write!(f, ": {detail}")
            }
            FailKind::Unreceived { msgs } => {
                write!(f, "{} message(s) sent but never received:", msgs.len())?;
                for m in msgs {
                    write!(f, "\n  {m}")?;
                }
                Ok(())
            }
            FailKind::Config { detail } => write!(f, "configuration error: {detail}"),
            FailKind::Panic { message } => write!(f, "{message}"),
        }
    }
}

/// One rank's recorded failure.
#[derive(Clone, Debug)]
pub struct RankFailure {
    pub rank: usize,
    /// Traffic phase active when the rank failed (empty for raw panics).
    pub phase: String,
    pub kind: FailKind,
    /// Arrival order on the board (0 = first failure observed).
    pub seq: u64,
}

impl RankFailure {
    /// True when this failure was caused by another rank's death.
    pub fn is_cascade(&self) -> bool {
        self.kind.is_cascade()
    }
}

impl fmt::Display for RankFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {}: {}", self.rank, self.kind)
    }
}

/// Panic payload used for orderly rank aborts: the failure is already on
/// the board, so the machine must not re-record (or re-print) it.
pub(crate) struct OrderlyAbort;

/// Machine-wide failure collection, shared by every rank thread. Lock-free
/// fast path for the "has anything failed yet?" poll in blocked receives.
#[derive(Debug, Default)]
pub struct FailureBoard {
    failures: Mutex<Vec<RankFailure>>,
    next_seq: AtomicU64,
    any: AtomicBool,
}

impl FailureBoard {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a failure; assigns its arrival sequence number.
    pub fn record(&self, mut failure: RankFailure) {
        failure.seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        self.failures.lock().unwrap().push(failure);
        self.any.store(true, Ordering::SeqCst);
    }

    /// Cheap poll: has any rank failed?
    pub fn has_failure(&self) -> bool {
        self.any.load(Ordering::Relaxed)
    }

    /// The rank of the primary (non-cascade, earliest) failure, if any.
    pub fn primary_rank(&self) -> Option<usize> {
        let failures = self.failures.lock().unwrap();
        failures
            .iter()
            .filter(|f| !f.is_cascade())
            .min_by_key(|f| f.seq)
            .or_else(|| failures.iter().min_by_key(|f| f.seq))
            .map(|f| f.rank)
    }

    /// Drain the board into a failure list sorted by arrival.
    pub fn into_failures(self) -> Vec<RankFailure> {
        let mut v = self.failures.into_inner().unwrap();
        v.sort_by_key(|f| f.seq);
        v
    }
}

/// The structured outcome of a failed [`crate::Machine::try_run`].
#[derive(Clone, Debug)]
pub struct MachineFailure {
    /// Every recorded rank failure, in arrival order.
    pub failures: Vec<RankFailure>,
}

impl MachineFailure {
    /// A run rejected before any rank started: one [`FailKind::Config`]
    /// failure, attributed to rank 0 under the phase label `config`.
    pub fn config(detail: impl Into<String>) -> MachineFailure {
        MachineFailure {
            failures: vec![RankFailure {
                rank: 0,
                phase: "config".to_string(),
                kind: FailKind::Config {
                    detail: detail.into(),
                },
                seq: 0,
            }],
        }
    }

    /// The failure the run should be attributed to: the earliest
    /// *non-cascade* failure, falling back to the earliest overall.
    pub fn primary(&self) -> &RankFailure {
        self.failures
            .iter()
            .filter(|f| !f.is_cascade())
            .min_by_key(|f| f.seq)
            .or_else(|| self.failures.iter().min_by_key(|f| f.seq))
            .expect("MachineFailure must hold at least one failure")
    }

    /// Render for the legacy panic path: leads with the primary failure in
    /// the historical `simulated rank R panicked: ...` shape, then lists
    /// cascades one line each.
    pub fn render(&self) -> String {
        let primary = self.primary();
        let mut out = format!("simulated rank {} panicked: {}", primary.rank, primary.kind);
        for f in &self.failures {
            if std::ptr::eq(f, primary) {
                continue;
            }
            let first_line = f.kind.to_string();
            let first_line = first_line.lines().next().unwrap_or("").to_string();
            out.push_str(&format!("\n  [cascade] rank {}: {}", f.rank, first_line));
        }
        out
    }
}

impl fmt::Display for MachineFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan {
            seed: 42,
            rules: vec![
                FaultRule {
                    edge: EdgeFilter::any(),
                    action: FaultAction::Drop { p: 0.3 },
                },
                FaultRule {
                    edge: EdgeFilter::any(),
                    action: FaultAction::Delay { p: 0.5, secs: 2.0 },
                },
            ],
            ..Default::default()
        };
        let a: Vec<FaultDecision> = (0..64).map(|s| plan.decide(0, 1, 0, 7, s, 4)).collect();
        let b: Vec<FaultDecision> = (0..64).map(|s| plan.decide(0, 1, 0, 7, s, 4)).collect();
        assert_eq!(a, b, "same plan, same identity => same decisions");
        let other = FaultPlan { seed: 43, ..plan };
        let c: Vec<FaultDecision> = (0..64).map(|s| other.decide(0, 1, 0, 7, s, 4)).collect();
        assert_ne!(a, c, "different seed must change the schedule");
        // With p in (0,1), both outcomes appear over 64 messages.
        assert!(a.iter().any(|d| d.drops > 0));
        assert!(a.iter().any(|d| d.drops == 0));
        assert!(a.iter().any(|d| d.delay > 0.0));
    }

    #[test]
    fn drop_p1_caps_at_retry_budget() {
        let plan = FaultPlan {
            seed: 1,
            rules: vec![FaultRule {
                edge: EdgeFilter::any(),
                action: FaultAction::Drop { p: 1.0 },
            }],
            ..Default::default()
        };
        let d = plan.decide(0, 1, 0, 0, 0, 4);
        assert_eq!(d.drops, 4, "p=1 eats the whole retry budget");
        let d1 = plan.decide(0, 1, 0, 0, 0, 1);
        assert_eq!(d1.drops, 1, "without recovery a drop is one lost message");
    }

    #[test]
    fn edge_filters_scope_rules() {
        let plan = FaultPlan {
            seed: 9,
            rules: vec![FaultRule {
                edge: EdgeFilter {
                    src: Some(1),
                    dst: Some(0),
                    tag: Some(33),
                    ..Default::default()
                },
                action: FaultAction::Drop { p: 1.0 },
            }],
            ..Default::default()
        };
        assert_eq!(plan.decide(1, 0, 0, 33, 5, 1).drops, 1);
        assert_eq!(plan.decide(0, 1, 0, 33, 5, 1).drops, 0, "wrong direction");
        assert_eq!(plan.decide(1, 0, 0, 34, 5, 1).drops, 0, "wrong tag");
    }

    #[test]
    fn link_factor_multiplies_matching_rules() {
        let plan = FaultPlan {
            seed: 0,
            links: vec![
                LinkRule {
                    edge: EdgeFilter {
                        src: Some(0),
                        ..Default::default()
                    },
                    factor: 4.0,
                },
                LinkRule {
                    edge: EdgeFilter {
                        dst: Some(1),
                        ..Default::default()
                    },
                    factor: 2.5,
                },
            ],
            ..Default::default()
        };
        assert_eq!(plan.link_factor(0, 1, 0, 0), 10.0);
        assert_eq!(plan.link_factor(0, 2, 0, 0), 4.0);
        assert_eq!(plan.link_factor(3, 2, 0, 0), 1.0);
    }

    #[test]
    fn parse_roundtrips_the_grammar() {
        let plan = FaultPlan::parse(
            "drop:p=0.05,src=1,dst=0; dup:p=0.1,tag=7; delay:p=0.2,secs=1e-4; \
             stall:rank=2,at=0.01,secs=0.5; degrade:factor=8,ctx=3",
            77,
        )
        .unwrap();
        assert_eq!(plan.seed, 77);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(
            plan.rules[0],
            FaultRule {
                edge: EdgeFilter {
                    src: Some(1),
                    dst: Some(0),
                    ..Default::default()
                },
                action: FaultAction::Drop { p: 0.05 },
            }
        );
        assert_eq!(plan.rules[1].edge.tag, Some(7));
        assert_eq!(
            plan.stalls,
            vec![StallRule {
                rank: 2,
                at: 0.01,
                secs: 0.5
            }]
        );
        assert_eq!(plan.links.len(), 1);
        assert_eq!(plan.links[0].factor, 8.0);
        assert_eq!(plan.links[0].edge.ctx, Some(3));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "drop",                  // no colon
            "drop:p",                // not key=value
            "drop:src=1",            // missing p
            "delay:p=0.5",           // missing secs
            "stall:rank=1,secs=1.0", // missing at
            "degrade:p=0.5",         // missing factor
            "warp:p=0.5",            // unknown kind
            "drop:p=0.5,zap=1",      // unknown key
            "drop:p=abc",            // bad number
        ] {
            assert!(
                FaultPlan::parse(bad, 0).is_err(),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn stalls_for_sorts_by_time() {
        let plan = FaultPlan {
            stalls: vec![
                StallRule {
                    rank: 1,
                    at: 5.0,
                    secs: 1.0,
                },
                StallRule {
                    rank: 1,
                    at: 2.0,
                    secs: 1.0,
                },
                StallRule {
                    rank: 0,
                    at: 0.0,
                    secs: 1.0,
                },
            ],
            ..Default::default()
        };
        let s = plan.stalls_for(1);
        assert_eq!(s.len(), 2);
        assert!(s[0].at < s[1].at);
    }

    #[test]
    fn board_attributes_primary_over_cascades() {
        let board = FailureBoard::new();
        board.record(RankFailure {
            rank: 0,
            phase: "fact".into(),
            kind: FailKind::PeerDown { peer: 2 },
            seq: 0,
        });
        board.record(RankFailure {
            rank: 2,
            phase: "fact".into(),
            kind: FailKind::Panic {
                message: "original boom".into(),
            },
            seq: 0,
        });
        assert!(board.has_failure());
        assert_eq!(board.primary_rank(), Some(2), "cascade must not win");
        let mf = MachineFailure {
            failures: board.into_failures(),
        };
        assert_eq!(mf.primary().rank, 2);
        let r = mf.render();
        assert!(
            r.starts_with("simulated rank 2 panicked: original boom"),
            "{r}"
        );
        assert!(r.contains("[cascade] rank 0"), "{r}");
    }
}
