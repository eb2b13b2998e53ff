//! The per-rank execution context: point-to-point messaging, clocks,
//! counters, spans, and metrics.

use crate::backend::{EventSched, WaitKey};
use crate::comm::Comm;
use crate::faultlab::{
    FailKind, FailureBoard, FaultDecision, FaultPlan, OrderlyAbort, RankFailure, RecvError,
    RetryPolicy, StallRule,
};
use crate::payload::Payload;
use crate::stats::RankReport;
use crate::tags::COLL_TAG;
use crate::timemodel::TimeModel;
use crate::topology::Grid3d;
use commcheck::{WaitGraph, WaitInfo};
use obs::{
    ActivityKind, CommClass, CommLedger, GridAxis, Histogram, HostPhase, HostProf, HostScope,
    MemClass, MemLedger, MetricsRegistry, MsgInfo, Recorder, SpanCat, SpanId,
};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Granularity at which a blocked receive polls for a published deadlock
/// report (and for the timeout deadline).
const BLOCK_SLICE: Duration = Duration::from_millis(20);

/// A message in flight.
#[derive(Debug)]
pub(crate) struct Msg {
    pub src_world: usize,
    pub ctx: u64,
    pub tag: u64,
    /// Simulated time at which this message is available to the receiver.
    pub arrival: f64,
    /// Machine-unique id linking this message's send and recv trace
    /// activities (high bits: sender world rank; low bits: send sequence).
    pub uid: u64,
    /// Link-degradation factor in effect on this edge (1.0 = healthy);
    /// the receiver charges the same degraded transfer cost the sender did.
    pub link: f64,
    /// True for a transport-level duplicate injected under recovery: the
    /// receiver filters it at intake before protocol matching.
    pub injected_dup: bool,
    pub payload: Payload,
}

/// The execution context handed to the SPMD closure for each simulated rank.
///
/// All communication and time accounting flows through methods on this type.
pub struct Rank {
    world_rank: usize,
    /// The world communicator, built once: its member list is one
    /// allocation shared by every rank of the machine.
    world: Comm,
    senders: Arc<Vec<Sender<Msg>>>,
    inbox: Receiver<Msg>,
    /// Messages received from the channel but not yet matched by a `recv`,
    /// in arrival order — an MPI unexpected-message queue. A receive takes
    /// the oldest message with its key, so the queue holds exactly the
    /// messages still owed a receive and is empty once they are all matched.
    pending: Vec<Msg>,
    model: TimeModel,
    /// Monotonic counter for deterministic communicator context ids; all
    /// ranks create communicators in the same order (SPMD discipline).
    next_ctx: u64,
    /// The current traffic phase label, shared with [`Rank::phases`].
    phase: Arc<str>,
    /// Every label [`Rank::set_phase`] has seen: changing phase, or handing
    /// the label to the wait-for graph, allocates nothing after a label's
    /// first use.
    phases: Vec<Arc<str>>,
    clock: f64,
    t_comm: f64,
    t_comp: f64,
    flops: u64,
    /// Per-send sequence number feeding message uids.
    msg_seq: u64,
    /// Span/activity recorder, present when the machine traces.
    rec: Option<Recorder>,
    /// The `Phase` span opened by [`Rank::set_phase`], rotated on change.
    phase_span: Option<SpanId>,
    /// Always-on counters/gauges/histograms; merged across ranks after the
    /// run.
    metrics: MetricsRegistry,
    /// The per-message metrics, kept as plain fields on the send and receive
    /// paths and entered into `metrics` under their names by
    /// [`Rank::into_report`]: `msg.sent`, `msg.send_words`, `recv.wait_secs`.
    msgs_sent: u64,
    send_words: Histogram,
    recv_wait_secs: Histogram,
    /// Tagged allocation ledger: running balances per memory class, the
    /// high-water mark, and its class+level attribution. Always on; the
    /// per-event timeline is recorded only when tracing.
    ledger: MemLedger,
    /// Wire-volume ledger: algorithmic words sent keyed by
    /// `(phase, class, tree level, grid axis)` plus per-edge totals.
    /// Always on; the per-event timeline is recorded only when tracing.
    comm: CommLedger,
    /// Host-time profiler, present when the machine runs with
    /// [`crate::Machine::with_host_profiling`]. `None` means every
    /// [`Rank::host_scope`] is a no-op guard — zero cost on default runs.
    host: Option<Arc<HostProf>>,
    /// Explicit communication class for subsequent sends
    /// ([`Rank::set_comm_class`]); overrides tag-based classification, so
    /// panel broadcasts keep their class inside collective internals.
    comm_class: Option<CommClass>,
    /// 3D process-grid shape registered by the topology layer
    /// ([`Rank::register_grid`]) with this rank's coordinates in it;
    /// classifies each send's edge by grid axis. Without it every edge
    /// classifies as [`GridAxis::Cross`].
    grid: Option<(Grid3d, (usize, usize, usize))>,
    /// Machine-wide wait-for graph; touched only when a receive actually
    /// blocks on the channel, so the fast path costs nothing.
    wait_graph: Arc<WaitGraph>,
    /// Seeded fault plan, present when the machine runs with
    /// [`crate::Machine::with_fault_plan`]. `None` costs nothing on the
    /// send path.
    faults: Option<Arc<FaultPlan>>,
    /// Ack/retransmit recovery for droppable sends
    /// ([`crate::Machine::with_retry`]); `None` means drops are lost.
    retry: Option<RetryPolicy>,
    /// Simulated-time receive deadline ([`crate::Machine::with_recv_deadline`]):
    /// a receive whose matching message arrives later than this many
    /// simulated seconds after the receiver started waiting fails with
    /// [`RecvError::Deadline`] instead of silently absorbing the stall.
    recv_deadline: Option<f64>,
    /// Wall-clock backstop for a blocked receive (threaded backend):
    /// per-machine config, defaulting from `SALU_RECV_TIMEOUT_SECS` at run
    /// time (see [`crate::Machine::with_recv_timeout`]). Unused under the
    /// event backend, where a blocked receive parks instead of polling.
    recv_timeout: Duration,
    /// Machine-wide failure collection (primary vs cascade attribution).
    board: Arc<FailureBoard>,
    /// This rank's stall windows from the plan, sorted by trigger time.
    my_stalls: Vec<StallRule>,
    /// Index of the next unapplied stall window.
    stall_idx: usize,
    /// The cooperative scheduler, present iff the machine runs under
    /// [`crate::Backend::Event`]. `None` (the threaded backend) makes every
    /// event-mode hook vanish from the hot paths.
    sched: Option<Arc<EventSched>>,
}

/// Is `m` the message the blocked receive `wait` names?
fn satisfies(m: &Msg, wait: &WaitInfo) -> bool {
    (m.ctx, m.src_world, m.tag) == (wait.ctx, wait.src, wait.tag)
}

/// Fault-layer wiring shared by every rank; built once per run by the
/// machine.
#[derive(Clone)]
pub(crate) struct FaultCtx {
    pub faults: Option<Arc<FaultPlan>>,
    pub retry: Option<RetryPolicy>,
    pub recv_deadline: Option<f64>,
    pub recv_timeout: Duration,
    pub board: Arc<FailureBoard>,
}

impl Rank {
    #[allow(clippy::too_many_arguments)] // crate-internal; called once from Machine::run
    pub(crate) fn new(
        world_rank: usize,
        world_members: Arc<Vec<usize>>,
        senders: Arc<Vec<Sender<Msg>>>,
        inbox: Receiver<Msg>,
        model: TimeModel,
        tracing: bool,
        host_profiling: bool,
        wait_graph: Arc<WaitGraph>,
        fctx: FaultCtx,
        sched: Option<Arc<EventSched>>,
    ) -> Self {
        let my_stalls = fctx
            .faults
            .as_ref()
            .map(|p| p.stalls_for(world_rank))
            .unwrap_or_default();
        let phase: Arc<str> = "default".into();
        Rank {
            world_rank,
            world: Comm {
                ctx: 0,
                members: world_members,
                my_local: world_rank,
            },
            senders,
            inbox,
            pending: Vec::new(),
            model,
            next_ctx: 1, // 0 is reserved for the world communicator
            phases: vec![Arc::clone(&phase)],
            phase,
            clock: 0.0,
            t_comm: 0.0,
            t_comp: 0.0,
            flops: 0,
            msg_seq: 0,
            rec: if tracing {
                Some(Recorder::new(world_rank))
            } else {
                None
            },
            phase_span: None,
            metrics: MetricsRegistry::default(),
            msgs_sent: 0,
            send_words: Histogram::default(),
            recv_wait_secs: Histogram::default(),
            ledger: MemLedger::new(tracing),
            comm: CommLedger::new(tracing),
            host: host_profiling.then(|| Arc::new(HostProf::new(tracing))),
            comm_class: None,
            grid: None,
            wait_graph,
            faults: fctx.faults,
            retry: fctx.retry,
            recv_deadline: fctx.recv_deadline,
            recv_timeout: fctx.recv_timeout,
            board: fctx.board,
            my_stalls,
            stall_idx: 0,
            sched,
        }
    }

    /// Record this rank's failure on the machine's board and abort the
    /// rank thread in an orderly way: the machine attributes the run
    /// failure to the first *primary* (non-cascade) entry, so a rank dying
    /// here never masks the original cause. Public so solver layers can
    /// surface structured [`FailKind::Solver`] failures.
    pub fn fail(&self, kind: FailKind) -> ! {
        self.board.record(RankFailure {
            rank: self.world_rank,
            phase: self.phase.to_string(),
            kind,
            seq: 0,
        });
        std::panic::panic_any(OrderlyAbort);
    }

    /// Record one machine-level activity interval, if tracing.
    #[inline]
    fn record(
        &mut self,
        kind: ActivityKind,
        start: f64,
        end: f64,
        peer: Option<usize>,
        words: u64,
        msg: Option<MsgInfo>,
    ) {
        if let Some(rec) = &mut self.rec {
            rec.activity(kind, start, end, peer, words, msg);
        }
    }

    /// This rank's world rank.
    #[inline]
    pub fn id(&self) -> usize {
        self.world_rank
    }

    /// Total number of ranks on the machine.
    #[inline]
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// The machine model in effect.
    pub fn model(&self) -> TimeModel {
        self.model
    }

    /// The world communicator containing every rank.
    pub fn world(&self) -> Comm {
        self.world.clone()
    }

    /// Create a sub-communicator from an explicit member list (world ranks,
    /// in local-rank order). **Collective**: every rank of the world must
    /// call `subset` in the same order with the same `members` so context
    /// ids line up (MPI_Comm_create semantics). Returns `None` for
    /// non-members, who must still call this method.
    pub fn subset(&mut self, members: &[usize]) -> Option<Comm> {
        let ctx = self.next_ctx;
        self.next_ctx += 1;
        let my_local = members.iter().position(|&w| w == self.world_rank)?;
        Some(Comm {
            ctx,
            members: Arc::new(members.to_vec()),
            my_local,
        })
    }

    /// [`Rank::subset`] for a family of `count` pairwise-disjoint
    /// communicators created back to back, of which this rank belongs to the
    /// `index`-th only (its layer among the layers, its row among the rows):
    /// the same context ids as `count` `subset` calls, without building the
    /// member lists of the `count - 1` communicators it is not part of.
    pub(crate) fn subset_in_family(
        &mut self,
        count: usize,
        index: usize,
        members: Vec<usize>,
    ) -> Comm {
        debug_assert!(index < count);
        let ctx = self.next_ctx + index as u64;
        self.next_ctx += count as u64;
        let my_local = members
            .iter()
            .position(|&w| w == self.world_rank)
            .expect("a rank is a member of its own communicator");
        Comm {
            ctx,
            members: Arc::new(members),
            my_local,
        }
    }

    /// Set the traffic-accounting phase label. All subsequent sends and
    /// receives are counted under this label until it changes. The LU stack
    /// uses `"fact"` for xy-plane factorization traffic and `"reduce"` for
    /// z-axis ancestor-reduction traffic (paper Fig. 10).
    ///
    /// When tracing, this also rotates a `Phase` span under whatever span
    /// is currently open (e.g. the level span), so phases show up in the
    /// trace hierarchy and critical-path attribution without extra calls.
    pub fn set_phase(&mut self, phase: &str) {
        let changed = &*self.phase != phase;
        if changed {
            let known = self.phases.iter().position(|p| **p == *phase);
            let at = known.unwrap_or_else(|| {
                self.phases.push(phase.into());
                self.phases.len() - 1
            });
            self.phase = Arc::clone(&self.phases[at]);
        }
        let Some(rec) = &mut self.rec else {
            return;
        };
        // Reopen even when the label is unchanged if the previous phase
        // span was closed by an enclosing span's exit (next level loop).
        let stale = self.phase_span.is_none_or(|ps| !rec.is_open(ps));
        if !changed && !stale {
            return;
        }
        let t = self.clock;
        if let Some(ps) = self.phase_span.take() {
            if rec.is_open(ps) {
                rec.exit(ps, t);
            }
        }
        self.phase_span = Some(rec.enter(SpanCat::Phase, &self.phase, t));
    }

    /// Open a labeled span at the current simulated time. Returns a handle
    /// for [`Rank::span_exit`]; `None` when the machine is not tracing
    /// (pass it to `span_exit` regardless — the pair is a no-op then).
    /// `name` is rendered only when tracing: pass `format_args!(..)` for a
    /// computed name and an untraced run allocates nothing for it.
    pub fn span_enter(&mut self, cat: SpanCat, name: impl std::fmt::Display) -> Option<SpanId> {
        let t = self.clock;
        self.rec
            .as_mut()
            .map(|rec| rec.enter(cat, &name.to_string(), t))
    }

    /// Close a span opened by [`Rank::span_enter`]. Inner spans still open
    /// are closed with it.
    pub fn span_exit(&mut self, id: Option<SpanId>) {
        let t = self.clock;
        if let (Some(rec), Some(id)) = (self.rec.as_mut(), id) {
            rec.exit(id, t);
        }
    }

    /// Run `f` inside a span: sugar for `span_enter` / `span_exit` that
    /// cannot leak an open span on early return of a value.
    pub fn with_span<T>(
        &mut self,
        cat: SpanCat,
        name: impl std::fmt::Display,
        f: impl FnOnce(&mut Rank) -> T,
    ) -> T {
        let id = self.span_enter(cat, name);
        let out = f(self);
        self.span_exit(id);
        out
    }

    /// Bump a named metrics counter by `by`.
    pub fn metric_inc(&mut self, name: &str, by: u64) {
        self.metrics.inc(name, by);
    }

    /// Record a histogram sample under `name` (log2 buckets).
    pub fn metric_observe(&mut self, name: &str, v: f64) {
        self.metrics.observe(name, v);
    }

    /// Keep the maximum of `v` under gauge `name`.
    pub fn metric_gauge_max(&mut self, name: &str, v: f64) {
        self.metrics.gauge_max(name, v);
    }

    /// Open a host-time profiling scope for `phase`. Returns a no-op guard
    /// when the machine runs without [`crate::Machine::with_host_profiling`],
    /// so call sites never branch. The guard holds its own profiler handle —
    /// the rank stays mutably usable while the scope is open.
    pub fn host_scope(&self, phase: HostPhase) -> HostScope {
        match &self.host {
            Some(h) => h.scope(phase, None, self.clock),
            None => HostScope::noop(),
        }
    }

    /// Like [`Rank::host_scope`], additionally attributing the scope's
    /// self time to supernode `sn`.
    pub fn host_scope_sn(&self, phase: HostPhase, sn: usize) -> HostScope {
        match &self.host {
            Some(h) => h.scope(phase, Some(sn), self.clock),
            None => HostScope::noop(),
        }
    }

    /// Charge `bytes` of `class` to the memory ledger at the current
    /// simulated time, attributed to the current elimination-tree level.
    pub fn mem_charge(&mut self, class: MemClass, bytes: u64) {
        let t = self.clock;
        self.ledger.charge(class, bytes, t);
    }

    /// Charge against an explicit tree level (e.g. ancestor replicas whose
    /// level is known at store-build time).
    pub fn mem_charge_at(&mut self, class: MemClass, level: u32, bytes: u64) {
        let t = self.clock;
        self.ledger.charge_at(class, level, bytes, t);
    }

    /// Credit (free) `bytes` of `class` at the current level. Panics on
    /// underflow — a credit without a matching charge is a wiring bug.
    pub fn mem_credit(&mut self, class: MemClass, bytes: u64) {
        let t = self.clock;
        self.ledger.credit(class, bytes, t);
    }

    /// Credit against an explicit tree level.
    pub fn mem_credit_at(&mut self, class: MemClass, level: u32, bytes: u64) {
        let t = self.clock;
        self.ledger.credit_at(class, level, bytes, t);
    }

    /// Set the elimination-tree level subsequent ledger charges are
    /// attributed to (the 3D driver calls this once per level; 2D runs
    /// stay at level 0).
    pub fn set_tree_level(&mut self, level: u32) {
        self.ledger.set_level(level);
        self.comm.set_level(level);
    }

    /// Register the 3D process-grid shape so subsequent traffic is
    /// classified by grid axis (x: row, y: column, z: anti-diagonal stack).
    /// Called once by [`crate::build_grid_comms`]; drivers that build their
    /// own communicators can call it directly.
    pub fn register_grid(&mut self, g: Grid3d) {
        self.grid = Some((g, g.coords_of(self.world_rank)));
    }

    /// Set the communication class subsequent sends are charged to in the
    /// wire ledger, or clear it with `None`. An explicit class overrides
    /// tag-based classification (collective-internal vs control), so a
    /// panel broadcast keeps its class while riding a collective.
    pub fn set_comm_class(&mut self, class: Option<CommClass>) {
        self.comm_class = class;
    }

    /// Run `f` with sends classified as `class`, restoring the previous
    /// classification on return.
    pub fn with_comm_class<T>(&mut self, class: CommClass, f: impl FnOnce(&mut Rank) -> T) -> T {
        let prev = self.comm_class;
        self.comm_class = Some(class);
        let out = f(self);
        self.comm_class = prev;
        out
    }

    /// Which grid axis the edge from this rank to world rank `peer` runs
    /// along. Exactly one differing coordinate names the axis; anything
    /// else — including no registered grid — is a cross edge.
    fn comm_axis(&self, peer: usize) -> GridAxis {
        let Some((g, (r0, c0, z0))) = self.grid else {
            return GridAxis::Cross;
        };
        let (r1, c1, z1) = g.coords_of(peer);
        match (r0 != r1, c0 != c1, z0 != z1) {
            (false, true, false) => GridAxis::X,
            (true, false, false) => GridAxis::Y,
            (false, false, true) => GridAxis::Z,
            _ => GridAxis::Cross,
        }
    }

    /// Apply any stall window whose trigger time has been reached: the
    /// rank pauses for the window's length in simulated time, recorded as
    /// a `Wait` activity under a `fault` span. Stalls are applied at the
    /// send path — the fault layer's injection point.
    fn apply_stalls(&mut self) {
        while let Some(&StallRule { at, secs, .. }) = self.my_stalls.get(self.stall_idx) {
            if self.clock < at {
                break;
            }
            self.stall_idx += 1;
            let sp = self.span_enter(SpanCat::Fault, "stall");
            let t0 = self.clock;
            self.clock += secs;
            self.t_comm += secs;
            self.record(ActivityKind::Wait, t0, self.clock, None, 0, None);
            self.span_exit(sp);
            self.metrics.inc("fault.injected.stall", 1);
            self.metrics.observe("fault.stall_secs", secs);
        }
    }

    /// Send `payload` to local rank `dst` of `comm` with `tag`.
    /// Non-blocking (eager buffering), like `MPI_Send` under the eager
    /// protocol. Charges `α + β·words` of simulated time to this rank.
    ///
    /// This is the injection point of the fault layer
    /// ([`crate::Machine::with_fault_plan`]): a matching plan may stall the
    /// rank, drop/duplicate/delay the message, or degrade the link. With
    /// recovery on ([`crate::Machine::with_retry`]) dropped attempts are
    /// retransmitted after a simulated timeout with exponential backoff —
    /// the receiver sees exactly the fault-free payload sequence, so
    /// results stay bitwise identical and only clocks shift.
    pub fn send(&mut self, comm: &Comm, dst: usize, tag: u64, payload: Payload) {
        if !self.my_stalls.is_empty() {
            self.apply_stalls();
        }
        let dst_world = comm.world_rank_of(dst);
        let (decision, link) = match &self.faults {
            Some(plan) => {
                let max_drops = match &self.retry {
                    Some(r) => r.max_attempts.saturating_sub(1),
                    None => 1,
                };
                (
                    plan.decide(
                        self.world_rank,
                        dst_world,
                        comm.ctx,
                        tag,
                        self.msg_seq,
                        max_drops,
                    ),
                    plan.link_factor(self.world_rank, dst_world, comm.ctx, tag),
                )
            }
            None => (FaultDecision::default(), 1.0),
        };
        if decision.drops > 0 {
            self.metrics
                .inc("fault.injected.drop", u64::from(decision.drops));
            match self.retry {
                Some(retry) => {
                    // Recovery: each lost attempt costs its transfer charge
                    // plus the (backed-off) ack timeout, all in simulated
                    // time; then the loop below sends the attempt that gets
                    // through. Transport-internal attempts carry no message
                    // identity — the offline linter pairs sends and
                    // receives by uid, and these are never received.
                    let words = payload.words();
                    let sp = self.span_enter(SpanCat::Fault, "retransmit");
                    for attempt in 0..decision.drops {
                        let cost = self.model.xfer_on(words, link);
                        let wait = retry.timeout * retry.backoff.powi(attempt as i32);
                        let t0 = self.clock;
                        self.clock += cost;
                        self.record(
                            ActivityKind::Send,
                            t0,
                            self.clock,
                            Some(dst_world),
                            words,
                            None,
                        );
                        let tw = self.clock;
                        self.clock += wait;
                        self.record(ActivityKind::Wait, tw, self.clock, Some(dst_world), 0, None);
                        self.t_comm += cost + wait;
                        // Lost attempts are transport overhead, not
                        // algorithmic volume: they stay out of the traffic
                        // counters and wire ledger so a recovered run
                        // reports the same algorithmic volume as a
                        // fault-free one.
                        self.metrics.inc("fault.resent_msgs", 1);
                        self.metrics.inc("fault.resent_words", words);
                        self.metrics.inc("fault.recovered.retransmit", 1);
                        self.metrics.observe("fault.retry_wait_secs", wait);
                    }
                    self.span_exit(sp);
                }
                None => {
                    // No recovery: the message vanishes in the network. The
                    // sender cannot tell, so it pays and records the send
                    // normally; nothing reaches the destination, whose
                    // receive deadlocks.
                    self.send_physical(
                        comm.ctx, dst_world, tag, payload, link, 0.0, true, false, false,
                    );
                    return;
                }
            }
        }
        if decision.delay > 0.0 {
            self.metrics.inc("fault.injected.delay", 1);
            self.metrics.observe("fault.delay_secs", decision.delay);
        }
        let dup_payload = decision.dup.then(|| payload.clone());
        self.send_physical(
            comm.ctx,
            dst_world,
            tag,
            payload,
            link,
            decision.delay,
            true,
            false,
            true,
        );
        if let Some(p) = dup_payload {
            self.metrics.inc("fault.injected.dup", 1);
            // The duplicate rides right behind the original. With recovery
            // on it is transport-internal (flagged, filtered at the
            // receiver's intake or, past its last receive, skipped by the
            // machine's unreceived-message check); without recovery it is
            // a real protocol-level extra message that check reports.
            let recovering = self.retry.is_some();
            self.send_physical(
                comm.ctx,
                dst_world,
                tag,
                p,
                link,
                decision.delay,
                !recovering,
                recovering,
                true,
            );
        }
    }

    /// One physical message: charge the sender, record the activity, hand
    /// the message to the destination channel. `visible` sends carry their
    /// message identity and count as algorithmic traffic;
    /// transport-internal ones (recovered duplicates) do neither.
    /// `deliver: false` models an unrecovered network drop: the sender pays
    /// and records as usual but the message never reaches the destination
    /// channel. A rank that returned keeps its inbox open until the machine
    /// has joined every rank, so a closed destination channel means the
    /// peer *died* mid-run — an orderly cascade failure, not a process
    /// abort — whichever of the two ranks the host ran first.
    #[allow(clippy::too_many_arguments)]
    fn send_physical(
        &mut self,
        ctx: u64,
        dst_world: usize,
        tag: u64,
        payload: Payload,
        link: f64,
        delay: f64,
        visible: bool,
        injected_dup: bool,
        deliver: bool,
    ) {
        let words = payload.words();
        let cost = self.model.xfer_on(words, link);
        let t0 = self.clock;
        self.clock += cost;
        self.t_comm += cost;
        let uid = ((self.world_rank as u64) << 40) | self.msg_seq;
        self.msg_seq += 1;
        let info = visible.then_some(MsgInfo { uid, ctx, tag });
        self.record(
            ActivityKind::Send,
            t0,
            self.clock,
            Some(dst_world),
            words,
            info,
        );
        if visible {
            self.msgs_sent += 1;
            self.send_words.observe(words as f64);
            let struct_words = payload.struct_words();
            let class = self.comm_class.unwrap_or(if tag & COLL_TAG != 0 {
                CommClass::Collective
            } else {
                CommClass::Control
            });
            let axis = self.comm_axis(dst_world);
            self.comm
                .charge_send(&self.phase, class, axis, dst_world, words, struct_words, t0);
        } else {
            // Transport-internal duplicate under recovery: the network
            // pays, the algorithm doesn't — count it as resend overhead
            // only, like the retransmit attempts above.
            self.metrics.inc("fault.resent_msgs", 1);
            self.metrics.inc("fault.resent_words", words);
        }
        if !deliver {
            return;
        }
        let msg = Msg {
            src_world: self.world_rank,
            ctx,
            tag,
            arrival: self.clock + delay,
            uid,
            link,
            injected_dup,
            payload,
        };
        if self.senders[dst_world].send(msg).is_err() {
            self.fail(FailKind::PeerDown { peer: dst_world });
        }
        // Event backend: a delivered message is a scheduler event — a
        // destination parked on exactly this message becomes runnable.
        if let Some(sched) = &self.sched {
            sched.note_send(self.world_rank, dst_world, ctx, tag);
        }
    }

    /// Buffer a message that did not match the receive in progress.
    fn stash(&mut self, m: Msg) {
        self.pending.push(m);
    }

    /// Take the oldest buffered message from `key = (ctx, src_world, tag)`.
    fn pop_pending(&mut self, key: (u64, usize, u64)) -> Option<Msg> {
        let at = self
            .pending
            .iter()
            .position(|m| (m.ctx, m.src_world, m.tag) == key)?;
        Some(self.pending.remove(at))
    }

    /// Number of received messages no `recv` has matched yet.
    #[cfg(test)]
    pub(crate) fn unexpected_msgs(&self) -> usize {
        self.pending.len()
    }

    /// Filter one message pulled off the channel. Transport-level
    /// duplicates injected under recovery are consumed here, before any
    /// protocol matching or stashing — the protocol layer never sees them.
    fn intake(&mut self, m: Msg) -> Option<Msg> {
        if m.injected_dup {
            self.metrics.inc("fault.recovered.dup_filtered", 1);
            return None;
        }
        Some(m)
    }

    /// Wait on the inbox for the message with `key = (ctx, src_world, tag)`,
    /// buffering everything else. The caller has already checked `pending`.
    /// While genuinely blocked (channel empty), this rank is registered in
    /// the machine's wait-for graph: the deadlock detector reads it, and a
    /// confirmed deadlock published there aborts the wait immediately with
    /// the cycle report. A wait whose source has terminated after another
    /// rank failed resolves as a cascade ([`RecvError::PeerFailed`]); the
    /// wall-clock timeout stays as the last backstop and its report names
    /// the whole wait-for-graph state.
    fn blocked_recv(&mut self, key: (u64, usize, u64)) -> Result<Msg, RecvError> {
        let (ctx, src, tag) = key;
        // Host-profiler attribution: everything below — including the
        // fast-path drain — is time spent satisfying a receive the
        // algorithm is blocked on.
        let _host = self.host_scope(HostPhase::CommWait);
        // Fast path: drain whatever is already queued without blocking.
        while let Ok(m) = self.inbox.try_recv() {
            let Some(m) = self.intake(m) else { continue };
            if (m.ctx, m.src_world, m.tag) == key {
                return Ok(m);
            }
            self.stash(m);
        }
        // Registering the wait costs two reference counts; what a failure
        // report says about it is rendered only if the wait fails.
        let wait = WaitInfo {
            src,
            ctx,
            tag,
            phase: Arc::clone(&self.phase),
        };
        self.wait_graph.block(self.world_rank, wait.clone());
        let result = if self.sched.is_some() {
            self.blocked_wait_event(&wait)
        } else {
            self.blocked_wait_threaded(&wait)
        };
        self.wait_graph.unblock(self.world_rank);
        result
    }

    /// Threaded-backend wait: sleep on the channel in slices, polling for a
    /// published deadlock report, cascade resolution, and the wall-clock
    /// backstop.
    fn blocked_wait_threaded(&mut self, wait: &WaitInfo) -> Result<Msg, RecvError> {
        // det-lint: allow(wall-clock): host watchdog against a hung recv, not simulated time
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            if let Some(report) = self.wait_graph.deadlock_report() {
                return Err(RecvError::Deadlock { report });
            }
            match self.inbox.recv_timeout(BLOCK_SLICE) {
                Ok(m) => {
                    let Some(m) = self.intake(m) else { continue };
                    if satisfies(&m, wait) {
                        return Ok(m);
                    }
                    self.stash(m);
                }
                Err(_) => {
                    if self.board.has_failure() && self.wait_graph.is_done(wait.src) {
                        return self.resolve_cascade(wait);
                    }
                    // det-lint: allow(wall-clock): host watchdog check
                    if Instant::now() >= deadline {
                        return Err(RecvError::WallTimeout {
                            src: wait.src,
                            ctx: wait.ctx,
                            tag: wait.tag,
                            dump: self.wait_graph.dump(),
                        });
                    }
                }
            }
        }
    }

    /// Event-backend wait: no channel sleeping and no wall-clock deadline.
    /// The rank parks by passing the baton, publishing what it waits for,
    /// and is resumed when a matching message has been delivered to it — or
    /// when the whole machine went quiescent and a deadlock report is
    /// published or waits on dead peers should resolve as cascades.
    fn blocked_wait_event(&mut self, wait: &WaitInfo) -> Result<Msg, RecvError> {
        let key = WaitKey {
            ctx: wait.ctx,
            tag: wait.tag,
            src: wait.src,
        };
        loop {
            if let Some(report) = self.wait_graph.deadlock_report() {
                return Err(RecvError::Deadlock { report });
            }
            if self.board.has_failure() && self.wait_graph.is_done(wait.src) {
                return self.resolve_cascade(wait);
            }
            // Park. On resume either the message is waiting in the inbox or
            // the machine went quiescent and the checks above will fire.
            // Parked wall time belongs to whoever holds the baton, not to
            // this rank's host profile.
            if let Some(host) = &self.host {
                host.pause();
            }
            self.sched
                .as_ref()
                .expect("blocked_wait_event outside event mode")
                .park(self.world_rank, key);
            if let Some(host) = &self.host {
                host.resume();
            }
            while let Ok(m) = self.inbox.try_recv() {
                let Some(m) = self.intake(m) else { continue };
                if satisfies(&m, wait) {
                    return Ok(m);
                }
                self.stash(m);
            }
        }
    }

    /// The rank that could satisfy this receive has terminated after a
    /// failure elsewhere. Drain once more — a dying peer may have pushed
    /// the match right before exiting — then give up as a cascade of the
    /// primary failure.
    fn resolve_cascade(&mut self, wait: &WaitInfo) -> Result<Msg, RecvError> {
        let mut matched = None;
        while let Ok(m) = self.inbox.try_recv() {
            let Some(m) = self.intake(m) else { continue };
            if matched.is_none() && satisfies(&m, wait) {
                matched = Some(m);
            } else {
                self.stash(m);
            }
        }
        match matched {
            Some(m) => Ok(m),
            None => Err(RecvError::PeerFailed {
                origin: self.board.primary_rank().unwrap_or(self.world_rank),
                src: wait.src,
                ctx: wait.ctx,
                tag: wait.tag,
            }),
        }
    }

    /// Receiver-side accounting: clock advance, trace activities, traffic
    /// counters.
    fn complete_recv(&mut self, msg: Msg) -> Result<Payload, RecvError> {
        let src_world = msg.src_world;
        let words = msg.payload.words();
        // Receiver-side charge: wait until the message is available, then
        // pay the transfer cost.
        let ready = msg.arrival.max(self.clock);
        if let Some(d) = self.recv_deadline {
            let waited = ready - self.clock;
            if waited > d {
                return Err(RecvError::Deadline {
                    src: src_world,
                    ctx: msg.ctx,
                    tag: msg.tag,
                    waited,
                    deadline: d,
                });
            }
        }
        let done = ready + self.model.xfer_on(words, msg.link);
        // The message's bytes occupy this rank's receive buffers for the
        // transfer window [ready, done]: charged when the transfer starts,
        // credited when the receive consumes them. Both endpoints are pure
        // simulated-time quantities — charging at physical channel arrival
        // would depend on wall-clock thread interleaving and break run
        // determinism. Level 0 on both sides so a tree-level change during
        // the window cannot unbalance the ledger.
        self.ledger
            .charge_at(MemClass::MsgInFlight, 0, words * 8, ready);
        self.t_comm += done - self.clock;
        if ready > self.clock {
            self.recv_wait_secs.observe(ready - self.clock);
        }
        self.record(
            ActivityKind::Wait,
            self.clock,
            ready,
            Some(src_world),
            0,
            None,
        );
        self.record(
            ActivityKind::Recv,
            ready,
            done,
            Some(src_world),
            words,
            Some(MsgInfo {
                uid: msg.uid,
                ctx: msg.ctx,
                tag: msg.tag,
            }),
        );
        self.clock = done;
        self.ledger
            .credit_at(MemClass::MsgInFlight, 0, words * 8, done);
        self.comm.charge_recv(src_world, words);
        Ok(msg.payload)
    }

    /// Convert a failed receive into an orderly rank failure.
    fn fail_recv(&self, e: RecvError) -> ! {
        self.fail(FailKind::Recv(e))
    }

    /// Blocking receive of the message from local rank `src` of `comm` with
    /// `tag`. Advances this rank's clock to at least the message arrival
    /// time plus the transfer charge; waiting time counts as communication.
    ///
    /// A receive that cannot complete fails the rank in an orderly way
    /// (recorded on the machine's failure board): a deadlock naming the
    /// exact cycle (proved from quiescence under the event backend, by the
    /// watchdog within ~100ms under the threaded one when a fault plan is
    /// installed), a wait whose source died as a cascade, a late arrival
    /// past the simulated deadline, or the wall-clock backstop — failing
    /// loudly beats hanging the test suite. Use [`Rank::recv_checked`] to
    /// handle the error instead.
    pub fn recv(&mut self, comm: &Comm, src: usize, tag: u64) -> Payload {
        match self.recv_checked(comm, src, tag) {
            Ok(p) => p,
            Err(e) => self.fail_recv(e),
        }
    }

    /// Like [`Rank::recv`], but surfaces the failure to the caller so
    /// solver layers can attach algorithmic context (phase, supernode)
    /// before failing the rank.
    pub fn recv_checked(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: u64,
    ) -> Result<Payload, RecvError> {
        let src_world = comm.world_rank_of(src);
        let key = (comm.ctx, src_world, tag);
        let msg = match self.pop_pending(key) {
            Some(m) => m,
            None => self.blocked_recv(key)?,
        };
        self.complete_recv(msg)
    }

    /// Receive and unwrap an `F64s` payload. A kind mismatch fails the rank
    /// with a structured [`FailKind::PayloadMismatch`] carrying the message
    /// provenance (src/ctx/tag/phase) instead of a bare panic.
    pub fn recv_f64s(&mut self, comm: &Comm, src: usize, tag: u64) -> Vec<f64> {
        let src_world = comm.world_rank_of(src);
        match self.recv(comm, src, tag).try_into_f64s() {
            Ok(v) => v,
            Err(e) => self.fail(FailKind::PayloadMismatch {
                expected: e.expected,
                got: e.got,
                src: src_world,
                ctx: comm.ctx,
                tag,
            }),
        }
    }

    /// Charge `flops` floating-point operations of compute time.
    pub fn advance_compute(&mut self, flops: u64) {
        let cost = self.model.compute(flops);
        let t0 = self.clock;
        self.clock += cost;
        self.t_comp += cost;
        self.flops += flops;
        self.record(ActivityKind::Compute, t0, self.clock, None, 0, None);
    }

    /// Current simulated clock in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Snapshot the final report (called by the machine after the SPMD
    /// closure returns). Closes any spans left open. The rank's mail comes
    /// back with it — the still-open inbox and the unexpected-message queue —
    /// for the machine to hold until every rank is joined: a peer's late
    /// send still lands, and whatever is queued then was never received.
    pub(crate) fn into_report(self, wall_secs: f64) -> (RankReport, Receiver<Msg>, Vec<Msg>) {
        // A profiled rank's wall is the time it ran: under the event
        // backend, what it spent parked belongs to the baton holders.
        let wall_secs = match &self.host {
            Some(h) => (wall_secs - h.paused_secs()).max(0.0),
            None => wall_secs,
        };
        let clock = self.clock;
        let mut ledger = self.ledger;
        let mem_timeline = ledger.take_timeline();
        let memprof = ledger.report();
        let mut wire = self.comm;
        let comm_timeline = wire.take_timeline();
        let commvol = wire.report();
        let host_timeline = self
            .host
            .as_ref()
            .map(|h| h.take_timeline())
            .unwrap_or_default();
        let hostprof = self
            .host
            .as_ref()
            .map(|h| h.report(wall_secs, self.flops, commvol.sent_words()));
        let mut metrics = self.metrics;
        if self.msgs_sent > 0 {
            metrics.inc("msg.sent", self.msgs_sent);
        }
        for (name, samples) in [
            ("msg.send_words", self.send_words),
            ("recv.wait_secs", self.recv_wait_secs),
        ] {
            if samples.count > 0 {
                metrics.histograms.insert(name.to_string(), samples);
            }
        }
        metrics.gauge_max("mem.peak_bytes", memprof.peak_bytes as f64);
        let report = RankReport {
            clock,
            t_comm: self.t_comm,
            t_comp: self.t_comp,
            flops: self.flops,
            wall_secs,
            metrics,
            memprof,
            commvol,
            hostprof,
            trace: self.rec.map(|rec| {
                let mut obs = rec.finish(clock);
                obs.mem = mem_timeline;
                obs.comm = comm_timeline;
                obs.host = host_timeline;
                obs
            }),
        };
        (report, self.inbox, self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultlab::UnreceivedMsg;
    use crate::{Backend, Machine};
    use std::cell::RefCell;
    use std::sync::mpsc::channel;
    use std::sync::Mutex;

    /// Fires when the thread that holds it is torn down — after the rank's
    /// closure has returned and the rank itself has been consumed.
    struct ExitSignal(Sender<()>);

    impl Drop for ExitSignal {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    thread_local! {
        static ON_EXIT: RefCell<Option<ExitSignal>> = const { RefCell::new(None) };
    }

    const GO: u64 = 1;

    /// Rank 1's whole program: say go and return at once, leaving a signal
    /// that fires once its thread is gone.
    fn go_and_leave(rank: &mut Rank, gone: &Mutex<Sender<()>>) {
        let gone = gone.lock().unwrap().clone();
        ON_EXIT.with(|s| *s.borrow_mut() = Some(ExitSignal(gone)));
        let world = rank.world();
        rank.send(&world, 0, GO, Payload::Empty);
    }

    /// Rank 0's prologue: take the go (under the event backend this is what
    /// hands rank 1 the baton), then block until rank 1's thread is gone.
    fn wait_until_peer_is_gone(rank: &mut Rank, gone: &Mutex<Receiver<()>>) {
        let world = rank.world();
        rank.recv(&world, 1, GO);
        gone.lock().unwrap().recv().expect("rank 1 exits");
    }

    #[test]
    fn a_send_to_a_returned_rank_is_the_same_unreceived_message_whoever_wins_the_race() {
        // The sender outruns the receiver's return, or the receiver is long
        // gone when the send happens: one verdict. Each order is forced with
        // a host channel; before receivers outlived their ranks the second
        // one failed the *sender* with `PeerDown` instead.
        let verdict = |backend, receiver_gone_first: bool| {
            let (tx, rx) = channel();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
            let mf = Machine::new(2, TimeModel::zero())
                .with_backend(backend)
                .try_run(move |rank| {
                    let world = rank.world();
                    let late = Payload::F64s(vec![0.5; 3]);
                    match (rank.id(), receiver_gone_first) {
                        (0, true) => {
                            wait_until_peer_is_gone(rank, &rx);
                            rank.send(&world, 1, 9, late);
                        }
                        (_, true) => go_and_leave(rank, &tx),
                        (0, false) => {
                            rank.send(&world, 1, 9, late);
                            tx.lock().unwrap().send(()).expect("rank 1 listens");
                        }
                        (_, false) => rx.lock().unwrap().recv().expect("rank 0 has sent"),
                    }
                })
                .expect_err("the late message is never received");
            match &mf.primary().kind {
                FailKind::Unreceived { msgs } => assert_eq!(
                    msgs,
                    &[UnreceivedMsg {
                        src: 0,
                        dst: 1,
                        ctx: 0,
                        tag: 9,
                        words: 3
                    }]
                ),
                other => panic!("{backend}: expected an unreceived message, got {other}"),
            }
            mf.render()
        };
        let first = verdict(Backend::Threaded, true);
        for (backend, receiver_gone_first) in [
            (Backend::Threaded, false),
            (Backend::Event, true),
            (Backend::Event, false),
        ] {
            assert_eq!(verdict(backend, receiver_gone_first), first, "{backend}");
        }
    }

    #[test]
    fn a_transport_duplicate_sent_after_its_receiver_returned_is_neither_failure_nor_leak() {
        // `Rank::send` emits a recovered duplicate right behind its
        // original; when the original was the receiver's last receive the
        // copy can land after the receiver is gone. Forced here by sending
        // the copy alone, once the peer's thread has exited.
        for backend in [Backend::Threaded, Backend::Event] {
            let (tx, rx) = channel();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
            let out = Machine::new(2, TimeModel::zero())
                .with_backend(backend)
                .try_run(move |rank| {
                    if rank.id() == 0 {
                        wait_until_peer_is_gone(rank, &rx);
                        rank.send_physical(0, 1, 4, Payload::Empty, 1.0, 0.0, false, true, true);
                    } else {
                        go_and_leave(rank, &tx);
                    }
                });
            assert!(out.is_ok(), "{backend}: {}", out.unwrap_err().render());
        }
    }
}
