//! The per-rank execution context: point-to-point messaging and clocks.
//! What a rank records lives in its [`Instruments`], reached through one
//! hook per send, receive, compute charge and wait.

use crate::backend::{Sched, WaitInfo};
use crate::comm::Comm;
use crate::faultlab::{
    FailKind, FailureBoard, FaultDecision, FaultPlan, OrderlyAbort, RankFailure, RecvError,
    StallRule, RETRY_ATTEMPTS, RETRY_BACKOFF, RETRY_TIMEOUT_SECS,
};
use crate::instruments::Instruments;
use crate::payload::Payload;
use crate::stats::RankReport;
use crate::timemodel::TimeModel;
use crate::topology::Grid3d;
use obs::{CommClass, HostPhase, HostScope, MemClass, MsgInfo, SpanCat, SpanId};
use std::sync::Arc;

/// A message in flight.
#[derive(Debug)]
pub(crate) struct Msg {
    pub src_world: usize,
    /// Identity and class: the machine-unique id linking this message's
    /// send and recv trace activities (high bits: sender world rank; low
    /// bits: send sequence), and the context and tag it is matched under.
    pub info: MsgInfo,
    /// Simulated time at which this message is available to the receiver.
    pub arrival: f64,
    /// Link-degradation factor in effect on this edge (1.0 = healthy);
    /// the receiver charges the same degraded transfer cost the sender did.
    pub link: f64,
    pub payload: Payload,
}

impl Msg {
    /// What a receive matches on: `(ctx, src_world, tag)`.
    pub(crate) fn key(&self) -> (u64, usize, u64) {
        (self.info.ctx, self.src_world, self.info.tag)
    }
}

/// The execution context handed to the SPMD closure for each simulated rank.
///
/// All communication and time accounting flows through methods on this type.
pub struct Rank {
    world_rank: usize,
    /// The world communicator, built once: its member list is one
    /// allocation shared by every rank of the machine.
    world: Comm,
    model: TimeModel,
    /// Monotonic counter for deterministic communicator context ids; all
    /// ranks create communicators in the same order (SPMD discipline).
    pub(crate) next_ctx: u64,
    clock: f64,
    t_comm: f64,
    t_comp: f64,
    flops: u64,
    /// Per-send sequence number feeding message uids.
    msg_seq: u64,
    /// The machine's fault wiring: plan, recovery, receive deadline and
    /// failure board.
    fault: FaultCtx,
    /// This rank's stall windows from the plan, sorted by trigger time.
    my_stalls: Vec<StallRule>,
    /// Index of the next unapplied stall window.
    stall_idx: usize,
    /// The machine's task table: where a send queues its message and wakes
    /// its destination, and a receive parks, under either backend.
    sched: Arc<Sched>,
    /// Ledgers, metrics, spans, trace and host profile.
    inst: Instruments,
}

/// Fault-layer wiring shared by every rank; built once per run by the
/// machine.
#[derive(Clone)]
pub(crate) struct FaultCtx {
    /// Seeded fault plan, present when the machine runs with
    /// [`crate::Machine::with_fault_plan`]. `None` costs nothing on the
    /// send path.
    pub faults: Option<Arc<FaultPlan>>,
    /// Ack/retransmit recovery for droppable sends
    /// ([`crate::Machine::with_recovery`]); off means drops are lost.
    pub recover: bool,
    /// Simulated-time receive deadline ([`crate::Machine::with_recv_deadline`]):
    /// a receive whose matching message arrives later than this many
    /// simulated seconds after the receiver started waiting fails with
    /// [`RecvError::Deadline`] instead of silently absorbing the stall.
    pub recv_deadline: Option<f64>,
    /// Machine-wide failure collection (primary vs cascade attribution).
    pub board: Arc<FailureBoard>,
}

impl Rank {
    pub(crate) fn new(
        world_rank: usize,
        world_members: Arc<Vec<usize>>,
        model: TimeModel,
        tracing: bool,
        host_profiling: bool,
        fctx: FaultCtx,
        sched: Arc<Sched>,
    ) -> Self {
        let my_stalls = fctx
            .faults
            .as_ref()
            .map(|p| p.stalls_for(world_rank))
            .unwrap_or_default();
        Rank {
            world_rank,
            world: Comm {
                ctx: 0,
                members: world_members,
                my_local: world_rank,
            },
            model,
            next_ctx: 1, // 0 is reserved for the world communicator
            clock: 0.0,
            t_comm: 0.0,
            t_comp: 0.0,
            flops: 0,
            msg_seq: 0,
            fault: fctx,
            my_stalls,
            stall_idx: 0,
            sched,
            inst: Instruments::new(world_rank, tracing, host_profiling),
        }
    }

    /// Record this rank's failure on the machine's board and abort the
    /// rank thread in an orderly way: the machine attributes the run
    /// failure to the first *primary* (non-cascade) entry, so a rank dying
    /// here never masks the original cause. Public so solver layers can
    /// surface structured [`FailKind::Solver`] failures.
    pub fn fail(&self, kind: FailKind) -> ! {
        self.fault.board.record(RankFailure {
            rank: self.world_rank,
            phase: self.inst.phase().to_string(),
            kind,
            seq: 0,
        });
        std::panic::panic_any(OrderlyAbort);
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

    /// Set the traffic-accounting phase label. All subsequent sends and
    /// receives are counted under this label until it changes. The LU stack
    /// uses `"fact"` for xy-plane factorization traffic and `"reduce"` for
    /// z-axis ancestor-reduction traffic (paper Fig. 10).
    ///
    /// When tracing, this also rotates a `Phase` span under whatever span
    /// is currently open (e.g. the level span), so phases show up in the
    /// trace hierarchy and critical-path attribution without extra calls.
    pub fn set_phase(&mut self, phase: &str) {
        self.inst.set_phase(phase, self.clock);
    }

    /// Open a labeled span at the current simulated time. Returns a handle
    /// for [`Rank::span_exit`]; `None` when the machine is not tracing
    /// (pass it to `span_exit` regardless — the pair is a no-op then).
    /// `name` is rendered only when tracing: pass `format_args!(..)` for a
    /// computed name and an untraced run allocates nothing for it.
    pub fn span_enter(&mut self, cat: SpanCat, name: impl std::fmt::Display) -> Option<SpanId> {
        self.inst.span_enter(cat, name, self.clock)
    }

    /// Close a span opened by [`Rank::span_enter`]. Inner spans still open
    /// are closed with it.
    pub fn span_exit(&mut self, id: Option<SpanId>) {
        self.inst.span_exit(id, self.clock);
    }

    /// Run `f` inside a span: sugar for `span_enter` / `span_exit` that
    /// cannot leak an open span on early return of a value.
    pub async fn with_span<T>(
        &mut self,
        cat: SpanCat,
        name: impl std::fmt::Display,
        f: impl AsyncFnOnce(&mut Rank) -> T,
    ) -> T {
        let id = self.span_enter(cat, name);
        let out = f(self).await;
        self.span_exit(id);
        out
    }

    /// Bump a named metrics counter by `by`.
    pub fn metric_inc(&mut self, name: &str, by: u64) {
        self.inst.metrics().inc(name, by);
    }

    /// Add simulated `secs` to the counter `name` in whole nanoseconds.
    fn metric_inc_ns(&mut self, name: &str, secs: f64) {
        self.metric_inc(name, (secs * 1e9).round() as u64);
    }

    /// Open a host-time profiling scope for `phase`. Returns a no-op guard
    /// when the machine runs without [`crate::Machine::with_host_profiling`],
    /// so call sites never branch. The guard holds its own profiler handle —
    /// the rank stays mutably usable while the scope is open.
    pub fn host_scope(&self, phase: HostPhase) -> HostScope {
        self.inst.host_scope(phase, self.clock)
    }

    /// Charge `bytes` of `class` to the memory ledger at the current
    /// simulated time, attributed to the current elimination-tree level.
    pub fn mem_charge(&mut self, class: MemClass, bytes: u64) {
        self.inst.mem_charge(class, None, bytes, self.clock);
    }

    /// Charge against an explicit tree level (e.g. ancestor replicas whose
    /// level is known at store-build time).
    pub fn mem_charge_at(&mut self, class: MemClass, level: u32, bytes: u64) {
        self.inst.mem_charge(class, Some(level), bytes, self.clock);
    }

    /// Credit (free) `bytes` of `class` at the current level. Panics on
    /// underflow — a credit without a matching charge is a wiring bug.
    pub fn mem_credit(&mut self, class: MemClass, bytes: u64) {
        self.inst.mem_credit(class, None, bytes, self.clock);
    }

    /// Credit against an explicit tree level.
    pub fn mem_credit_at(&mut self, class: MemClass, level: u32, bytes: u64) {
        self.inst.mem_credit(class, Some(level), bytes, self.clock);
    }

    /// Set the elimination-tree level subsequent memory charges and sends
    /// are attributed to (the 3D factorization calls this once per level; 2D runs
    /// stay at level 0).
    pub fn set_tree_level(&mut self, level: u32) {
        self.inst.set_level(level);
    }

    /// Register the 3D process-grid shape so subsequent traffic is
    /// classified by grid axis (x: row, y: column, z: anti-diagonal stack).
    /// Called once by [`crate::build_grid_comms`]; drivers that build their
    /// own communicators can call it directly.
    pub fn register_grid(&mut self, g: Grid3d) {
        self.inst.set_grid(g);
    }

    /// Run `f` with sends charged to `class` in the wire ledger, restoring
    /// the previous classification on return. An explicit class overrides
    /// tag-based classification (collective-internal vs control), so a
    /// panel broadcast keeps its class while riding a collective.
    pub async fn with_comm_class<T>(
        &mut self,
        class: CommClass,
        f: impl AsyncFnOnce(&mut Rank) -> T,
    ) -> T {
        let prev = self.inst.replace_class(Some(class));
        let out = f(self).await;
        self.inst.replace_class(prev);
        out
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
            self.inst.on_wait((t0, self.clock), None);
            self.span_exit(sp);
            self.metric_inc("fault.injected.stall", 1);
            self.metric_inc_ns("fault.stall_ns", secs);
        }
    }

    /// Send `payload` to local rank `dst` of `comm` with `tag`.
    /// Non-blocking (eager buffering), like `MPI_Send` under the eager
    /// protocol. Charges `α + β·words` of simulated time to this rank.
    ///
    /// This is the injection point of the fault layer
    /// ([`crate::Machine::with_fault_plan`]): a matching plan may stall the
    /// rank, drop/duplicate/delay the message, or degrade the link. With
    /// recovery on ([`crate::Machine::with_recovery`]) dropped attempts are
    /// retransmitted after a simulated timeout with exponential backoff —
    /// the receiver sees exactly the fault-free payload sequence, so
    /// results stay bitwise identical and only clocks shift.
    pub fn send(&mut self, comm: &Comm, dst: usize, tag: u64, payload: Payload) {
        if !self.my_stalls.is_empty() {
            self.apply_stalls();
        }
        let dst_world = comm.world_rank_of(dst);
        let (decision, link) = match &self.fault.faults {
            Some(plan) => {
                let max_drops = if self.fault.recover {
                    RETRY_ATTEMPTS - 1
                } else {
                    1
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
            self.metric_inc("fault.injected.drop", u64::from(decision.drops));
            if self.fault.recover {
                // Recovery: each lost attempt costs its transfer charge
                // plus the (backed-off) ack timeout, all in simulated
                // time; then the loop below sends the attempt that gets
                // through. Lost attempts are transport overhead, not
                // algorithmic volume: they carry no message identity, so
                // they are traced as `resend` slices and stay out of the
                // wire ledger.
                let sp = self.span_enter(SpanCat::Fault, "retransmit");
                for attempt in 0..decision.drops {
                    let cost = self.model.xfer_on(payload.words(), link);
                    let wait = RETRY_TIMEOUT_SECS * RETRY_BACKOFF.powi(attempt as i32);
                    let t0 = self.clock;
                    self.clock += cost;
                    self.inst
                        .on_send((t0, self.clock), dst_world, &payload, None);
                    let tw = self.clock;
                    self.clock += wait;
                    self.inst.on_wait((tw, self.clock), Some(dst_world));
                    self.t_comm += cost + wait;
                    self.metric_inc("fault.recovered.retransmit", 1);
                    self.metric_inc_ns("fault.retry_wait_ns", wait);
                }
                self.span_exit(sp);
            } else {
                // No recovery: the message vanishes in the network. The
                // sender cannot tell, so it pays and records the send
                // normally; nothing reaches the destination, whose
                // receive deadlocks.
                self.send_physical(comm.ctx, dst_world, tag, payload, link, 0.0, true, false);
                return;
            }
        }
        if decision.delay > 0.0 {
            self.metric_inc("fault.injected.delay", 1);
            self.metric_inc_ns("fault.delay_ns", decision.delay);
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
            true,
        );
        if let Some(p) = dup_payload {
            self.metric_inc("fault.injected.dup", 1);
            // The duplicate rides right behind the original. With recovery
            // on it is transport-internal: the sender pays for it and the
            // transport discards it. Without recovery it is a real
            // protocol-level extra message that the machine's
            // unreceived-message check reports.
            let protocol = !self.fault.recover;
            self.send_physical(
                comm.ctx,
                dst_world,
                tag,
                p,
                link,
                decision.delay,
                protocol,
                protocol,
            );
        }
    }

    /// One physical message: charge the sender, hand the send to the
    /// instruments, queue the message at the destination
    /// ([`Sched::deliver`]). `visible` sends carry their message identity
    /// and count as algorithmic traffic; transport-internal ones (recovered
    /// duplicates) do neither. `deliver: false` models a message the
    /// network loses (an unrecovered drop) or the transport discards (a
    /// recovered duplicate): the sender pays and records as usual but
    /// nothing reaches the destination. A send never fails: a message to a
    /// rank that has died stays queued, and that rank's own failure decides
    /// the run.
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
        deliver: bool,
    ) {
        let cost = self.model.xfer_on(payload.words(), link);
        let t0 = self.clock;
        self.clock += cost;
        self.t_comm += cost;
        let info = MsgInfo {
            uid: ((self.world_rank as u64) << 40) | self.msg_seq,
            ctx,
            tag,
            class: self.inst.class_of(tag),
        };
        self.msg_seq += 1;
        self.inst.on_send(
            (t0, self.clock),
            dst_world,
            &payload,
            visible.then_some(info),
        );
        if !deliver {
            return;
        }
        let msg = Msg {
            src_world: self.world_rank,
            info,
            arrival: self.clock + delay,
            link,
            payload,
        };
        self.sched.deliver(dst_world, msg);
    }

    /// Number of delivered messages no `recv` has matched yet.
    #[cfg(test)]
    pub(crate) fn unexpected_msgs(&self) -> usize {
        self.sched.queued(self.world_rank)
    }

    /// The machine's task table.
    pub(crate) fn sched(&self) -> &Arc<Sched> {
        &self.sched
    }

    /// Wait for the message with `key = (ctx, src_world, tag)`. The caller
    /// has already looked for it among the queued messages. A receive that
    /// finds nothing parks on the machine's task table ([`Sched::park`]):
    /// its task returns `Pending` until the message arrives, or until the
    /// table proves it never will: a deadlock report, or a cascade
    /// ([`RecvError::PeerFailed`]) when the source terminated after another
    /// rank failed. This is a rank program's only await point.
    async fn blocked_recv(&mut self, key: (u64, usize, u64)) -> Result<Msg, RecvError> {
        // Host-profiler attribution: everything below is time spent
        // satisfying a receive the algorithm is blocked on.
        let _host = self.host_scope(HostPhase::CommWait);
        // Publishing the wait costs two reference counts; what a failure
        // report says about it is rendered only if the wait fails.
        let (ctx, src, tag) = key;
        let wait = WaitInfo {
            src,
            ctx,
            tag,
            phase: Arc::clone(self.inst.phase()),
        };
        // A parked rank holds no run slot: its wall time is not its own.
        // The profiler stops before `park`, which may grant the slot to
        // another rank (whose thread then runs at once), and runs again only
        // when `park` hands this poll the message, after the grant. So a
        // task's wall is the sum of its polls, no two ranks' walls overlap,
        // and its open scopes are charged nothing for the ranks polled
        // between.
        let (host, sched, me) = (self.inst.host(), &self.sched, self.world_rank);
        let mut paused = false;
        std::future::poll_fn(|cx| {
            if let (false, Some(h)) = (paused, host) {
                h.pause();
                paused = true;
            }
            let polled = sched.park(me, &wait, cx);
            if let (true, Some(h)) = (polled.is_ready(), host) {
                h.resume();
            }
            polled
        })
        .await
    }

    /// Receiver-side charge: wait until the message is available, then pay
    /// the transfer cost; hand the receive to the instruments.
    fn complete_recv(&mut self, msg: Msg) -> Result<Payload, RecvError> {
        let words = msg.payload.words();
        let ready = msg.arrival.max(self.clock);
        if let Some(d) = self.fault.recv_deadline {
            let waited = ready - self.clock;
            if waited > d {
                return Err(RecvError::Deadline {
                    src: msg.src_world,
                    ctx: msg.info.ctx,
                    tag: msg.info.tag,
                    waited,
                    deadline: d,
                });
            }
        }
        // Both ends of the transfer window are pure simulated-time
        // quantities — charging at physical channel arrival would depend on
        // wall-clock thread interleaving and break run determinism.
        let done = ready + self.model.xfer_on(words, msg.link);
        self.t_comm += done - self.clock;
        self.inst
            .on_recv((self.clock, ready, done), msg.src_world, words, msg.info);
        self.clock = done;
        Ok(msg.payload)
    }

    /// Receive the message from local rank `src` of `comm` with `tag`,
    /// waiting (the rank's task returns `Pending`) until it arrives.
    /// Advances this rank's clock to at least the message arrival time plus
    /// the transfer charge; waiting time counts as communication.
    ///
    /// A receive that cannot complete fails the rank in an orderly way
    /// (recorded on the machine's failure board): a deadlock naming the
    /// exact cycle (proved from quiescence under either backend), a wait
    /// whose source died as a cascade, or a late arrival past the simulated
    /// deadline — failing loudly beats hanging the test suite. Use
    /// [`Rank::recv_checked`] to handle the error instead.
    pub async fn recv(&mut self, comm: &Comm, src: usize, tag: u64) -> Payload {
        match self.recv_checked(comm, src, tag).await {
            Ok(p) => p,
            Err(e) => self.fail(FailKind::Recv(e)),
        }
    }

    /// Like [`Rank::recv`], but surfaces the failure to the caller so
    /// solver layers can attach algorithmic context (phase, supernode)
    /// before failing the rank.
    pub async fn recv_checked(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: u64,
    ) -> Result<Payload, RecvError> {
        let src_world = comm.world_rank_of(src);
        let key = (comm.ctx, src_world, tag);
        let msg = match self.sched.take(self.world_rank, key) {
            Some(m) => m,
            None => self.blocked_recv(key).await?,
        };
        self.complete_recv(msg)
    }

    /// Receive and unwrap an `F64s` payload. A kind mismatch fails the rank
    /// with a structured [`FailKind::PayloadMismatch`] carrying the message
    /// provenance (src/ctx/tag/phase) instead of a bare panic.
    pub async fn recv_f64s(&mut self, comm: &Comm, src: usize, tag: u64) -> Vec<f64> {
        let src_world = comm.world_rank_of(src);
        match self.recv(comm, src, tag).await.try_into_f64s() {
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
        self.inst.on_compute((t0, self.clock));
    }

    /// Current simulated clock in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Snapshot the final report (called by the machine after the SPMD
    /// closure returns). Closes any spans left open.
    pub(crate) fn into_report(self, wall_secs: f64) -> RankReport {
        RankReport {
            clock: self.clock,
            t_comm: self.t_comm,
            t_comp: self.t_comp,
            flops: self.flops,
            ..self.inst.finish(self.clock, self.flops, wall_secs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultlab::UnreceivedMsg;
    use crate::{Backend, BlockingRank, Machine};
    use std::cell::RefCell;
    use std::sync::mpsc::{channel, Receiver, Sender};
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
    /// hands rank 1 the slot), then block until rank 1's thread is gone.
    fn wait_until_peer_is_gone(rank: &mut BlockingRank, gone: &Mutex<Receiver<()>>) {
        let world = rank.world();
        rank.recv(&world, 1, GO);
        gone.lock().unwrap().recv().expect("rank 1 exits");
    }

    #[test]
    fn a_send_to_a_returned_rank_is_the_same_unreceived_message_whoever_wins_the_race() {
        // The sender outruns the receiver's return, or the receiver is long
        // gone when the send happens: one verdict. Each order is forced with
        // a host channel; the message waits in the task table either way.
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
        // copy is sent after the receiver is gone. Forced here by sending
        // the copy alone, once the peer's thread has exited.
        for backend in [Backend::Threaded, Backend::Event] {
            let (tx, rx) = channel();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
            let out = Machine::new(2, TimeModel::zero())
                .with_backend(backend)
                .try_run(move |rank| {
                    if rank.id() == 0 {
                        wait_until_peer_is_gone(rank, &rx);
                        rank.send_physical(0, 1, 4, Payload::Empty, 1.0, 0.0, false, false);
                    } else {
                        go_and_leave(rank, &tx);
                    }
                });
            assert!(out.is_ok(), "{backend}: {}", out.unwrap_err().render());
        }
    }
}
