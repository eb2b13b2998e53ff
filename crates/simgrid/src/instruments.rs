//! Everything a rank records, behind one hook per event.
//!
//! The transport ([`crate::Rank`]) keeps the clock and moves messages. It
//! tells its [`Instruments`] what happened through four hooks — a send, a
//! receive, a compute charge and a wait — and every quantity behind them is
//! recorded by exactly one instrument:
//!
//! | quantity | recorded by |
//! |---|---|
//! | messages and words per `(phase, class, level, axis)` and per edge | the wire ledger ([`CommLedger`]) |
//! | bytes held per `(class, level)`, the peak and its attribution | the memory ledger ([`MemLedger`]) |
//! | fault counters and the kernels' own samples (Schur dispatch) | the metrics registry |
//! | spans and activities (tracing only) | the [`Recorder`]; the `wire rank N` counter track is a projection of its `Send` activities |
//! | host self time per phase path (host profiling only) | the [`HostProf`] |
//!
//! The phase label and the tree level are held here once: the wire ledger
//! keys its cells by the label's index in [`Instruments`]' intern table, and
//! both ledgers are charged at the one level.

use crate::payload::Payload;
use crate::stats::RankReport;
use crate::tags::COLL_TAG;
use crate::topology::Grid3d;
use obs::{
    ActivityKind, CommClass, CommKey, CommLedger, GridAxis, HostPhase, HostProf, HostScope,
    MemClass, MemLedger, MetricsRegistry, MsgInfo, Recorder, SpanCat, SpanId,
};
use std::sync::Arc;

/// One rank's instruments.
pub(crate) struct Instruments {
    /// This rank's world rank: the near end of every edge it classifies.
    me: usize,
    /// Every phase label [`Instruments::set_phase`] has seen, in order of
    /// first use; changing phase, or handing the label to a published wait,
    /// allocates nothing after a label's first use.
    phases: Vec<Arc<str>>,
    /// Index of the current label in `phases`.
    phase: u32,
    /// The elimination-tree level both ledgers attribute charges to.
    level: u32,
    /// Explicit class for visible sends ([`crate::Rank::with_comm_class`]);
    /// overrides tag-based classification, so panel broadcasts keep their
    /// class inside collective internals.
    class: Option<CommClass>,
    /// 3D process-grid shape ([`crate::Rank::register_grid`]) that classes
    /// each send's edge by axis; without it every edge is
    /// [`GridAxis::Cross`].
    grid: Option<Grid3d>,
    /// Span/activity recorder, present when the machine traces.
    rec: Option<Recorder>,
    /// The `Phase` span opened by [`Instruments::set_phase`], rotated on
    /// change.
    phase_span: Option<SpanId>,
    /// Named counters and histograms.
    metrics: MetricsRegistry,
    mem: MemLedger,
    wire: CommLedger,
    /// Host-time profiler, present when the machine profiles. Shared with
    /// the [`HostScope`] guards it hands out, which outlive a `&mut` borrow
    /// of the rank. It is an `Arc` over a mutex, not an `Rc` over a
    /// `RefCell`, because a rank must be `Send`: under the threaded backend
    /// each rank task runs on its own OS thread.
    host: Option<Arc<HostProf>>,
}

impl Instruments {
    pub(crate) fn new(me: usize, tracing: bool, host_profiling: bool) -> Self {
        Instruments {
            me,
            phases: vec!["default".into()],
            phase: 0,
            level: 0,
            class: None,
            grid: None,
            rec: tracing.then(|| Recorder::new(me)),
            phase_span: None,
            metrics: MetricsRegistry::default(),
            mem: MemLedger::new(tracing),
            wire: CommLedger::default(),
            host: host_profiling.then(|| Arc::new(HostProf::new(tracing))),
        }
    }

    /// Trace one activity, if tracing.
    #[inline]
    fn trace(
        &mut self,
        kind: ActivityKind,
        span: (f64, f64),
        peer: Option<usize>,
        words: u64,
        msg: Option<MsgInfo>,
    ) {
        if let Some(rec) = &mut self.rec {
            rec.activity(kind, span.0, span.1, peer, words, msg);
        }
    }

    /// One physical send to `dst` over `span` of the sender's clock. A
    /// visible send (`msg` present) is algorithmic traffic: traced with its
    /// identity and class and charged to the wire ledger. A
    /// transport-internal one (a recovered retransmit or duplicate) is
    /// traced as a `Resend` and counted as overhead only, so a recovered run
    /// reports the algorithmic volume of a fault-free one.
    #[inline]
    pub(crate) fn on_send(
        &mut self,
        span: (f64, f64),
        dst: usize,
        payload: &Payload,
        msg: Option<MsgInfo>,
    ) {
        let words = payload.words();
        let kind = match msg {
            Some(_) => ActivityKind::Send,
            None => ActivityKind::Resend,
        };
        self.trace(kind, span, Some(dst), words, msg);
        let Some(m) = msg else {
            self.metrics.inc("fault.resent_msgs", 1);
            self.metrics.inc("fault.resent_words", words);
            return;
        };
        let key = CommKey {
            phase: self.phase,
            class: m.class,
            level: self.level,
            axis: self.grid.map_or(GridAxis::Cross, |g| g.axis(self.me, dst)),
        };
        self.wire
            .charge_send(key, dst, words, payload.struct_words());
    }

    /// The class of a visible send with `tag`: the explicit one, else
    /// collective-internal or control by tag.
    #[inline]
    pub(crate) fn class_of(&self, tag: u64) -> CommClass {
        self.class.unwrap_or(if tag & COLL_TAG != 0 {
            CommClass::Collective
        } else {
            CommClass::Control
        })
    }

    /// One receive of `words` from `src`: the receiver waited over
    /// `[t, ready]` and the transfer ran over `[ready, done]`. The bytes
    /// occupy the receive buffers for the transfer window, at level 0 on
    /// both ends so a level change inside the window cannot unbalance the
    /// memory ledger.
    #[inline]
    pub(crate) fn on_recv(
        &mut self,
        (t, ready, done): (f64, f64, f64),
        src: usize,
        words: u64,
        msg: MsgInfo,
    ) {
        self.mem.charge(MemClass::MsgInFlight, 0, words * 8, ready);
        self.on_wait((t, ready), Some(src));
        self.trace(
            ActivityKind::Recv,
            (ready, done),
            Some(src),
            words,
            Some(msg),
        );
        self.mem.credit(MemClass::MsgInFlight, 0, words * 8, done);
        self.wire.charge_recv(src, words);
    }

    /// Compute charged over `span`.
    #[inline]
    pub(crate) fn on_compute(&mut self, span: (f64, f64)) {
        self.trace(ActivityKind::Compute, span, None, 0, None);
    }

    /// Time blocked over `span` (on a message from `peer`, an ack timeout
    /// or a stall window).
    #[inline]
    pub(crate) fn on_wait(&mut self, span: (f64, f64), peer: Option<usize>) {
        self.trace(ActivityKind::Wait, span, peer, 0, None);
    }

    /// The current phase label.
    pub(crate) fn phase(&self) -> &Arc<str> {
        &self.phases[self.phase as usize]
    }

    /// See [`crate::Rank::set_phase`].
    pub(crate) fn set_phase(&mut self, label: &str, t: f64) {
        let changed = **self.phase() != *label;
        if changed {
            let known = self.phases.iter().position(|p| **p == *label);
            self.phase = known.unwrap_or_else(|| {
                self.phases.push(label.into());
                self.phases.len() - 1
            }) as u32;
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
        if let Some(ps) = self.phase_span.take() {
            rec.exit(ps, t);
        }
        self.phase_span = Some(rec.enter(SpanCat::Phase, &self.phases[self.phase as usize], t));
    }

    pub(crate) fn span_enter(
        &mut self,
        cat: SpanCat,
        name: impl std::fmt::Display,
        t: f64,
    ) -> Option<SpanId> {
        self.rec
            .as_mut()
            .map(|rec| rec.enter(cat, &name.to_string(), t))
    }

    pub(crate) fn span_exit(&mut self, id: Option<SpanId>, t: f64) {
        if let (Some(rec), Some(id)) = (self.rec.as_mut(), id) {
            rec.exit(id, t);
        }
    }

    pub(crate) fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The host profiler, when the machine profiles.
    pub(crate) fn host(&self) -> Option<&HostProf> {
        self.host.as_deref()
    }

    pub(crate) fn host_scope(&self, phase: HostPhase, t: f64) -> HostScope {
        match &self.host {
            Some(h) => h.scope(phase, t),
            None => HostScope::noop(),
        }
    }

    /// Charge `bytes` of `class` at `level`, or at the current tree level.
    pub(crate) fn mem_charge(&mut self, class: MemClass, level: Option<u32>, bytes: u64, t: f64) {
        let level = level.unwrap_or(self.level);
        self.mem.charge(class, level, bytes, t);
    }

    /// Credit `bytes` of `class` at `level`, or at the current tree level.
    pub(crate) fn mem_credit(&mut self, class: MemClass, level: Option<u32>, bytes: u64, t: f64) {
        let level = level.unwrap_or(self.level);
        self.mem.credit(class, level, bytes, t);
    }

    pub(crate) fn set_level(&mut self, level: u32) {
        self.level = level;
    }

    pub(crate) fn set_grid(&mut self, g: Grid3d) {
        self.grid = Some(g);
    }

    /// Set the explicit send class, returning the previous one.
    pub(crate) fn replace_class(&mut self, class: Option<CommClass>) -> Option<CommClass> {
        std::mem::replace(&mut self.class, class)
    }

    /// The rank's report, less its clocks: ledgers, metrics, host profile
    /// and trace, closed at simulated time `clock`. A profiled rank's wall
    /// is the time it held a run slot: what it spent parked belongs to the
    /// ranks that ran.
    pub(crate) fn finish(self, clock: f64, flops: u64, wall_secs: f64) -> RankReport {
        let wall_secs = match &self.host {
            Some(h) => (wall_secs - h.paused_secs()).max(0.0),
            None => wall_secs,
        };
        let commvol = self.wire.report(&self.phases);
        let mut mem = self.mem;
        let host = self.host;
        let trace = self.rec.map(|rec| {
            let mut obs = rec.finish(clock);
            obs.mem = mem.take_timeline();
            obs.host = host.as_ref().map(|h| h.take_timeline()).unwrap_or_default();
            obs
        });
        RankReport {
            wall_secs,
            metrics: self.metrics,
            memprof: mem.report(),
            hostprof: host.map(|h| h.report(wall_secs, flops)),
            commvol,
            trace,
            ..Default::default()
        }
    }
}
