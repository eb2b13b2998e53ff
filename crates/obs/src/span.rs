//! Hierarchical spans and low-level activities in simulated time.
//!
//! A rank's timeline has two layers:
//!
//! - **Spans** are nested, labeled intervals opened and closed by the
//!   algorithm code: elimination-tree level → phase (`fact`/`reduce`/
//!   `solve`) → per-supernode step → collective. They carry *structure*.
//! - **Activities** are the machine-level intervals the simulator charges
//!   time for — compute, send, receive, blocking wait. Each activity
//!   remembers the innermost span it ran under, which is how traffic and
//!   time roll up to phases.
//!
//! Point-to-point activities also carry a machine-unique message id so the
//! Chrome exporter can draw send→recv flow arrows and the critical-path
//! analyzer can hop from a blocked receive to the sender's timeline.

use crate::commvol::CommClass;

/// Index of a span within one rank's [`RankObs::spans`].
pub type SpanId = usize;

/// Structural category of a span; becomes the `cat` field in Chrome traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanCat {
    /// One elimination-forest level of the 3D schedule.
    Level,
    /// An algorithm phase: `fact`, `reduce`, or `solve`.
    Phase,
    /// One supernode step (panel factorization or Schur update).
    Node,
    /// A collective operation (broadcast, reduction, barrier, gather).
    Coll,
    /// A fault-injection event (retransmit burst, stall window) from
    /// `simgrid::faultlab`, so chaos runs show their injected/recovered
    /// events directly in the Chrome trace.
    Fault,
    /// Anything else.
    Other,
}

impl SpanCat {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanCat::Level => "level",
            SpanCat::Phase => "phase",
            SpanCat::Node => "node",
            SpanCat::Coll => "coll",
            SpanCat::Fault => "fault",
            SpanCat::Other => "other",
        }
    }
}

/// One closed span on one rank's timeline.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: SpanId,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    pub name: String,
    pub cat: SpanCat,
    /// Simulated seconds.
    pub start: f64,
    pub end: f64,
    /// Nesting depth: 0 for top-level spans.
    pub depth: usize,
}

/// What the machine was charging time for during one activity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivityKind {
    Compute,
    /// An algorithmic message leaving: it carries its [`MsgInfo`].
    Send,
    Recv,
    /// A transport-internal send (a recovered retransmit or duplicate):
    /// paid for on the wire, never received, with no message identity.
    Resend,
    /// Blocked waiting for a message that had not yet arrived.
    Wait,
}

impl ActivityKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ActivityKind::Compute => "compute",
            ActivityKind::Send => "send",
            ActivityKind::Recv => "recv",
            ActivityKind::Resend => "resend",
            ActivityKind::Wait => "wait",
        }
    }
}

/// Identity of the message behind a point-to-point activity: the
/// machine-unique id linking a Send to its Recv, plus the communicator
/// context and tag the message was matched under. The trace validator
/// (`validate_chrome_trace`) pairs each send with its receive by uid.
/// Only algorithmic messages have one:
/// transport-internal sends (recovered retransmits and duplicates) do not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgInfo {
    pub uid: u64,
    pub ctx: u64,
    pub tag: u64,
    /// The wire ledger's class of the message; the `wire rank N` counter
    /// track is the running sum of `Send` words per class.
    pub class: CommClass,
}

/// One machine-level interval of simulated time.
#[derive(Clone, Copy, Debug)]
pub struct Activity {
    pub kind: ActivityKind,
    pub start: f64,
    pub end: f64,
    /// Innermost span open when the activity was charged.
    pub span: Option<SpanId>,
    /// World rank of the communication peer (Send: destination,
    /// Recv/Wait: source).
    pub peer: Option<usize>,
    /// Payload size in 8-byte words (communication activities).
    pub words: u64,
    /// Message identity linking a Send to its Recv (uid + ctx + tag).
    pub msg: Option<MsgInfo>,
}

impl Activity {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Machine-unique message id, when this is a point-to-point activity.
    pub fn msg_uid(&self) -> Option<u64> {
        self.msg.map(|m| m.uid)
    }
}

/// Everything one rank observed during a traced run.
#[derive(Clone, Debug, Default)]
pub struct RankObs {
    pub rank: usize,
    /// All spans, closed, in creation order (so `id` indexes this vec).
    pub spans: Vec<SpanRecord>,
    /// All activities in chronological order.
    pub activities: Vec<Activity>,
    /// Memory ledger events in chronological order (empty unless the run
    /// recorded a [`crate::memprof::MemLedger`] timeline); the Chrome
    /// exporter turns these into `"ph":"C"` counter tracks.
    pub mem: Vec<crate::memprof::MemEvent>,
    /// Host-profiler scope events sorted by simulated open time (empty
    /// unless the run recorded a [`crate::hostprof::HostProf`] timeline);
    /// exported as cumulative per-phase host-nanosecond counter tracks.
    pub host: Vec<crate::hostprof::HostEvent>,
}

impl RankObs {
    /// Simulated time of the last recorded interval on this rank.
    pub fn end_time(&self) -> f64 {
        let a = self.activities.last().map_or(0.0, |a| a.end);
        let s = self.spans.iter().map(|s| s.end).fold(0.0, f64::max);
        a.max(s)
    }

    /// Name of the nearest enclosing `Phase` span of `span`, walking up
    /// the parent chain.
    pub fn phase_of(&self, span: Option<SpanId>) -> Option<&str> {
        let mut cur = span;
        while let Some(id) = cur {
            let s = self.spans.get(id)?;
            if s.cat == SpanCat::Phase {
                return Some(&s.name);
            }
            cur = s.parent;
        }
        None
    }

    /// Maximum span nesting depth (+1 per level; 0 when no spans).
    pub fn max_span_depth(&self) -> usize {
        self.spans.iter().map(|s| s.depth + 1).max().unwrap_or(0)
    }
}

/// Builder collecting spans and activities for one rank as simulated time
/// advances. The simulator owns one per traced rank.
#[derive(Debug, Default)]
pub struct Recorder {
    rank: usize,
    spans: Vec<SpanRecord>,
    /// Open spans, outermost first.
    stack: Vec<SpanId>,
    activities: Vec<Activity>,
}

impl Recorder {
    pub fn new(rank: usize) -> Self {
        Recorder {
            rank,
            ..Default::default()
        }
    }

    /// Open a span at simulated time `t`; returns its id for `exit`.
    pub fn enter(&mut self, cat: SpanCat, name: &str, t: f64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            cat,
            start: t,
            end: t,
            depth: self.stack.len(),
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` at time `t`. Any spans opened inside it and still
    /// open are closed too, so a forgotten inner `exit` cannot corrupt the
    /// nesting. Closing a span that is not open is a no-op.
    pub fn exit(&mut self, id: SpanId, t: f64) {
        let Some(pos) = self.stack.iter().rposition(|&s| s == id) else {
            return;
        };
        for &open in &self.stack[pos..] {
            self.spans[open].end = t;
        }
        self.stack.truncate(pos);
    }

    /// Innermost open span.
    pub fn current(&self) -> Option<SpanId> {
        self.stack.last().copied()
    }

    /// Is `id` still open?
    pub fn is_open(&self, id: SpanId) -> bool {
        self.stack.contains(&id)
    }

    /// Record one activity, tagged with the innermost open span.
    /// Contiguous same-kind activities under the same span with no message
    /// id merge into one record, which keeps long compute stretches from
    /// bloating the store.
    pub fn activity(
        &mut self,
        kind: ActivityKind,
        start: f64,
        end: f64,
        peer: Option<usize>,
        words: u64,
        msg: Option<MsgInfo>,
    ) {
        if end <= start {
            return;
        }
        let span = self.current();
        if msg.is_none() {
            if let Some(last) = self.activities.last_mut() {
                if last.kind == kind
                    && last.span == span
                    && last.msg.is_none()
                    && last.peer == peer
                    && (start - last.end).abs() < 1e-15
                {
                    last.end = end;
                    last.words += words;
                    return;
                }
            }
        }
        self.activities.push(Activity {
            kind,
            start,
            end,
            span,
            peer,
            words,
            msg,
        });
    }

    /// Close every open span at time `t` and produce the final store.
    pub fn finish(mut self, t: f64) -> RankObs {
        while let Some(&top) = self.stack.last() {
            self.exit(top, t);
        }
        RankObs {
            rank: self.rank,
            spans: self.spans,
            activities: self.activities,
            mem: Vec::new(),
            host: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut r = Recorder::new(0);
        let outer = r.enter(SpanCat::Level, "level1", 0.0);
        let mid = r.enter(SpanCat::Phase, "fact", 1.0);
        let inner = r.enter(SpanCat::Node, "sn0", 2.0);
        assert_eq!(r.current(), Some(inner));
        r.exit(inner, 3.0);
        r.exit(mid, 4.0);
        r.exit(outer, 5.0);
        let obs = r.finish(5.0);
        assert_eq!(obs.spans.len(), 3);
        assert_eq!(obs.spans[0].depth, 0);
        assert_eq!(obs.spans[1].depth, 1);
        assert_eq!(obs.spans[2].depth, 2);
        assert_eq!(obs.spans[2].parent, Some(mid));
        assert_eq!(obs.spans[1].parent, Some(outer));
        assert_eq!(obs.max_span_depth(), 3);
    }

    #[test]
    fn exiting_outer_span_closes_inner_spans() {
        let mut r = Recorder::new(0);
        let outer = r.enter(SpanCat::Level, "level0", 0.0);
        let inner = r.enter(SpanCat::Phase, "fact", 1.0);
        r.exit(outer, 7.0);
        assert!(!r.is_open(inner));
        assert!(r.current().is_none());
        let obs = r.finish(9.0);
        assert_eq!(obs.spans[inner].end, 7.0);
        assert_eq!(obs.spans[outer].end, 7.0);
    }

    #[test]
    fn phase_lookup_walks_ancestors() {
        let mut r = Recorder::new(0);
        r.enter(SpanCat::Level, "level2", 0.0);
        let phase = r.enter(SpanCat::Phase, "reduce", 0.0);
        r.enter(SpanCat::Node, "sn3", 0.0);
        r.activity(ActivityKind::Compute, 0.0, 1.0, None, 0, None);
        let obs = r.finish(1.0);
        let act = obs.activities[0];
        assert_eq!(act.span, Some(phase + 1));
        assert_eq!(obs.phase_of(act.span), Some("reduce"));
        assert_eq!(obs.phase_of(None), None);
    }

    #[test]
    fn contiguous_activities_merge_within_a_span() {
        let mut r = Recorder::new(0);
        r.enter(SpanCat::Phase, "fact", 0.0);
        for i in 0..10 {
            r.activity(
                ActivityKind::Compute,
                i as f64,
                i as f64 + 1.0,
                None,
                0,
                None,
            );
        }
        // A send never merges (it must keep its msg uid).
        r.activity(
            ActivityKind::Send,
            10.0,
            11.0,
            Some(1),
            8,
            Some(MsgInfo {
                uid: 42,
                ctx: 0,
                tag: 1,
                class: CommClass::Control,
            }),
        );
        r.activity(
            ActivityKind::Send,
            11.0,
            12.0,
            Some(1),
            8,
            Some(MsgInfo {
                uid: 43,
                ctx: 0,
                tag: 1,
                class: CommClass::Control,
            }),
        );
        let obs = r.finish(12.0);
        assert_eq!(obs.activities.len(), 3);
        assert_eq!(obs.activities[0].duration(), 10.0);
        assert_eq!(obs.activities[1].msg_uid(), Some(42));
    }

    #[test]
    fn merge_stops_at_span_boundary() {
        let mut r = Recorder::new(0);
        let a = r.enter(SpanCat::Node, "sn0", 0.0);
        r.activity(ActivityKind::Compute, 0.0, 1.0, None, 0, None);
        r.exit(a, 1.0);
        r.enter(SpanCat::Node, "sn1", 1.0);
        r.activity(ActivityKind::Compute, 1.0, 2.0, None, 0, None);
        let obs = r.finish(2.0);
        assert_eq!(obs.activities.len(), 2, "merge must not cross spans");
    }
}
