//! Critical-path extraction over the send→recv dependency graph.
//!
//! Walks backward from the rank that finishes last. Local activities
//! (compute, send, transfer) extend the chain on the same rank; a receive
//! that was *arrival-bound* — the receiver became ready exactly when the
//! message arrived — hops to the sender's timeline at the moment the send
//! completed, because the sender, not the receiver, determined that
//! instant. The resulting segments tile `[0, makespan]` exactly, so the
//! per-phase attribution percentages sum to 100% of the makespan.

use crate::span::{ActivityKind, RankObs};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Attribution bucket of one segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegKind {
    /// Floating-point work.
    Comp,
    /// Transfer charges (send or receive side).
    Comm,
    /// Blocked waiting (rare on the path; usually replaced by a hop).
    Wait,
    /// No recorded activity: before a rank's first event or between
    /// events.
    Idle,
}

impl SegKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SegKind::Comp => "comp",
            SegKind::Comm => "comm",
            SegKind::Wait => "wait",
            SegKind::Idle => "idle",
        }
    }
}

/// One maximal interval of the critical path on a single rank.
#[derive(Clone, Debug)]
pub struct CritSegment {
    pub rank: usize,
    pub start: f64,
    pub end: f64,
    /// Phase label (nearest enclosing `Phase` span), `"idle"`, or
    /// `"(untracked)"` for activity outside any phase span.
    pub label: String,
    pub kind: SegKind,
}

impl CritSegment {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The makespan-determining chain of a finished run.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    pub makespan: f64,
    /// Segments in chronological order, tiling `[0, makespan]`.
    pub segments: Vec<CritSegment>,
    /// Number of times the path hopped between ranks.
    pub rank_hops: usize,
}

const EPS: f64 = 1e-12;

impl CriticalPath {
    /// Extract the critical path of a traced run. Returns an empty path
    /// when no simulated time elapsed (e.g. `TimeModel::zero`).
    pub fn analyze(obs: &[RankObs]) -> CriticalPath {
        let makespan = obs.iter().map(|r| r.end_time()).fold(0.0f64, f64::max);
        if makespan <= 0.0 || obs.is_empty() {
            return CriticalPath::default();
        }
        // Message uid -> (rank, activity index) of the Send.
        let mut sends: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
        let mut total_acts = 0usize;
        for (ri, r) in obs.iter().enumerate() {
            total_acts += r.activities.len();
            for (ai, a) in r.activities.iter().enumerate() {
                if a.kind == ActivityKind::Send {
                    if let Some(uid) = a.msg_uid() {
                        sends.insert(uid, (ri, ai));
                    }
                }
            }
        }

        let mut cur_rank = obs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.end_time().partial_cmp(&b.1.end_time()).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut cur_t = makespan;
        let mut segments: Vec<CritSegment> = Vec::new();
        let mut rank_hops = 0usize;
        let mut guard = 4 * total_acts + 64;

        while cur_t > EPS && guard > 0 {
            guard -= 1;
            let acts = &obs[cur_rank].activities;
            // Last activity starting strictly before cur_t.
            let idx = acts.partition_point(|a| a.start < cur_t - EPS);
            if idx == 0 {
                segments.push(CritSegment {
                    rank: cur_rank,
                    start: 0.0,
                    end: cur_t,
                    label: "idle".into(),
                    kind: SegKind::Idle,
                });
                cur_t = 0.0;
                break;
            }
            let a = acts[idx - 1];
            if a.end < cur_t - EPS {
                segments.push(CritSegment {
                    rank: cur_rank,
                    start: a.end,
                    end: cur_t,
                    label: "idle".into(),
                    kind: SegKind::Idle,
                });
                cur_t = a.end;
                continue;
            }
            let label = obs[cur_rank]
                .phase_of(a.span)
                .unwrap_or("(untracked)")
                .to_string();
            let seg_start = a.start.min(cur_t);
            let kind = match a.kind {
                ActivityKind::Compute => SegKind::Comp,
                ActivityKind::Send | ActivityKind::Recv | ActivityKind::Resend => SegKind::Comm,
                ActivityKind::Wait => SegKind::Wait,
            };
            segments.push(CritSegment {
                rank: cur_rank,
                start: seg_start,
                end: cur_t,
                label,
                kind,
            });
            cur_t = seg_start;
            // Arrival-bound receive: the receiver became ready exactly when
            // the message landed, so the chain continues on the sender.
            if a.kind == ActivityKind::Recv {
                if let Some((srank, sidx)) = a.msg_uid().and_then(|u| sends.get(&u)).copied() {
                    let s_end = obs[srank].activities[sidx].end;
                    if (s_end - a.start).abs() <= EPS * (1.0 + s_end.abs()) && srank != cur_rank {
                        cur_rank = srank;
                        rank_hops += 1;
                    }
                }
            }
        }
        if cur_t > EPS {
            // Guard tripped (pathological tie loop); close the tiling.
            segments.push(CritSegment {
                rank: cur_rank,
                start: 0.0,
                end: cur_t,
                label: "idle".into(),
                kind: SegKind::Idle,
            });
        }
        segments.reverse();
        CriticalPath {
            makespan,
            segments,
            rank_hops,
        }
    }

    /// Seconds attributed to each phase label. Keys are phase names plus
    /// `"idle"` / `"(untracked)"`. Values sum to the makespan.
    pub fn attribution(&self) -> BTreeMap<String, f64> {
        let mut by_label: BTreeMap<String, f64> = BTreeMap::new();
        for s in &self.segments {
            *by_label.entry(s.label.clone()).or_insert(0.0) += s.duration();
        }
        by_label
    }

    /// Fraction of the makespan attributed to each phase label (sums to 1).
    pub fn attribution_fractions(&self) -> BTreeMap<String, f64> {
        if self.makespan <= 0.0 {
            return BTreeMap::new();
        }
        self.attribution()
            .into_iter()
            .map(|(k, v)| (k, v / self.makespan))
            .collect()
    }

    /// Seconds attributed to each activity kind.
    pub fn kind_attribution(&self) -> BTreeMap<&'static str, f64> {
        let mut by_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.segments {
            *by_kind.entry(s.kind.as_str()).or_insert(0.0) += s.duration();
        }
        by_kind
    }

    /// Fraction of the makespan the segments cover (1.0 when the walk
    /// tiled cleanly).
    pub fn coverage(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.segments.iter().map(|s| s.duration()).sum::<f64>() / self.makespan
    }

    /// Human-readable two-line attribution report.
    pub fn render(&self) -> String {
        if self.makespan <= 0.0 {
            return "critical path: (no simulated time elapsed)\n".to_string();
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: makespan {:.6}s, {} segments, {} rank hops",
            self.makespan,
            self.segments.len(),
            self.rank_hops
        );
        let fmt_map = |items: Vec<(String, f64)>| {
            items
                .into_iter()
                .map(|(k, v)| format!("{k} {:.1}%", 100.0 * v / self.makespan))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        let _ = writeln!(
            out,
            "  by phase: {}",
            fmt_map(self.attribution().into_iter().collect())
        );
        let _ = writeln!(
            out,
            "  by kind:  {}",
            fmt_map(
                self.kind_attribution()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            )
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::MsgInfo;

    fn mi(uid: u64) -> Option<MsgInfo> {
        Some(MsgInfo {
            uid,
            ctx: 0,
            tag: 1,
            class: crate::CommClass::Control,
        })
    }
    use crate::span::{ActivityKind, Recorder, SpanCat};

    /// r0: compute [0,2], send [2,2.5] (uid 7). r1: wait [0,2.5],
    /// recv [2.5,3]. The path must hop from r1's receive to r0.
    fn arrival_bound_pair() -> Vec<RankObs> {
        let mut r0 = Recorder::new(0);
        let ph = r0.enter(SpanCat::Phase, "fact", 0.0);
        r0.activity(ActivityKind::Compute, 0.0, 2.0, None, 0, None);
        r0.activity(ActivityKind::Send, 2.0, 2.5, Some(1), 16, mi(7));
        r0.exit(ph, 2.5);
        let mut r1 = Recorder::new(1);
        let ph1 = r1.enter(SpanCat::Phase, "fact", 0.0);
        r1.activity(ActivityKind::Wait, 0.0, 2.5, Some(0), 0, None);
        r1.activity(ActivityKind::Recv, 2.5, 3.0, Some(0), 16, mi(7));
        r1.exit(ph1, 3.0);
        vec![r0.finish(2.5), r1.finish(3.0)]
    }

    #[test]
    fn path_hops_through_arrival_bound_recv() {
        let cp = CriticalPath::analyze(&arrival_bound_pair());
        assert_eq!(cp.makespan, 3.0);
        assert_eq!(cp.rank_hops, 1);
        // Tiles [0, 3]: compute[r0 0-2], send[r0 2-2.5], recv[r1 2.5-3].
        assert_eq!(cp.segments.len(), 3);
        assert!((cp.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(cp.segments[0].rank, 0);
        assert_eq!(cp.segments[2].rank, 1);
        // The receiver's wait is NOT on the path — the sender's work is.
        assert!(cp.segments.iter().all(|s| s.kind != SegKind::Wait));
        let frac = cp.attribution_fractions();
        assert!((frac["fact"] - 1.0).abs() < 1e-12);
        let kinds = cp.kind_attribution();
        assert!((kinds["comp"] - 2.0).abs() < 1e-12);
        assert!((kinds["comm"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_bound_recv_stays_local() {
        // r1 computes past the arrival; the path never leaves r1.
        let mut r0 = Recorder::new(0);
        r0.activity(ActivityKind::Send, 0.0, 0.5, Some(1), 8, mi(9));
        let mut r1 = Recorder::new(1);
        let ph = r1.enter(SpanCat::Phase, "solve", 0.0);
        r1.activity(ActivityKind::Compute, 0.0, 4.0, None, 0, None);
        r1.activity(ActivityKind::Recv, 4.0, 4.5, Some(0), 8, mi(9));
        r1.exit(ph, 4.5);
        let cp = CriticalPath::analyze(&[r0.finish(0.5), r1.finish(4.5)]);
        assert_eq!(cp.rank_hops, 0);
        assert!(cp.segments.iter().all(|s| s.rank == 1));
        assert!((cp.coverage() - 1.0).abs() < 1e-12);
        let frac = cp.attribution_fractions();
        assert!((frac["solve"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gaps_become_idle_segments() {
        let mut r0 = Recorder::new(0);
        r0.activity(ActivityKind::Compute, 1.0, 2.0, None, 0, None);
        let cp = CriticalPath::analyze(&[r0.finish(2.0)]);
        assert_eq!(cp.segments.len(), 2);
        assert_eq!(cp.segments[0].kind, SegKind::Idle);
        assert_eq!(cp.segments[0].label, "idle");
        assert!((cp.coverage() - 1.0).abs() < 1e-12);
        // Untracked compute gets its own label.
        assert_eq!(cp.segments[1].label, "(untracked)");
    }

    #[test]
    fn empty_run_yields_empty_path() {
        let cp = CriticalPath::analyze(&[Recorder::new(0).finish(0.0)]);
        assert_eq!(cp.makespan, 0.0);
        assert!(cp.segments.is_empty());
        assert!(cp.render().contains("no simulated time"));
    }

    #[test]
    fn render_reports_percentages() {
        let cp = CriticalPath::analyze(&arrival_bound_pair());
        let text = cp.render();
        assert!(text.contains("by phase"), "{text}");
        assert!(text.contains("fact 100.0%"), "{text}");
        assert!(text.contains("1 rank hops"), "{text}");
    }
}
