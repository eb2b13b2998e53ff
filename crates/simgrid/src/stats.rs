//! Per-rank traffic and time accounting.

use crate::backend::SchedStats;
use obs::{CommReport, HostReport, Json, MemReport, MetricsRegistry, RankObs};

/// Everything one rank reports at the end of a run.
#[derive(Clone, Debug, Default)]
pub struct RankReport {
    /// Final simulated clock (seconds): this rank's critical-path time.
    pub clock: f64,
    /// Simulated seconds spent in communication (transfer charges plus
    /// blocking waits) — the `T_comm` component of Fig. 9.
    pub t_comm: f64,
    /// Simulated seconds spent computing — the `T_scu` component of Fig. 9.
    pub t_comp: f64,
    /// Total flops this rank charged via `advance_compute`.
    pub flops: u64,
    /// Wall-clock seconds from this rank's first time slice to its return.
    /// With host profiling on, time spent parked by the event backend is
    /// taken out: the seconds the rank actually ran.
    pub wall_secs: f64,
    /// Counters, gauges, and histograms this rank recorded (always on).
    pub metrics: MetricsRegistry,
    /// Memory-ledger profile: high-water mark with class+tree-level
    /// attribution of the peak instant (always on).
    pub memprof: MemReport,
    /// Wire-volume ledger: algorithmic words sent keyed by
    /// `(phase, class, tree level, grid axis)` plus per-edge totals
    /// (always on) — the one place sends and receives are counted. The
    /// phase is the label active when the message was sent (see
    /// [`crate::Rank::set_phase`]); the paper's Fig. 10 is the `"fact"` vs
    /// `"reduce"` split. Fault-injected duplicates and retransmits are
    /// excluded — see `fault.resent_words` in [`RankReport::metrics`].
    pub commvol: CommReport,
    /// Host-time profile: wall-clock self time per phase summing to 100%
    /// of the thread's measured wall, with derived flop-rate/bandwidth
    /// gauges. `None` unless the machine ran with
    /// [`crate::Machine::with_host_profiling`].
    pub hostprof: Option<HostReport>,
    /// Span/activity store, when tracing was enabled on the machine.
    pub trace: Option<RankObs>,
}

impl RankReport {
    /// Total words sent across all phases.
    pub fn total_sent_words(&self) -> u64 {
        self.commvol.sent_words()
    }

    /// Total messages sent across all phases.
    pub fn total_sent_msgs(&self) -> u64 {
        self.commvol.sent_msgs()
    }

    /// Total words received across all phases.
    pub fn total_recv_words(&self) -> u64 {
        self.commvol.recv_words()
    }

    /// Words sent in one phase (0 if the phase never ran).
    pub fn sent_words_in(&self, phase: &str) -> u64 {
        self.commvol.phase_words(phase)
    }
}

/// Cross-rank aggregation of a finished run.
#[derive(Clone, Debug, Default)]
pub struct TrafficSummary {
    /// Maximum per-rank sent words (the paper's "per-process communication
    /// volume on the critical path").
    pub max_sent_words: u64,
    /// Sum of sent words over all ranks.
    pub total_sent_words: u64,
    /// Maximum per-rank received words: the ingest-side counterpart of
    /// `max_sent_words`, which bounds a rank's unpack/apply work.
    pub max_recv_words: u64,
    /// Sum of received words over all ranks. Equals `total_sent_words`
    /// when every message was consumed — a cheap delivery invariant.
    pub total_recv_words: u64,
    /// Maximum per-rank message count.
    pub max_sent_msgs: u64,
    /// Maximum simulated clock over ranks: the run's critical-path time.
    pub makespan: f64,
    /// Maximum per-rank compute seconds.
    pub max_t_comp: f64,
    /// Maximum per-rank communication seconds.
    pub max_t_comm: f64,
    /// Maximum per-rank memory-ledger high-water mark (bytes).
    pub max_peak_mem: u64,
    /// Total flops over all ranks.
    pub total_flops: u64,
    /// Number of directed (src, dst) edges that carried at least one
    /// message, from the wire-volume ledger.
    pub edges: u64,
    /// Heaviest directed edge in words.
    pub max_edge_words: u64,
    /// Mean words per active directed edge (0 when no edge carried data).
    pub mean_edge_words: f64,
}

impl TrafficSummary {
    /// Aggregate a slice of rank reports.
    pub fn from_reports(reports: &[RankReport]) -> Self {
        let mut s = TrafficSummary::default();
        for r in reports {
            s.max_sent_words = s.max_sent_words.max(r.total_sent_words());
            s.total_sent_words += r.total_sent_words();
            s.max_recv_words = s.max_recv_words.max(r.total_recv_words());
            s.total_recv_words += r.total_recv_words();
            s.max_sent_msgs = s.max_sent_msgs.max(r.total_sent_msgs());
            s.makespan = s.makespan.max(r.clock);
            s.max_t_comp = s.max_t_comp.max(r.t_comp);
            s.max_t_comm = s.max_t_comm.max(r.t_comm);
            s.max_peak_mem = s.max_peak_mem.max(r.memprof.peak_bytes);
            s.total_flops += r.flops;
            for e in &r.commvol.sent_to {
                s.edges += 1;
                s.max_edge_words = s.max_edge_words.max(e.words);
                s.mean_edge_words += e.words as f64;
            }
        }
        if s.edges > 0 {
            s.mean_edge_words /= s.edges as f64;
        }
        s
    }

    /// Max per-rank words sent in one named phase.
    pub fn max_sent_words_in(reports: &[RankReport], phase: &str) -> u64 {
        reports
            .iter()
            .map(|r| r.sent_words_in(phase))
            .max()
            .unwrap_or(0)
    }
}

/// Merge every rank's metrics registry into one machine-wide view
/// (counters sum, gauges take the max, histograms merge).
pub fn merged_metrics(reports: &[RankReport]) -> MetricsRegistry {
    let mut all = MetricsRegistry::default();
    for r in reports {
        all.merge(&r.metrics);
    }
    all
}

/// The one account of a finished run, and the only place it is assembled:
///
/// ```text
/// {"schema": "salu-run/1",
///  "sim":  {"metrics", "memprof", "commvol"},
///  "host": {"sched", "hostprof"}}
/// ```
///
/// `sim` holds what the simulation determines — the merged metrics registry
/// ([`MetricsRegistry::to_json`]), the memory ledgers ([`obs::memprof_json`])
/// and the wire ledgers ([`obs::commvol_json`]) — and is bitwise the same on
/// every host, backend and repetition of one configuration. `host` holds what
/// the engine and the machine it ran on add: the event scheduler's counters
/// (`null` under the threaded backend, where the kernel schedules) and the
/// host-time profile ([`obs::hostprof_json`]; `null` unless the run had host
/// profiling on). The timeline of a traced run is not a section: it stays a
/// bare trace-event file, which is what Perfetto and the trace linter read.
pub fn run_document(reports: &[RankReport], sched: Option<&SchedStats>) -> Json {
    let memprof: Vec<_> = reports.iter().map(|r| r.memprof.clone()).collect();
    let commvol: Vec<_> = reports.iter().map(|r| r.commvol.clone()).collect();
    let hostprof: Option<Vec<_>> = reports.iter().map(|r| r.hostprof.clone()).collect();
    Json::Obj(vec![
        ("schema".into(), Json::str("salu-run/1")),
        (
            "sim".into(),
            Json::Obj(vec![
                ("metrics".into(), merged_metrics(reports).to_json()),
                ("memprof".into(), obs::memprof_json(&memprof)),
                ("commvol".into(), obs::commvol_json(&commvol)),
            ]),
        ),
        (
            "host".into(),
            Json::Obj(vec![
                ("sched".into(), sched.map_or(Json::Null, |s| s.to_json())),
                (
                    "hostprof".into(),
                    hostprof.map_or(Json::Null, |v| obs::hostprof_json(&v)),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{CommClass, CommLedger, GridAxis};

    /// A report whose ledger saw `sends` as `(phase, words)` and `recvs` as
    /// word counts, all on one edge.
    fn report(sends: &[(&str, u64)], recvs: &[u64]) -> RankReport {
        let mut ledger = CommLedger::new(false);
        for &(phase, words) in sends {
            ledger.charge_send(phase, CommClass::Control, GridAxis::X, 1, words, words, 0.0);
        }
        for &words in recvs {
            ledger.charge_recv(1, words);
        }
        RankReport {
            commvol: ledger.report(),
            ..Default::default()
        }
    }

    #[test]
    fn report_totals() {
        let r = report(&[("fact", 60), ("fact", 40), ("reduce", 10)], &[50]);
        assert_eq!(r.total_sent_words(), 110);
        assert_eq!(r.total_sent_msgs(), 3);
        assert_eq!(r.total_recv_words(), 50);
        assert_eq!(r.sent_words_in("fact"), 100);
        assert_eq!(r.sent_words_in("nope"), 0);
    }

    #[test]
    fn summary_aggregates_max_and_total() {
        let mut r1 = report(&[("fact", 5)], &[]);
        r1.clock = 2.0;
        r1.memprof.peak_bytes = 64;
        let mut r2 = report(&[("fact", 2), ("fact", 3), ("fact", 4)], &[]);
        r2.clock = 1.0;
        r2.memprof.peak_bytes = 96;
        let s = TrafficSummary::from_reports(&[r1, r2]);
        assert_eq!(s.max_sent_words, 9);
        assert_eq!(s.total_sent_words, 14);
        assert_eq!(s.max_sent_msgs, 3);
        assert_eq!(s.makespan, 2.0);
        assert_eq!(s.max_peak_mem, 96);
    }

    #[test]
    fn summary_aggregates_recv_words() {
        let r1 = report(&[], &[30, 12]);
        let r2 = report(&[], &[25]);
        let s = TrafficSummary::from_reports(&[r1, r2]);
        assert_eq!(s.max_recv_words, 42, "r1 receives 30 + 12");
        assert_eq!(s.total_recv_words, 67);
    }

    #[test]
    fn metrics_merge_across_ranks() {
        let mut r1 = RankReport::default();
        r1.metrics.inc("msg.sent", 3);
        let mut r2 = RankReport::default();
        r2.metrics.inc("msg.sent", 4);
        r2.metrics.observe("x", 2.0);
        let all = merged_metrics(&[r1, r2]);
        assert_eq!(all.counter("msg.sent"), 7);
        assert_eq!(all.histogram("x").unwrap().count, 1);
    }
}
