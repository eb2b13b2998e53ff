//! Per-rank traffic and time accounting.

use obs::{CommReport, HostReport, MemReport, MetricsRegistry, RankObs};

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
    /// Counters this rank recorded (always on).
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
    /// of the thread's measured wall, with its derived flop rate. `None` unless the machine ran with
    /// [`crate::Machine::with_host_profiling`].
    pub hostprof: Option<HostReport>,
    /// Span/activity store, when tracing was enabled on the machine.
    pub trace: Option<RankObs>,
}

/// Cross-rank aggregation of a finished run: what the engine's own callers
/// read. The machine-wide ledger aggregates are the run document's (see
/// `lu3d::Output3d::account`).
#[derive(Clone, Debug, Default)]
pub struct TrafficSummary {
    /// Maximum per-rank sent words (the paper's "per-process communication
    /// volume on the critical path").
    pub max_sent_words: u64,
    /// Maximum per-rank message count.
    pub max_sent_msgs: u64,
    /// Maximum simulated clock over ranks: the run's critical-path time.
    pub makespan: f64,
    /// Maximum per-rank communication seconds.
    pub max_t_comm: f64,
    /// Total flops over all ranks.
    pub total_flops: u64,
}

impl TrafficSummary {
    /// Aggregate a slice of rank reports.
    pub fn from_reports(reports: &[RankReport]) -> Self {
        let mut s = TrafficSummary::default();
        for r in reports {
            s.max_sent_words = s.max_sent_words.max(r.commvol.sent_words());
            s.max_sent_msgs = s.max_sent_msgs.max(r.commvol.sent_msgs());
            s.makespan = s.makespan.max(r.clock);
            s.max_t_comm = s.max_t_comm.max(r.t_comm);
            s.total_flops += r.flops;
        }
        s
    }

    /// Max per-rank messages and words sent in one named phase, each the
    /// largest over ranks on its own (`(0, 0)` if the phase never ran).
    pub fn max_sent_in(reports: &[RankReport], phase: &str) -> (u64, u64) {
        reports.iter().fold((0, 0), |(msgs, words), r| {
            let cell = r.commvol.phase_cell(phase);
            (msgs.max(cell.msgs), words.max(cell.words))
        })
    }
}

/// Merge every rank's metrics registry into one machine-wide view
/// (counters sum).
pub fn merged_metrics(reports: &[RankReport]) -> MetricsRegistry {
    let mut all = MetricsRegistry::default();
    for r in reports {
        all.merge(&r.metrics);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{CommClass, CommKey, CommLedger, GridAxis};

    const PHASES: [&str; 2] = ["fact", "reduce"];

    /// A report whose ledger saw `sends` as `(phase, words)` and `recvs` as
    /// word counts, all on one edge.
    fn report(sends: &[(&str, u64)], recvs: &[u64]) -> RankReport {
        let mut ledger = CommLedger::default();
        for &(phase, words) in sends {
            let key = CommKey {
                phase: PHASES.iter().position(|&p| p == phase).unwrap() as u32,
                class: CommClass::Control,
                level: 0,
                axis: GridAxis::X,
            };
            ledger.charge_send(key, 1, words, words);
        }
        for &words in recvs {
            ledger.charge_recv(1, words);
        }
        RankReport {
            commvol: ledger.report(&PHASES),
            ..Default::default()
        }
    }

    #[test]
    fn report_totals() {
        let r = report(&[("fact", 60), ("fact", 40), ("reduce", 10)], &[50]);
        assert_eq!(r.commvol.sent_words(), 110);
        assert_eq!(r.commvol.sent_msgs(), 3);
        assert_eq!(r.commvol.recv_words(), 50);
        let both = [r, report(&[("fact", 120)], &[])];
        assert_eq!(TrafficSummary::max_sent_in(&both, "fact"), (2, 120));
        assert_eq!(TrafficSummary::max_sent_in(&both, "nope"), (0, 0));
    }

    #[test]
    fn summary_aggregates_max_and_total() {
        let mut r1 = report(&[("fact", 5)], &[]);
        r1.clock = 2.0;
        r1.flops = 10;
        let mut r2 = report(&[("fact", 2), ("fact", 3), ("fact", 4)], &[]);
        r2.clock = 1.0;
        r2.flops = 7;
        let s = TrafficSummary::from_reports(&[r1, r2]);
        assert_eq!(s.max_sent_words, 9);
        assert_eq!(s.max_sent_msgs, 3);
        assert_eq!(s.makespan, 2.0);
        assert_eq!(s.total_flops, 17);
    }

    #[test]
    fn metrics_merge_across_ranks() {
        let mut r1 = RankReport::default();
        r1.metrics.inc("fault.resent_msgs", 3);
        let mut r2 = RankReport::default();
        r2.metrics.inc("fault.resent_msgs", 4);
        r2.metrics.inc("x", 2);
        let all = merged_metrics(&[r1, r2]);
        assert_eq!(all.counter("fault.resent_msgs"), 7);
        assert_eq!(all.counter("x"), 2);
    }
}
