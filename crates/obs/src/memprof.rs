//! Memory profiler: a per-rank, simulated-time allocation ledger.
//!
//! Every buffer the stack allocates is tagged with a [`MemClass`] and
//! charged/credited against the rank's [`MemLedger`] at the simulated time
//! of the allocation. The ledger keeps running balances per
//! `(class, tree level)`, the high-water mark, and — crucially — a
//! snapshot of the balances *at the peak instant*, so peak attribution
//! sums to 100% of the peak by construction.
//!
//! When tracing is on the ledger additionally records every charge/credit
//! as a [`MemEvent`]; the Chrome exporter turns that timeline into
//! `"ph":"C"` counter tracks that render as stacked memory curves beside
//! the span Gantt in Perfetto.
//!
//! Like the rest of this crate, the module is a leaf: the simulator wires
//! the ledger into its rank's instruments, which hold the current tree
//! level and pass it with every charge; the algorithm layers pick the
//! classes, and everything here just does deterministic arithmetic.

use crate::json::Json;

/// What a tracked buffer holds. The taxonomy follows the memory story of
/// the paper: 2D panels, the Pz-replicated ancestor copies that buy the
/// communication reduction, transient Schur-update panels, bytes parked in
/// the simulated network, and symbolic bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemClass {
    /// Blocks of the L factor on or below the diagonal of a leaf-owned
    /// supernode column.
    LPanel,
    /// Blocks of the U factor right of the diagonal.
    UPanel,
    /// Blocks of an ancestor supernode replicated onto this rank's grid
    /// layer (the Pz copies of §IV; released after ancestor-reduction).
    AncestorReplica,
    /// Transient panel buffers held for a pending Schur-complement update
    /// (the lookahead window in the 2D kernel).
    SchurBuf,
    /// Message bytes that have arrived at this rank but have not yet been
    /// consumed by a receive — buffer bloat at the destination.
    MsgInFlight,
    /// Symbolic metadata: block keys, headers, and index maps.
    SymbolicMeta,
}

impl MemClass {
    /// All classes, in the fixed order used by every report and track.
    pub const ALL: [MemClass; 6] = [
        MemClass::LPanel,
        MemClass::UPanel,
        MemClass::AncestorReplica,
        MemClass::SchurBuf,
        MemClass::MsgInFlight,
        MemClass::SymbolicMeta,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            MemClass::LPanel => "LPanel",
            MemClass::UPanel => "UPanel",
            MemClass::AncestorReplica => "AncestorReplica",
            MemClass::SchurBuf => "SchurBuf",
            MemClass::MsgInFlight => "MsgInFlight",
            MemClass::SymbolicMeta => "SymbolicMeta",
        }
    }
}

/// One charge (`delta > 0`) or credit (`delta < 0`) on the timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemEvent {
    /// Simulated seconds.
    pub t: f64,
    pub class: MemClass,
    /// Elimination-tree level the rank was working at (0 for 2D runs).
    pub level: u32,
    /// Signed byte delta.
    pub delta: i64,
}

/// Balances in bytes per `(class, tree level)`: one short vector per class,
/// indexed by level. Tree levels are small (at most `log2 Pz`), so a charge
/// is two index operations.
type Balances = [Vec<u64>; MemClass::ALL.len()];

/// The nonzero balances as attribution entries, in `(class, level)` order.
fn attribution(balances: &Balances) -> Vec<MemAttr> {
    let mut out = Vec::new();
    for (&class, levels) in MemClass::ALL.iter().zip(balances) {
        for (level, &bytes) in levels.iter().enumerate() {
            if bytes > 0 {
                out.push(MemAttr {
                    class,
                    level: level as u32,
                    bytes,
                });
            }
        }
    }
    out
}

/// Running balances, high-water mark, and peak-instant attribution for
/// one rank.
#[derive(Clone, Debug, Default)]
pub struct MemLedger {
    cur: Balances,
    total: u64,
    peak: u64,
    peak_t: f64,
    /// Snapshot of `cur` at the instant `peak` was set — taken lazily.
    /// Between a peak-setting charge and the next credit `cur` only grows
    /// and every charge sets a new peak, so `cur` *is* the snapshot until a
    /// credit (or the report) needs the two to differ.
    peak_by: Balances,
    /// True while `cur` stands in for `peak_by`.
    peak_is_cur: bool,
    /// Per-event timeline, recorded only when tracing.
    timeline: Option<Vec<MemEvent>>,
}

impl MemLedger {
    /// `timeline = true` records every event for counter-track export
    /// (costs memory proportional to allocation count); balances and peak
    /// attribution are always on.
    pub fn new(timeline: bool) -> Self {
        MemLedger {
            timeline: if timeline { Some(Vec::new()) } else { None },
            ..Default::default()
        }
    }

    /// Charge `bytes` of `class` at simulated time `t`, attributed to
    /// elimination-tree level `level` (0 for 2D runs).
    pub fn charge(&mut self, class: MemClass, level: u32, bytes: u64, t: f64) {
        if bytes == 0 {
            return;
        }
        let levels = &mut self.cur[class as usize];
        if levels.len() <= level as usize {
            levels.resize(level as usize + 1, 0);
        }
        levels[level as usize] += bytes;
        self.total += bytes;
        if self.total > self.peak {
            self.peak = self.total;
            self.peak_t = t;
            self.peak_is_cur = true;
        }
        if let Some(tl) = &mut self.timeline {
            tl.push(MemEvent {
                t,
                class,
                level,
                delta: bytes as i64,
            });
        }
    }

    /// Credit (free) `bytes` of `class` at time `t` against the balance of
    /// `level`. Panics if the balance would go negative — a credit without
    /// a matching charge is a wiring bug.
    pub fn credit(&mut self, class: MemClass, level: u32, bytes: u64, t: f64) {
        if bytes == 0 {
            return;
        }
        let bal = self.cur[class as usize]
            .get(level as usize)
            .copied()
            .unwrap_or(0);
        assert!(
            bal > 0,
            "memprof: credit of {bytes} B against empty balance \
             ({} @ level {level})",
            class.as_str()
        );
        assert!(
            bal >= bytes,
            "memprof: credit of {bytes} B exceeds balance {bal} B \
             ({} @ level {level})",
            class.as_str()
        );
        if self.peak_is_cur {
            // `cur` is about to stop being the balances of the peak instant.
            for (snapshot, levels) in self.peak_by.iter_mut().zip(&self.cur) {
                snapshot.clone_from(levels);
            }
            self.peak_is_cur = false;
        }
        self.cur[class as usize][level as usize] -= bytes;
        self.total -= bytes;
        if let Some(tl) = &mut self.timeline {
            tl.push(MemEvent {
                t,
                class,
                level,
                delta: -(bytes as i64),
            });
        }
    }

    /// Current balance of one class summed over levels.
    pub fn balance(&self, class: MemClass) -> u64 {
        self.cur[class as usize].iter().sum()
    }

    /// Current total across all classes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// High-water mark in bytes.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Take the recorded event timeline (empty when tracing was off).
    pub fn take_timeline(&mut self) -> Vec<MemEvent> {
        self.timeline.take().unwrap_or_default()
    }

    /// Freeze into a report. Call at the end of the run.
    pub fn report(&self) -> MemReport {
        let at_peak = if self.peak_is_cur {
            &self.cur
        } else {
            &self.peak_by
        };
        MemReport {
            peak_bytes: self.peak,
            peak_t: self.peak_t,
            peak_by: attribution(at_peak),
            final_bytes: self.total,
            final_by: attribution(&self.cur),
        }
    }
}

/// One `(class, level)` attribution entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemAttr {
    pub class: MemClass,
    pub level: u32,
    pub bytes: u64,
}

/// Frozen per-rank memory profile: the high-water mark with full
/// class+level attribution of the peak instant, plus end-of-run balances
/// (nonzero `final_bytes` means factors still resident, which is expected;
/// transient classes should have drained).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemReport {
    pub peak_bytes: u64,
    pub peak_t: f64,
    pub peak_by: Vec<MemAttr>,
    pub final_bytes: u64,
    pub final_by: Vec<MemAttr>,
}

impl MemReport {
    /// Peak-instant bytes of one class, summed over levels.
    pub fn peak_class_bytes(&self, class: MemClass) -> u64 {
        self.peak_by
            .iter()
            .filter(|a| a.class == class)
            .map(|a| a.bytes)
            .sum()
    }

    /// Sum of the peak attribution — equals `peak_bytes` by construction;
    /// tests assert it.
    pub fn peak_attr_sum(&self) -> u64 {
        self.peak_by.iter().map(|a| a.bytes).sum()
    }
}

/// The largest high-water mark over ranks and the lowest rank holding it:
/// the one definition of the machine's peak.
pub fn max_peak_bytes(per_rank: &[&MemReport]) -> (u64, usize) {
    crate::rank_max(per_rank.iter().map(|r| r.peak_bytes))
}

/// The machine's memory summary: max (with its rank) and sum of the ranks'
/// peaks, and per-class totals taken at each rank's own peak instant
/// ("where was memory when it mattered").
pub fn memprof_json(per_rank: &[&MemReport]) -> Json {
    let (max_peak, max_rank) = max_peak_bytes(per_rank);
    let sum_peak: u64 = per_rank.iter().map(|r| r.peak_bytes).sum();
    let by_class = Json::obj(MemClass::ALL.map(|c| {
        let total: u64 = per_rank.iter().map(|r| r.peak_class_bytes(c)).sum();
        (c.as_str(), Json::num(total as f64))
    }));
    Json::obj([
        ("max_peak_bytes", Json::num(max_peak as f64)),
        ("max_peak_bytes_rank", Json::num(max_rank as f64)),
        ("sum_peak_bytes", Json::num(sum_peak as f64)),
        ("peak_by_class", by_class),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The ledger as it was first written: balances in an ordered map, the
    /// whole map copied at every new peak. The reference the lazy snapshot
    /// must agree with.
    #[derive(Default)]
    struct EagerLedger {
        cur: BTreeMap<(MemClass, u32), u64>,
        total: u64,
        peak: u64,
        peak_t: f64,
        peak_by: BTreeMap<(MemClass, u32), u64>,
    }

    impl EagerLedger {
        fn charge_at(&mut self, class: MemClass, level: u32, bytes: u64, t: f64) {
            if bytes == 0 {
                return;
            }
            *self.cur.entry((class, level)).or_insert(0) += bytes;
            self.total += bytes;
            if self.total > self.peak {
                self.peak = self.total;
                self.peak_t = t;
                self.peak_by = self.cur.clone();
            }
        }

        fn credit_at(&mut self, class: MemClass, level: u32, bytes: u64) {
            let bal = self
                .cur
                .get_mut(&(class, level))
                .expect("reference balance");
            *bal -= bytes;
            if *bal == 0 {
                self.cur.remove(&(class, level));
            }
            self.total -= bytes;
        }

        fn report(&self) -> MemReport {
            let attr = |m: &BTreeMap<(MemClass, u32), u64>| {
                m.iter()
                    .map(|(&(class, level), &bytes)| MemAttr {
                        class,
                        level,
                        bytes,
                    })
                    .collect()
            };
            MemReport {
                peak_bytes: self.peak,
                peak_t: self.peak_t,
                peak_by: attr(&self.peak_by),
                final_bytes: self.total,
                final_by: attr(&self.cur),
            }
        }
    }

    #[test]
    fn classes_index_the_balances_in_report_order() {
        for (at, &class) in MemClass::ALL.iter().enumerate() {
            assert_eq!(class as usize, at);
        }
        assert!(MemClass::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    proptest! {
        /// Random charge / credit sequences over levels: the lazily
        /// snapshotted ledger reports exactly what the eager one does, at
        /// every prefix a report could be asked for.
        #[test]
        fn lazy_peak_snapshot_equals_eager_reference(seed in 0u64..1_000_000, ops in 1usize..200) {
            let mut state = seed;
            let mut draw = |n: u64| {
                // splitmix64
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            };
            let mut lazy = MemLedger::new(false);
            let mut eager = EagerLedger::default();
            let mut level = 0u32;
            for step in 0..ops {
                let t = step as f64;
                let class = MemClass::ALL[draw(6) as usize];
                match draw(8) {
                    0 => level = draw(5) as u32,
                    1..=4 => {
                        // Zero-byte charges included: they are no-ops.
                        let bytes = draw(4) * draw(100);
                        lazy.charge(class, level, bytes, t);
                        eager.charge_at(class, level, bytes, t);
                    }
                    _ => {
                        // Credit part of some live balance, often all of it.
                        let live: Vec<_> = eager.cur.iter().map(|(&k, &b)| (k, b)).collect();
                        if !live.is_empty() {
                            let ((class, at), bal) = live[draw(live.len() as u64) as usize];
                            let bytes = if draw(2) == 0 { bal } else { 1 + draw(bal) };
                            lazy.credit(class, at, bytes, t);
                            eager.credit_at(class, at, bytes);
                        }
                    }
                }
                prop_assert_eq!(lazy.report(), eager.report());
                prop_assert_eq!(lazy.balance(class), eager.cur.iter().filter(|((c, _), _)| *c == class).map(|(_, &b)| b).sum::<u64>());
            }
        }
    }

    #[test]
    fn peak_attribution_sums_to_peak() {
        let mut l = MemLedger::new(false);
        l.charge(MemClass::LPanel, 0, 100, 0.0);
        l.charge(MemClass::UPanel, 0, 50, 1.0);
        l.charge(MemClass::AncestorReplica, 2, 30, 2.0); // peak = 180
        l.credit(MemClass::AncestorReplica, 2, 30, 3.0);
        l.charge(MemClass::SchurBuf, 2, 10, 4.0); // 160 < 180
        let r = l.report();
        assert_eq!(r.peak_bytes, 180);
        assert_eq!(r.peak_t, 2.0);
        assert_eq!(r.peak_attr_sum(), r.peak_bytes);
        assert_eq!(r.peak_class_bytes(MemClass::AncestorReplica), 30);
        assert_eq!(r.final_bytes, 160);
    }

    #[test]
    fn peak_tracks_running_max_over_timeline() {
        let mut l = MemLedger::new(true);
        let deltas: [(u64, bool); 6] = [
            (10, true),
            (5, false),
            (20, true),
            (25, false),
            (40, true),
            (40, false),
        ];
        let mut running = 0u64;
        let mut max = 0u64;
        for (i, &(b, charge)) in deltas.iter().enumerate() {
            if charge {
                l.charge(MemClass::SchurBuf, 0, b, i as f64);
                running += b;
            } else {
                l.credit(MemClass::SchurBuf, 0, b, i as f64);
                running -= b;
            }
            max = max.max(running);
        }
        assert_eq!(l.peak(), max);
        assert_eq!(l.total(), running);
        // Replay the timeline: peak must equal max prefix sum.
        let tl = l.take_timeline();
        assert_eq!(tl.len(), 6);
        let mut run = 0i64;
        let mut tl_max = 0i64;
        for e in &tl {
            run += e.delta;
            tl_max = tl_max.max(run);
        }
        assert_eq!(tl_max as u64, max);
    }

    #[test]
    #[should_panic(expected = "exceeds balance")]
    fn credit_beyond_balance_panics() {
        let mut l = MemLedger::new(false);
        l.charge(MemClass::LPanel, 0, 8, 0.0);
        l.credit(MemClass::LPanel, 0, 16, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty balance")]
    fn credit_without_charge_panics() {
        let mut l = MemLedger::new(false);
        l.credit(MemClass::MsgInFlight, 0, 1, 0.0);
    }

    #[test]
    fn levels_are_tracked_separately() {
        let mut l = MemLedger::new(false);
        l.charge(MemClass::AncestorReplica, 1, 100, 0.0);
        l.charge(MemClass::AncestorReplica, 0, 7, 0.5);
        let r = l.report();
        assert_eq!(r.peak_class_bytes(MemClass::AncestorReplica), 107);
        let lv1: Vec<_> = r.peak_by.iter().filter(|a| a.level == 1).collect();
        assert_eq!(lv1.len(), 1);
        assert_eq!(lv1[0].bytes, 100);
    }

    #[test]
    fn report_json_is_deterministic_and_parses_back() {
        let mut l = MemLedger::new(false);
        l.charge(MemClass::UPanel, 0, 64, 0.25);
        l.charge(MemClass::SymbolicMeta, 0, 32, 0.5);
        let doc = memprof_json(&[&l.report()]);
        let text = doc.dump();
        assert_eq!(Json::parse(&text).unwrap().dump(), text);
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("max_peak_bytes").unwrap().as_f64(), Some(96.0));
        assert_eq!(
            back.get("peak_by_class")
                .unwrap()
                .get("UPanel")
                .unwrap()
                .as_f64(),
            Some(64.0)
        );
    }

    #[test]
    fn zero_byte_ops_are_noops() {
        let mut l = MemLedger::new(true);
        l.charge(MemClass::LPanel, 0, 0, 0.0);
        l.credit(MemClass::LPanel, 0, 0, 0.0);
        assert_eq!(l.total(), 0);
        assert_eq!(l.peak(), 0);
        assert!(l.take_timeline().is_empty());
    }
}
