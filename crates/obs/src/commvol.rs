//! Wire-volume observatory: a per-rank, simulated-time communication
//! ledger.
//!
//! Every algorithmic send is charged to a
//! `(phase, class, tree level, grid axis)` key plus a per-edge
//! `(src, dst)` entry, at the simulated time of the send — the same design
//! as the memory profiler ([`crate::memprof`]), aimed at the quantity the
//! paper is actually about: words moved per process.
//!
//! Two audits ride on the ledger:
//!
//! - **Padding waste**: blocks travel zero-padded dense, so each charge
//!   records both the padded words actually shipped and the struct-nonzero
//!   words a zero-row-compressed encoding would ship (the per-tile
//!   compression the GEMM microkernel already performs on arrival). The
//!   gap, per class, is the headroom a SpComm3D-style sparse wire format
//!   would recover.
//! - **Replication**: per-class/per-level volumes let the conformance
//!   gates compare measured z-axis reduction traffic against the analytic
//!   per-level bounds of the cost model (paper §IV, eq. 10).
//!
//! Fault-injected retransmits and duplicates are *not* charged here: the
//! ledger records algorithmic volume, so a recovered chaos run reports
//! bitwise the same ledger as a fault-free run. Transport overhead lands
//! in the `fault.resent_*` metrics instead.
//!
//! When tracing is on, the ledger records each send as a [`CommEvent`];
//! the Chrome exporter turns that timeline into cumulative `"ph":"C"`
//! counter tracks per class ("wire rank N").

use crate::json::Json;
use std::collections::BTreeMap;

/// What a message carries. The taxonomy follows the communication story of
/// the paper: panel broadcasts inside a 2D grid, Schur-complement
/// contributions, the z-axis ancestor reductions that the 3D algorithm
/// adds, collective internals, and small control traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommClass {
    /// L-factor panel blocks broadcast along a process row.
    LPanel,
    /// U-factor panel blocks broadcast down a process column.
    UPanel,
    /// Schur-complement contribution blocks exchanged between ranks
    /// (reserved: the current owner-computes schedule keeps Schur updates
    /// local, so this class is zero until ROADMAP item 3 redistributes
    /// them).
    SchurContrib,
    /// Ancestor-replica blocks pairwise-reduced along the z axis
    /// (Algorithm 1's reduction ladder — the `W_red` of Fig. 10).
    ZReduction,
    /// Collective-internal traffic (barrier rounds, allreduce halves)
    /// not claimed by a more specific class.
    Collective,
    /// Everything else: diagonal-block broadcasts, pivot metadata, solve
    /// traffic, and other small control messages.
    Control,
}

impl CommClass {
    /// All classes, in the fixed order used by every report and track.
    pub const ALL: [CommClass; 6] = [
        CommClass::LPanel,
        CommClass::UPanel,
        CommClass::SchurContrib,
        CommClass::ZReduction,
        CommClass::Collective,
        CommClass::Control,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            CommClass::LPanel => "LPanel",
            CommClass::UPanel => "UPanel",
            CommClass::SchurContrib => "SchurContrib",
            CommClass::ZReduction => "ZReduction",
            CommClass::Collective => "Collective",
            CommClass::Control => "Control",
        }
    }
}

/// Which axis of the 3D process grid an edge runs along.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GridAxis {
    /// Same process row, same layer: varying column coordinate.
    X,
    /// Same process column, same layer: varying row coordinate.
    Y,
    /// Same `(r, c)` position across layers: a z-line edge.
    Z,
    /// Any edge that changes more than one coordinate, or traffic on a
    /// machine with no registered grid.
    Cross,
}

impl GridAxis {
    pub const ALL: [GridAxis; 4] = [GridAxis::X, GridAxis::Y, GridAxis::Z, GridAxis::Cross];

    pub fn as_str(self) -> &'static str {
        match self {
            GridAxis::X => "x",
            GridAxis::Y => "y",
            GridAxis::Z => "z",
            GridAxis::Cross => "cross",
        }
    }
}

/// One send on the wire timeline (recorded only when tracing).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommEvent {
    /// Simulated seconds at which the send started.
    pub t: f64,
    pub class: CommClass,
    /// Padded words shipped.
    pub words: u64,
}

/// Accumulated volume under one ledger key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommCell {
    pub msgs: u64,
    /// Padded words actually shipped.
    pub words: u64,
    /// Struct-nonzero words: what a zero-row-compressed encoding would
    /// ship. Always `<= words`.
    pub struct_words: u64,
}

/// Volume over one directed edge (this rank ↔ one peer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeVolume {
    pub peer: usize,
    pub msgs: u64,
    pub words: u64,
}

/// A ledger key with the phase label replaced by its index in
/// [`CommLedger::phases`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CellKey {
    phase: u32,
    class: CommClass,
    level: u32,
    axis: GridAxis,
}

/// Running per-key volumes for one rank.
///
/// A rank touches a few dozen distinct keys in a run and sends thousands of
/// messages under each, almost always under the key of the previous send: the
/// cells are a short vector searched last-hit first, the phase labels are
/// interned, and the labelled, sorted rows exist only in the report.
#[derive(Clone, Debug, Default)]
pub struct CommLedger {
    /// Current tree level, stamped onto send charges.
    level: u32,
    /// Phase labels in order of first use.
    phases: Vec<String>,
    cells: Vec<(CellKey, CommCell)>,
    /// Index into `cells` of the last charge.
    last: usize,
    sent_to: BTreeMap<usize, (u64, u64)>,
    recv_from: BTreeMap<usize, (u64, u64)>,
    /// Per-event timeline, recorded only when tracing.
    timeline: Option<Vec<CommEvent>>,
}

impl CommLedger {
    /// `timeline = true` records every send for counter-track export;
    /// the keyed volumes are always on.
    pub fn new(timeline: bool) -> Self {
        CommLedger {
            timeline: if timeline { Some(Vec::new()) } else { None },
            ..Default::default()
        }
    }

    /// Set the elimination-tree level subsequent send charges are
    /// attributed to (mirrors [`crate::memprof::MemLedger::set_level`]).
    pub fn set_level(&mut self, level: u32) {
        self.level = level;
    }

    /// The cell of `(phase, class, current level, axis)`, created on first
    /// use. Allocates only then.
    fn cell_mut(&mut self, phase: &str, class: CommClass, axis: GridAxis) -> &mut CommCell {
        let level = self.level;
        let phases = &self.phases;
        let is_key = |k: &CellKey| {
            k.class == class
                && k.level == level
                && k.axis == axis
                && phases[k.phase as usize] == phase
        };
        if !self.cells.get(self.last).is_some_and(|(k, _)| is_key(k)) {
            self.last = match self.cells.iter().position(|(k, _)| is_key(k)) {
                Some(at) => at,
                None => {
                    let phase = match self.phases.iter().position(|p| p == phase) {
                        Some(id) => id,
                        None => {
                            self.phases.push(phase.to_string());
                            self.phases.len() - 1
                        }
                    } as u32;
                    let key = CellKey {
                        phase,
                        class,
                        level,
                        axis,
                    };
                    self.cells.push((key, CommCell::default()));
                    self.cells.len() - 1
                }
            };
        }
        &mut self.cells[self.last].1
    }

    /// Charge one algorithmic send: `words` padded words (with
    /// `struct_words` of them structurally nonzero) to `dst` along `axis`,
    /// under `phase` and `class` at the current tree level. Zero-word
    /// messages (barriers) still count as messages.
    #[allow(clippy::too_many_arguments)] // one scalar per ledger dimension; called once from Rank
    pub fn charge_send(
        &mut self,
        phase: &str,
        class: CommClass,
        axis: GridAxis,
        dst: usize,
        words: u64,
        struct_words: u64,
        t: f64,
    ) {
        debug_assert!(
            struct_words <= words,
            "struct {struct_words} > padded {words}"
        );
        let cell = self.cell_mut(phase, class, axis);
        cell.msgs += 1;
        cell.words += words;
        cell.struct_words += struct_words.min(words);
        let e = self.sent_to.entry(dst).or_default();
        e.0 += 1;
        e.1 += words;
        if words > 0 {
            if let Some(tl) = &mut self.timeline {
                tl.push(CommEvent { t, class, words });
            }
        }
    }

    /// Record one algorithmic receive of `words` words from `src`.
    pub fn charge_recv(&mut self, src: usize, words: u64) {
        let e = self.recv_from.entry(src).or_default();
        e.0 += 1;
        e.1 += words;
    }

    /// Padded words sent so far, all keys.
    pub fn sent_words(&self) -> u64 {
        self.cells.iter().map(|(_, c)| c.words).sum()
    }

    /// Take the recorded event timeline (empty when tracing was off).
    pub fn take_timeline(&mut self) -> Vec<CommEvent> {
        self.timeline.take().unwrap_or_default()
    }

    /// Freeze into a report. Call at the end of the run.
    pub fn report(&self) -> CommReport {
        let edges = |m: &BTreeMap<usize, (u64, u64)>| {
            m.iter()
                .map(|(&peer, &(msgs, words))| EdgeVolume { peer, msgs, words })
                .collect::<Vec<_>>()
        };
        let mut entries: Vec<CommEntry> = self
            .cells
            .iter()
            .map(|&(key, cell)| CommEntry {
                phase: self.phases[key.phase as usize].clone(),
                class: key.class,
                level: key.level,
                axis: key.axis,
                cell,
            })
            .collect();
        entries.sort_by(|a, b| {
            (&a.phase, a.class, a.level, a.axis).cmp(&(&b.phase, b.class, b.level, b.axis))
        });
        CommReport {
            entries,
            sent_to: edges(&self.sent_to),
            recv_from: edges(&self.recv_from),
        }
    }
}

/// One `(phase, class, level, axis)` ledger row.
#[derive(Clone, Debug, PartialEq)]
pub struct CommEntry {
    pub phase: String,
    pub class: CommClass,
    pub level: u32,
    pub axis: GridAxis,
    pub cell: CommCell,
}

/// Frozen per-rank wire-volume profile: the full keyed breakdown plus
/// per-edge sent/received volumes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommReport {
    /// Keyed volumes, ascending by `(phase, class, level, axis)`.
    pub entries: Vec<CommEntry>,
    /// Words this rank sent, per destination world rank.
    pub sent_to: Vec<EdgeVolume>,
    /// Words this rank received, per source world rank.
    pub recv_from: Vec<EdgeVolume>,
}

impl CommReport {
    pub fn sent_words(&self) -> u64 {
        self.entries.iter().map(|e| e.cell.words).sum()
    }

    pub fn sent_msgs(&self) -> u64 {
        self.entries.iter().map(|e| e.cell.msgs).sum()
    }

    pub fn recv_words(&self) -> u64 {
        self.recv_from.iter().map(|e| e.words).sum()
    }

    pub fn recv_msgs(&self) -> u64 {
        self.recv_from.iter().map(|e| e.msgs).sum()
    }

    /// Aggregate volume of one class over phases, levels, and axes.
    pub fn class_cell(&self, class: CommClass) -> CommCell {
        let mut out = CommCell::default();
        for e in self.entries.iter().filter(|e| e.class == class) {
            out.msgs += e.cell.msgs;
            out.words += e.cell.words;
            out.struct_words += e.cell.struct_words;
        }
        out
    }

    /// Padded words sent along one grid axis.
    pub fn axis_words(&self, axis: GridAxis) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.axis == axis)
            .map(|e| e.cell.words)
            .sum()
    }

    /// Padded words sent at one tree level.
    pub fn level_words(&self, level: u32) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.level == level)
            .map(|e| e.cell.words)
            .sum()
    }

    /// Padded words sent under one phase label.
    pub fn phase_words(&self, phase: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.phase == phase)
            .map(|e| e.cell.words)
            .sum()
    }

    /// Fraction of one class's shipped words that are padding
    /// (`0.0` = fully dense, also when the class sent nothing).
    pub fn waste_ratio(&self, class: CommClass) -> f64 {
        let c = self.class_cell(class);
        if c.words == 0 {
            0.0
        } else {
            (c.words - c.struct_words) as f64 / c.words as f64
        }
    }

    /// Largest per-destination sent volume.
    pub fn max_edge_words(&self) -> u64 {
        self.sent_to.iter().map(|e| e.words).max().unwrap_or(0)
    }

    pub fn to_json(&self) -> Json {
        let edges = |v: &[EdgeVolume]| {
            Json::Arr(
                v.iter()
                    .map(|e| {
                        Json::Obj(vec![
                            ("peer".into(), Json::num(e.peer as f64)),
                            ("msgs".into(), Json::num(e.msgs as f64)),
                            ("words".into(), Json::num(e.words as f64)),
                        ])
                    })
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("sent_words".into(), Json::num(self.sent_words() as f64)),
            ("sent_msgs".into(), Json::num(self.sent_msgs() as f64)),
            ("recv_words".into(), Json::num(self.recv_words() as f64)),
            ("recv_msgs".into(), Json::num(self.recv_msgs() as f64)),
            (
                "entries".into(),
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("phase".into(), Json::str(e.phase.clone())),
                                ("class".into(), Json::str(e.class.as_str())),
                                ("level".into(), Json::num(e.level as f64)),
                                ("axis".into(), Json::str(e.axis.as_str())),
                                ("msgs".into(), Json::num(e.cell.msgs as f64)),
                                ("words".into(), Json::num(e.cell.words as f64)),
                                ("struct_words".into(), Json::num(e.cell.struct_words as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("sent_to".into(), edges(&self.sent_to)),
            ("recv_from".into(), edges(&self.recv_from)),
        ])
    }
}

/// Machine-wide wire-volume document: per-rank reports plus a summary —
/// totals and waste ratios per class, volumes per axis and per level, and
/// the per-edge max/mean across the whole machine.
pub fn commvol_json(per_rank: &[CommReport]) -> Json {
    let total_sent: u64 = per_rank.iter().map(|r| r.sent_words()).sum();
    let max_rank_sent = per_rank.iter().map(|r| r.sent_words()).max().unwrap_or(0);
    let by_class = Json::Obj(
        CommClass::ALL
            .iter()
            .map(|&c| {
                let mut cell = CommCell::default();
                for r in per_rank {
                    let rc = r.class_cell(c);
                    cell.msgs += rc.msgs;
                    cell.words += rc.words;
                    cell.struct_words += rc.struct_words;
                }
                let waste = if cell.words == 0 {
                    0.0
                } else {
                    (cell.words - cell.struct_words) as f64 / cell.words as f64
                };
                (
                    c.as_str().to_string(),
                    Json::Obj(vec![
                        ("msgs".into(), Json::num(cell.msgs as f64)),
                        ("words".into(), Json::num(cell.words as f64)),
                        ("struct_words".into(), Json::num(cell.struct_words as f64)),
                        ("waste_ratio".into(), Json::num(waste)),
                    ]),
                )
            })
            .collect(),
    );
    let by_axis = Json::Obj(
        GridAxis::ALL
            .iter()
            .map(|&a| {
                let words: u64 = per_rank.iter().map(|r| r.axis_words(a)).sum();
                (a.as_str().to_string(), Json::num(words as f64))
            })
            .collect(),
    );
    let mut levels: BTreeMap<u32, u64> = BTreeMap::new();
    for r in per_rank {
        for e in &r.entries {
            *levels.entry(e.level).or_insert(0) += e.cell.words;
        }
    }
    let by_level = Json::Obj(
        levels
            .iter()
            .map(|(&l, &w)| (l.to_string(), Json::num(w as f64)))
            .collect(),
    );
    // Per-(src, dst) edge volumes across the machine, from the sender side.
    let mut n_edges = 0u64;
    let mut max_edge = 0u64;
    let mut edge_sum = 0u64;
    for r in per_rank {
        for e in &r.sent_to {
            if e.words > 0 {
                n_edges += 1;
                edge_sum += e.words;
                max_edge = max_edge.max(e.words);
            }
        }
    }
    let mean_edge = if n_edges == 0 {
        0.0
    } else {
        edge_sum as f64 / n_edges as f64
    };
    Json::Obj(vec![
        ("total_sent_words".into(), Json::num(total_sent as f64)),
        (
            "max_rank_sent_words".into(),
            Json::num(max_rank_sent as f64),
        ),
        ("edges".into(), Json::num(n_edges as f64)),
        ("max_edge_words".into(), Json::num(max_edge as f64)),
        ("mean_edge_words".into(), Json::num(mean_edge)),
        ("by_class".into(), by_class),
        ("by_axis".into(), by_axis),
        ("by_level".into(), by_level),
        (
            "ranks".into(),
            Json::Arr(per_rank.iter().map(|r| r.to_json()).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random sends over a handful of phases, classes, levels and axes:
        /// the indexed cells render to exactly the rows a map keyed by the
        /// labelled tuple accumulates, in that map's order.
        #[test]
        fn indexed_cells_report_like_a_labelled_map(seed in 0u64..1_000_000, sends in 1usize..300) {
            let mut state = seed;
            let mut draw = |n: u64| {
                // splitmix64
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            };
            let phases = ["solve", "fact", "reduce", "default"];
            let mut ledger = CommLedger::new(false);
            let mut reference: BTreeMap<(String, CommClass, u32, GridAxis), CommCell> = BTreeMap::new();
            let mut key = (phases[0], CommClass::Control, 0u32, GridAxis::X);
            for _ in 0..sends {
                // Mostly the key of the previous send, as in a real run.
                if draw(4) == 0 {
                    key = (
                        phases[draw(4) as usize],
                        CommClass::ALL[draw(6) as usize],
                        draw(3) as u32,
                        GridAxis::ALL[draw(4) as usize],
                    );
                    ledger.set_level(key.2);
                }
                let words = draw(50);
                let struct_words = draw(words + 1);
                ledger.charge_send(key.0, key.1, key.3, draw(5) as usize, words, struct_words, 0.0);
                let cell = reference.entry((key.0.to_string(), key.1, key.2, key.3)).or_default();
                cell.msgs += 1;
                cell.words += words;
                cell.struct_words += struct_words;
            }
            let expected: Vec<CommEntry> = reference
                .into_iter()
                .map(|((phase, class, level, axis), cell)| CommEntry { phase, class, level, axis, cell })
                .collect();
            let report = ledger.report();
            prop_assert_eq!(ledger.sent_words(), report.sent_words());
            prop_assert_eq!(report.entries, expected);
        }
    }

    #[test]
    fn keys_separate_phase_class_level_axis() {
        let mut l = CommLedger::new(false);
        l.charge_send("fact", CommClass::LPanel, GridAxis::X, 1, 100, 60, 0.0);
        l.charge_send("fact", CommClass::LPanel, GridAxis::X, 2, 50, 50, 1.0);
        l.set_level(3);
        l.charge_send("reduce", CommClass::ZReduction, GridAxis::Z, 4, 80, 40, 2.0);
        let r = l.report();
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.sent_words(), 230);
        assert_eq!(r.sent_msgs(), 3);
        assert_eq!(r.class_cell(CommClass::LPanel).words, 150);
        assert_eq!(r.class_cell(CommClass::LPanel).struct_words, 110);
        assert_eq!(r.axis_words(GridAxis::Z), 80);
        assert_eq!(r.level_words(3), 80);
        assert_eq!(r.level_words(0), 150);
        assert_eq!(r.phase_words("reduce"), 80);
        assert_eq!(r.class_cell(CommClass::SchurContrib).words, 0);
    }

    #[test]
    fn waste_ratio_is_padding_fraction() {
        let mut l = CommLedger::new(false);
        l.charge_send("fact", CommClass::UPanel, GridAxis::Y, 1, 200, 50, 0.0);
        let r = l.report();
        assert_eq!(r.waste_ratio(CommClass::UPanel), 0.75);
        // A class that sent nothing has zero waste, not NaN.
        assert_eq!(r.waste_ratio(CommClass::LPanel), 0.0);
    }

    #[test]
    fn edges_accumulate_per_peer() {
        let mut l = CommLedger::new(false);
        l.charge_send("fact", CommClass::Control, GridAxis::X, 1, 10, 10, 0.0);
        l.charge_send("fact", CommClass::Control, GridAxis::X, 1, 5, 5, 1.0);
        l.charge_send("fact", CommClass::Control, GridAxis::Y, 2, 7, 7, 2.0);
        l.charge_recv(3, 9);
        l.charge_recv(3, 1);
        let r = l.report();
        assert_eq!(r.sent_to.len(), 2);
        assert_eq!(
            r.sent_to[0],
            EdgeVolume {
                peer: 1,
                msgs: 2,
                words: 15
            }
        );
        assert_eq!(r.max_edge_words(), 15);
        assert_eq!(
            r.recv_from,
            vec![EdgeVolume {
                peer: 3,
                msgs: 2,
                words: 10
            }]
        );
        assert_eq!(r.recv_words(), 10);
        assert_eq!(r.recv_msgs(), 2);
    }

    #[test]
    fn zero_word_messages_count_msgs_not_timeline() {
        let mut l = CommLedger::new(true);
        l.charge_send("fact", CommClass::Collective, GridAxis::Cross, 1, 0, 0, 0.0);
        l.charge_send("fact", CommClass::Collective, GridAxis::Cross, 1, 4, 4, 1.0);
        let r = l.report();
        assert_eq!(r.sent_msgs(), 2);
        assert_eq!(r.sent_words(), 4);
        let tl = l.take_timeline();
        assert_eq!(tl.len(), 1, "barriers stay off the counter track");
        assert_eq!(tl[0].words, 4);
    }

    #[test]
    fn report_json_is_deterministic_and_parses_back() {
        let mut l = CommLedger::new(false);
        l.charge_send("fact", CommClass::LPanel, GridAxis::X, 1, 64, 48, 0.25);
        l.set_level(1);
        l.charge_send("reduce", CommClass::ZReduction, GridAxis::Z, 2, 32, 16, 0.5);
        l.charge_recv(2, 32);
        let doc = commvol_json(&[l.report()]);
        let text = doc.dump();
        assert_eq!(Json::parse(&text).unwrap().dump(), text);
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("total_sent_words").unwrap().as_f64(), Some(96.0));
        assert_eq!(back.get("max_edge_words").unwrap().as_f64(), Some(64.0));
        assert_eq!(back.get("edges").unwrap().as_f64(), Some(2.0));
        let lp = back.get("by_class").unwrap().get("LPanel").unwrap();
        assert_eq!(lp.get("words").unwrap().as_f64(), Some(64.0));
        assert_eq!(lp.get("waste_ratio").unwrap().as_f64(), Some(0.25));
        assert_eq!(
            back.get("by_axis").unwrap().get("z").unwrap().as_f64(),
            Some(32.0)
        );
        assert_eq!(
            back.get("by_level").unwrap().get("1").unwrap().as_f64(),
            Some(32.0)
        );
    }

    #[test]
    fn timeline_replays_to_ledger_totals() {
        let mut l = CommLedger::new(true);
        for i in 0..5u64 {
            l.charge_send(
                "fact",
                CommClass::UPanel,
                GridAxis::Y,
                1,
                8 + i,
                8,
                i as f64,
            );
        }
        let total = l.sent_words();
        let tl = l.take_timeline();
        assert_eq!(tl.iter().map(|e| e.words).sum::<u64>(), total);
        assert!(tl.windows(2).all(|w| w[0].t <= w[1].t));
    }
}
