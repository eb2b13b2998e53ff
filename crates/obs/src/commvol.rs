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
//! - **Padding waste**: each charge records both the words actually
//!   shipped and the struct-nonzero words a zero-row-compressed encoding
//!   would ship. Blocks keep only their structural rows, so the gap, per
//!   class, is rows that are zero by cancellation rather than by
//!   structure — near nothing — where zero-padded blocks used to ship a
//!   third to a half of their words as zero rows.
//! - **Replication**: per-class/per-level volumes let the conformance
//!   gates compare measured z-axis reduction traffic against the analytic
//!   per-level bounds of the cost model (paper §IV, eq. 10).
//!
//! Fault-injected retransmits and duplicates are *not* charged here: the
//! ledger records algorithmic volume, so a recovered chaos run reports
//! bitwise the same ledger as a fault-free run. Transport overhead lands
//! in the `fault.resent_*` metrics instead.
//!
//! The ledger keeps no timeline: a traced run's visible `Send` activities
//! carry their class, and the Chrome exporter projects them into
//! cumulative `"ph":"C"` counter tracks per class ("wire rank N").

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

impl CommCell {
    fn add(&mut self, other: &CommCell) {
        self.msgs += other.msgs;
        self.words += other.words;
        self.struct_words += other.struct_words;
    }

    /// Fraction of the shipped words that are padding (`0.0` = fully
    /// dense, also when nothing was sent).
    pub fn waste_ratio(&self) -> f64 {
        if self.words == 0 {
            0.0
        } else {
            (self.words - self.struct_words) as f64 / self.words as f64
        }
    }
}

/// Volume over one directed edge (this rank ↔ one peer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeVolume {
    pub peer: usize,
    pub msgs: u64,
    pub words: u64,
}

/// What a send is charged under. The phase is an index into the caller's
/// intern table of labels, which [`CommLedger::report`] takes back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommKey {
    pub phase: u32,
    pub class: CommClass,
    pub level: u32,
    pub axis: GridAxis,
}

/// Running per-key volumes for one rank.
///
/// A rank touches a few dozen distinct keys in a run and sends thousands of
/// messages under each, almost always under the key of the previous send: the
/// cells are a short vector searched last-hit first, and the labelled, sorted
/// rows exist only in the report.
#[derive(Clone, Debug, Default)]
pub struct CommLedger {
    cells: Vec<(CommKey, CommCell)>,
    /// Index into `cells` of the last charge.
    last: usize,
    sent_to: BTreeMap<usize, (u64, u64)>,
    recv_from: BTreeMap<usize, (u64, u64)>,
}

impl CommLedger {
    /// Charge one algorithmic send under `key`: `words` padded words (with
    /// `struct_words` of them structurally nonzero) to `dst`. Zero-word
    /// messages (barriers) still count as messages. Allocates only on a
    /// key's first use.
    pub fn charge_send(&mut self, key: CommKey, dst: usize, words: u64, struct_words: u64) {
        debug_assert!(
            struct_words <= words,
            "struct {struct_words} > padded {words}"
        );
        if self.cells.get(self.last).is_none_or(|(k, _)| *k != key) {
            self.last = match self.cells.iter().position(|(k, _)| *k == key) {
                Some(at) => at,
                None => {
                    self.cells.push((key, CommCell::default()));
                    self.cells.len() - 1
                }
            };
        }
        let cell = &mut self.cells[self.last].1;
        cell.msgs += 1;
        cell.words += words;
        cell.struct_words += struct_words.min(words);
        let e = self.sent_to.entry(dst).or_default();
        e.0 += 1;
        e.1 += words;
    }

    /// Record one algorithmic receive of `words` words from `src`.
    pub fn charge_recv(&mut self, src: usize, words: u64) {
        let e = self.recv_from.entry(src).or_default();
        e.0 += 1;
        e.1 += words;
    }

    /// Freeze into a report, naming each key's phase from `phases`, the
    /// intern table its indices point into. Call at the end of the run.
    pub fn report(&self, phases: &[impl AsRef<str>]) -> CommReport {
        let edges = |m: &BTreeMap<usize, (u64, u64)>| {
            m.iter()
                .map(|(&peer, &(msgs, words))| EdgeVolume { peer, msgs, words })
                .collect::<Vec<_>>()
        };
        let mut entries: Vec<CommEntry> = self
            .cells
            .iter()
            .map(|&(key, cell)| CommEntry {
                phase: phases[key.phase as usize].as_ref().to_string(),
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
        self.cell_where(|e| e.class == class)
    }

    /// Aggregate volume of one phase label over classes, levels, and axes.
    pub fn phase_cell(&self, phase: &str) -> CommCell {
        self.cell_where(|e| e.phase == phase)
    }

    fn cell_where(&self, keep: impl Fn(&CommEntry) -> bool) -> CommCell {
        let mut out = CommCell::default();
        for e in self.entries.iter().filter(|e| keep(e)) {
            out.add(&e.cell);
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
}

/// The machine's wire-volume summary: totals and waste ratios per class,
/// volumes per axis and per level, the largest rank's words sent, messages
/// sent and words received (each with its rank), and the per-edge count,
/// max and mean across the whole machine (an edge is a `(src, dst)` pair
/// that carried words).
pub fn commvol_json(per_rank: &[&CommReport]) -> Json {
    let total_sent: u64 = per_rank.iter().map(|r| r.sent_words()).sum();
    let max_rank = |field: fn(&CommReport) -> u64| {
        let (max, rank) = crate::rank_max(per_rank.iter().map(|r| field(r)));
        (Json::num(max as f64), Json::num(rank as f64))
    };
    let (sent_words, sent_words_rank) = max_rank(CommReport::sent_words);
    let (sent_msgs, sent_msgs_rank) = max_rank(CommReport::sent_msgs);
    let (recv_words, recv_words_rank) = max_rank(CommReport::recv_words);
    let by_class = Json::obj(CommClass::ALL.map(|c| {
        let mut cell = CommCell::default();
        for r in per_rank {
            cell.add(&r.class_cell(c));
        }
        let cell_json = Json::obj([
            ("msgs", Json::num(cell.msgs as f64)),
            ("words", Json::num(cell.words as f64)),
            ("struct_words", Json::num(cell.struct_words as f64)),
            ("waste_ratio", Json::num(cell.waste_ratio())),
        ]);
        (c.as_str(), cell_json)
    }));
    let by_axis = Json::obj(GridAxis::ALL.map(|a| {
        let words: u64 = per_rank.iter().map(|r| r.axis_words(a)).sum();
        (a.as_str(), Json::num(words as f64))
    }));
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
    Json::obj([
        ("total_sent_words", Json::num(total_sent as f64)),
        ("max_rank_sent_words", sent_words),
        ("max_rank_sent_words_rank", sent_words_rank),
        ("max_rank_sent_msgs", sent_msgs),
        ("max_rank_sent_msgs_rank", sent_msgs_rank),
        ("max_rank_recv_words", recv_words),
        ("max_rank_recv_words_rank", recv_words_rank),
        ("edges", Json::num(n_edges as f64)),
        ("max_edge_words", Json::num(max_edge as f64)),
        ("mean_edge_words", Json::num(mean_edge)),
        ("by_class", by_class),
        ("by_axis", by_axis),
        ("by_level", by_level),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const PHASES: [&str; 4] = ["solve", "fact", "reduce", "default"];
    const FACT: u32 = 1;
    const REDUCE: u32 = 2;

    fn key(phase: u32, class: CommClass, level: u32, axis: GridAxis) -> CommKey {
        CommKey {
            phase,
            class,
            level,
            axis,
        }
    }

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
            let mut ledger = CommLedger::default();
            let mut reference: BTreeMap<(String, CommClass, u32, GridAxis), CommCell> = BTreeMap::new();
            let mut k = key(0, CommClass::Control, 0, GridAxis::X);
            for _ in 0..sends {
                // Mostly the key of the previous send, as in a real run.
                if draw(4) == 0 {
                    k = key(
                        draw(4) as u32,
                        CommClass::ALL[draw(6) as usize],
                        draw(3) as u32,
                        GridAxis::ALL[draw(4) as usize],
                    );
                }
                let words = draw(50);
                let struct_words = draw(words + 1);
                ledger.charge_send(k, draw(5) as usize, words, struct_words);
                let label = PHASES[k.phase as usize].to_string();
                let cell = reference.entry((label, k.class, k.level, k.axis)).or_default();
                cell.msgs += 1;
                cell.words += words;
                cell.struct_words += struct_words;
            }
            let expected: Vec<CommEntry> = reference
                .into_iter()
                .map(|((phase, class, level, axis), cell)| CommEntry { phase, class, level, axis, cell })
                .collect();
            let report = ledger.report(&PHASES);
            prop_assert_eq!(report.entries, expected);
        }
    }

    #[test]
    fn keys_separate_phase_class_level_axis() {
        let mut l = CommLedger::default();
        let lpanel = key(FACT, CommClass::LPanel, 0, GridAxis::X);
        l.charge_send(lpanel, 1, 100, 60);
        l.charge_send(lpanel, 2, 50, 50);
        l.charge_send(
            key(REDUCE, CommClass::ZReduction, 3, GridAxis::Z),
            4,
            80,
            40,
        );
        let r = l.report(&PHASES);
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.sent_words(), 230);
        assert_eq!(r.sent_msgs(), 3);
        assert_eq!(r.class_cell(CommClass::LPanel).words, 150);
        assert_eq!(r.class_cell(CommClass::LPanel).struct_words, 110);
        assert_eq!(r.axis_words(GridAxis::Z), 80);
        let levels: Vec<u32> = r.entries.iter().map(|e| e.level).collect();
        assert_eq!(levels, [0, 3]);
        assert_eq!(r.phase_cell("reduce").words, 80);
        assert_eq!(r.class_cell(CommClass::SchurContrib).words, 0);
    }

    #[test]
    fn waste_ratio_is_padding_fraction() {
        let mut l = CommLedger::default();
        l.charge_send(key(FACT, CommClass::UPanel, 0, GridAxis::Y), 1, 200, 50);
        let r = l.report(&PHASES);
        assert_eq!(r.class_cell(CommClass::UPanel).waste_ratio(), 0.75);
        // A class that sent nothing has zero waste, not NaN.
        assert_eq!(r.class_cell(CommClass::LPanel).waste_ratio(), 0.0);
    }

    #[test]
    fn edges_accumulate_per_peer() {
        let mut l = CommLedger::default();
        let x = key(FACT, CommClass::Control, 0, GridAxis::X);
        l.charge_send(x, 1, 10, 10);
        l.charge_send(x, 1, 5, 5);
        l.charge_send(key(FACT, CommClass::Control, 0, GridAxis::Y), 2, 7, 7);
        l.charge_recv(3, 9);
        l.charge_recv(3, 1);
        let r = l.report(&PHASES);
        assert_eq!(r.sent_to.len(), 2);
        assert_eq!(
            r.sent_to[0],
            EdgeVolume {
                peer: 1,
                msgs: 2,
                words: 15
            }
        );
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
    fn report_json_is_deterministic_and_parses_back() {
        let mut l = CommLedger::default();
        l.charge_send(key(FACT, CommClass::LPanel, 0, GridAxis::X), 1, 64, 48);
        l.charge_send(
            key(REDUCE, CommClass::ZReduction, 1, GridAxis::Z),
            2,
            32,
            16,
        );
        l.charge_recv(2, 32);
        let quiet = CommLedger::default().report(&PHASES);
        let report = l.report(&PHASES);
        let doc = commvol_json(&[&quiet, &report, &report]);
        let text = doc.dump();
        assert_eq!(Json::parse(&text).unwrap().dump(), text);
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("total_sent_words").unwrap().as_f64(), Some(192.0));
        assert_eq!(back.get("max_edge_words").unwrap().as_f64(), Some(64.0));
        assert_eq!(back.get("edges").unwrap().as_f64(), Some(4.0));
        // Each per-rank maximum names the lowest rank holding it.
        for (field, max) in [
            ("sent_words", 96.0),
            ("sent_msgs", 2.0),
            ("recv_words", 32.0),
        ] {
            let at = format!("max_rank_{field}");
            assert_eq!(back.num_at(&[&at]), Ok(max), "{field}");
            assert_eq!(back.num_at(&[&format!("{at}_rank")]), Ok(1.0), "{field}");
        }
        let lp = back.get("by_class").unwrap().get("LPanel").unwrap();
        assert_eq!(lp.get("words").unwrap().as_f64(), Some(128.0));
        assert_eq!(lp.get("waste_ratio").unwrap().as_f64(), Some(0.25));
        assert_eq!(
            back.get("by_axis").unwrap().get("z").unwrap().as_f64(),
            Some(64.0)
        );
        assert_eq!(
            back.get("by_level").unwrap().get("1").unwrap().as_f64(),
            Some(64.0)
        );
    }
}
