//! Exact comparator over bench snapshots.
//!
//! Matches the points of a new snapshot against a baseline (see
//! [`crate::snapshot`]) and compares each simulated metric they share —
//! every column of [`METRICS`] but `wall_secs` — for equality. Those
//! columns are deterministic functions of the structure and the
//! configuration, so a value is either equal to the baseline's or it moved,
//! and any move, up or down, fails the gate: a drop is as much a change to
//! the program order, the cost model or a ledger as a rise is. The host
//! wall clock is recorded in every snapshot but never compared here.

use crate::snapshot::{PointKey, Snapshot, METRICS};
use simgrid::Json;

/// The one host-clock column of [`METRICS`]: carried, never compared.
const WALL: &str = "wall_secs";

/// One simulated metric of one matched point.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricVerdict {
    pub metric: String,
    pub old: f64,
    pub new: f64,
    /// `new / old`, NaN when `old` is zero.
    pub ratio: f64,
}

impl MetricVerdict {
    /// Whether the value differs from the baseline's. A NaN on either side
    /// is never equal, so a corrupt document fails the gate too.
    pub fn moved(&self) -> bool {
        self.old != self.new
    }

    pub fn verdict(&self) -> &'static str {
        if self.moved() {
            "moved"
        } else {
            "equal"
        }
    }
}

/// Every compared metric of one matched point.
#[derive(Clone, Debug, PartialEq)]
pub struct PointComparison {
    pub key: PointKey,
    pub verdicts: Vec<MetricVerdict>,
}

impl PointComparison {
    pub fn moved(&self) -> bool {
        self.verdicts.iter().any(MetricVerdict::moved)
    }
}

/// The full diff of two snapshots.
#[derive(Clone, Debug)]
pub struct Comparison {
    pub baseline_label: String,
    pub new_label: String,
    pub matched: Vec<PointComparison>,
    /// Baseline points with no counterpart in the new snapshot (coverage
    /// shrank — reported, not gated).
    pub missing: Vec<PointKey>,
    /// New points with no baseline counterpart (new coverage).
    pub extra: Vec<PointKey>,
}

impl Comparison {
    /// True when any compared metric of any matched point moved — the CI
    /// failure condition.
    pub fn moved(&self) -> bool {
        self.matched.iter().any(PointComparison::moved)
    }

    /// Counts of (equal, moved) across all compared metrics.
    pub fn tallies(&self) -> (usize, usize) {
        let all = self.matched.iter().flat_map(|p| &p.verdicts);
        all.fold((0, 0), |(equal, moved), v| {
            if v.moved() {
                (equal, moved + 1)
            } else {
                (equal + 1, moved)
            }
        })
    }

    /// Machine-readable report document.
    pub fn to_json(&self) -> Json {
        let points = self
            .matched
            .iter()
            .map(|p| {
                let metrics = p.verdicts.iter().map(|v| {
                    Json::obj([
                        ("metric", Json::str(&v.metric)),
                        ("old", Json::num(v.old)),
                        ("new", Json::num(v.new)),
                        ("ratio", Json::num(v.ratio)),
                        ("verdict", Json::str(v.verdict())),
                    ])
                });
                Json::obj([
                    ("point", Json::str(p.key.to_string())),
                    ("moved", Json::Bool(p.moved())),
                    ("metrics", Json::Arr(metrics.collect())),
                ])
            })
            .collect();
        let keys =
            |ks: &[PointKey]| Json::Arr(ks.iter().map(|k| Json::str(k.to_string())).collect());
        Json::obj([
            ("schema", Json::str("salu-bench-compare/2")),
            ("baseline", Json::str(&self.baseline_label)),
            ("new", Json::str(&self.new_label)),
            ("moved", Json::Bool(self.moved())),
            ("points", Json::Arr(points)),
            ("missing", keys(&self.missing)),
            ("extra", keys(&self.extra)),
        ])
    }
}

/// Diff `new` against `baseline`.
pub fn compare(new: &Snapshot, baseline: &Snapshot) -> Comparison {
    let mut matched = Vec::new();
    let mut extra = Vec::new();
    for np in &new.points {
        let Some(bp) = baseline.find(&np.key) else {
            extra.push(np.key.clone());
            continue;
        };
        let verdicts = METRICS
            .iter()
            .filter(|&&m| m != WALL)
            .filter_map(|&m| {
                // a metric absent on one side has nothing to compare
                let (old, new) = (bp.metric(m)?, np.metric(m)?);
                let ratio = if old == 0.0 { f64::NAN } else { new / old };
                Some(MetricVerdict {
                    metric: m.to_string(),
                    old,
                    new,
                    ratio,
                })
            })
            .collect();
        matched.push(PointComparison {
            key: np.key.clone(),
            verdicts,
        });
    }
    let missing = baseline
        .points
        .iter()
        .filter(|bp| new.find(&bp.key).is_none())
        .map(|bp| bp.key.clone())
        .collect();
    Comparison {
        baseline_label: baseline.label.clone(),
        new_label: new.label.clone(),
        matched,
        missing,
        extra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::BenchPoint;

    fn key(matrix: &str, pz: u64) -> PointKey {
        let matrix = matrix.into();
        PointKey {
            matrix,
            n: 4096,
            p: 16,
            pz,
            ..Default::default()
        }
    }

    fn snap(label: &str, points: Vec<BenchPoint>) -> Snapshot {
        Snapshot {
            label: label.into(),
            points,
        }
    }

    /// The k2d5pt P = 16 Pz = 4 point of `results/BENCH_pr4.json`, every
    /// metric column filled, plus a figure column `compare` never reads.
    fn k2d5pt() -> BenchPoint {
        let metrics = [
            ("wall_secs", 0.018210096),
            ("makespan_secs", 0.0013358021833333351),
            ("max_peak_bytes", 497720.0),
            ("total_peak_bytes", 5917104.0),
            ("w_fact_words", 57542.0),
            ("w_red_words", 8866.0),
            ("total_sent_words", 664818.0),
            ("flops", 1.25e7),
        ];
        BenchPoint {
            key: key("k2d5pt", 4),
            scale: "small".into(),
            metrics: metrics.map(|(k, v)| (k.to_string(), v)).to_vec(),
        }
    }

    /// `p` with one column set to `value`.
    fn with(mut p: BenchPoint, column: &str, value: f64) -> BenchPoint {
        let slot = p.metrics.iter_mut().find(|(k, _)| k == column).unwrap();
        slot.1 = value;
        p
    }

    #[test]
    fn the_same_snapshot_is_clean() {
        let s = snap("pr4", vec![k2d5pt()]);
        let cmp = compare(&s, &s);
        assert!(!cmp.moved());
        // six simulated columns compared; wall_secs and flops are not
        assert_eq!(cmp.tallies(), (6, 0));
        let compared: Vec<&str> = cmp.matched[0]
            .verdicts
            .iter()
            .map(|v| v.metric.as_str())
            .collect();
        assert_eq!(compared, &METRICS[1..]);
    }

    #[test]
    fn a_one_unit_move_of_any_simulated_column_fails_either_way() {
        let base = snap("pr4", vec![k2d5pt()]);
        for &m in &METRICS[1..] {
            let old = k2d5pt().metric(m).unwrap();
            // one unit: a word or a byte, or the last place of a makespan
            let (up, down) = if old.fract() == 0.0 {
                (old + 1.0, old - 1.0)
            } else {
                (old.next_up(), old.next_down())
            };
            for value in [up, down] {
                let cmp = compare(&snap("new", vec![with(k2d5pt(), m, value)]), &base);
                assert!(cmp.moved(), "{m} {old} -> {value}");
                assert_eq!(cmp.tallies(), (5, 1), "{m}");
            }
        }
    }

    #[test]
    fn a_different_wall_alone_stays_clean() {
        let base = snap("pr4", vec![k2d5pt()]);
        let new = snap("new", vec![with(k2d5pt(), "wall_secs", 10.0)]);
        let cmp = compare(&new, &base);
        assert!(!cmp.moved());
        assert!(cmp.matched[0].verdicts.iter().all(|v| v.metric != WALL));
    }

    #[test]
    fn the_w_red_drop_a_two_percent_band_called_unchanged_fails() {
        // BENCH_pr4 -> a fresh smoke run: 8 866 -> 8 804 words, -0.7%.
        let base = snap("pr4", vec![k2d5pt()]);
        let new = snap("pr50", vec![with(k2d5pt(), "w_red_words", 8804.0)]);
        let cmp = compare(&new, &base);
        assert!(cmp.moved());
        let v = &cmp.matched[0].verdicts;
        let moved: Vec<_> = v.iter().filter(|v| v.moved()).collect();
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].metric, "w_red_words");
        assert_eq!(moved[0].ratio, 8804.0 / 8866.0);
        let doc = cmp.to_json();
        assert_eq!(doc.get("moved").and_then(Json::as_bool), Some(true));
        let reparsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(
            reparsed.get("schema").and_then(Json::as_str),
            Some("salu-bench-compare/2")
        );
    }

    #[test]
    fn a_column_from_zero_or_nan_moves_without_a_ratio() {
        let base = snap("pr4", vec![with(k2d5pt(), "w_red_words", 0.0)]);
        let cmp = compare(&snap("new", vec![k2d5pt()]), &base);
        let v = &cmp.matched[0].verdicts[4];
        assert!(v.moved() && v.ratio.is_nan());
        let nan = snap("nan", vec![with(k2d5pt(), "makespan_secs", f64::NAN)]);
        assert!(compare(&nan, &nan).moved(), "NaN equals nothing");
    }

    #[test]
    fn missing_and_extra_points_are_reported_not_gated() {
        let at_pz = |pz| BenchPoint {
            key: key("k2d5pt", pz),
            ..k2d5pt()
        };
        let base = snap("pr4", vec![k2d5pt(), at_pz(1)]);
        let new = snap("pr50", vec![k2d5pt(), at_pz(2)]);
        let cmp = compare(&new, &base);
        assert_eq!(cmp.matched.len(), 1);
        assert_eq!(cmp.missing, vec![key("k2d5pt", 1)]);
        assert_eq!(cmp.extra, vec![key("k2d5pt", 2)]);
        assert!(!cmp.moved());
    }

    #[test]
    fn points_differing_only_in_pins_compare_clean_against_themselves() {
        let pinned = |pin, makespan| {
            let k = PointKey {
                leaf: Some(pin),
                maxsup: Some(pin),
                ..key("k2d5pt", 2)
            };
            with(BenchPoint { key: k, ..k2d5pt() }, "makespan_secs", makespan)
        };
        let s = snap("pr31", vec![pinned(8, 8.1e-3), pinned(32, 2.3e-3)]);
        let cmp = compare(&s, &s);
        assert!(!cmp.moved());
        assert_eq!(cmp.tallies(), (12, 0));
    }
}
