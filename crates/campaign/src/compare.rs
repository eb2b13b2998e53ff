//! Regression comparator over bench snapshots.
//!
//! Matches the points of a new snapshot against a baseline (see
//! [`crate::snapshot`]), diffs each shared metric, and
//! assigns per-metric verdicts. Every metric is lower-is-better.
//!
//! Two tolerance bands apply: `sim` for deterministic simulated/ledger
//! metrics (tight — these only move when the algorithm moves) and `wall`
//! for host wall-clock (loose — these move with the machine). Wall
//! verdicts are reported but, by default, do **not** gate: a CI runner is
//! not the machine the baseline was measured on. Set
//! `gate_wall = true` in the spec's `[tolerance]` table (or pass
//! `--gate-wall`) to make wall regressions fail the run too.

use crate::snapshot::{is_wall_metric, PointKey, Snapshot, METRICS};
use simgrid::Json;

/// Relative tolerance bands and gating policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerance {
    /// Band for host wall-clock metrics (relative, e.g. 0.5 = ±50%).
    pub wall: f64,
    /// Band for simulated/ledger metrics (relative).
    pub sim: f64,
    /// Whether wall regressions fail the gate.
    pub gate_wall: bool,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            wall: 0.5,
            sim: 0.02,
            gate_wall: false,
        }
    }
}

/// Outcome for one metric of one matched point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// No ratio exists (NaN/infinite input, or a zero baseline with a
    /// nonzero wall measurement). Never gates.
    Incomparable,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Incomparable => "incomparable",
        }
    }
}

/// One metric's comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricVerdict {
    pub metric: String,
    pub old: f64,
    pub new: f64,
    /// `new / old` when defined, else NaN.
    pub ratio: f64,
    pub verdict: Verdict,
    /// Whether a `Regressed` verdict on this metric fails the gate.
    pub gated: bool,
}

/// All metric verdicts for one matched point.
#[derive(Clone, Debug, PartialEq)]
pub struct PointComparison {
    pub key: PointKey,
    pub verdicts: Vec<MetricVerdict>,
}

impl PointComparison {
    pub fn regressed(&self) -> bool {
        self.verdicts
            .iter()
            .any(|v| v.gated && v.verdict == Verdict::Regressed)
    }
}

/// The full diff of two snapshots.
#[derive(Clone, Debug)]
pub struct Comparison {
    pub baseline_label: String,
    pub new_label: String,
    pub tol: Tolerance,
    pub matched: Vec<PointComparison>,
    /// Baseline points with no counterpart in the new snapshot (coverage
    /// shrank — reported, not gated).
    pub missing: Vec<PointKey>,
    /// New points with no baseline counterpart (new coverage).
    pub extra: Vec<PointKey>,
}

impl Comparison {
    /// True when any gated metric of any matched point regressed — the
    /// CI failure condition.
    pub fn regressed(&self) -> bool {
        self.matched.iter().any(PointComparison::regressed)
    }

    /// Counts of (improved, unchanged, regressed, incomparable) across
    /// all matched metrics.
    pub fn tallies(&self) -> (usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0);
        for p in &self.matched {
            for v in &p.verdicts {
                match v.verdict {
                    Verdict::Improved => t.0 += 1,
                    Verdict::Unchanged => t.1 += 1,
                    Verdict::Regressed => t.2 += 1,
                    Verdict::Incomparable => t.3 += 1,
                }
            }
        }
        t
    }

    /// Machine-readable report document.
    pub fn to_json(&self) -> Json {
        let points = self
            .matched
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("point".into(), Json::str(p.key.to_string())),
                    ("regressed".into(), Json::Bool(p.regressed())),
                    (
                        "metrics".into(),
                        Json::Arr(
                            p.verdicts
                                .iter()
                                .map(|v| {
                                    Json::Obj(vec![
                                        ("metric".into(), Json::str(&v.metric)),
                                        ("old".into(), Json::num(v.old)),
                                        ("new".into(), Json::num(v.new)),
                                        ("ratio".into(), Json::num(v.ratio)),
                                        ("verdict".into(), Json::str(v.verdict.as_str())),
                                        ("gated".into(), Json::Bool(v.gated)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let keys =
            |ks: &[PointKey]| Json::Arr(ks.iter().map(|k| Json::str(k.to_string())).collect());
        Json::Obj(vec![
            ("schema".into(), Json::str("salu-bench-compare/1")),
            ("baseline".into(), Json::str(&self.baseline_label)),
            ("new".into(), Json::str(&self.new_label)),
            ("tolerance_wall".into(), Json::num(self.tol.wall)),
            ("tolerance_sim".into(), Json::num(self.tol.sim)),
            ("gate_wall".into(), Json::Bool(self.tol.gate_wall)),
            ("regressed".into(), Json::Bool(self.regressed())),
            ("points".into(), Json::Arr(points)),
            ("missing".into(), keys(&self.missing)),
            ("extra".into(), keys(&self.extra)),
        ])
    }
}

/// Compare one metric pair under a relative tolerance band.
fn judge(old: f64, new: f64, tol: f64) -> (Verdict, f64) {
    if !old.is_finite() || !new.is_finite() {
        return (Verdict::Incomparable, f64::NAN);
    }
    if old == 0.0 {
        // A deterministic metric appearing from zero is a real change
        // (e.g. W_red becoming nonzero); there is just no ratio for it.
        return if new == 0.0 {
            (Verdict::Unchanged, 1.0)
        } else {
            (Verdict::Regressed, f64::NAN)
        };
    }
    if old < 0.0 || new < 0.0 {
        // All snapshot metrics are nonnegative; a negative value is a
        // corrupt document, not a perf signal.
        return (Verdict::Incomparable, f64::NAN);
    }
    let ratio = new / old;
    let rel = (new - old) / old;
    let verdict = if rel > tol {
        Verdict::Regressed
    } else if rel < -tol {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, ratio)
}

/// Diff `new` against `baseline`.
pub fn compare(new: &Snapshot, baseline: &Snapshot, tol: Tolerance) -> Comparison {
    let mut matched = Vec::new();
    let mut extra = Vec::new();
    for np in &new.points {
        let Some(bp) = baseline.find(&np.key) else {
            extra.push(np.key.clone());
            continue;
        };
        let mut verdicts = Vec::new();
        for m in METRICS {
            let (Some(old), Some(newv)) = (bp.metric(m), np.metric(m)) else {
                continue; // metric absent on one side: nothing to judge
            };
            let wall = is_wall_metric(m);
            let band = if wall { tol.wall } else { tol.sim };
            let (verdict, ratio) = judge(old, newv, band);
            verdicts.push(MetricVerdict {
                metric: m.to_string(),
                old,
                new: newv,
                ratio,
                verdict,
                gated: !wall || tol.gate_wall,
            });
        }
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
        tol,
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
        PointKey {
            matrix: matrix.into(),
            n: 100,
            p: 16,
            pz,
            lookahead: None,
            faults: None,
            backend: None,
        }
    }

    fn snap(label: &str, points: Vec<BenchPoint>) -> Snapshot {
        Snapshot {
            label: label.into(),
            points,
        }
    }

    fn pt(k: PointKey, wall: f64, makespan: f64) -> BenchPoint {
        BenchPoint {
            key: k,
            scale: "small".into(),
            metrics: vec![
                ("wall_secs".into(), wall),
                ("makespan_secs".into(), makespan),
            ],
        }
    }

    #[test]
    fn verdicts_respect_tolerance_boundaries() {
        let tol = Tolerance {
            wall: 0.5,
            sim: 0.02,
            gate_wall: false,
        };
        // exactly at the band edge is Unchanged (strict inequality)
        assert_eq!(judge(100.0, 102.0, tol.sim).0, Verdict::Unchanged);
        assert_eq!(judge(100.0, 98.0, tol.sim).0, Verdict::Unchanged);
        // just beyond flips
        assert_eq!(judge(100.0, 102.1, tol.sim).0, Verdict::Regressed);
        assert_eq!(judge(100.0, 97.9, tol.sim).0, Verdict::Improved);
        // the loose wall band swallows a 1.4x swing
        assert_eq!(judge(0.010, 0.014, tol.wall).0, Verdict::Unchanged);
        assert_eq!(judge(0.010, 0.016, tol.wall).0, Verdict::Regressed);
    }

    #[test]
    fn nan_and_zero_guards() {
        assert_eq!(judge(f64::NAN, 1.0, 0.1).0, Verdict::Incomparable);
        assert_eq!(judge(1.0, f64::INFINITY, 0.1).0, Verdict::Incomparable);
        assert_eq!(judge(0.0, 0.0, 0.1).0, Verdict::Unchanged);
        // a deterministic metric appearing from zero is a regression with
        // no ratio
        let (v, r) = judge(0.0, 5.0, 0.1);
        assert_eq!(v, Verdict::Regressed);
        assert!(r.is_nan());
        assert_eq!(judge(-1.0, 1.0, 0.1).0, Verdict::Incomparable);
    }

    #[test]
    fn wall_regressions_do_not_gate_by_default() {
        let base = snap("pr4", vec![pt(key("m", 1), 0.010, 2.0)]);
        let new = snap("pr8", vec![pt(key("m", 1), 0.100, 2.0)]);
        let cmp = compare(&new, &base, Tolerance::default());
        let wall = &cmp.matched[0].verdicts[0];
        assert_eq!(wall.verdict, Verdict::Regressed);
        assert!(!wall.gated);
        assert!(!cmp.regressed(), "ungated wall regression must not gate");
        // flipping the policy gates it
        let cmp = compare(
            &new,
            &base,
            Tolerance {
                gate_wall: true,
                ..Tolerance::default()
            },
        );
        assert!(cmp.regressed());
    }

    #[test]
    fn sim_regressions_gate() {
        let base = snap("pr4", vec![pt(key("m", 1), 0.010, 2.0)]);
        let new = snap("pr8", vec![pt(key("m", 1), 0.010, 2.5)]);
        let cmp = compare(&new, &base, Tolerance::default());
        assert!(cmp.regressed());
        let (imp, unch, reg, inc) = cmp.tallies();
        assert_eq!((imp, unch, reg, inc), (0, 1, 1, 0));
    }

    #[test]
    fn missing_and_extra_points_are_reported_not_gated() {
        let base = snap(
            "pr4",
            vec![pt(key("m", 1), 0.01, 2.0), pt(key("m", 4), 0.01, 1.0)],
        );
        let new = snap(
            "pr8",
            vec![pt(key("m", 1), 0.01, 2.0), pt(key("m", 2), 0.01, 2.0)],
        );
        let cmp = compare(&new, &base, Tolerance::default());
        assert_eq!(cmp.matched.len(), 1);
        assert_eq!(cmp.missing, vec![key("m", 4)]);
        assert_eq!(cmp.extra, vec![key("m", 2)]);
        assert!(!cmp.regressed());
    }

    #[test]
    fn report_json_carries_the_gate_flag() {
        let base = snap("pr4", vec![pt(key("m", 1), 0.01, 2.0)]);
        let new = snap("pr8", vec![pt(key("m", 1), 0.01, 2.5)]);
        let cmp = compare(&new, &base, Tolerance::default());
        let doc = cmp.to_json();
        assert_eq!(doc.get("regressed").and_then(Json::as_bool), Some(true));
        let reparsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(reparsed.get("baseline").and_then(Json::as_str), Some("pr4"));
    }
}
