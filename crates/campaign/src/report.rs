//! Markdown rendering for campaign runs and regression comparisons.

use crate::compare::{Comparison, Verdict};
use crate::snapshot::Snapshot;

/// Render the run report: one table row per point, metrics as columns,
/// plus sections for failed jobs and skipped sweep combinations.
pub fn run_markdown(snapshot: &Snapshot, skipped: &[String], failed: &[String]) -> String {
    let mut md = String::new();
    md.push_str(&format!(
        "# Campaign report: {}\n\n{} points{}.\n\n",
        snapshot.label,
        snapshot.points.len(),
        if failed.is_empty() {
            String::new()
        } else {
            format!(", **{} job(s) FAILED**", failed.len())
        }
    ));
    md.push_str(
        "| point | scale | wall (s) | makespan (s) | max peak (MB) | W_fact | W_red | sent words |\n\
         |---|---|---:|---:|---:|---:|---:|---:|\n",
    );
    for p in &snapshot.points {
        let m = |k: &str| p.metric(k).unwrap_or(f64::NAN);
        md.push_str(&format!(
            "| {} | {} | {:.4} | {:.6} | {:.2} | {} | {} | {} |\n",
            p.key,
            p.scale,
            m("wall_secs"),
            m("makespan_secs"),
            m("max_peak_bytes") / 1e6,
            m("w_fact_words") as u64,
            m("w_red_words") as u64,
            m("total_sent_words") as u64,
        ));
    }
    if !failed.is_empty() {
        md.push_str("\n## Failed jobs\n\n");
        for f in failed {
            md.push_str(&format!("- {f}\n"));
        }
    }
    if !skipped.is_empty() {
        md.push_str("\n## Skipped sweep combinations\n\n");
        for s in skipped {
            md.push_str(&format!("- {s}\n"));
        }
    }
    md
}

/// Render the regression report: per-point verdict tables plus the
/// missing/extra coverage diff.
pub fn compare_markdown(cmp: &Comparison) -> String {
    let mut md = String::new();
    let (imp, unch, reg, inc) = cmp.tallies();
    md.push_str(&format!(
        "# Regression report: {} vs {}\n\n\
         Gate: **{}** — {} improved, {} unchanged, {} regressed, {} incomparable \
         (tolerance: wall ±{:.0}%, sim ±{:.0}%{}).\n\n",
        cmp.new_label,
        cmp.baseline_label,
        if cmp.regressed() {
            "REGRESSED"
        } else {
            "clean"
        },
        imp,
        unch,
        reg,
        inc,
        cmp.tol.wall * 100.0,
        cmp.tol.sim * 100.0,
        if cmp.tol.gate_wall {
            ", wall gated"
        } else {
            ", wall ungated"
        },
    ));
    for p in &cmp.matched {
        md.push_str(&format!("## {}\n\n", p.key));
        md.push_str("| metric | baseline | new | ratio | verdict |\n|---|---:|---:|---:|---|\n");
        for v in &p.verdicts {
            let mark = match v.verdict {
                Verdict::Regressed if v.gated => " **(gated)**",
                _ => "",
            };
            md.push_str(&format!(
                "| {} | {:.6} | {:.6} | {} | {}{} |\n",
                v.metric,
                v.old,
                v.new,
                if v.ratio.is_finite() {
                    format!("{:.3}", v.ratio)
                } else {
                    "—".into()
                },
                v.verdict.as_str(),
                mark,
            ));
        }
        md.push('\n');
    }
    if !cmp.missing.is_empty() {
        md.push_str("## Baseline points not re-measured\n\n");
        for k in &cmp.missing {
            md.push_str(&format!("- {k}\n"));
        }
        md.push('\n');
    }
    if !cmp.extra.is_empty() {
        md.push_str("## New points (no baseline)\n\n");
        for k in &cmp.extra {
            md.push_str(&format!("- {k}\n"));
        }
        md.push('\n');
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{compare, Tolerance};
    use crate::snapshot::{BenchPoint, PointKey};

    fn point(pz: u64, makespan: f64) -> BenchPoint {
        BenchPoint {
            key: PointKey {
                matrix: "m".into(),
                n: 64,
                p: 4,
                pz,
                lookahead: None,
                faults: None,
                backend: None,
            },
            scale: "tiny".into(),
            metrics: vec![
                ("wall_secs".into(), 0.01),
                ("makespan_secs".into(), makespan),
            ],
        }
    }

    #[test]
    fn reports_render_verdicts_and_coverage() {
        let base = Snapshot {
            label: "pr4".into(),
            points: vec![point(1, 2.0), point(2, 2.0)],
        };
        let new = Snapshot {
            label: "pr8".into(),
            points: vec![point(1, 2.5)],
        };
        let cmp = compare(&new, &base, Tolerance::default());
        let md = compare_markdown(&cmp);
        assert!(md.contains("REGRESSED"));
        assert!(md.contains("**(gated)**"));
        assert!(md.contains("Baseline points not re-measured"));
        let run = run_markdown(&new, &["m p=4 pz=3".into()], &[]);
        assert!(run.contains("| m n=64 P=4 Pz=1 |"));
        assert!(run.contains("Skipped sweep"));
        assert!(!run.contains("Failed jobs"));
        let run = run_markdown(&new, &[], &["slug: job panicked: boom".into()]);
        assert!(run.contains("**1 job(s) FAILED**"));
        assert!(run.contains("- slug: job panicked: boom"));
    }
}
