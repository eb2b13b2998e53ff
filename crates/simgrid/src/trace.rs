//! Trace rendering and validation over the span/activity store.
//!
//! When tracing is enabled on the machine ([`crate::Machine::with_tracing`]),
//! every rank records hierarchical spans (level → phase → supernode →
//! collective) and machine-level activities — compute, send, receive,
//! blocking wait — in simulated time (see [`obs::span`]). This module turns
//! a finished run into a terminal timeline and checks store invariants.
//! The Chrome/Perfetto exporter lives in [`obs::chrome`]; critical-path
//! attribution in [`obs::critpath`].
//!
//! The Gantt view is the tool used to *see* the paper's effects: the 2D
//! baseline shows long wait stripes on most ranks while the 3D run shows
//! the per-grid parallel phase followed by the short reduction exchanges.

use crate::stats::RankReport;
use obs::ActivityKind;

/// Render a run's traces as a text Gantt chart: one row per rank, `width`
/// characters across the makespan. Glyphs: `#` compute, `>` send, `<`
/// receive, `.` wait, space idle (not yet started / finished early).
/// The footer is a `0 … makespan` axis aligned under the bars plus a
/// legend line.
///
/// Ranks without traces (tracing disabled) render as empty rows.
pub fn render_gantt(reports: &[RankReport], width: usize) -> String {
    let makespan = reports.iter().map(|r| r.clock).fold(0.0f64, f64::max);
    let mut out = String::new();
    if makespan <= 0.0 || width == 0 {
        out.push_str("(no simulated time elapsed)\n");
        return out;
    }
    let dt = makespan / width as f64;
    for (rank, rep) in reports.iter().enumerate() {
        let mut row = vec![' '; width];
        if let Some(trace) = &rep.trace {
            // For each column pick the kind covering the largest share.
            for (c, slot) in row.iter_mut().enumerate() {
                let t0 = c as f64 * dt;
                let t1 = t0 + dt;
                let mut shares = [0.0f64; 4]; // Compute, Send, Recv, Wait
                for a in &trace.activities {
                    if a.end <= t0 || a.start >= t1 {
                        continue;
                    }
                    let overlap = a.end.min(t1) - a.start.max(t0);
                    let idx = match a.kind {
                        ActivityKind::Compute => 0,
                        ActivityKind::Send => 1,
                        ActivityKind::Recv => 2,
                        ActivityKind::Wait => 3,
                    };
                    shares[idx] += overlap;
                }
                // `total_cmp`, not `partial_cmp(..).unwrap()`: a NaN share
                // (zero-length clock anomaly under injected stalls) must
                // degrade to an arbitrary pick, not a panic mid-render.
                let (best, share) = shares
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .unwrap();
                if *share > 0.0 {
                    *slot = [
                        ActivityKind::Compute,
                        ActivityKind::Send,
                        ActivityKind::Recv,
                        ActivityKind::Wait,
                    ][best]
                        .glyph();
                }
            }
        }
        let comp_pct = if rep.clock > 0.0 {
            100.0 * rep.t_comp / rep.clock
        } else {
            0.0
        };
        out.push_str(&format!(
            "r{rank:<3} |{}| {comp_pct:3.0}% comp\n",
            row.iter().collect::<String>()
        ));
    }
    // Axis aligned with the bar columns: '0' under the first column, the
    // makespan label ending under the last.
    let label = format!("{makespan:.6}s");
    out.push_str(&format!(
        "      0{label:>width$}\n",
        width = width.saturating_sub(1)
    ));
    out.push_str("      (#=compute  >=send  <=recv  .=wait)\n");
    out
}

/// Validate the internal consistency of one rank's trace:
///
/// - activities are chronological, non-overlapping, and sum (by kind) to
///   the report's `t_comp` / `t_comm`;
/// - spans are well-formed: nonnegative length, inside `[0, clock]`,
///   contained in their parent's interval, with consistent depth;
/// - every activity's span reference points at a recorded span whose
///   interval covers the activity.
///
/// Test/diagnostic helper; `Ok` for untraced reports.
pub fn validate_trace(rep: &RankReport) -> Result<(), String> {
    let Some(trace) = &rep.trace else {
        return Ok(());
    };
    let mut cursor = 0.0f64;
    let mut comp = 0.0;
    let mut comm = 0.0;
    for (i, a) in trace.activities.iter().enumerate() {
        if a.start < cursor - 1e-12 {
            return Err(format!("activity {i} overlaps predecessor"));
        }
        if a.end < a.start {
            return Err(format!("activity {i} has negative duration"));
        }
        cursor = a.end;
        match a.kind {
            ActivityKind::Compute => comp += a.duration(),
            _ => comm += a.duration(),
        }
        if let Some(sid) = a.span {
            let Some(s) = trace.spans.get(sid) else {
                return Err(format!("activity {i} references unknown span {sid}"));
            };
            if a.start < s.start - 1e-12 || a.end > s.end + 1e-12 {
                return Err(format!(
                    "activity {i} [{}, {}] outside its span '{}' [{}, {}]",
                    a.start, a.end, s.name, s.start, s.end
                ));
            }
        }
    }
    if (comp - rep.t_comp).abs() > 1e-9 * (1.0 + rep.t_comp) {
        return Err(format!("compute time mismatch: {comp} vs {}", rep.t_comp));
    }
    if (comm - rep.t_comm).abs() > 1e-9 * (1.0 + rep.t_comm) {
        return Err(format!("comm time mismatch: {comm} vs {}", rep.t_comm));
    }
    for (i, s) in trace.spans.iter().enumerate() {
        if s.id != i {
            return Err(format!("span {i} has id {}", s.id));
        }
        if s.end < s.start {
            return Err(format!("span {i} '{}' has negative length", s.name));
        }
        if s.start < -1e-12 || s.end > rep.clock + 1e-12 {
            return Err(format!("span {i} '{}' outside [0, clock]", s.name));
        }
        match s.parent {
            None => {
                if s.depth != 0 {
                    return Err(format!("root span {i} has depth {}", s.depth));
                }
            }
            Some(p) => {
                let Some(parent) = trace.spans.get(p) else {
                    return Err(format!("span {i} has unknown parent {p}"));
                };
                if p >= i {
                    return Err(format!("span {i} parent {p} not created before it"));
                }
                if s.depth != parent.depth + 1 {
                    return Err(format!(
                        "span {i} depth {} but parent depth {}",
                        s.depth, parent.depth
                    ));
                }
                if s.start < parent.start - 1e-12 || s.end > parent.end + 1e-12 {
                    return Err(format!(
                        "span {i} '{}' [{}, {}] escapes parent '{}' [{}, {}]",
                        s.name, s.start, s.end, parent.name, parent.start, parent.end
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::payload::Payload;
    use crate::timemodel::TimeModel;
    use obs::SpanCat;

    #[test]
    fn traces_cover_the_clock_and_render() {
        let model = TimeModel {
            alpha: 1.0,
            beta: 0.1,
            flops_per_sec: 10.0,
        };
        let m = Machine::new(2, model).with_tracing();
        let out = m.run(|rank| {
            let world = rank.world();
            if rank.id() == 0 {
                rank.advance_compute(50);
                rank.send(&world, 1, 0, Payload::F64s(vec![0.0; 10]));
            } else {
                rank.recv(&world, 0, 0);
                rank.advance_compute(20);
            }
        });
        for rep in &out.reports {
            validate_trace(rep).unwrap();
            assert!(rep.trace.as_ref().unwrap().activities.len() >= 2);
        }
        let g = render_gantt(&out.reports, 40);
        assert!(g.contains('#'), "gantt must show compute:\n{g}");
        assert!(g.lines().count() >= 3);
        // Rank 1 waits for rank 0's long compute: a wait stripe must show.
        assert!(g.contains('.'), "gantt must show waiting:\n{g}");
    }

    #[test]
    fn gantt_footer_axis_aligns_with_bars() {
        let m = Machine::new(
            1,
            TimeModel {
                alpha: 0.0,
                beta: 0.0,
                flops_per_sec: 1.0,
            },
        )
        .with_tracing();
        let out = m.run(|rank| rank.advance_compute(5));
        let width = 40;
        let g = render_gantt(&out.reports, width);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3, "rank row + axis + legend:\n{g}");
        let bar = lines[0];
        let axis = lines[1];
        // '0' sits under the first bar column; the axis line ends exactly
        // under the closing '|'.
        let first_col = bar.find('|').unwrap() + 1;
        assert_eq!(axis.as_bytes()[first_col], b'0', "axis:\n{g}");
        assert_eq!(axis.len(), first_col + width, "axis:\n{g}");
        assert!(axis.trim_end().ends_with("5.000000s"), "axis:\n{g}");
        assert!(lines[2].contains("#=compute"));
    }

    #[test]
    fn tracing_disabled_by_default() {
        let m = Machine::new(1, TimeModel::zero());
        let out = m.run(|_| ());
        assert!(out.reports[0].trace.is_none());
    }

    #[test]
    fn adjacent_compute_activities_merge() {
        let model = TimeModel {
            alpha: 0.0,
            beta: 0.0,
            flops_per_sec: 1.0,
        };
        let m = Machine::new(1, model).with_tracing();
        let out = m.run(|rank| {
            for _ in 0..100 {
                rank.advance_compute(1);
            }
        });
        let trace = out.reports[0].trace.as_ref().unwrap();
        assert_eq!(trace.activities.len(), 1, "contiguous compute must merge");
        assert!((trace.activities[0].duration() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_tag_activities() {
        let model = TimeModel {
            alpha: 0.5,
            beta: 0.0,
            flops_per_sec: 1.0,
        };
        let m = Machine::new(2, model).with_tracing();
        let out = m.run(|rank| {
            let world = rank.world();
            rank.with_span(SpanCat::Level, "level0", |rank| {
                rank.set_phase("fact");
                rank.advance_compute(3);
                rank.with_span(SpanCat::Node, "sn0", |rank| {
                    if rank.id() == 0 {
                        rank.send(&world, 1, 1, Payload::F64s(vec![1.0]));
                    } else {
                        rank.recv(&world, 0, 1);
                    }
                });
            });
            rank.set_phase("solve");
            rank.advance_compute(2);
        });
        for rep in &out.reports {
            validate_trace(rep).unwrap();
            let trace = rep.trace.as_ref().unwrap();
            // level0 > fact > sn0, plus the top-level solve phase.
            assert!(trace.max_span_depth() >= 3, "spans: {:?}", trace.spans);
            let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
            assert!(names.contains(&"level0"));
            assert!(names.contains(&"fact"));
            assert!(names.contains(&"sn0"));
            assert!(names.contains(&"solve"));
            // The send/recv activity must resolve to phase "fact".
            let comm = trace
                .activities
                .iter()
                .find(|a| a.msg.is_some())
                .expect("traced p2p activity");
            assert_eq!(trace.phase_of(comm.span), Some("fact"));
            // The trailing compute resolves to "solve".
            let last = trace.activities.last().unwrap();
            assert_eq!(trace.phase_of(last.span), Some("solve"));
        }
    }

    #[test]
    fn gantt_survives_nan_activity_shares() {
        // Regression: the per-column winner used `partial_cmp().unwrap()`,
        // which panics as soon as one share is NaN — e.g. an activity whose
        // endpoints came out NaN under a zero-length clock anomaly. The
        // renderer must degrade gracefully, not take down a chaos run's
        // post-mortem.
        let m = Machine::new(1, TimeModel::zero()).with_tracing();
        let mut out = m.run(|rank| {
            rank.advance_compute(1);
        });
        // Give the run nonzero makespan, then poison one activity.
        out.reports[0].clock = 1.0;
        let trace = out.reports[0].trace.as_mut().unwrap();
        trace.activities.push(obs::Activity {
            kind: ActivityKind::Compute,
            start: f64::NAN,
            end: f64::NAN,
            span: None,
            peer: None,
            words: 0,
            msg: None,
        });
        let g = render_gantt(&out.reports, 20);
        assert!(g.contains("r0"), "gantt must still render:\n{g}");
    }

    #[test]
    fn phase_span_reopens_after_enclosing_exit() {
        // Same phase label across two level spans: each level must get its
        // own phase span (the first is closed when its level closes).
        let m = Machine::new(
            1,
            TimeModel {
                alpha: 0.0,
                beta: 0.0,
                flops_per_sec: 1.0,
            },
        )
        .with_tracing();
        let out = m.run(|rank| {
            for lvl in 0..2 {
                rank.with_span(SpanCat::Level, format_args!("level{lvl}"), |rank| {
                    rank.set_phase("fact");
                    rank.advance_compute(1);
                });
            }
        });
        let trace = out.reports[0].trace.as_ref().unwrap();
        let facts: Vec<_> = trace.spans.iter().filter(|s| s.name == "fact").collect();
        assert_eq!(facts.len(), 2, "one fact span per level: {:?}", trace.spans);
        assert!(facts.iter().all(|s| s.depth == 1));
        validate_trace(&out.reports[0]).unwrap();
    }
}
