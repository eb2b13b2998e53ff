//! Trace validation over the span/activity store.
//!
//! When tracing is enabled on the machine ([`crate::Machine::with_tracing`]),
//! every rank records hierarchical spans (level → phase → supernode →
//! collective) and machine-level activities — compute, send, receive,
//! blocking wait — in simulated time (see [`obs::span`]). This module
//! checks the store's invariants. The one timeline view is the
//! Chrome/Perfetto exporter in [`obs::chrome`] (`salu --trace-out`);
//! critical-path attribution lives in [`obs::critpath`].

use crate::stats::RankReport;
use obs::ActivityKind;

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
    fn traces_cover_the_clock() {
        let model = TimeModel {
            alpha: 1.0,
            beta: 0.1,
            flops_per_sec: 10.0,
        };
        let m = Machine::new(2, model).with_tracing();
        let out = m.run_tasks(async |rank| {
            let world = rank.world();
            if rank.id() == 0 {
                rank.advance_compute(50);
                rank.send(&world, 1, 0, Payload::F64s(vec![0.0; 10]));
            } else {
                rank.recv(&world, 0, 0).await;
                rank.advance_compute(20);
            }
        });
        for rep in &out.reports {
            validate_trace(rep).unwrap();
            assert!(rep.trace.as_ref().unwrap().activities.len() >= 2);
        }
    }

    #[test]
    fn tracing_disabled_by_default() {
        let m = Machine::new(1, TimeModel::zero());
        let out = m.run_tasks(async |_| ());
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
        let out = m.run_tasks(async |rank| {
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
        let out = m.run_tasks(async |rank| {
            let world = rank.world();
            rank.with_span(SpanCat::Level, "level0", async |rank| {
                rank.set_phase("fact");
                rank.advance_compute(3);
                rank.with_span(SpanCat::Node, "sn0", async |rank| {
                    if rank.id() == 0 {
                        rank.send(&world, 1, 1, Payload::F64s(vec![1.0]));
                    } else {
                        rank.recv(&world, 0, 1).await;
                    }
                })
                .await;
            })
            .await;
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
        let out = m.run_tasks(async |rank| {
            for lvl in 0..2 {
                rank.with_span(SpanCat::Level, format_args!("level{lvl}"), async |rank| {
                    rank.set_phase("fact");
                    rank.advance_compute(1);
                })
                .await;
            }
        });
        let trace = out.reports[0].trace.as_ref().unwrap();
        let facts: Vec<_> = trace.spans.iter().filter(|s| s.name == "fact").collect();
        assert_eq!(facts.len(), 2, "one fact span per level: {:?}", trace.spans);
        assert!(facts.iter().all(|s| s.depth == 1));
        validate_trace(&out.reports[0]).unwrap();
    }
}
