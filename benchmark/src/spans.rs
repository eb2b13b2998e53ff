//! Host-clock spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in memory and are written out once, when the traced run ends.
//! They are recorded from here, outside the program under test; spans inside
//! the program are a later change.

use salu::simgrid::Json;
use std::time::Instant;

/// One timed interval: seconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// In-memory span store with a stack of open spans.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Run a probe under a span called `name`, and again while that stays
    /// cheap: up to three times within about a second. The noise only adds
    /// time, so the fastest of a few repeats is what a one-shot probe's
    /// timing can be compared with; a two-second probe runs once. Returns
    /// the last repeat's value.
    pub fn repeat<T>(&mut self, name: &'static str, mut f: impl FnMut(&mut Spans) -> T) -> T {
        let started = Instant::now();
        let mut out = self.scope(name, &mut f);
        for _ in 1..3 {
            if started.elapsed().as_secs_f64() >= 1.0 {
                break;
            }
            out = self.scope(name, &mut f);
        }
        out
    }

    /// Fastest closed span called `name` (0 when there is none).
    pub fn fastest(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            crate::stats::fastest(&d)
        }
    }

    /// Durations of every closed span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// A span's duration minus the part of it its child spans cover.
    pub fn self_time(&self, idx: usize) -> f64 {
        self_time(&self.spans, idx)
    }

    /// The trace document: one object per span, tagged with the workload,
    /// its self time worked out.
    pub fn to_json(&self, workload: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(idx, s)| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(s.name)),
                        ("start".into(), Json::num(s.start)),
                        ("end".into(), Json::num(s.end)),
                        ("self".into(), Json::num(self.self_time(idx))),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                        ),
                        ("workload".into(), Json::str(workload)),
                    ])
                })
                .collect(),
        )
    }
}

fn self_time(spans: &[Span], idx: usize) -> f64 {
    let me = &spans[idx];
    // Children of one span never overlap (they come off a stack), so the
    // covered part is the plain sum of their durations.
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| s.end - s.start)
        .sum();
    (me.end - me.start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
            span("b", 5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 10.0 - 3.0 - 4.0);
        assert_eq!(self_time(&spans, 1), 3.0 - 1.0);
        assert_eq!(self_time(&spans, 2), 1.0);
        assert_eq!(self_time(&spans, 3), 4.0);
    }

    #[test]
    fn scope_nests_and_records_parents() {
        let mut s = Spans::new();
        let v = s.scope("outer", |s| {
            s.scope("inner", |_| ());
            s.scope("inner", |_| 7)
        });
        assert_eq!(v, 7);
        assert_eq!(s.spans.len(), 3);
        assert_eq!(s.spans[0].parent, None);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(0));
        assert!(s.open.is_empty());
        assert_eq!(s.durations("inner").len(), 2);
        // Self time and the children's durations add up to the whole.
        let whole = s.durations("outer")[0];
        let parts: f64 = s.durations("inner").iter().sum::<f64>() + s.self_time(0);
        assert!((whole - parts).abs() < 1e-12);
        assert!(s.self_time(0) >= 0.0);
    }

    #[test]
    fn repeat_reruns_a_cheap_probe_and_keeps_the_fastest() {
        let mut s = Spans::new();
        let mut calls = 0;
        let v = s.repeat("cheap", |_| {
            calls += 1;
            calls
        });
        assert_eq!((v, calls), (3, 3));
        assert_eq!(s.durations("cheap").len(), 3);
        assert!(s.fastest("cheap") <= s.durations("cheap")[0]);
        assert_eq!(s.fastest("never"), 0.0);
    }

    #[test]
    fn trace_document_names_the_workload() {
        let mut s = Spans::new();
        s.scope("outer", |s| s.scope("inner", |_| ()));
        let doc = s.to_json("w");
        let arr = doc.as_arr().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(arr[0].get("parent"), Some(&Json::Null));
        assert_eq!(arr[0].get("workload").and_then(Json::as_str), Some("w"));
    }
}
