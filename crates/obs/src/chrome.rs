//! Chrome trace-event (Perfetto / `chrome://tracing`) exporter.
//!
//! One process, one thread track per rank. Spans and activities become
//! `"X"` complete events (timestamps in microseconds of *simulated* time);
//! each matched send→recv pair becomes an `"s"`/`"f"` flow-arrow pair bound
//! by the message uid. Load the emitted file in <https://ui.perfetto.dev>.

use crate::commvol::CommClass;
use crate::hostprof::HostPhase;
use crate::json::Json;
use crate::memprof::MemClass;
use crate::span::{ActivityKind, RankObs};
use std::collections::{BTreeMap, HashSet};

const US: f64 = 1.0e6;

/// Build the trace document for a finished run.
pub fn chrome_trace(obs: &[RankObs]) -> Json {
    let mut events = Vec::new();
    // Which messages have a traced receive: only those get flow arrows, so
    // a dangling "s" never appears (e.g. unconsumed eager sends).
    let received: HashSet<u64> = obs
        .iter()
        .flat_map(|r| r.activities.iter())
        .filter(|a| a.kind == ActivityKind::Recv)
        .filter_map(|a| a.msg_uid())
        .collect();

    for r in obs {
        events.push(Json::Obj(vec![
            ("ph".into(), Json::str("M")),
            ("name".into(), Json::str("thread_name")),
            ("pid".into(), Json::num(0.0)),
            ("tid".into(), Json::num(r.rank as f64)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::str(format!("rank {}", r.rank)))]),
            ),
        ]));
        for s in &r.spans {
            events.push(Json::Obj(vec![
                ("ph".into(), Json::str("X")),
                ("name".into(), Json::str(s.name.clone())),
                ("cat".into(), Json::str(s.cat.as_str())),
                ("ts".into(), Json::num(s.start * US)),
                ("dur".into(), Json::num((s.end - s.start) * US)),
                ("pid".into(), Json::num(0.0)),
                ("tid".into(), Json::num(r.rank as f64)),
                (
                    "args".into(),
                    Json::Obj(vec![("depth".into(), Json::num(s.depth as f64))]),
                ),
            ]));
        }
        for a in &r.activities {
            let mut args = Vec::new();
            if let Some(p) = a.peer {
                args.push(("peer".into(), Json::num(p as f64)));
            }
            if a.words > 0 {
                args.push(("words".into(), Json::num(a.words as f64)));
            }
            // Message identity: the uid pairs a send with its receive (the
            // flow arrows below, and `validate_chrome_trace`); ctx and tag
            // name the slot it was matched under. A wire tag spans 63
            // bits, more than an f64 holds exactly, so it travels as a hex
            // string.
            if let Some(m) = a.msg {
                args.push(("uid".into(), Json::num(m.uid as f64)));
                args.push(("ctx".into(), Json::num(m.ctx as f64)));
                args.push(("tag".into(), Json::str(format!("{:#x}", m.tag))));
            }
            events.push(Json::Obj(vec![
                ("ph".into(), Json::str("X")),
                ("name".into(), Json::str(a.kind.as_str())),
                ("cat".into(), Json::str("activity")),
                ("ts".into(), Json::num(a.start * US)),
                ("dur".into(), Json::num((a.end - a.start) * US)),
                ("pid".into(), Json::num(0.0)),
                ("tid".into(), Json::num(r.rank as f64)),
                ("args".into(), Json::Obj(args)),
            ]));
            // Flow arrows: start at the middle of the send slice, finish at
            // the middle of the recv slice ("e" binds to the enclosing X).
            if let Some(uid) = a.msg_uid() {
                let (ph, extra): (&str, Option<(&str, Json)>) = match a.kind {
                    ActivityKind::Send if received.contains(&uid) => ("s", None),
                    ActivityKind::Recv => ("f", Some(("bp", Json::str("e")))),
                    _ => continue,
                };
                let mut flow = vec![
                    ("ph".into(), Json::str(ph)),
                    ("id".into(), Json::num(uid as f64)),
                    ("name".into(), Json::str("msg")),
                    ("cat".into(), Json::str("dep")),
                    ("ts".into(), Json::num((a.start + a.end) * 0.5 * US)),
                    ("pid".into(), Json::num(0.0)),
                    ("tid".into(), Json::num(r.rank as f64)),
                ];
                if let Some((k, v)) = extra {
                    flow.push((k.into(), v));
                }
                events.push(Json::Obj(flow));
            }
        }
        // Counter tracks beside the rank's span track, each a stacked area
        // chart in Perfetto: memory bytes per class (summed over tree
        // levels), wire words per class (the visible sends; monotone, as
        // sends only add words), and host self-nanoseconds per phase
        // (placed at simulated open times; only the values are host
        // measurements).
        let mem: Vec<_> = r.mem.iter().map(|e| (e.t, e.class, e.delta)).collect();
        counter_track(
            &mut events,
            "mem",
            r.rank,
            &MemClass::ALL,
            MemClass::as_str,
            &mem,
        );
        let wire: Vec<_> = r
            .activities
            .iter()
            .filter(|a| a.kind == ActivityKind::Send && a.words > 0)
            .filter_map(|a| a.msg.map(|m| (a.start, m.class, a.words as i64)))
            .collect();
        counter_track(
            &mut events,
            "wire",
            r.rank,
            &CommClass::ALL,
            CommClass::as_str,
            &wire,
        );
        let host: Vec<_> = r.host.iter().map(|e| (e.t, e.phase, e.ns as i64)).collect();
        counter_track(
            &mut events,
            "host",
            r.rank,
            &HostPhase::ALL,
            HostPhase::as_str,
            &host,
        );
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::str("ms")),
    ])
}

/// Append the `"{cat} rank {rank}"` counter track: one `"C"` sample per
/// distinct timestamp of `samples` (chronological `(t, series, delta)`),
/// whose args are the running totals of every series that ever appears, in
/// the order of `all`.
fn counter_track<K: Copy + PartialEq>(
    events: &mut Vec<Json>,
    cat: &str,
    rank: usize,
    all: &[K],
    label: fn(K) -> &'static str,
    samples: &[(f64, K, i64)],
) {
    let live: Vec<K> = all
        .iter()
        .copied()
        .filter(|&k| samples.iter().any(|s| s.1 == k))
        .collect();
    let mut totals = vec![0i64; live.len()];
    for (i, &(t, k, delta)) in samples.iter().enumerate() {
        totals[live.iter().position(|&l| l == k).unwrap()] += delta;
        if samples.get(i + 1).is_some_and(|next| next.0 == t) {
            continue;
        }
        let args = live
            .iter()
            .zip(&totals)
            .map(|(&k, &v)| (label(k).to_string(), Json::num(v as f64)))
            .collect();
        events.push(Json::Obj(vec![
            ("ph".into(), Json::str("C")),
            ("name".into(), Json::str(format!("{cat} rank {rank}"))),
            ("cat".into(), Json::str(cat)),
            ("ts".into(), Json::num(t * US)),
            ("pid".into(), Json::num(0.0)),
            ("tid".into(), Json::num(rank as f64)),
            ("args".into(), Json::Obj(args)),
        ]));
    }
}

/// Structural facts established by [`validate_chrome_trace`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ChromeTraceStats {
    /// Total events of any phase type.
    pub events: usize,
    /// Number of distinct thread tracks.
    pub tracks: usize,
    /// Maximum `"X"`-slice nesting depth over all tracks (1 = flat).
    pub max_nesting: usize,
    /// Matched send→recv flow pairs.
    pub flow_pairs: usize,
    /// `"C"` counter samples (memory, wire and host tracks).
    pub counter_events: usize,
}

/// One end of a message: the `send` or `recv` activity slice carrying its
/// uid.
#[derive(Clone, Copy)]
struct MsgEnd {
    tid: i64,
    ts: f64,
    end: f64,
    words: f64,
}

/// Validate a parsed Chrome trace document: required fields on every
/// event, finite times, strictly nested (never partially overlapping)
/// `"X"` slices per track, every flow-finish matched by a flow-start with
/// the same id, and every message uid on exactly one `send` and one `recv`
/// slice with equal words, the receive not ending before the send starts.
/// `resend` slices (retransmits and recovered duplicates) carry no uid and
/// are not messages.
pub fn validate_chrome_trace(doc: &Json) -> Result<ChromeTraceStats, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or("missing traceEvents array")?;
    let mut stats = ChromeTraceStats {
        events: events.len(),
        ..Default::default()
    };
    // tid -> [(ts, dur)] for X events
    let mut slices: BTreeMap<i64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut flow_starts: HashSet<i64> = HashSet::new();
    let mut flow_ends: Vec<i64> = Vec::new();
    // uid -> [send, recv]
    let mut msgs: BTreeMap<u64, [Option<MsgEnd>; 2]> = BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = ev
            .get("tid")
            .and_then(|t| t.as_f64())
            .ok_or_else(|| format!("event {i}: missing tid"))? as i64;
        match ph {
            "X" => {
                let ts = ev
                    .get("ts")
                    .and_then(|t| t.as_f64())
                    .ok_or_else(|| format!("event {i}: X without ts"))?;
                let dur = ev
                    .get("dur")
                    .and_then(|d| d.as_f64())
                    .ok_or_else(|| format!("event {i}: X without dur"))?;
                let name = ev
                    .get("name")
                    .and_then(|n| n.as_str())
                    .ok_or_else(|| format!("event {i}: X without name"))?;
                if !ts.is_finite() || !dur.is_finite() {
                    return Err(format!("event {i}: non-finite ts {ts} or dur {dur}"));
                }
                if dur < 0.0 {
                    return Err(format!("event {i}: negative duration"));
                }
                slices.entry(tid).or_default().push((ts, dur));
                let side = match (ev.get("cat").and_then(|c| c.as_str()), name) {
                    (Some("activity"), "send") => 0,
                    (Some("activity"), "recv") => 1,
                    _ => continue,
                };
                let arg = |k| ev.get("args")?.get(k)?.as_f64();
                let Some(uid) = arg("uid") else { continue };
                let slot = &mut msgs.entry(uid as u64).or_default()[side];
                if slot.is_some() {
                    return Err(format!("event {i}: message {uid} has a second {name}"));
                }
                *slot = Some(MsgEnd {
                    tid,
                    ts,
                    end: ts + dur,
                    words: arg("words").unwrap_or(0.0),
                });
            }
            "s" => {
                let id = ev
                    .get("id")
                    .and_then(|d| d.as_f64())
                    .ok_or_else(|| format!("event {i}: flow without id"))?;
                flow_starts.insert(id as i64);
            }
            "f" => {
                let id = ev
                    .get("id")
                    .and_then(|d| d.as_f64())
                    .ok_or_else(|| format!("event {i}: flow without id"))?;
                flow_ends.push(id as i64);
            }
            "C" => {
                if ev.get("name").and_then(|n| n.as_str()).is_none() {
                    return Err(format!("event {i}: C without name"));
                }
                if ev.get("ts").and_then(|t| t.as_f64()).is_none() {
                    return Err(format!("event {i}: C without ts"));
                }
                let args = ev
                    .get("args")
                    .and_then(|a| a.as_obj())
                    .ok_or_else(|| format!("event {i}: C without args object"))?;
                for (k, v) in args {
                    let n = v
                        .as_f64()
                        .ok_or_else(|| format!("event {i}: counter series {k:?} not numeric"))?;
                    if n < 0.0 {
                        return Err(format!("event {i}: counter series {k:?} negative ({n})"));
                    }
                }
                stats.counter_events += 1;
            }
            "M" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }

    stats.tracks = slices.len();
    // Slice containment per track: sort by (ts asc, dur desc) and sweep a
    // stack. A slice must either start after the top ends or end within it.
    for (tid, track) in slices.iter_mut() {
        track.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for &(ts, dur) in track.iter() {
            let end = ts + dur;
            // Tolerance comparable to f64 rounding at µs scale.
            let eps = 1e-6 * (1.0 + end.abs());
            while let Some(&(_, top_end)) = stack.last() {
                if ts >= top_end - eps {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, top_end)) = stack.last() {
                if end > top_end + eps {
                    return Err(format!(
                        "track {tid}: slice [{ts}, {end}) partially overlaps \
                         enclosing slice ending at {top_end}"
                    ));
                }
            }
            stack.push((ts, end));
            stats.max_nesting = stats.max_nesting.max(stack.len());
        }
    }

    for id in &flow_ends {
        if !flow_starts.contains(id) {
            return Err(format!("flow finish id {id} has no matching start"));
        }
    }
    stats.flow_pairs = flow_ends.len();

    for (uid, ends) in &msgs {
        let problem = match ends {
            [Some(s), Some(r)] if s.words != r.words => {
                format!("sent {} words but received {}", s.words, r.words)
            }
            [Some(s), Some(r)] if r.end < s.ts - 1e-6 * (1.0 + s.ts.abs()) => format!(
                "receive on track {} ends at {} before its send on track {} starts at {}",
                r.tid, r.end, s.tid, s.ts
            ),
            [Some(s), None] => format!("sent on track {} but never received", s.tid),
            [None, Some(r)] => format!("received on track {} but never sent", r.tid),
            _ => continue,
        };
        return Err(format!("message {uid}: {problem}"));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{ActivityKind, MsgInfo, Recorder, SpanCat};

    fn two_rank_obs() -> Vec<RankObs> {
        let mut r0 = Recorder::new(0);
        let lvl = r0.enter(SpanCat::Level, "level0", 0.0);
        let ph = r0.enter(SpanCat::Phase, "fact", 0.0);
        let node = r0.enter(SpanCat::Node, "sn0", 0.0);
        r0.activity(ActivityKind::Compute, 0.0, 2.0, None, 0, None);
        r0.activity(
            ActivityKind::Send,
            2.0,
            2.5,
            Some(1),
            16,
            Some(MsgInfo {
                uid: 7,
                ctx: 0,
                tag: 3,
                class: CommClass::Control,
            }),
        );
        r0.exit(node, 2.5);
        r0.exit(ph, 2.5);
        r0.exit(lvl, 2.5);

        let mut r1 = Recorder::new(1);
        let ph1 = r1.enter(SpanCat::Phase, "fact", 0.0);
        r1.activity(ActivityKind::Wait, 0.0, 2.5, Some(0), 0, None);
        r1.activity(
            ActivityKind::Recv,
            2.5,
            3.0,
            Some(0),
            16,
            Some(MsgInfo {
                uid: 7,
                ctx: 0,
                tag: 3,
                class: CommClass::Control,
            }),
        );
        r1.exit(ph1, 3.0);
        vec![r0.finish(2.5), r1.finish(3.0)]
    }

    #[test]
    fn export_validates_with_depth_and_flows() {
        let doc = chrome_trace(&two_rank_obs());
        let stats = validate_chrome_trace(&doc).unwrap();
        assert_eq!(stats.tracks, 2);
        // level > phase > node > activity on rank 0.
        assert!(stats.max_nesting >= 4, "nesting {}", stats.max_nesting);
        assert_eq!(stats.flow_pairs, 1);
    }

    #[test]
    fn export_roundtrips_through_text() {
        let doc = chrome_trace(&two_rank_obs());
        let text = doc.dump();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        validate_chrome_trace(&back).unwrap();
    }

    fn msg(uid: u64) -> Option<MsgInfo> {
        Some(MsgInfo {
            uid,
            ctx: 0,
            tag: 1,
            class: CommClass::Control,
        })
    }

    /// Message 1: rank 0 sends `sent` words over `[t_send, t_send + 1)`,
    /// rank 1 receives `recvd` words over `[t_recv, t_recv + 0.5)`.
    fn one_message(t_send: f64, sent: u64, t_recv: f64, recvd: u64) -> Json {
        let mut r0 = Recorder::new(0);
        r0.activity(
            ActivityKind::Send,
            t_send,
            t_send + 1.0,
            Some(1),
            sent,
            msg(1),
        );
        let mut r1 = Recorder::new(1);
        r1.activity(
            ActivityKind::Recv,
            t_recv,
            t_recv + 0.5,
            Some(0),
            recvd,
            msg(1),
        );
        chrome_trace(&[r0.finish(t_send + 1.0), r1.finish(t_recv + 0.5)])
    }

    #[test]
    fn unreceived_send_is_a_leak_finding() {
        let mut r0 = Recorder::new(0);
        r0.activity(ActivityKind::Send, 0.0, 1.0, Some(1), 8, msg(99));
        let doc = chrome_trace(&[r0.finish(1.0)]);
        // The exporter draws no arrow to nowhere...
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events
            .iter()
            .all(|e| e.get("ph").unwrap().as_str() != Some("s")));
        // ...and the validator names the leaked message.
        let err = validate_chrome_trace(&doc).unwrap_err();
        assert!(
            err.contains("message 99") && err.contains("never received"),
            "{err}"
        );
    }

    #[test]
    fn causality_violation_is_reported() {
        // The receive completes at t=1, before the send started at t=5.
        let err = validate_chrome_trace(&one_message(5.0, 8, 0.5, 8)).unwrap_err();
        assert!(err.contains("before its send"), "{err}");
    }

    #[test]
    fn unequal_words_are_reported() {
        let err = validate_chrome_trace(&one_message(0.0, 16, 1.0, 8)).unwrap_err();
        assert!(err.contains("sent 16 words"), "{err}");
    }

    #[test]
    fn non_finite_time_is_an_error_not_a_panic() {
        let err = validate_chrome_trace(&one_message(f64::NAN, 8, 1.0, 8)).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn counter_track_roundtrips_and_counts() {
        use crate::memprof::{MemClass, MemLedger};
        let mut led = MemLedger::new(true);
        led.charge(MemClass::LPanel, 0, 128, 0.0);
        led.charge(MemClass::MsgInFlight, 0, 64, 1.0);
        led.credit(MemClass::MsgInFlight, 0, 64, 2.0);
        // No sends: the rank's only counter track is its memory.
        let mut obs = vec![Recorder::new(0).finish(2.0)];
        obs[0].mem = led.take_timeline();
        let doc = chrome_trace(&obs);
        let stats = validate_chrome_trace(&doc).unwrap();
        assert_eq!(stats.counter_events, 3);
        // Parse back through text and check the cumulative series.
        let back = Json::parse(&doc.dump()).unwrap();
        let counters: Vec<&Json> = back
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        assert_eq!(counters.len(), 3);
        let series = |ev: &Json, k: &str| ev.get("args").unwrap().get(k).unwrap().as_f64().unwrap();
        assert_eq!(series(counters[0], "LPanel"), 128.0);
        assert_eq!(series(counters[0], "MsgInFlight"), 0.0);
        assert_eq!(series(counters[1], "MsgInFlight"), 64.0);
        assert_eq!(series(counters[2], "MsgInFlight"), 0.0);
        assert_eq!(series(counters[2], "LPanel"), 128.0);
        validate_chrome_trace(&back).unwrap();
    }

    #[test]
    fn wire_counter_track_is_cumulative_per_class() {
        // Visible sends with words are samples; a transport-internal send
        // (no message identity) and a zero-word one are not.
        // Rank 1 receives every message, so the document is a valid run.
        let (mut r0, mut r1) = (Recorder::new(0), Recorder::new(1));
        let mut uid = 0;
        let mut send = |t: f64, words: u64, class: Option<CommClass>| {
            let msg = class.map(|class| {
                uid += 1;
                MsgInfo {
                    uid,
                    ctx: 0,
                    tag: 1,
                    class,
                }
            });
            r0.activity(ActivityKind::Send, t, t + 0.5, Some(1), words, msg);
            if msg.is_some() {
                r1.activity(ActivityKind::Recv, t, t + 0.5, Some(0), words, msg);
            }
        };
        send(0.0, 16, Some(CommClass::LPanel));
        send(1.0, 4, Some(CommClass::LPanel));
        send(1.0, 10, Some(CommClass::ZReduction));
        send(2.0, 99, None);
        send(3.0, 0, Some(CommClass::Collective));
        let doc = chrome_trace(&[r0.finish(3.5), r1.finish(3.5)]);
        let stats = validate_chrome_trace(&doc).unwrap();
        assert_eq!(stats.counter_events, 2, "two distinct timestamps");
        let back = Json::parse(&doc.dump()).unwrap();
        let counters: Vec<&Json> = back
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        assert!(counters
            .iter()
            .all(|e| e.get("name").unwrap().as_str() == Some("wire rank 0")));
        let series = |ev: &Json, k: &str| ev.get("args").unwrap().get(k).unwrap().as_f64().unwrap();
        assert_eq!(series(counters[0], "LPanel"), 16.0);
        assert_eq!(series(counters[0], "ZReduction"), 0.0);
        assert_eq!(series(counters[1], "LPanel"), 20.0);
        assert_eq!(series(counters[1], "ZReduction"), 10.0);
        assert!(counters[1].get("args").unwrap().get("Collective").is_none());
    }

    #[test]
    fn host_counter_track_is_cumulative_per_phase() {
        use crate::hostprof::{HostEvent, HostPhase};
        let mut obs = vec![Recorder::new(0).finish(1.0)];
        obs[0].host = vec![
            HostEvent {
                t: 0.0,
                phase: HostPhase::PanelFactor,
                ns: 500,
            },
            HostEvent {
                t: 1.0,
                phase: HostPhase::Gemm,
                ns: 2_000,
            },
            HostEvent {
                t: 1.0,
                phase: HostPhase::PanelFactor,
                ns: 300,
            },
        ];
        let doc = chrome_trace(&obs);
        let stats = validate_chrome_trace(&doc).unwrap();
        assert_eq!(stats.counter_events, 2, "two distinct timestamps");
        let back = Json::parse(&doc.dump()).unwrap();
        let counters: Vec<&Json> = back
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        assert!(counters
            .iter()
            .all(|e| e.get("name").unwrap().as_str() == Some("host rank 0")));
        let series = |ev: &Json, k: &str| ev.get("args").unwrap().get(k).unwrap().as_f64().unwrap();
        assert_eq!(series(counters[0], "panel-factor"), 500.0);
        assert_eq!(series(counters[0], "gemm"), 0.0);
        assert_eq!(series(counters[1], "panel-factor"), 800.0);
        assert_eq!(series(counters[1], "gemm"), 2000.0);
    }

    #[test]
    fn validator_rejects_negative_counter_series() {
        let doc = Json::parse(
            r#"{"traceEvents":[
                {"ph":"C","name":"mem rank 0","ts":0,"pid":0,"tid":0,
                 "args":{"LPanel":-8}}
            ]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&doc).is_err());
    }

    #[test]
    fn validator_rejects_partial_overlap() {
        let doc = Json::parse(
            r#"{"traceEvents":[
                {"ph":"X","name":"a","ts":0,"dur":10,"pid":0,"tid":0},
                {"ph":"X","name":"b","ts":5,"dur":10,"pid":0,"tid":0}
            ]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&doc).is_err());
    }

    #[test]
    fn validator_rejects_orphan_flow_finish() {
        let doc = Json::parse(
            r#"{"traceEvents":[
                {"ph":"f","bp":"e","id":3,"ts":1,"pid":0,"tid":0}
            ]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&doc).is_err());
    }
}
