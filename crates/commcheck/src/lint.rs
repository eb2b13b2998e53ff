//! Offline trace linter: replay a Chrome trace-event document exported by
//! `obs` and statically check the communication schedule.
//!
//! Checks, in order:
//!
//! 1. **Structure** — the document is a well-formed trace (delegated to
//!    [`obs::validate_chrome_trace`]): properly nested slices, every flow
//!    arrow with both ends.
//! 2. **Pairing** — every message uid has exactly one send and exactly one
//!    receive, with matching word counts and mutually consistent peers; an
//!    unreceived send is reported as a leak.
//! 3. **Causality** — a receive never completes before its send started.
//! 4. **FIFO** — per `(src, dst, ctx, tag)` slot, messages are received in
//!    the order they were sent (the matching invariant bitwise-reproducible
//!    reductions rely on).
//! 5. **Collective participation** — for each communicator context, every
//!    rank that communicates under it inside collective spans executes the
//!    same sequence of collectives, in the same order.
//!
//! [`check_determinism`] additionally compares two traces of the *same*
//! program event-by-event: a schedule that is deterministic across runs.

use obs::{validate_chrome_trace, Json};
use std::collections::{BTreeMap, HashMap};

/// Aggregate facts the linter established.
#[derive(Clone, Copy, Debug, Default)]
pub struct LintStats {
    /// Thread tracks (ranks) in the trace.
    pub tracks: usize,
    /// Distinct message uids seen.
    pub messages: usize,
    /// Messages with a complete send/recv pair.
    pub matched: usize,
    /// Distinct communicator contexts seen on messages.
    pub contexts: usize,
    /// Collective slices that took part in the participation check.
    pub colls: usize,
}

/// The linter's verdict on one trace document.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    pub findings: Vec<String>,
    pub stats: LintStats,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn render(&self) -> String {
        let s = self.stats;
        let mut out = format!(
            "commcheck lint: {} tracks, {} messages ({} paired), {} contexts, {} collective slices\n",
            s.tracks, s.messages, s.matched, s.contexts, s.colls
        );
        if self.is_clean() {
            out.push_str("commcheck lint: clean\n");
        } else {
            for f in &self.findings {
                out.push_str(&format!("commcheck lint: {f}\n"));
            }
        }
        out
    }
}

/// One send or receive slice pulled out of the trace.
#[derive(Clone, Debug)]
struct CommEv {
    track: i64,
    is_send: bool,
    ts: f64,
    dur: f64,
    peer: Option<i64>,
    words: u64,
    uid: u64,
    ctx: u64,
    tag: u64,
}

/// One collective span slice.
#[derive(Clone, Debug)]
struct CollSlice {
    ts: f64,
    dur: f64,
    name: String,
}

fn arg_u64(ev: &Json, key: &str) -> Option<u64> {
    ev.get("args")?.get(key)?.as_f64().map(|v| v as u64)
}

/// What [`extract`] pulls out of a trace: the comm events, the collective
/// slices per track, and how many send/recv slices lacked commcheck args.
type Extracted = (Vec<CommEv>, BTreeMap<i64, Vec<CollSlice>>, usize);

fn extract(doc: &Json) -> Result<Extracted, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or("missing traceEvents array")?;
    let mut comms = Vec::new();
    let mut colls: BTreeMap<i64, Vec<CollSlice>> = BTreeMap::new();
    let mut missing_ids = 0usize;
    for ev in events {
        if ev.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        let cat = ev.get("cat").and_then(|c| c.as_str()).unwrap_or("");
        let tid = ev.get("tid").and_then(|t| t.as_f64()).unwrap_or(0.0) as i64;
        let ts = ev.get("ts").and_then(|t| t.as_f64()).unwrap_or(0.0);
        let dur = ev.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0);
        let name = ev.get("name").and_then(|n| n.as_str()).unwrap_or("");
        if cat == "coll" {
            colls.entry(tid).or_default().push(CollSlice {
                ts,
                dur,
                name: name.to_string(),
            });
        } else if cat == "activity" && (name == "send" || name == "recv") {
            let (Some(uid), Some(ctx), Some(tag)) =
                (arg_u64(ev, "uid"), arg_u64(ev, "ctx"), arg_u64(ev, "tag"))
            else {
                missing_ids += 1;
                continue;
            };
            comms.push(CommEv {
                track: tid,
                is_send: name == "send",
                ts,
                dur,
                peer: ev
                    .get("args")
                    .and_then(|a| a.get("peer"))
                    .and_then(|p| p.as_f64())
                    .map(|p| p as i64),
                words: arg_u64(ev, "words").unwrap_or(0),
                uid,
                ctx,
                tag,
            });
        }
    }
    Ok((comms, colls, missing_ids))
}

/// Lint one trace document. `Err` means the document is not a parseable
/// trace at all; findings inside the `Ok` report are protocol defects.
pub fn lint_trace(doc: &Json) -> Result<LintReport, String> {
    let mut report = LintReport::default();

    // 1. Structure.
    let cstats = validate_chrome_trace(doc)?;
    report.stats.tracks = cstats.tracks;

    let (comms, colls, missing_ids) = extract(doc)?;
    if missing_ids > 0 {
        report.findings.push(format!(
            "{missing_ids} send/recv slice(s) carry no (uid, ctx, tag) args — \
             trace predates commcheck instrumentation, message checks skipped"
        ));
    }

    // 2 + 3. Pairing and causality, keyed by uid.
    let mut by_uid: BTreeMap<u64, (Vec<&CommEv>, Vec<&CommEv>)> = BTreeMap::new();
    for ev in &comms {
        let slot = by_uid.entry(ev.uid).or_default();
        if ev.is_send {
            slot.0.push(ev);
        } else {
            slot.1.push(ev);
        }
    }
    report.stats.messages = by_uid.len();
    let mut contexts: BTreeMap<u64, ()> = BTreeMap::new();
    for ev in &comms {
        contexts.insert(ev.ctx, ());
    }
    report.stats.contexts = contexts.len();
    for (uid, (sends, recvs)) in &by_uid {
        match (sends.as_slice(), recvs.as_slice()) {
            ([s], [r]) => {
                report.stats.matched += 1;
                if s.words != r.words {
                    report.findings.push(format!(
                        "message {uid} (ctx={}, tag={}): sent {} words but received {}",
                        s.ctx, s.tag, s.words, r.words
                    ));
                }
                if s.peer != Some(r.track) || r.peer != Some(s.track) {
                    report.findings.push(format!(
                        "message {uid}: send {} -> {:?} does not mirror recv on {} from {:?}",
                        s.track, s.peer, r.track, r.peer
                    ));
                }
                if (s.ctx, s.tag) != (r.ctx, r.tag) {
                    report.findings.push(format!(
                        "message {uid}: sent on (ctx={}, tag={}) but received on (ctx={}, tag={})",
                        s.ctx, s.tag, r.ctx, r.tag
                    ));
                }
                let eps = 1e-6 * (1.0 + s.ts.abs());
                if r.ts + r.dur < s.ts - eps {
                    report.findings.push(format!(
                        "message {uid}: receive on rank {} ends at {} before its \
                         send on rank {} starts at {} — causality violation",
                        r.track,
                        r.ts + r.dur,
                        s.track,
                        s.ts
                    ));
                }
            }
            ([s], []) => report.findings.push(format!(
                "unreceived message (leak): uid {uid} from rank {} to rank {:?} \
                 (ctx={}, tag={}, {} words)",
                s.track, s.peer, s.ctx, s.tag, s.words
            )),
            ([], [r]) => report.findings.push(format!(
                "orphan receive: uid {uid} on rank {} from rank {:?} \
                 (ctx={}, tag={}) has no send",
                r.track, r.peer, r.ctx, r.tag
            )),
            (ss, rs) => report.findings.push(format!(
                "message uid {uid} is not unique: {} sends, {} receives",
                ss.len(),
                rs.len()
            )),
        }
    }

    // 4. Per-(src, dst, ctx, tag) FIFO: receive order must equal send order.
    // Document order within a track is the rank's true chronological order.
    let mut send_seq: HashMap<(i64, i64, u64, u64), Vec<u64>> = HashMap::new();
    let mut recv_seq: HashMap<(i64, i64, u64, u64), Vec<u64>> = HashMap::new();
    for ev in &comms {
        let Some(peer) = ev.peer else { continue };
        if ev.is_send {
            send_seq
                .entry((ev.track, peer, ev.ctx, ev.tag))
                .or_default()
                .push(ev.uid);
        } else {
            recv_seq
                .entry((peer, ev.track, ev.ctx, ev.tag))
                .or_default()
                .push(ev.uid);
        }
    }
    let mut fifo_keys: Vec<_> = recv_seq.keys().copied().collect();
    fifo_keys.sort_unstable();
    for key in fifo_keys {
        let recvd = &recv_seq[&key];
        let sent: Vec<u64> = send_seq
            .get(&key)
            .map(|s| {
                s.iter()
                    .copied()
                    // Skip unreceived sends (reported as leaks above).
                    .filter(|u| by_uid.get(u).is_some_and(|(_, r)| !r.is_empty()))
                    .collect()
            })
            .unwrap_or_default();
        if *recvd != sent {
            let (src, dst, ctx, tag) = key;
            report.findings.push(format!(
                "FIFO violation on slot (src={src}, dst={dst}, ctx={ctx}, tag={tag}): \
                 sent order {sent:?} but received order {recvd:?}"
            ));
        }
    }

    // 5. Collective participation: per context, every participating rank
    // must run the same sequence of collectives. A rank participates in a
    // collective slice when one of its messages under that context sits
    // inside the slice.
    let mut coll_seq: BTreeMap<u64, BTreeMap<i64, Vec<String>>> = BTreeMap::new();
    for ev in &comms {
        let Some(track_colls) = colls.get(&ev.track) else {
            continue;
        };
        let eps = 1e-6 * (1.0 + ev.ts.abs());
        // Innermost enclosing collective slice: the last one in document
        // (creation) order that contains the activity interval.
        let Some(idx) = track_colls
            .iter()
            .rposition(|c| c.ts <= ev.ts + eps && ev.ts + ev.dur <= c.ts + c.dur + eps)
        else {
            continue; // point-to-point outside any collective
        };
        let seq = coll_seq
            .entry(ev.ctx)
            .or_default()
            .entry(ev.track)
            .or_default();
        let name = format!("{}@{idx}", track_colls[idx].name);
        if seq.last() != Some(&name) {
            seq.push(name);
        }
    }
    for (ctx, per_track) in &coll_seq {
        let mut names_only: BTreeMap<i64, Vec<&str>> = BTreeMap::new();
        for (track, seq) in per_track {
            report.stats.colls += seq.len();
            names_only.insert(
                *track,
                seq.iter()
                    .map(|s| s.split_once('@').map(|(n, _)| n).unwrap_or(s))
                    .collect(),
            );
        }
        let mut iter = names_only.iter();
        let Some((first_track, first_seq)) = iter.next() else {
            continue;
        };
        for (track, seq) in iter {
            if seq != first_seq {
                report.findings.push(format!(
                    "collective participation mismatch on ctx {ctx}: rank {first_track} \
                     ran {first_seq:?} but rank {track} ran {seq:?}"
                ));
            }
        }
    }

    Ok(report)
}

/// Compare two traces of the same program: identical per-rank communication
/// schedules (kind, timing, peer, payload, uid, ctx, tag). This is the
/// offline determinism check: every receive names its source, so the
/// schedule is a function of the program — verified across repeated runs.
pub fn check_determinism(a: &Json, b: &Json) -> Result<(), String> {
    // One comm event flattened for exact comparison:
    // (is_send, ts bits, dur bits, peer, words, ctx, tag).
    type EvKey = (bool, u64, u64, u64, u64, u64, u64);
    let (ca, _, _) = extract(a)?;
    let (cb, _, _) = extract(b)?;
    let per_track = |evs: &[CommEv]| -> BTreeMap<i64, Vec<EvKey>> {
        let mut m: BTreeMap<i64, Vec<_>> = BTreeMap::new();
        for e in evs {
            m.entry(e.track).or_default().push((
                e.is_send,
                e.ts.to_bits(),
                e.dur.to_bits(),
                e.peer.unwrap_or(-1) as u64,
                e.words,
                e.ctx,
                e.tag,
            ));
        }
        m
    };
    let (ma, mb) = (per_track(&ca), per_track(&cb));
    if ma.keys().collect::<Vec<_>>() != mb.keys().collect::<Vec<_>>() {
        return Err(format!(
            "different rank sets: {:?} vs {:?}",
            ma.keys().collect::<Vec<_>>(),
            mb.keys().collect::<Vec<_>>()
        ));
    }
    for (track, seq_a) in &ma {
        let seq_b = &mb[track];
        if seq_a.len() != seq_b.len() {
            return Err(format!(
                "rank {track}: {} comm events vs {}",
                seq_a.len(),
                seq_b.len()
            ));
        }
        for (i, (ea, eb)) in seq_a.iter().zip(seq_b).enumerate() {
            if ea != eb {
                return Err(format!(
                    "rank {track}, comm event {i}: schedules diverge ({ea:?} vs {eb:?})"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{chrome_trace, ActivityKind, MsgInfo, Recorder, SpanCat};

    fn mi(uid: u64, ctx: u64, tag: u64) -> Option<MsgInfo> {
        Some(MsgInfo { uid, ctx, tag })
    }

    /// rank 0 sends two messages to rank 1 on the same slot; rank 1
    /// receives them in order, inside matching bcast spans.
    fn clean_trace() -> Json {
        let mut r0 = Recorder::new(0);
        let c = r0.enter(SpanCat::Coll, "bcast", 0.0);
        r0.activity(ActivityKind::Send, 0.0, 1.0, Some(1), 8, mi(1, 0, 5));
        r0.exit(c, 1.0);
        let c = r0.enter(SpanCat::Coll, "bcast", 1.0);
        r0.activity(ActivityKind::Send, 1.0, 2.0, Some(1), 8, mi(2, 0, 5));
        r0.exit(c, 2.0);

        let mut r1 = Recorder::new(1);
        let c = r1.enter(SpanCat::Coll, "bcast", 0.0);
        r1.activity(ActivityKind::Recv, 1.0, 1.5, Some(0), 8, mi(1, 0, 5));
        r1.exit(c, 1.5);
        let c = r1.enter(SpanCat::Coll, "bcast", 1.5);
        r1.activity(ActivityKind::Recv, 2.0, 2.5, Some(0), 8, mi(2, 0, 5));
        r1.exit(c, 2.5);
        chrome_trace(&[r0.finish(2.0), r1.finish(2.5)])
    }

    #[test]
    fn clean_trace_lints_clean() {
        let rep = lint_trace(&clean_trace()).unwrap();
        assert!(rep.is_clean(), "{}", rep.render());
        assert_eq!(rep.stats.messages, 2);
        assert_eq!(rep.stats.matched, 2);
        assert!(rep.stats.colls >= 2);
    }

    #[test]
    fn unreceived_send_is_a_leak_finding() {
        let mut r0 = Recorder::new(0);
        r0.activity(ActivityKind::Send, 0.0, 1.0, Some(1), 8, mi(9, 0, 3));
        let r1 = Recorder::new(1);
        let doc = chrome_trace(&[r0.finish(1.0), r1.finish(0.0)]);
        let rep = lint_trace(&doc).unwrap();
        assert_eq!(rep.findings.len(), 1, "{}", rep.render());
        assert!(rep.findings[0].contains("leak"), "{}", rep.findings[0]);
        assert!(rep.findings[0].contains("tag=3"), "{}", rep.findings[0]);
    }

    #[test]
    fn fifo_violation_is_reported() {
        let mut r0 = Recorder::new(0);
        r0.activity(ActivityKind::Send, 0.0, 1.0, Some(1), 8, mi(1, 0, 5));
        r0.activity(ActivityKind::Send, 1.0, 2.0, Some(1), 8, mi(2, 0, 5));
        let mut r1 = Recorder::new(1);
        // Received in the wrong order for the same (src, dst, ctx, tag).
        r1.activity(ActivityKind::Recv, 2.0, 2.5, Some(0), 8, mi(2, 0, 5));
        r1.activity(ActivityKind::Recv, 2.5, 3.0, Some(0), 8, mi(1, 0, 5));
        let doc = chrome_trace(&[r0.finish(2.0), r1.finish(3.0)]);
        let rep = lint_trace(&doc).unwrap();
        assert!(
            rep.findings.iter().any(|f| f.contains("FIFO")),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn causality_violation_is_reported() {
        let mut r0 = Recorder::new(0);
        r0.activity(ActivityKind::Send, 5.0, 6.0, Some(1), 8, mi(1, 0, 2));
        let mut r1 = Recorder::new(1);
        // Receive completes at t=1, before the send started at t=5.
        r1.activity(ActivityKind::Recv, 0.5, 1.0, Some(0), 8, mi(1, 0, 2));
        let doc = chrome_trace(&[r0.finish(6.0), r1.finish(1.0)]);
        let rep = lint_trace(&doc).unwrap();
        assert!(
            rep.findings.iter().any(|f| f.contains("causality")),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn collective_participation_mismatch_is_reported() {
        // Rank 0 runs bcast then reduce under ctx 1; rank 1 runs only bcast
        // (its reduce message happens outside any coll span).
        let mut r0 = Recorder::new(0);
        let c = r0.enter(SpanCat::Coll, "bcast", 0.0);
        r0.activity(ActivityKind::Send, 0.0, 1.0, Some(1), 8, mi(1, 1, 5));
        r0.exit(c, 1.0);
        let c = r0.enter(SpanCat::Coll, "reduce", 1.0);
        r0.activity(ActivityKind::Send, 1.0, 2.0, Some(1), 8, mi(2, 1, 6));
        r0.exit(c, 2.0);
        let mut r1 = Recorder::new(1);
        let c = r1.enter(SpanCat::Coll, "bcast", 0.0);
        r1.activity(ActivityKind::Recv, 1.0, 1.5, Some(0), 8, mi(1, 1, 5));
        r1.exit(c, 1.5);
        r1.activity(ActivityKind::Recv, 2.0, 2.5, Some(0), 8, mi(2, 1, 6));
        let doc = chrome_trace(&[r0.finish(2.0), r1.finish(2.5)]);
        let rep = lint_trace(&doc).unwrap();
        assert!(
            rep.findings
                .iter()
                .any(|f| f.contains("collective participation mismatch")),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn determinism_check_accepts_identical_and_rejects_divergent() {
        let a = clean_trace();
        let b = clean_trace();
        check_determinism(&a, &b).unwrap();

        let mut r0 = Recorder::new(0);
        r0.activity(ActivityKind::Send, 0.0, 1.0, Some(1), 16, mi(1, 0, 5));
        r0.activity(ActivityKind::Send, 1.0, 2.0, Some(1), 8, mi(2, 0, 5));
        let mut r1 = Recorder::new(1);
        r1.activity(ActivityKind::Recv, 1.0, 1.5, Some(0), 16, mi(1, 0, 5));
        r1.activity(ActivityKind::Recv, 2.0, 2.5, Some(0), 8, mi(2, 0, 5));
        let c = chrome_trace(&[r0.finish(2.0), r1.finish(2.5)]);
        let err = check_determinism(&a, &c).unwrap_err();
        assert!(err.contains("diverge"), "{err}");
    }

    #[test]
    fn trace_without_uids_degrades_gracefully() {
        let mut r0 = Recorder::new(0);
        r0.activity(ActivityKind::Compute, 0.0, 1.0, None, 0, None);
        let doc = chrome_trace(&[r0.finish(1.0)]);
        let rep = lint_trace(&doc).unwrap();
        assert!(rep.is_clean(), "{}", rep.render());
        assert_eq!(rep.stats.messages, 0);
    }
}
