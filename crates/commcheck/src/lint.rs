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
//! 5. **Collective participation**, per instance — the `(ctx, tag)` of its
//!    messages: every rank with a message of an instance runs it inside one
//!    collective slice of the same kind, and ranks that share instances on
//!    a context run them in the same relative order. A rank off a
//!    broadcast's roster has no message of it and is not judged by it.
//!
//! [`check_determinism`] additionally compares two traces of the *same*
//! program event-by-event: a schedule that is deterministic across runs.

use obs::{validate_chrome_trace, Json};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    /// (collective instance, rank) participations the participation check
    /// judged.
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
            "commcheck lint: {} tracks, {} messages ({} paired), {} contexts, \
             {} collective participations\n",
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

/// The wire tag, exported as a hex string (it does not fit an f64).
fn arg_tag(ev: &Json) -> Option<u64> {
    let hex = ev.get("args")?.get("tag")?.as_str()?;
    u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok()
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
                (arg_u64(ev, "uid"), arg_u64(ev, "ctx"), arg_tag(ev))
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

    // 5. Collective participation, per instance.
    report
        .findings
        .extend(check_participation(&comms, &colls, &mut report.stats));

    Ok(report)
}

/// One collective instance: `(ctx, tag, occurrence on the track)` — the
/// n-th run of that pair when a program repeats it (one per solve, say).
type Instance = (u64, u64, usize);

/// Check 5 of [`lint_trace`]: each track with a message of an instance runs
/// it inside one collective slice, of the same kind on every track, and
/// tracks that share instances on a context run them in the same relative
/// order. Returns its findings.
fn check_participation(
    comms: &[CommEv],
    colls: &BTreeMap<i64, Vec<CollSlice>>,
    stats: &mut LintStats,
) -> Vec<String> {
    let mut findings = Vec::new();
    // Per (ctx, tag, track): the enclosing slices of its messages in order,
    // repeats collapsed — `None` for a message outside every slice.
    let mut runs: BTreeMap<(u64, u64, i64), Vec<Option<usize>>> = BTreeMap::new();
    // Per (ctx, track): its instances in the order it first touched them.
    let mut order: BTreeMap<(u64, i64), Vec<Instance>> = BTreeMap::new();
    for ev in comms {
        let eps = 1e-6 * (1.0 + ev.ts.abs());
        // Innermost enclosing collective slice: the last one in document
        // (creation) order that contains the activity interval.
        let slice = colls.get(&ev.track).and_then(|track_colls| {
            track_colls
                .iter()
                .rposition(|c| c.ts <= ev.ts + eps && ev.ts + ev.dur <= c.ts + c.dur + eps)
        });
        let run = runs.entry((ev.ctx, ev.tag, ev.track)).or_default();
        if run.last() != Some(&slice) {
            run.push(slice);
            let inst = (ev.ctx, ev.tag, run.len() - 1);
            order.entry((ev.ctx, ev.track)).or_default().push(inst);
        }
    }

    // What each track ran every instance as: a slice's kind, or nothing.
    let mut kinds: BTreeMap<Instance, Vec<(i64, &str)>> = BTreeMap::new();
    for (&(ctx, tag, track), run) in &runs {
        for (n, slice) in run.iter().enumerate() {
            let kind = slice.map_or("no collective", |i| colls[&track][i].name.as_str());
            kinds.entry((ctx, tag, n)).or_default().push((track, kind));
        }
    }
    let mut collective = BTreeSet::new();
    for ((ctx, tag, n), ran) in &kinds {
        if ran.iter().all(|&(_, kind)| kind == "no collective") {
            continue; // point-to-point traffic
        }
        collective.insert((*ctx, *tag, *n));
        stats.colls += ran.len();
        let (first, first_kind) = ran[0];
        if let Some((track, kind)) = ran.iter().find(|&&(_, kind)| kind != first_kind) {
            findings.push(format!(
                "collective participation mismatch on ctx {ctx} tag {tag:#x} (run {n}): \
                 rank {first} ran {first_kind} but rank {track} ran {kind}"
            ));
        }
    }

    // Relative order, pair by pair of tracks on one context.
    let mut by_ctx: BTreeMap<u64, Vec<(i64, Vec<Instance>)>> = BTreeMap::new();
    for ((ctx, track), seq) in order {
        let seq: Vec<Instance> = seq.into_iter().filter(|i| collective.contains(i)).collect();
        by_ctx.entry(ctx).or_default().push((track, seq));
    }
    for (ctx, tracks) in &by_ctx {
        let at: Vec<HashMap<Instance, usize>> = tracks
            .iter()
            .map(|(_, seq)| seq.iter().enumerate().map(|(p, &i)| (i, p)).collect())
            .collect();
        for (a, (track_a, seq_a)) in tracks.iter().enumerate() {
            for (b, (track_b, _)) in tracks.iter().enumerate().skip(a + 1) {
                let shared = seq_a.iter().filter_map(|i| at[b].get(i).map(|&p| (i, p)));
                let mut last: Option<(&Instance, usize)> = None;
                for (inst, p) in shared {
                    if let Some((prev, _)) = last.filter(|&(_, q)| q > p) {
                        findings.push(format!(
                            "collective order mismatch on ctx {ctx}: rank {track_a} ran tag \
                             {:#x} before tag {:#x}, rank {track_b} the other way round",
                            prev.1, inst.1
                        ));
                        break;
                    }
                    last = Some((inst, p));
                }
            }
        }
    }
    findings
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
    use obs::{chrome_trace, ActivityKind, CommClass, MsgInfo, Recorder, SpanCat};

    fn mi(uid: u64, ctx: u64, tag: u64) -> Option<MsgInfo> {
        Some(MsgInfo {
            uid,
            ctx,
            tag,
            class: CommClass::Control,
        })
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

    /// Two broadcasts on one context (tags 5 and 6), each rank's messages
    /// inside a `bcast` slice; rank 1 runs them in `order_1`, and rank 2
    /// sits on neither roster but runs a third broadcast (tag 7) with
    /// rank 0.
    fn two_bcasts(order_1: [u64; 2]) -> Json {
        let mut r0 = Recorder::new(0);
        for (t, tag) in [(0.0, 5), (1.0, 6), (2.0, 7)] {
            let c = r0.enter(SpanCat::Coll, "bcast", t);
            let peer = if tag == 7 { 2 } else { 1 };
            r0.activity(
                ActivityKind::Send,
                t,
                t + 1.0,
                Some(peer),
                8,
                mi(tag, 1, tag),
            );
            r0.exit(c, t + 1.0);
        }
        let mut r1 = Recorder::new(1);
        for (t, tag) in [(1.0, order_1[0]), (2.0, order_1[1])] {
            let c = r1.enter(SpanCat::Coll, "bcast", t);
            r1.activity(
                ActivityKind::Recv,
                t + 0.5,
                t + 1.0,
                Some(0),
                8,
                mi(tag, 1, tag),
            );
            r1.exit(c, t + 1.0);
        }
        let mut r2 = Recorder::new(2);
        let c = r2.enter(SpanCat::Coll, "bcast", 0.0);
        r2.activity(ActivityKind::Recv, 3.0, 3.5, Some(0), 8, mi(7, 1, 7));
        r2.exit(c, 3.5);
        chrome_trace(&[r0.finish(3.0), r1.finish(3.5), r2.finish(3.5)])
    }

    #[test]
    fn ranks_off_a_roster_are_not_judged_by_it() {
        let rep = lint_trace(&two_bcasts([5, 6])).unwrap();
        assert!(rep.is_clean(), "{}", rep.render());
        assert_eq!(rep.stats.colls, 6);
    }

    #[test]
    fn shared_collectives_in_opposite_orders_are_reported() {
        let rep = lint_trace(&two_bcasts([6, 5])).unwrap();
        assert!(
            rep.findings
                .iter()
                .any(|f| f.contains("collective order mismatch on ctx 1")
                    && f.contains("rank 0")
                    && f.contains("rank 1")),
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
