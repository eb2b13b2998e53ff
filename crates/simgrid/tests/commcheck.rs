//! Seeded-defect tests for the checks every run carries: a planted deadlock
//! and a planted unreceived message must each be detected and reported with
//! the exact ranks, phase, and (ctx, tag) — under both backends, from the
//! same quiescence proof, with no watchdog and no wall-clock timeout.

use simgrid::{Backend, FailKind, Machine, Payload, RecvError, TimeModel, UnreceivedMsg};
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

/// A plain machine must reach its deadlock verdict at once: the proof is
/// exact, so there is no grace window and no backstop to sit out.
const VERDICT_WITHIN: Duration = Duration::from_secs(1);

/// Run `f` expecting a rank panic within [`VERDICT_WITHIN`]; return the
/// panic message.
fn panic_message<T: std::fmt::Debug + Send + 'static>(
    m: Machine,
    f: impl Fn(&mut simgrid::BlockingRank) -> T + Send + Sync + 'static,
) -> String {
    let started = Instant::now();
    let err = std::panic::catch_unwind(AssertUnwindSafe(|| m.run(f))).expect_err("run must panic");
    let took = started.elapsed();
    assert!(took < VERDICT_WITHIN, "verdict took {took:?}");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload must be a string")
}

/// A plain machine per backend: nothing to arm, both prove quiescence.
fn machines(n: usize) -> [Machine; 2] {
    [Backend::Threaded, Backend::Event].map(|b| Machine::new(n, TimeModel::zero()).with_backend(b))
}

/// The deadlock report: the line that opens it and one line per stuck
/// rank. (Which rank the run blames first is the host's order.)
fn report(msg: &str) -> &str {
    let from = &msg[msg.find("deadlock detected").expect(msg)..];
    from.split("\n\n").next().unwrap_or(from)
}

#[test]
fn seeded_deadlock_is_reported_with_the_cycle() {
    // Classic A<->B cross receive: each rank waits for the other's message
    // before sending its own. The verdict must name both ranks, what each
    // waits on, and the phase — in the same words under both backends.
    let mut reports = Vec::new();
    for m in machines(2) {
        let msg = panic_message(m, |rank| {
            let world = rank.world();
            rank.set_phase("fact");
            let peer = 1 - rank.id();
            let tag = 40 + rank.id() as u64;
            let got = rank.recv(&world, peer, tag); // never satisfied
            rank.send(&world, peer, 41 - rank.id() as u64, Payload::Empty);
            got.words()
        });
        assert!(msg.contains("deadlock detected"), "{msg}");
        assert!(msg.contains("2 rank(s)"), "{msg}");
        assert!(msg.contains("rank 0 blocked in recv"), "{msg}");
        assert!(msg.contains("rank 1 blocked in recv"), "{msg}");
        // Rank 0 waits on (ctx=0, src=1, tag=40); rank 1 on (ctx=0, src=0, tag=41).
        assert!(msg.contains("(ctx=0, src=1, tag=40, phase=fact)"), "{msg}");
        assert!(msg.contains("(ctx=0, src=0, tag=41, phase=fact)"), "{msg}");
        assert!(msg.contains("waiting on rank(s) 1"), "{msg}");
        assert!(msg.contains("waiting on rank(s) 0"), "{msg}");
        reports.push(report(&msg).to_string());
    }
    assert_eq!(reports[0], reports[1]);
}

#[test]
fn deadlock_on_a_finished_rank_is_detected() {
    // Rank 1 exits without ever sending; rank 0 waits forever on it. Not a
    // cycle, but just as hopeless — the task table treats Done ranks as
    // never able to send.
    for m in machines(2) {
        let msg = panic_message(m, |rank| {
            let world = rank.world();
            rank.set_phase("reduce");
            if rank.id() == 0 {
                rank.recv(&world, 1, 9);
            }
            0u64
        });
        assert!(msg.contains("deadlock detected"), "{msg}");
        assert!(msg.contains("rank 0 blocked in recv"), "{msg}");
        assert!(msg.contains("(ctx=0, src=1, tag=9, phase=reduce)"), "{msg}");
    }
}

#[test]
fn waits_on_a_failed_rank_are_cascades_under_both_backends() {
    // Ranks 0 and 2 block on rank 1, which fails: once no rank can run, the
    // table wakes them and both waits resolve as cascades of rank 1's
    // failure — the primary cause — rather than as a deadlock.
    for m in machines(3) {
        let started = Instant::now();
        let mf = m
            .try_run(|rank| {
                let world = rank.world();
                rank.set_phase("fact");
                if rank.id() == 1 {
                    rank.fail(FailKind::Solver {
                        phase: "fact".to_string(),
                        supernode: Some(0),
                        level: None,
                        detail: "planted".to_string(),
                    });
                }
                let _ = rank.recv(&world, 1, 12);
            })
            .expect_err("rank 1's failure must fail the run");
        assert!(started.elapsed() < VERDICT_WITHIN, "{}", mf.render());
        assert_eq!(mf.primary().rank, 1, "{}", mf.render());
        assert_eq!(mf.failures.len(), 3, "{}", mf.render());
        for f in mf.failures.iter().filter(|f| f.rank != 1) {
            assert!(
                matches!(
                    &f.kind,
                    FailKind::Recv(RecvError::PeerFailed {
                        origin: 1,
                        src: 1,
                        ctx: 0,
                        tag: 12
                    })
                ),
                "rank {}: {}",
                f.rank,
                f.kind
            );
        }
    }
}

#[test]
fn seeded_leak_is_reported_with_src_dst_slot() {
    // Rank 0 sends two messages; rank 1 receives only one. No opt-in: a
    // plain machine fails the run, naming the unmatched send with full
    // addressing detail, the same way under both backends.
    for backend in [Backend::Threaded, Backend::Event] {
        let m = Machine::new(2, TimeModel::zero()).with_backend(backend);
        let mf = m
            .try_run(|rank| {
                let world = rank.world();
                rank.set_phase("fact");
                if rank.id() == 0 {
                    rank.send(&world, 1, 7, Payload::F64s(vec![1.0, 2.0]));
                    rank.send(&world, 1, 8, Payload::F64s(vec![3.0; 5])); // leaked
                } else {
                    let _ = rank.recv(&world, 0, 7);
                }
            })
            .expect_err("an unreceived message must fail the run");
        assert_eq!(mf.failures.len(), 1, "{backend}: {}", mf.render());
        let leaked = UnreceivedMsg {
            src: 0,
            dst: 1,
            ctx: 0,
            tag: 8,
            words: 5,
        };
        match &mf.primary().kind {
            FailKind::Unreceived { msgs } => assert_eq!(msgs, &[leaked], "{backend}"),
            other => panic!("{backend}: expected an unreceived message, got {other}"),
        }
        let rendered = mf.render();
        assert!(
            rendered.contains("1 message(s) sent but never received"),
            "{rendered}"
        );
        assert!(
            rendered.contains("0 -> 1 (ctx=0, tag=8 [p2p:?|0x8], 5 words)"),
            "{rendered}"
        );
    }
}

#[test]
fn clean_collective_run_receives_everything() {
    // A representative mix of collectives and point-to-point: everything
    // matches, so the run succeeds — a message left over would fail it.
    let m = Machine::new(4, TimeModel::edison_like());
    let out = m.run(|rank| {
        let world = rank.world();
        rank.set_phase("fact");
        let data = if rank.id() == 0 {
            Some(Payload::F64s(vec![3.5; 8]))
        } else {
            None
        };
        let b = rank.bcast(&world, 0, data, 2).into_f64s();
        rank.set_phase("reduce");
        let sum = rank.reduce_sum(&world, 0, vec![b[0]], 4).map(Payload::F64s);
        let s = rank.bcast(&world, 0, sum, 4).into_f64s()[0];
        rank.barrier(&world, 6);
        s
    });
    for r in &out.results {
        assert_eq!(*r, 14.0);
    }
    let sent: u64 = out.reports.iter().map(|r| r.commvol.sent_msgs()).sum();
    let received: u64 = out.reports.iter().map(|r| r.commvol.recv_msgs()).sum();
    assert_eq!(sent, received);
    assert!(sent > 0);
}
