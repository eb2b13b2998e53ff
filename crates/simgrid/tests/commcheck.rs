//! Seeded-defect tests for the checks every run carries: a planted deadlock
//! and a planted unreceived message must each be detected and reported with
//! the exact ranks, phase, and (ctx, tag) — under both backends.

use simgrid::{Backend, FailKind, FaultPlan, Machine, Payload, TimeModel, UnreceivedMsg};
use std::panic::AssertUnwindSafe;

/// Run `f` expecting a rank panic; return the panic message.
fn panic_message<T: std::fmt::Debug + Send + 'static>(
    m: Machine,
    f: impl Fn(&mut simgrid::Rank) -> T + Send + Sync + 'static,
) -> String {
    let err = std::panic::catch_unwind(AssertUnwindSafe(|| m.run(f))).expect_err("run must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload must be a string")
}

/// A machine per backend, each with its deadlock detection live the way
/// production arms it: the threaded watchdog runs when a fault plan is
/// installed (here one with no rules), the event scheduler proves
/// quiescence on its own.
fn machines(n: usize) -> [Machine; 2] {
    let m = Machine::new(n, TimeModel::zero());
    [
        m.clone().with_fault_plan(FaultPlan::default()),
        m.with_backend(Backend::Event),
    ]
}

#[test]
fn seeded_deadlock_is_reported_with_the_cycle() {
    // Classic A<->B cross receive: each rank waits for the other's message
    // before sending its own. The detector must name both ranks, what each
    // waits on, and the phase — long before the timeout backstop.
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
    }
}

#[test]
fn deadlock_on_a_finished_rank_is_detected() {
    // Rank 1 exits without ever sending; rank 0 waits forever on it. Not a
    // cycle, but just as hopeless — the wait-for graph treats Done ranks as
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
        let s = rank.allreduce_sum(&world, vec![b[0]], 4)[0];
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
