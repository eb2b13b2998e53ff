//! Rank programs as tasks: where they run, and that a program written as
//! blocking closures and as async tasks is one program on both backends —
//! the same reports, ledgers and failure texts.

use simgrid::{Backend, FaultPlan, Machine, MachineFailure, Payload, RankReport, TimeModel};
use std::collections::HashSet;
use std::thread::{self, ThreadId};

const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::Event];

#[test]
fn event_tasks_run_on_the_caller_and_threaded_tasks_on_their_own_threads() {
    const P: usize = 64;
    let me = thread::current().id();
    for backend in BACKENDS {
        let out = Machine::new(P, TimeModel::zero())
            .with_backend(backend)
            .run_tasks(async |rank| {
                // A receive in the middle: the rank is polled again after it.
                let world = rank.world();
                let (right, left) = ((rank.id() + 1) % P, (rank.id() + P - 1) % P);
                rank.send(&world, right, 1, Payload::Empty);
                rank.recv(&world, left, 1).await;
                thread::current().id()
            });
        let ids: HashSet<ThreadId> = out.results.iter().copied().collect();
        match backend {
            Backend::Event => assert_eq!(ids, HashSet::from([me]), "every task on the caller"),
            Backend::Threaded => {
                assert_eq!(ids.len(), P, "one thread per rank");
                assert!(!ids.contains(&me), "no task on the caller");
            }
        }
    }
}

/// One rank program, written once: `$rank` is the rank, and `$($aw)*` is
/// what follows every wait — nothing for a blocking closure, `.await` for a
/// task. Eight ranks: a ring, a roster broadcast and reduction, a barrier.
macro_rules! program {
    ($rank:ident $($aw:tt)*) => {{
        let world = $rank.world();
        let (me, p) = ($rank.id(), $rank.size());
        $rank.set_phase("ring");
        $rank.send(&world, (me + 1) % p, 1, Payload::F64s(vec![me as f64; 3]));
        let got = $rank.recv_f64s(&world, (me + p - 1) % p, 1) $($aw)*;
        $rank.advance_compute(1000 * (me as u64 + 1));
        let roster = [0, 2, 3, 5, 6];
        let mut out = got[0];
        if roster.contains(&me) {
            $rank.set_phase("roster");
            let data = (me == 3).then(|| Payload::F64s(vec![1.5, 2.5]));
            let b = $rank.bcast_among(&world, &roster, 3, data, 2) $($aw)*.into_f64s();
            let r = $rank.reduce_sum_among(&world, &roster, 5, vec![b[0] * me as f64], 3) $($aw)*;
            out += b[1] + r.map_or(0.0, |v| v[0]);
        }
        $rank.barrier(&world, 4) $($aw)*;
        out
    }};
}

/// A machine with a receive deadline no wait reaches and a recovered drop
/// plan that drops some of the program's messages.
fn faulted(backend: Backend) -> Machine {
    let plan = FaultPlan::parse("drop:p=0.2", 11).expect("a valid plan");
    Machine::new(8, TimeModel::edison_like())
        .with_backend(backend)
        .with_fault_plan(plan)
        .with_recovery()
        .with_recv_deadline(1.0)
}

/// Everything a report says but the host's wall.
fn ledger(reports: Vec<RankReport>) -> Vec<String> {
    let strip = |r: RankReport| {
        let r = RankReport {
            wall_secs: 0.0,
            ..r
        };
        format!("{r:?}")
    };
    reports.into_iter().map(strip).collect()
}

#[test]
fn blocking_closures_and_tasks_are_one_program_on_both_backends() {
    let mut runs = Vec::new();
    for backend in BACKENDS {
        let blocking = faulted(backend).run(|rank| program!(rank));
        let tasks = faulted(backend).run_tasks(async |rank| program!(rank.await));
        for (how, out) in [("blocking", blocking), ("tasks", tasks)] {
            let bits: Vec<u64> = out.results.iter().map(|v| v.to_bits()).collect();
            runs.push((format!("{how} {backend}"), bits, ledger(out.reports)));
        }
    }
    let (_, bits, ledgers) = &runs[0];
    let drops: u64 = ledgers
        .iter()
        .filter(|l| l.contains("fault.injected.drop"))
        .count() as u64;
    assert!(drops > 0, "the plan drops some messages");
    for (ctx, b, l) in &runs[1..] {
        assert_eq!(b, bits, "{ctx}: results");
        assert_eq!(l, ledgers, "{ctx}: reports and ledgers");
    }
}

/// The failure of a program run as blocking closures and as tasks, on both
/// backends, must read the same: word for word under the one slot, whose
/// order is the programs'. With a slot per rank the host decides which of
/// two failing ranks records first, so there `same` picks what must agree.
fn assert_one_failure(
    blocking: impl Fn(Machine) -> MachineFailure,
    tasks: impl Fn(Machine) -> MachineFailure,
    says: &str,
    same: impl Fn(&str) -> String,
) {
    let mut texts = Vec::new();
    for backend in BACKENDS {
        let m = || Machine::new(3, TimeModel::zero()).with_backend(backend);
        let pair = [blocking(m()).render(), tasks(m()).render()];
        if backend == Backend::Event {
            assert_eq!(pair[0], pair[1], "blocking vs tasks under the one slot");
        }
        texts.extend(pair.map(|t| (backend, t)));
    }
    let first = same(&texts[0].1);
    assert!(first.contains(says), "{first}");
    for (backend, text) in &texts {
        assert_eq!(same(text), first, "{backend}");
    }
}

/// The lines of a failure text, in order: which rank it names first, and
/// the order of the cascades, are the host's under the threaded backend.
fn lines(text: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines.join("\n")
}

#[test]
fn a_deadlock_is_one_report_however_the_ranks_run() {
    // Ranks 0 and 1 wait on each other; rank 2 returns.
    macro_rules! stuck {
        ($rank:ident $($aw:tt)*) => {{
            let world = $rank.world();
            $rank.set_phase("fact");
            if $rank.id() < 2 {
                let peer = 1 - $rank.id();
                $rank.recv(&world, peer, 7) $($aw)*;
            }
        }};
    }
    // The deadlock report itself, which names both ranks whoever records it.
    let report = |text: &str| {
        let from = &text[text.find("deadlock detected").expect(text)..];
        from.split("\n\n").next().unwrap_or(from).to_string()
    };
    assert_one_failure(
        |m| m.try_run(|rank| stuck!(rank)).unwrap_err(),
        |m| {
            m.try_run_tasks(async |rank| stuck!(rank.await))
                .unwrap_err()
        },
        "deadlock detected: 2 rank(s)",
        report,
    );
}

#[test]
fn an_unreceived_message_is_one_report_however_the_ranks_run() {
    macro_rules! extra {
        ($rank:ident $($aw:tt)*) => {{
            let world = $rank.world();
            match $rank.id() {
                0 => {
                    $rank.send(&world, 2, 5, Payload::F64s(vec![1.0]));
                    $rank.send(&world, 2, 6, Payload::F64s(vec![2.0; 4]));
                }
                2 => {
                    $rank.recv(&world, 0, 5) $($aw)*;
                }
                _ => {}
            }
        }};
    }
    assert_one_failure(
        |m| m.try_run(|rank| extra!(rank)).unwrap_err(),
        |m| {
            m.try_run_tasks(async |rank| extra!(rank.await))
                .unwrap_err()
        },
        "sent but never received",
        str::to_string,
    );
}

#[test]
fn a_panicking_rank_is_one_report_however_the_ranks_run() {
    // Rank 1 panics before it sends; the others wait on it and cascade.
    macro_rules! boom {
        ($rank:ident $($aw:tt)*) => {{
            let world = $rank.world();
            if $rank.id() == 1 {
                panic!("rank one gives up");
            }
            $rank.recv(&world, 1, 3) $($aw)*;
        }};
    }
    assert_one_failure(
        |m| m.try_run(|rank| boom!(rank)).unwrap_err(),
        |m| m.try_run_tasks(async |rank| boom!(rank.await)).unwrap_err(),
        "simulated rank 1 panicked: rank one gives up",
        lines,
    );
}
