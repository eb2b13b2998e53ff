//! Chaos tests for the fault-injection layer: seeded delay/dup/drop plans
//! crossed with recovery on/off. The contract
//! under test is the faultlab determinism guarantee — the injected
//! schedule is a pure function of the plan seed and each message's
//! protocol identity, never of thread interleaving — plus the recovery
//! guarantee that faults with retransmission change clocks, never values.

use simgrid::{
    Backend, EdgeFilter, FailKind, FaultAction, FaultPlan, FaultRule, LinkRule, Machine, Payload,
    RankReport, RecvError, StallRule, TimeModel, UnreceivedMsg,
};
use std::cell::RefCell;
use std::sync::mpsc::{channel, Sender};
use std::sync::Mutex;

/// A plan with one rule on the given edge.
fn plan_with(seed: u64, edge: EdgeFilter, action: FaultAction) -> FaultPlan {
    FaultPlan {
        seed,
        rules: vec![FaultRule { edge, action }],
        ..Default::default()
    }
}

fn edge_0_to_1() -> EdgeFilter {
    EdgeFilter {
        src: Some(0),
        dst: Some(1),
        ..EdgeFilter::any()
    }
}

/// Ping messages 0 -> 1; rank 1 returns the received values and its final
/// clock, rank 0 its final clock. The workload every plan below perturbs.
type PerRankPayloads = Vec<Vec<Vec<f64>>>;

fn ping_run(m: Machine, nmsgs: usize) -> (PerRankPayloads, Vec<f64>, simgrid::MetricsRegistry) {
    let out = m.run(move |rank| {
        let world = rank.world();
        rank.set_phase("fact");
        let mut got = Vec::new();
        if rank.id() == 0 {
            for i in 0..nmsgs {
                rank.send(
                    &world,
                    1,
                    i as u64,
                    Payload::F64s(vec![i as f64, 2.5 * i as f64]),
                );
            }
        } else {
            for i in 0..nmsgs {
                got.push(rank.recv_f64s(&world, 0, i as u64));
            }
        }
        got
    });
    let clocks = out.reports.iter().map(|r| r.clock).collect();
    let mut metrics = simgrid::MetricsRegistry::default();
    for r in &out.reports {
        metrics.merge(&r.metrics);
    }
    (out.results, clocks, metrics)
}

#[test]
fn same_seed_same_schedule() {
    // The full chaos cocktail, run twice with the same seed: payloads,
    // simulated clocks, and every injection counter must be identical —
    // the OS scheduler has no vote.
    let chaos = || {
        let plan = FaultPlan {
            seed: 42,
            rules: vec![
                FaultRule {
                    edge: EdgeFilter::any(),
                    action: FaultAction::Drop { p: 0.3 },
                },
                FaultRule {
                    edge: EdgeFilter::any(),
                    action: FaultAction::Dup { p: 0.2 },
                },
                FaultRule {
                    edge: EdgeFilter::any(),
                    action: FaultAction::Delay { p: 0.4, secs: 1e-3 },
                },
            ],
            stalls: vec![StallRule {
                rank: 0,
                at: 0.0,
                secs: 5e-4,
            }],
            links: vec![LinkRule {
                edge: EdgeFilter::any(),
                factor: 3.0,
            }],
        };
        let m = Machine::new(2, TimeModel::edison_like())
            .with_fault_plan(plan)
            .with_recovery();
        ping_run(m, 64)
    };
    let (vals_a, clocks_a, metrics_a) = chaos();
    let (vals_b, clocks_b, metrics_b) = chaos();
    assert_eq!(vals_a, vals_b);
    assert_eq!(clocks_a, clocks_b);
    assert_eq!(metrics_a.counters, metrics_b.counters);
    // ... and the cocktail actually injected something.
    assert!(metrics_a.counter("fault.injected.drop") > 0);
    assert!(metrics_a.counter("fault.injected.dup") > 0);
    assert!(metrics_a.counter("fault.injected.delay") > 0);
}

#[test]
fn different_seed_different_schedule() {
    let run = |seed| {
        let plan = plan_with(seed, EdgeFilter::any(), FaultAction::Drop { p: 0.5 });
        let m = Machine::new(2, TimeModel::zero())
            .with_fault_plan(plan)
            .with_recovery();
        ping_run(m, 64).2
    };
    let a = run(1).counter("fault.injected.drop");
    let b = run(2).counter("fault.injected.drop");
    // With p=0.5 over 64 messages two seeds agreeing exactly is ~1/8
    // (birthday over the binomial); three distinct seeds all colliding is
    // negligible, so accept any one differing.
    let c = run(3).counter("fault.injected.drop");
    assert!(a != b || b != c, "seeds 1,2,3 all injected {a} drops");
}

#[test]
fn recovered_drops_deliver_the_exact_payloads() {
    // Every message on the edge is dropped at least once (p=1 re-rolls per
    // attempt, so the retry budget's last attempt gets through). Payloads
    // must come out identical to the fault-free run, with nothing left
    // unreceived (which would fail the run).
    let plan = plan_with(7, edge_0_to_1(), FaultAction::Drop { p: 1.0 });
    let m = Machine::new(2, TimeModel::edison_like())
        .with_fault_plan(plan)
        .with_recovery();
    let (vals, clocks, metrics) = ping_run(m, 8);
    let clean = Machine::new(2, TimeModel::edison_like());
    let (vals_clean, clocks_clean, _) = ping_run(clean, 8);
    assert_eq!(vals, vals_clean, "recovery must not change payloads");
    // p=1.0 drops every attempt the plan is allowed to: 4 retransmissions
    // per message with the default 5-attempt budget.
    assert_eq!(metrics.counter("fault.injected.drop"), 32);
    assert_eq!(metrics.counter("fault.recovered.retransmit"), 32);
    // The retry waits are real simulated time: clocks must have shifted.
    assert!(
        clocks[1] > clocks_clean[1],
        "{clocks:?} vs {clocks_clean:?}"
    );
}

#[test]
fn unrecovered_drop_is_a_deadlock_naming_the_edge() {
    // Recovery off: the dropped message is simply lost. The receiver can
    // never match, the machine's quiescence proof must abort the run, and
    // the failure must name the edge.
    let plan = plan_with(5, edge_0_to_1(), FaultAction::Drop { p: 1.0 });
    let m = Machine::new(2, TimeModel::zero()).with_fault_plan(plan);
    let mf = m
        .try_run(|rank| {
            let world = rank.world();
            rank.set_phase("reduce");
            if rank.id() == 0 {
                rank.send(&world, 1, 33, Payload::F64s(vec![1.0]));
            } else {
                let _ = rank.recv(&world, 0, 33);
            }
        })
        .expect_err("the drop must be fatal without recovery");
    let primary = mf.primary();
    assert_eq!(primary.rank, 1);
    assert!(
        matches!(primary.kind, FailKind::Recv(RecvError::Deadlock { .. })),
        "{:?}",
        primary.kind
    );
    let rendered = mf.render();
    assert!(
        rendered.contains("simulated rank 1 panicked:"),
        "{rendered}"
    );
    assert!(rendered.contains("deadlock detected"), "{rendered}");
    assert!(
        rendered.contains("(ctx=0, src=0, tag=33, phase=reduce)"),
        "{rendered}"
    );
}

#[test]
fn unrecovered_dup_is_an_unreceived_message() {
    // Without recovery a duplicate is a real protocol-level extra message:
    // the receiver matches one copy, the other is still queued when every
    // rank has returned — the run fails naming the edge, whether the copy
    // was sent before or after the receiver returned.
    for backend in [Backend::Threaded, Backend::Event] {
        let plan = plan_with(11, edge_0_to_1(), FaultAction::Dup { p: 1.0 });
        let m = Machine::new(2, TimeModel::zero())
            .with_backend(backend)
            .with_fault_plan(plan);
        let mf = m
            .try_run(|rank| {
                let world = rank.world();
                rank.set_phase("fact");
                if rank.id() == 0 {
                    rank.send(&world, 1, 4, Payload::F64s(vec![9.0]));
                } else {
                    let _ = rank.recv(&world, 0, 4);
                }
            })
            .expect_err("the extra copy must fail the run");
        let extra = UnreceivedMsg {
            src: 0,
            dst: 1,
            ctx: 0,
            tag: 4,
            words: 1,
        };
        match &mf.primary().kind {
            FailKind::Unreceived { msgs } => assert_eq!(msgs, &[extra], "{backend}"),
            other => panic!("{backend}: expected an unreceived message, got {other}"),
        }
        let rendered = mf.render();
        assert!(rendered.contains("0 -> 1 (ctx=0, tag=4 ["), "{rendered}");
    }
}

#[test]
fn recovered_dup_is_filtered_before_the_protocol() {
    // With recovery on the duplicate is transport-internal: the sender pays
    // for it, the transport discards it, it is never reported as
    // unreceived, and the next (differently tagged) message is unaffected.
    let plan = plan_with(11, edge_0_to_1(), FaultAction::Dup { p: 1.0 });
    let m = Machine::new(2, TimeModel::zero())
        .with_fault_plan(plan)
        .with_recovery();
    let out = m.run(|rank| {
        let world = rank.world();
        rank.set_phase("fact");
        if rank.id() == 0 {
            rank.send(&world, 1, 4, Payload::F64s(vec![9.0]));
            rank.send(&world, 1, 5, Payload::F64s(vec![10.0]));
        } else {
            let a = rank.recv_f64s(&world, 0, 4);
            let b = rank.recv_f64s(&world, 0, 5);
            assert_eq!(a, vec![9.0]);
            assert_eq!(b, vec![10.0]);
        }
    });
    assert_eq!(
        out.reports[0].commvol.sent_msgs(),
        2,
        "duplicates must not register as protocol sends"
    );
    let mut metrics = simgrid::MetricsRegistry::default();
    for r in &out.reports {
        metrics.merge(&r.metrics);
    }
    assert_eq!(metrics.counter("fault.injected.dup"), 2);
}

/// Ranks 1..4 each send 24 messages to rank 0, which takes them in reverse
/// send order under a recovered dup + delay plan on every edge into rank 0.
/// Returns the merged metrics and every rank's report, host wall taken out.
fn fan_in(backend: Backend) -> (simgrid::MetricsRegistry, Vec<String>) {
    let plan = FaultPlan::parse("dup:p=0.5,dst=0;delay:p=0.3,secs=1e-4,dst=0", 13).unwrap();
    let out = Machine::new(4, TimeModel::edison_like())
        .with_backend(backend)
        .with_fault_plan(plan)
        .with_recovery()
        .run(|rank| {
            let (world, me) = (rank.world(), rank.id());
            for tag in 0..24 {
                if me != 0 {
                    rank.send(&world, 0, tag, Payload::F64s(vec![me as f64]));
                    continue;
                }
                for src in 1..4 {
                    assert_eq!(rank.recv_f64s(&world, src, 23 - tag), [src as f64]);
                }
            }
        });
    let metrics = simgrid::merged_metrics(&out.reports);
    let strip = |r: RankReport| {
        format!(
            "{:?}",
            RankReport {
                wall_secs: 0.0,
                ..r
            }
        )
    };
    (metrics, out.reports.into_iter().map(strip).collect())
}

#[test]
fn recovered_dups_into_one_receiver_are_one_account_on_every_schedule() {
    // The transport discards every recovered duplicate, so no counter or
    // report depends on when the receiver looked.
    let event = fan_in(Backend::Event);
    assert!(event.0.counter("fault.injected.dup") > 0);
    assert!(event.0.counter("fault.injected.delay") > 0);
    for run in 0..6 {
        assert_eq!(fan_in(Backend::Threaded), event, "run {run}");
    }
}

/// Fires when the thread holding it is torn down, after its rank's task
/// has ended on the table.
struct ExitSignal(Sender<()>);

impl Drop for ExitSignal {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

thread_local! {
    static ON_EXIT: RefCell<Option<ExitSignal>> = const { RefCell::new(None) };
}

#[test]
fn sends_to_a_rank_that_already_panicked_fail_nobody() {
    // Rank 0 panics. Once its thread is gone rank 1 sends to it and waits on
    // it; once rank 1's thread is gone rank 2 does the same. The sends are
    // queued like any other: rank 0's panic, then two cascades, everywhere.
    let render = |backend| {
        let links: Vec<_> = (0..2).map(|_| channel()).collect();
        let links: Vec<_> = links.into_iter().map(|(t, r)| (t, Mutex::new(r))).collect();
        let run = Machine::new(3, TimeModel::zero())
            .with_backend(backend)
            .try_run(move |rank| {
                let (world, me) = (rank.world(), rank.id());
                if let Some((gone, _)) = links.get(me) {
                    ON_EXIT.with(|s| *s.borrow_mut() = Some(ExitSignal(gone.clone())));
                }
                if me == 0 {
                    rank.send(&world, 1, 1, Payload::Empty);
                    panic!("boom");
                }
                // Under the event backend this hands the previous rank the
                // slot; then wait until its thread is gone.
                rank.recv(&world, me - 1, 1);
                links[me - 1].1.lock().unwrap().recv().unwrap();
                rank.send(&world, 0, 7, Payload::Empty);
                if me == 1 {
                    rank.send(&world, 2, 1, Payload::Empty);
                }
                rank.recv(&world, 0, 8);
            });
        run.unwrap_err().render()
    };
    let cascade = "aborted while waiting for (ctx=0, src=0, tag=8): \
                   peers terminated after rank 0 failed";
    let expected = format!(
        "simulated rank 0 panicked: boom\n  [cascade] rank 1: {cascade}\n  [cascade] rank 2: {cascade}"
    );
    for backend in [Backend::Threaded, Backend::Threaded, Backend::Event] {
        assert_eq!(render(backend), expected, "{backend}");
    }
}

#[test]
fn delay_shifts_arrival_without_changing_values() {
    let plan = plan_with(3, edge_0_to_1(), FaultAction::Delay { p: 1.0, secs: 7.0 });
    let m = Machine::new(2, TimeModel::zero()).with_fault_plan(plan);
    let (vals, clocks, metrics) = ping_run(m, 1);
    assert_eq!(vals[1], vec![vec![0.0, 0.0]]);
    assert!(
        clocks[1] >= 7.0,
        "receiver clock {} must include the delay",
        clocks[1]
    );
    assert_eq!(metrics.counter("fault.injected.delay"), 1);
}

#[test]
fn stall_window_advances_the_clock() {
    let plan = FaultPlan {
        seed: 1,
        stalls: vec![StallRule {
            rank: 0,
            at: 0.0,
            secs: 9.0,
        }],
        ..Default::default()
    };
    let m = Machine::new(2, TimeModel::zero()).with_fault_plan(plan);
    let (_, clocks, metrics) = ping_run(m, 1);
    assert!(clocks[0] >= 9.0, "stalled sender clock {}", clocks[0]);
    assert!(
        clocks[1] >= 9.0,
        "the receive completes after the stalled send"
    );
    assert_eq!(metrics.counter("fault.injected.stall"), 1);
}

#[test]
fn degraded_link_slows_the_transfer() {
    let model = TimeModel::latency_bound();
    let run = |factor| {
        let plan = FaultPlan {
            seed: 1,
            links: vec![LinkRule {
                edge: edge_0_to_1(),
                factor,
            }],
            ..Default::default()
        };
        let m = Machine::new(2, model).with_fault_plan(plan);
        ping_run(m, 4).1
    };
    let slow = run(10.0);
    let fast = run(1.0);
    assert!(
        slow[1] > fast[1] * 5.0,
        "degraded link must dominate: {slow:?} vs {fast:?}"
    );
    // factor=1.0 must be bit-identical to running with no plan at all.
    let bare = ping_run(Machine::new(2, model), 4).1;
    assert_eq!(fast, bare);
}

#[test]
fn recv_deadline_trips_on_late_arrival() {
    // A 5-second injected delay against a 1-second simulated deadline:
    // the receive must fail with the structured Deadline error, not hang.
    let plan = plan_with(2, edge_0_to_1(), FaultAction::Delay { p: 1.0, secs: 5.0 });
    let m = Machine::new(2, TimeModel::zero())
        .with_fault_plan(plan)
        .with_recv_deadline(1.0);
    let mf = m
        .try_run(|rank| {
            let world = rank.world();
            rank.set_phase("fact");
            if rank.id() == 0 {
                rank.send(&world, 1, 8, Payload::F64s(vec![1.0]));
            } else {
                let _ = rank.recv(&world, 0, 8);
            }
        })
        .expect_err("late arrival must trip the deadline");
    let primary = mf.primary();
    assert_eq!(primary.rank, 1);
    match &primary.kind {
        FailKind::Recv(RecvError::Deadline {
            src,
            tag,
            waited,
            deadline,
            ..
        }) => {
            assert_eq!((*src, *tag), (0, 8));
            assert!(*waited > *deadline, "waited {waited} deadline {deadline}");
        }
        other => panic!("expected Deadline, got {other:?}"),
    }
}

#[test]
fn payload_mismatch_carries_provenance() {
    let m = Machine::new(2, TimeModel::zero());
    let mf = m
        .try_run(|rank| {
            let world = rank.world();
            rank.set_phase("fact");
            if rank.id() == 0 {
                rank.send(&world, 1, 21, Payload::Empty);
            } else {
                let _ = rank.recv_f64s(&world, 0, 21); // wrong kind
            }
        })
        .expect_err("kind mismatch must fail the rank");
    let primary = mf.primary();
    assert_eq!(primary.rank, 1);
    assert_eq!(primary.phase, "fact");
    match &primary.kind {
        FailKind::PayloadMismatch { src, ctx, tag, .. } => {
            assert_eq!((*src, *ctx, *tag), (0, 0, 21));
        }
        other => panic!("expected PayloadMismatch, got {other:?}"),
    }
    // The legacy panic text is preserved for the render path.
    assert!(mf.render().contains("expected F64s"), "{}", mf.render());
}

#[test]
fn cascades_attribute_to_the_original_failure() {
    // Rank 2 dies first (payload mismatch). Ranks 0 and 1 are blocked on
    // messages rank 2 will never send — they must resolve as *cascade*
    // failures, and the machine must attribute the run to rank 2.
    let m = Machine::new(3, TimeModel::zero());
    let mf = m
        .try_run(|rank| {
            let world = rank.world();
            rank.set_phase("fact");
            match rank.id() {
                2 => {
                    // Self-inflicted: receives the wrong payload kind.
                    let w = rank.world();
                    rank.send(&w, 2, 50, Payload::Empty);
                    let _ = rank.recv_f64s(&w, 2, 50);
                }
                _ => {
                    let _ = rank.recv(&world, 2, 60); // never sent
                }
            }
        })
        .expect_err("rank 2's failure must sink the run");
    let primary = mf.primary();
    assert_eq!(primary.rank, 2, "{}", mf.render());
    assert!(matches!(primary.kind, FailKind::PayloadMismatch { .. }));
    let cascades: Vec<_> = mf.failures.iter().filter(|f| f.is_cascade()).collect();
    assert_eq!(cascades.len(), 2, "{}", mf.render());
    for c in cascades {
        assert!(
            matches!(&c.kind, FailKind::Recv(RecvError::PeerFailed { origin, .. }) if *origin == 2),
            "{:?}",
            c.kind
        );
    }
    let rendered = mf.render();
    assert!(
        rendered.contains("simulated rank 2 panicked:"),
        "{rendered}"
    );
    assert!(rendered.contains("[cascade] rank 0:"), "{rendered}");
    assert!(rendered.contains("[cascade] rank 1:"), "{rendered}");
}

#[test]
fn parse_grammar_round_trips_the_readme_example() {
    let plan = FaultPlan::parse(
        "drop:p=0.05,src=0,dst=1;dup:p=0.02;delay:p=0.1,secs=2e-3,tag=33;\
         stall:rank=3,at=0.5,secs=0.25;degrade:factor=4,ctx=7",
        99,
    )
    .expect("spec must parse");
    assert_eq!(plan.seed, 99);
    assert_eq!(plan.rules.len(), 3);
    assert_eq!(plan.stalls.len(), 1);
    assert_eq!(plan.links.len(), 1);
    assert_eq!(
        plan.rules[0],
        FaultRule {
            edge: EdgeFilter {
                src: Some(0),
                dst: Some(1),
                ..EdgeFilter::any()
            },
            action: FaultAction::Drop { p: 0.05 },
        }
    );
    assert!(FaultPlan::parse("drop:p=nope", 0).is_err());
    assert!(FaultPlan::parse("teleport:p=0.1", 0).is_err());
}
