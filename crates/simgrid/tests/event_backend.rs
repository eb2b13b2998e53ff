//! The discrete-event backend at the messaging layer: identical simulated
//! behavior to the threaded backend, scheduler-state deadlock detection
//! instead of the watchdog thread, and rank counts far beyond what
//! free-running threads could sensibly run.

use simgrid::{Backend, FailKind, Machine, Payload, TimeModel};

fn machine(n: usize, backend: Backend) -> Machine {
    Machine::new(n, TimeModel::edison_like()).with_backend(backend)
}

#[test]
fn ring_exchange_matches_threaded_bitwise() {
    let run = |backend| {
        machine(16, backend).run(|rank| {
            let world = rank.world();
            let right = (rank.id() + 1) % 16;
            let left = (rank.id() + 15) % 16;
            rank.send(
                &world,
                right,
                1,
                Payload::F64s(vec![rank.id() as f64 * 0.1]),
            );
            let got = rank.recv(&world, left, 1).into_f64s()[0];
            rank.allreduce_sum(&world, vec![got], 2)[0]
        })
    };
    let t = run(Backend::Threaded);
    let e = run(Backend::Event);
    for (a, b) in t.results.iter().zip(&e.results) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // Simulated clocks and traffic are the same machine-level ledger.
    for (rt, re) in t.reports.iter().zip(&e.reports) {
        assert_eq!(rt.clock.to_bits(), re.clock.to_bits());
        assert_eq!(rt.total_sent_msgs(), re.total_sent_msgs());
    }
}

#[test]
fn collectives_run_under_the_scheduler() {
    let out = machine(8, Backend::Event).run(|rank| {
        let world = rank.world();
        rank.barrier(&world, 0);
        if rank.id() == 1 {
            rank.send(&world, 0, 7, Payload::Idx(vec![rank.id()]));
        }
        let got = if rank.id() == 0 {
            rank.recv(&world, 1, 7).into_idx()[0]
        } else {
            0
        };
        let s = rank.allreduce_sum(&world, vec![got as f64], 9)[0];
        rank.bcast(
            &world,
            3,
            (rank.id() == 3).then(|| Payload::F64s(vec![s])),
            11,
        )
        .into_f64s()[0]
    });
    for r in &out.results {
        assert_eq!(*r, 1.0);
    }
}

#[test]
fn quiescence_is_reported_as_a_deadlock_with_the_exact_cycle() {
    // Cross-receive cycle, no fault plan: the threaded backend would only
    // trip the wall-clock backstop here (no detector thread), but the event
    // scheduler *proves* quiescence and publishes the cycle immediately.
    let err = machine(2, Backend::Event)
        .try_run(|rank| {
            let world = rank.world();
            let peer = 1 - rank.id();
            let _ = rank.recv(&world, peer, 5);
        })
        .expect_err("cross recv must deadlock");
    let text = err.render();
    assert!(text.contains("deadlock detected"), "{text}");
    assert!(text.contains("tag=5"), "{text}");
}

#[test]
fn waits_on_a_dead_peer_resolve_as_cascades() {
    // Rank 1 panics; rank 0 blocks on it forever. The scheduler must wake
    // rank 0 and resolve the wait as a cascade of rank 1's failure, with
    // the panic as the primary cause.
    let err = machine(2, Backend::Event)
        .try_run(|rank| {
            let world = rank.world();
            if rank.id() == 1 {
                panic!("boom");
            }
            let _ = rank.recv(&world, 1, 3);
        })
        .expect_err("rank 1's panic must fail the run");
    let primary = &err.failures[0];
    assert_eq!(primary.rank, 1);
    assert!(matches!(&primary.kind, FailKind::Panic { message } if message == "boom"));
}

#[test]
fn event_backend_runs_4096_ranks() {
    // Paper-scale rank count in one process: a 4096-rank ring with a
    // final allreduce. Free-running threads would thrash; cooperative
    // tasks just take turns.
    const P: usize = 4096;
    let out = machine(P, Backend::Event).run(|rank| {
        let world = rank.world();
        let right = (rank.id() + 1) % P;
        let left = (rank.id() + P - 1) % P;
        rank.send(&world, right, 1, Payload::Idx(vec![rank.id()]));
        let got = rank.recv(&world, left, 1).into_idx()[0];
        rank.allreduce_sum(&world, vec![got as f64], 2)[0]
    });
    let expected = (P * (P - 1) / 2) as f64;
    assert!(out.results.iter().all(|&s| s == expected));
}

#[test]
fn host_profiling_under_the_event_backend_charges_only_baton_time() {
    // Rank 1 parks until rank 0 has spun for a while. Its profile must not
    // book the parked wall anywhere: phases sum to its wall, and the two
    // walls together fit inside the machine's.
    let spin = std::time::Duration::from_millis(30);
    let started = std::time::Instant::now();
    let out = machine(2, Backend::Event)
        .with_host_profiling()
        .run(move |rank| {
            let world = rank.world();
            if rank.id() == 0 {
                let t0 = std::time::Instant::now();
                while t0.elapsed() < spin {
                    std::hint::spin_loop();
                }
                rank.send(&world, 1, 1, Payload::Empty);
            } else {
                rank.recv(&world, 0, 1);
            }
        });
    let machine_wall = started.elapsed().as_secs_f64();
    let walls: Vec<f64> = out.reports.iter().map(|r| r.wall_secs).collect();
    assert!(walls[0] >= spin.as_secs_f64(), "rank 0 ran {walls:?}");
    assert!(
        walls[1] < spin.as_secs_f64() / 2.0,
        "rank 1 was parked while rank 0 spun, yet reports {walls:?}"
    );
    assert!(walls.iter().sum::<f64>() <= machine_wall, "{walls:?}");
    for r in &out.reports {
        let hp = r.hostprof.as_ref().expect("profiled run");
        assert_eq!(hp.wall_secs, r.wall_secs);
        assert!(
            (hp.attributed_secs() - hp.wall_secs).abs() < 1e-6,
            "phases {} vs wall {}",
            hp.attributed_secs(),
            hp.wall_secs
        );
        assert!(hp.phase_secs(simgrid::HostPhase::CommWait) <= hp.wall_secs);
    }
}

#[test]
fn a_thousand_out_of_order_messages_are_matched_oldest_first_per_key() {
    // Rank 0 sends 1200 messages over 300 tags (four per tag, numbered) and
    // then the one rank 1 is parked on. Rank 1 finds all 1200 unexpected,
    // then receives them tag-descending: each receive must take the oldest
    // message of its own key.
    const TAGS: u64 = 300;
    const PER_TAG: usize = 4;
    let out = machine(2, Backend::Event).run(|rank| {
        let world = rank.world();
        if rank.id() == 0 {
            for seq in 0..PER_TAG {
                for tag in 0..TAGS {
                    rank.send(&world, 1, tag, Payload::Idx(vec![tag as usize, seq]));
                }
            }
            rank.send(&world, 1, TAGS, Payload::Empty);
            0
        } else {
            rank.recv(&world, 0, TAGS);
            let mut matched = 0;
            for tag in (0..TAGS).rev() {
                for seq in 0..PER_TAG {
                    assert_eq!(
                        rank.recv(&world, 0, tag).into_idx(),
                        vec![tag as usize, seq]
                    );
                    matched += 1;
                }
            }
            matched
        }
    });
    assert_eq!(out.results[1], TAGS as usize * PER_TAG);
}

#[test]
fn a_rank_parked_on_one_tag_is_not_resumed_by_sends_of_another() {
    // Rank 1 parks on tag 99 (rank 0 waits for its go-ahead first, so the
    // park is certain to precede the sends), then rank 0 sends it
    // `mismatched` messages on other tags followed by the one it waits for.
    // Matched wakeups: the mismatched sends are counted, cost no scheduler
    // step, and stay buffered in order for the receives that want them.
    let run = |mismatched: u64| {
        let out = machine(2, Backend::Event).run(move |rank| {
            let world = rank.world();
            if rank.id() == 0 {
                rank.recv(&world, 1, 1000);
                for i in 0..mismatched {
                    rank.send(&world, 1, i, Payload::Idx(vec![i as usize]));
                }
                rank.send(&world, 1, 99, Payload::Idx(vec![7]));
                0
            } else {
                rank.send(&world, 0, 1000, Payload::Idx(vec![]));
                let got = rank.recv(&world, 0, 99).into_idx()[0];
                for i in 0..mismatched {
                    assert_eq!(rank.recv(&world, 0, i).into_idx()[0], i as usize);
                }
                got
            }
        });
        assert_eq!(out.results[1], 7);
        out.sched.expect("event runs report scheduler counters")
    };
    let (none, many) = (run(0), run(64));
    assert_eq!(none.unmatched_sends, 0);
    assert_eq!(many.unmatched_sends, 64);
    // Two first slices, rank 0 resumed by the go-ahead, rank 1 by tag 99.
    assert_eq!((none.steps, none.wakeups), (4, 2));
    assert_eq!((many.steps, many.wakeups), (4, 2));
    assert_eq!(many.quiescence_resolutions, 0);
    // Deterministic, and absent where the kernel schedules.
    assert_eq!(run(64), many);
    assert!(machine(2, Backend::Threaded).run(|_| ()).sched.is_none());
}

#[test]
fn a_panicking_rank_passes_the_baton_to_the_ranks_it_strands() {
    // Ranks 1..8 park on rank 0 (rank 0 waits for the last of them first),
    // then rank 0 panics. Its unwind must hand the baton on: the machine
    // goes quiescent with a failure on the board, every stranded wait
    // resolves as a cascade, and the run ends with the panic as primary.
    let err = machine(8, Backend::Event)
        .try_run(|rank| {
            let world = rank.world();
            if rank.id() == 0 {
                rank.recv(&world, 7, 1);
                panic!("boom");
            }
            if rank.id() == 7 {
                rank.send(&world, 0, 1, Payload::Idx(vec![]));
            }
            let _ = rank.recv(&world, 0, 5);
        })
        .expect_err("rank 0's panic must fail the run");
    let primary = err.primary();
    assert_eq!(primary.rank, 0);
    assert!(matches!(&primary.kind, FailKind::Panic { message } if message == "boom"));
    assert_eq!(err.failures.len(), 8, "{}", err.render());
    for f in err.failures.iter().filter(|f| f.rank != 0) {
        assert!(f.is_cascade(), "rank {}: {}", f.rank, f.kind);
    }
}

#[test]
fn a_three_rank_cycle_is_named_exactly() {
    // 0 -> 1 -> 2 -> 0 wait on each other; rank 3 finishes normally and
    // must not appear in the verdict.
    let err = machine(4, Backend::Event)
        .try_run(|rank| {
            let world = rank.world();
            if rank.id() < 3 {
                let _ = rank.recv(&world, (rank.id() + 1) % 3, 40 + rank.id() as u64);
            }
        })
        .expect_err("a wait cycle must deadlock");
    let text = err.render();
    assert!(text.contains("deadlock detected: 3 rank(s)"), "{text}");
    for r in 0..3 {
        assert!(
            text.contains(&format!("rank {r} blocked in recv")),
            "{text}"
        );
        assert!(text.contains(&format!("tag={}", 40 + r)), "{text}");
    }
    assert!(!text.contains("rank 3 blocked"), "{text}");
}

#[test]
fn rank_blocked_on_a_never_sent_tag_terminates_with_a_deadlock_report() {
    // Nobody ever sends tag 1234: once rank 0 finishes, the machine is
    // quiescent with rank 1 parked. The scheduler must prove the deadlock
    // and abort the wait — not leave rank 1 spin-waking indefinitely.
    let err = machine(2, Backend::Event)
        .try_run(|rank| {
            let world = rank.world();
            if rank.id() == 1 {
                let _ = rank.recv(&world, 0, 1234);
            }
        })
        .expect_err("a wait nobody satisfies must fail the run");
    let primary = err.primary();
    assert_eq!(primary.rank, 1);
    let text = err.render();
    assert!(text.contains("tag=1234"), "{text}");
}
