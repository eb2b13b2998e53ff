//! Regression tests for collective tag-namespace collisions: adjacent
//! collectives whose base tags differ by a small integer (or by the XOR
//! constants the old scheme used) must pair up correctly: a mispaired
//! message is left unreceived, which fails the run. Under the pre-fix tag
//! derivation (`tag + round` for barrier rounds, `tag ^ 0x5555` /
//! `tag ^ 0x3333` for the broadcast half of an allreduce) these patterns
//! could alias a sibling collective's messages.

use simgrid::{Machine, Payload, TimeModel};

/// Two barriers back to back with consecutive base tags: round `r` of the
/// first barrier used to carry tag `base + r`, exactly the round-0 tag of
/// the second. With the round counter in its own bit field the two
/// barriers are fully disjoint; the run succeeding shows every message
/// was received, and the ledgers that each was received once.
#[test]
fn adjacent_barriers_with_consecutive_tags() {
    for p in [2usize, 4, 7, 8] {
        let m = Machine::new(p, TimeModel::zero());
        let out = m.run(|rank| {
            let world = rank.world();
            rank.set_phase("fact");
            rank.barrier(&world, 7);
            rank.barrier(&world, 8);
            rank.barrier(&world, 9);
            rank.clock()
        });
        let sent: u64 = out.reports.iter().map(|r| r.commvol.sent_msgs()).sum();
        let received: u64 = out.reports.iter().map(|r| r.commvol.recv_msgs()).sum();
        assert_eq!(sent, received, "p={p}");
    }
}

/// A reduction followed by a broadcast of its result on the XOR image of
/// its tag (`0x5554 ^ 0x5555 == 1`, the old allreduce scheme), then by
/// collectives on the neighbouring tags — the alias pattern of the old
/// scheme. All results must be exact and the exchange complete.
#[test]
fn adjacent_reductions_with_xor_aliasing_tags() {
    let p = 4usize;
    let m = Machine::new(p, TimeModel::zero());
    let out = m.run(move |rank| {
        let world = rank.world();
        rank.set_phase("fact");
        let me = rank.id() as f64;
        let mut all_reduce = |v: f64, tag: u64| {
            let sum = rank.reduce_sum(&world, 0, vec![v], tag).map(Payload::F64s);
            rank.bcast(&world, 0, sum, tag ^ 0x5555).into_f64s()[0]
        };
        let a = all_reduce(me, 0x5554);
        let b = all_reduce(me * 10.0, 0x5555);
        let c = all_reduce(me + 100.0, 0x3333);
        (a, b, c)
    });
    let expect_sum: f64 = (0..p).map(|r| r as f64).sum();
    for (rid, &(a, b, c)) in out.results.iter().enumerate() {
        assert_eq!(a, expect_sum, "rank {rid}");
        assert_eq!(b, expect_sum * 10.0, "rank {rid}");
        assert_eq!(c, expect_sum + 100.0 * p as f64, "rank {rid}");
    }
}

/// Mixing every collective flavour on the same communicator with clustered
/// base tags: each phase owns a disjoint sub-namespace, so the interleaving
/// pairs exactly and the clocks agree at the end.
#[test]
fn mixed_collectives_with_clustered_tags() {
    let p = 8usize;
    let m = Machine::new(p, TimeModel::zero());
    let out = m.run(move |rank| {
        let world = rank.world();
        rank.set_phase("fact");
        let me = rank.id() as f64;
        let red = rank.reduce_sum(&world, 0, vec![me], 40);
        rank.barrier(&world, 41);
        let evens: Vec<usize> = (0..p).step_by(2).collect();
        let among = (rank.id() % 2 == 0)
            .then(|| rank.reduce_sum_among(&world, &evens, 2, vec![me], 42))
            .flatten();
        let b = rank.bcast(
            &world,
            3,
            (rank.id() == 3).then(|| Payload::F64s(vec![me])),
            43,
        );
        rank.barrier(&world, 44);
        (red.map(|v| v[0]), among.map(|v| v[0]), b.into_f64s()[0])
    });
    let expect_sum: f64 = (0..p).map(|r| r as f64).sum();
    let expect_evens: f64 = (0..p).step_by(2).map(|r| r as f64).sum();
    for (rid, &(red, among, b)) in out.results.iter().enumerate() {
        assert_eq!(red, (rid == 0).then_some(expect_sum), "rank {rid}");
        assert_eq!(among, (rid == 2).then_some(expect_evens), "rank {rid}");
        assert_eq!(b, 3.0, "rank {rid}");
    }
}
