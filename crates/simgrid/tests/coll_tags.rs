//! Regression tests for collective tag-namespace collisions: adjacent
//! collectives whose base tags differ by a small integer (or by the XOR
//! constants the old scheme used) must pair up correctly: a mispaired
//! message is left unreceived, which fails the run. Under the pre-fix tag derivation (`tag + round` for barrier
//! rounds, `tag ^ 0x5555` / `tag ^ 0x3333` for allreduce broadcast halves)
//! these patterns could alias a sibling collective's messages.

use simgrid::{Machine, TimeModel};

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

/// An allreduce whose base tag sits one below the XOR image of its own
/// broadcast half (`0x5554 ^ 0x5555 == 1`), followed by collectives on the
/// neighbouring tags — the alias pattern of the old scheme. All results
/// must be exact and the exchange complete.
#[test]
fn adjacent_allreduces_with_xor_aliasing_tags() {
    let p = 4usize;
    let m = Machine::new(p, TimeModel::zero());
    let out = m.run(move |rank| {
        let world = rank.world();
        rank.set_phase("fact");
        let me = rank.id() as f64;
        // Old scheme: allreduce(0x5554) broadcasts on 0x5554^0x5555 =
        // 0x5555 | COLL, the reduce tag of the very next call.
        let a = rank.allreduce_sum(&world, vec![me], 0x5554);
        let b = rank.allreduce_sum(&world, vec![me * 10.0], 0x5555);
        let c = rank.allreduce_max(&world, me, 0x3332);
        let d = rank.allreduce_max(&world, me + 100.0, 0x3333);
        (a[0], b[0], c, d)
    });
    let expect_sum: f64 = (0..p).map(|r| r as f64).sum();
    for (rid, &(a, b, c, d)) in out.results.iter().enumerate() {
        assert_eq!(a, expect_sum, "rank {rid}");
        assert_eq!(b, expect_sum * 10.0, "rank {rid}");
        assert_eq!(c, (p - 1) as f64, "rank {rid}");
        assert_eq!(d, (p - 1) as f64 + 100.0, "rank {rid}");
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
        let s = rank.allreduce_sum(&world, vec![me], 40)[0];
        rank.barrier(&world, 41);
        let mx = rank.allreduce_max(&world, me, 42);
        let red = rank.reduce_sum(&world, 0, vec![me], 43);
        let g = rank.gather_f64(&world, 0, vec![me], 44);
        rank.barrier(&world, 45);
        (s, mx, red.map(|v| v[0]), g.map(|v| v.len()))
    });
    let expect_sum: f64 = (0..p).map(|r| r as f64).sum();
    for (rid, (s, mx, red, g)) in out.results.iter().enumerate() {
        assert_eq!(*s, expect_sum, "rank {rid}");
        assert_eq!(*mx, (p - 1) as f64, "rank {rid}");
        if rid == 0 {
            assert_eq!(*red, Some(expect_sum));
            assert_eq!(*g, Some(p));
        } else {
            assert_eq!(*red, None);
            assert_eq!(*g, None);
        }
    }
}
