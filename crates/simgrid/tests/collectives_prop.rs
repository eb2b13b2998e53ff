//! Property tests for the simulated machine: collectives must be correct
//! for arbitrary communicator sizes, roots, payload lengths, and machine
//! models, and the point-to-point layer must tolerate adversarial tag/
//! ordering patterns.

use proptest::prelude::*;
use simgrid::coll::bcast_tree;
use simgrid::{Backend, CommClass, Machine, Payload, TimeModel, TrafficSummary};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Broadcast delivers the root's exact payload to every rank, for any
    /// size/root/length, and uses exactly p-1 messages.
    #[test]
    fn bcast_correct_for_any_shape(
        p in 1usize..12,
        root_raw in 0usize..12,
        len in 0usize..200,
        alpha in 0.0f64..1e-3,
    ) {
        let root = root_raw % p;
        let model = TimeModel { alpha, beta: 1e-9, flops_per_sec: 1e9 };
        let m = Machine::new(p, model);
        let out = m.run(move |rank| {
            let world = rank.world();
            let data = (world.local_rank() == root)
                .then(|| Payload::F64s((0..len).map(|i| i as f64 * 0.5).collect()));
            rank.bcast(&world, root, data, 1).into_f64s()
        });
        for r in &out.results {
            prop_assert_eq!(r.len(), len);
            for (i, v) in r.iter().enumerate() {
                prop_assert_eq!(*v, i as f64 * 0.5);
            }
        }
        let total: u64 = out.reports.iter().map(|r| r.commvol.sent_msgs()).sum();
        prop_assert_eq!(total, (p - 1) as u64);
    }

    /// A roster broadcast reaches its members only: each receives the
    /// payload once, from its tree parent over roster positions, in
    /// `|roster| - 1` messages; the rest of the communicator neither sends
    /// nor receives. With the whole communicator as roster the edges are
    /// `bcast_tree(p, root, ·)`, those of `Rank::bcast`. Both backends.
    #[test]
    fn roster_bcast_reaches_exactly_its_members(
        p in 1usize..71,
        root_raw in 0usize..70,
        seed in 0u64..1_000_000,
        whole in 0u8..4,
        event in 0u8..2,
    ) {
        use rand::{Rng, SeedableRng};
        let root = root_raw % p;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let roster: Vec<usize> =
            (0..p).filter(|&r| r == root || whole == 0 || rng.gen_bool(0.4)).collect();
        let backend = if event == 1 { Backend::Event } else { Backend::Threaded };
        let members = roster.clone();
        let out = Machine::new(p, TimeModel::zero()).with_backend(backend).run(move |rank| {
            let world = rank.world();
            let me = world.local_rank();
            members.binary_search(&me).is_ok().then(|| {
                let data = (me == root).then(|| Payload::F64s(vec![root as f64; 3]));
                rank.bcast_among(&world, &members, root, data, 1).into_f64s()
            })
        });
        let total: u64 = out.reports.iter().map(|r| r.commvol.sent_msgs()).sum();
        prop_assert_eq!(total, (roster.len() - 1) as u64);
        let root_at = roster.binary_search(&root).unwrap();
        for (r, (got, report)) in out.results.iter().zip(&out.reports).enumerate() {
            let edges = |e: &[simgrid::obs::EdgeVolume]| -> Vec<(usize, u64)> {
                e.iter().map(|v| (v.peer, v.msgs)).collect()
            };
            let (recvd, sent) = (edges(&report.commvol.recv_from), edges(&report.commvol.sent_to));
            let Ok(at) = roster.binary_search(&r) else {
                prop_assert!(got.is_none() && recvd.is_empty() && sent.is_empty(), "rank {r}");
                continue;
            };
            prop_assert_eq!(got.as_deref(), Some(&[root as f64; 3][..]));
            let (parent, children) = bcast_tree(roster.len(), root_at, at);
            let want_recv: Vec<_> = parent.map(|q| (roster[q], 1)).into_iter().collect();
            let mut want_sent: Vec<_> = children.map(|q| (roster[q], 1)).collect();
            want_sent.sort_unstable();
            prop_assert!(recvd == want_recv, "rank {r} received {recvd:?}, not {want_recv:?}");
            prop_assert!(sent == want_sent, "rank {r} sent {sent:?}, not {want_sent:?}");
            if whole == 0 {
                let (parent, children) = bcast_tree(p, root, r);
                let mut children: Vec<_> = children.map(|c| (c, 1)).collect();
                children.sort_unstable();
                prop_assert_eq!(recvd, parent.map(|q| (q, 1)).into_iter().collect::<Vec<_>>());
                prop_assert_eq!(sent, children);
            }
        }
    }

    /// Reduce-sum agrees with the sequential sum for any size/root, over the
    /// whole communicator or a roster of it: only members send, each once,
    /// to its parent in `bcast_tree` over roster positions, and the root
    /// gets the members' sum. With the whole communicator as roster the
    /// result is bitwise `Rank::reduce_sum`'s. Both backends.
    #[test]
    fn reductions_correct_for_any_shape(
        p in 1usize..40,
        root_raw in 0usize..40,
        len in 1usize..64,
        seed in 0u64..1_000_000,
        whole in 0u8..4,
        event in 0u8..2,
    ) {
        use rand::{Rng, SeedableRng};
        let root = root_raw % p;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let roster: Vec<usize> =
            (0..p).filter(|&r| r == root || whole == 0 || rng.gen_bool(0.4)).collect();
        let backend = if event == 1 { Backend::Event } else { Backend::Threaded };
        let members = roster.clone();
        // Operands whose sum depends on the order of the additions.
        let operand = move |r: usize| -> Vec<f64> {
            (0..len).map(|i| (r * 100 + i) as f64 * 0.1 + 1e-3 / (1 + r) as f64).collect()
        };
        let out = Machine::new(p, TimeModel::zero()).with_backend(backend).run(move |rank| {
            let world = rank.world();
            let me = world.local_rank();
            let among = members
                .binary_search(&me)
                .is_ok()
                .then(|| rank.reduce_sum_among(&world, &members, root, operand(me), 2))
                .flatten();
            let all = rank.reduce_sum(&world, root, operand(me), 3);
            (among, all)
        });
        let sum = |ranks: &[usize]| -> Vec<f64> {
            (0..len).map(|i| ranks.iter().map(|&r| operand(r)[i]).sum()).collect()
        };
        let everyone: Vec<usize> = (0..p).collect();
        let root_at = roster.binary_search(&root).unwrap();
        for (r, ((among, all), report)) in out.results.iter().zip(&out.reports).enumerate() {
            if r == root {
                let (among, all) = (among.as_ref().unwrap(), all.as_ref().unwrap());
                for (got, want) in among.iter().zip(sum(&roster)) {
                    prop_assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
                }
                for (got, want) in all.iter().zip(sum(&everyone)) {
                    prop_assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
                }
                if whole == 0 {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(among), bits(all));
                }
            } else {
                prop_assert!(among.is_none() && all.is_none());
            }
            // The roster reduction's messages are the ledger minus the
            // whole-communicator reduction's single send per non-root.
            let sent: u64 = report.commvol.sent_msgs() - u64::from(r != root);
            let want = match roster.binary_search(&r) {
                Ok(at) => u64::from(bcast_tree(roster.len(), root_at, at).0.is_some()),
                Err(_) => 0,
            };
            prop_assert!(sent == want, "rank {r}: {sent} messages, not {want}");
        }
    }

    /// Out-of-order receives with random tag permutations always match the
    /// right message (the pending-queue path).
    #[test]
    fn tag_matching_is_order_independent(
        ntags in 1usize..24,
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<u64> = (0..ntags as u64).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let order2 = order.clone();
        let m = Machine::new(2, TimeModel::zero());
        let out = m.run(move |rank| {
            let world = rank.world();
            if rank.id() == 0 {
                for t in 0..ntags as u64 {
                    rank.send(&world, 1, t, Payload::F64s(vec![t as f64]));
                }
                0.0
            } else {
                let mut sum = 0.0;
                for &t in &order2 {
                    let v = rank.recv(&world, 0, t).into_f64s();
                    // plain assert: a panic inside a rank fails the test
                    assert_eq!(v[0], t as f64);
                    sum += v[0];
                }
                sum
            }
        });
        let expect: f64 = (0..ntags as u64).map(|t| t as f64).sum();
        prop_assert_eq!(out.results[1], expect);
    }

    /// Simulated clocks are causally consistent: a receiver's clock is
    /// never earlier than the message's send-completion time.
    #[test]
    fn clocks_respect_causality(
        flops0 in 0u64..1_000_000,
        words in 1usize..5000,
    ) {
        let model = TimeModel::edison_like();
        let m = Machine::new(2, model);
        let out = m.run(move |rank| {
            let world = rank.world();
            if rank.id() == 0 {
                rank.advance_compute(flops0);
                rank.send(&world, 1, 0, Payload::F64s(vec![0.0; words]));
                rank.clock()
            } else {
                rank.recv(&world, 0, 0);
                rank.clock()
            }
        });
        let sender_done = out.results[0];
        let receiver_done = out.results[1];
        prop_assert!(receiver_done >= sender_done);
        let s = TrafficSummary::from_reports(&out.reports);
        prop_assert!((s.makespan - receiver_done).abs() < 1e-15);
    }
}

/// A roster broadcast of a packed panel hands every member the root's own
/// buffer: no member copies it, and every edge charges the buffer's cached
/// structural words. Both backends deliver the same bytes and the same
/// ledger cells.
#[test]
fn a_packed_roster_bcast_shares_the_roots_buffer() {
    let (p, root, roster) = (9usize, 3usize, vec![0usize, 2, 3, 5, 8]);
    // Two column-major blocks, 3x2 with an all-zero middle row and 2x2.
    let meta = vec![2, 11, 3, 2, 12, 2, 2];
    let data = vec![1.0, 0.0, 3.0, 4.0, 0.0, 6.0, 7.0, 8.0, 9.0, 0.0];
    let per_msg = (7 + 4 + 4) as u64;
    let mut by_backend = Vec::new();
    for backend in [Backend::Threaded, Backend::Event] {
        let (members, meta, data) = (roster.clone(), meta.clone(), data.clone());
        let out = Machine::new(p, TimeModel::zero())
            .with_backend(backend)
            .run(move |rank| {
                let world = rank.world();
                let me = world.local_rank();
                members.binary_search(&me).is_ok().then(|| {
                    let data = (me == root).then(|| Payload::packed(meta.clone(), data.clone()));
                    match rank.bcast_among(&world, &members, root, data, 1) {
                        Payload::Packed(buf) => buf,
                        other => panic!("a bcast delivered {:?}", other.kind()),
                    }
                })
            });
        let root_buf = out.results[root].clone().expect("the root is a member");
        assert_eq!(root_buf.struct_words(), per_msg);
        let mut cells = Vec::new();
        for (r, (got, report)) in out.results.iter().zip(&out.reports).enumerate() {
            assert_eq!(got.is_some(), roster.contains(&r), "{backend}: rank {r}");
            if let Some(buf) = got {
                assert!(
                    Arc::ptr_eq(buf, &root_buf),
                    "{backend}: rank {r} holds a copy"
                );
            }
            let cell = report.commvol.class_cell(CommClass::Collective);
            assert_eq!(
                cell.struct_words,
                cell.msgs * per_msg,
                "{backend}: rank {r}"
            );
            cells.push((cell.msgs, cell.words, cell.struct_words));
        }
        let (meta, data) = (root_buf.meta().to_vec(), root_buf.data().to_vec());
        by_backend.push((meta, data, cells));
    }
    assert_eq!(by_backend[0], by_backend[1]);
}
