//! Collective operations built on point-to-point messages.
//!
//! Implemented with the classical tree algorithms so the simulated message
//! counts and critical-path latency match what an MPI library would incur:
//!
//! - broadcast / reduce: binomial trees, `ceil(log2 p)` rounds,
//! - barrier: dissemination algorithm, `ceil(log2 p)` rounds,
//! - allreduce: reduce-to-root followed by broadcast.
//!
//! Tags are namespaced under high bits so collective traffic can never
//! collide with user point-to-point tags on the same communicator, and
//! every collective *phase* (the reduce half of an allreduce, the
//! broadcast half, a barrier round, ...) owns a disjoint sub-namespace so
//! two adjacent collectives with nearby base tags can never alias either.
//! The layout of a collective-internal tag:
//!
//! ```text
//! bit 62        : COLL_TAG     — separates collective from user traffic
//! bits 57..=59  : phase id     — which collective phase (PH_*)
//! bits 53..=56  : round        — per-round counter (dissemination barrier)
//! bits 0..=52   : caller's tag — must stay below 2^53 (asserted)
//! ```
//!
//! Earlier revisions derived sub-tags arithmetically (`tag + round` for
//! barrier rounds, `tag ^ 0x5555` / `tag ^ 0x3333` for the broadcast half
//! of allreduces), which collides when a sibling collective's base tag
//! differs by the same small integer — e.g. two adjacent barriers with
//! consecutive base tags, or an allreduce whose XORed broadcast tag lands
//! on another collective's reduce tag. Dedicated bit fields make the
//! sub-namespaces disjoint by construction; `coll_tags::namespaces_are_
//! disjoint` pins the property. The layout constants and the workspace-wide
//! registry of declared tag bases live in [`crate::tags`], whose `audit()`
//! the static communication planner re-runs at plan time.

use crate::comm::Comm;
use crate::payload::Payload;
use crate::rank::Rank;
use crate::tags::{
    coll_tag, MAX_ROUNDS, PH_ALLREDUCE_BCAST, PH_BARRIER, PH_BCAST, PH_GATHER, PH_MAX_BCAST,
    PH_MAX_REDUCE, PH_REDUCE, ROUND_SHIFT,
};
use obs::SpanCat;

/// Position of local rank `local` in the binomial broadcast tree over `p`
/// ranks rooted at `root`: the rank it receives from (`None` at the root)
/// and the ranks it forwards to, in sending order. Ranks are rotated so the
/// root is relative 0; a non-root's parent is its relative rank with the
/// lowest set bit cleared, and every bit below that one addresses a distinct
/// child subtree, forwarded in decreasing bit order. The one definition of
/// the tree: [`Rank::bcast`] executes it and `commplan` plans from it.
pub fn bcast_tree(
    p: usize,
    root: usize,
    local: usize,
) -> (Option<usize>, impl Iterator<Item = usize>) {
    let relative = (local + p - root) % p;
    let low = if relative == 0 {
        p.next_power_of_two()
    } else {
        1usize << relative.trailing_zeros()
    };
    let parent = (relative != 0).then(|| (relative - low + root) % p);
    let children = (0..low.trailing_zeros())
        .rev()
        .map(|b| 1usize << b)
        .filter(move |&bit| relative + bit < p)
        .map(move |bit| (relative + bit + root) % p);
    (parent, children)
}

impl Rank {
    /// Broadcast from `root` (local rank) to every member of `comm`.
    /// `data` must be `Some` on the root and is ignored elsewhere. Every
    /// rank returns the broadcast payload. Binomial tree: `p - 1` messages
    /// total, `ceil(log2 p)` on the critical path.
    pub fn bcast(&mut self, comm: &Comm, root: usize, data: Option<Payload>, tag: u64) -> Payload {
        let sp = self.span_enter(SpanCat::Coll, "bcast");
        let out = self.bcast_inner(comm, root, data, coll_tag(PH_BCAST, tag));
        self.span_exit(sp);
        out
    }

    /// `tag` is a fully namespaced collective tag (see [`coll_tag`]); the
    /// phase id is the caller's responsibility so allreduce variants can
    /// keep their broadcast half disjoint from direct broadcasts.
    fn bcast_inner(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Option<Payload>,
        tag: u64,
    ) -> Payload {
        let p = comm.size();
        assert!(root < p, "bcast root out of range");
        let (parent, children) = bcast_tree(p, root, comm.local_rank());
        let payload = match parent {
            None => data.expect("bcast root must supply data"),
            Some(src) => self.recv(comm, src, tag),
        };
        for dst in children {
            self.send(comm, dst, tag, payload.clone());
        }
        payload
    }

    /// Elementwise-sum reduction of `data` to `root` (local rank). Returns
    /// `Some(sum)` on the root, `None` elsewhere. Binomial tree with a
    /// deterministic combine order, so results are bitwise reproducible for
    /// a fixed communicator size.
    pub fn reduce_sum(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Vec<f64>,
        tag: u64,
    ) -> Option<Vec<f64>> {
        let sp = self.span_enter(SpanCat::Coll, "reduce");
        let out = self.reduce_sum_inner(comm, root, data, coll_tag(PH_REDUCE, tag));
        self.span_exit(sp);
        out
    }

    /// `tag` is a fully namespaced collective tag (see [`bcast_inner`]).
    fn reduce_sum_inner(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Vec<f64>,
        tag: u64,
    ) -> Option<Vec<f64>> {
        let p = comm.size();
        assert!(root < p, "reduce root out of range");
        let relative = (comm.local_rank() + p - root) % p;
        let mut acc = data;
        let mut mask = 1usize;
        while mask < p {
            if relative & mask == 0 {
                let child = relative | mask;
                if child < p {
                    let src = (child + root) % p;
                    let v = self.recv_f64s(comm, src, tag);
                    assert_eq!(v.len(), acc.len(), "reduce_sum operand length mismatch");
                    for (a, b) in acc.iter_mut().zip(v) {
                        *a += b;
                    }
                }
            } else {
                let parent = relative & !mask;
                let dst = (parent + root) % p;
                self.send(comm, dst, tag, Payload::F64s(acc));
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Allreduce (sum): reduce to local rank 0, then broadcast.
    pub fn allreduce_sum(&mut self, comm: &Comm, data: Vec<f64>, tag: u64) -> Vec<f64> {
        let sp = self.span_enter(SpanCat::Coll, "allreduce");
        let reduced = self.reduce_sum_inner(comm, 0, data, coll_tag(PH_REDUCE, tag));
        let out = self
            .bcast_inner(
                comm,
                0,
                reduced.map(Payload::F64s),
                coll_tag(PH_ALLREDUCE_BCAST, tag),
            )
            .into_f64s();
        self.span_exit(sp);
        out
    }

    /// Maximum-allreduce of a single value (used for load statistics and
    /// convergence checks).
    pub fn allreduce_max(&mut self, comm: &Comm, value: f64, tag: u64) -> f64 {
        let sp = self.span_enter(SpanCat::Coll, "allreduce_max");
        let out = self.allreduce_max_inner(comm, value, tag);
        self.span_exit(sp);
        out
    }

    fn allreduce_max_inner(&mut self, comm: &Comm, value: f64, tag: u64) -> f64 {
        let p = comm.size();
        let rtag = coll_tag(PH_MAX_REDUCE, tag);
        let relative = comm.local_rank();
        let mut acc = value;
        let mut mask = 1usize;
        let mut is_root = true;
        while mask < p {
            if relative & mask == 0 {
                let child = relative | mask;
                if child < p {
                    let v = self.recv_f64s(comm, child, rtag);
                    acc = acc.max(v[0]);
                }
            } else {
                let parent = relative & !mask;
                self.send(comm, parent, rtag, Payload::F64s(vec![acc]));
                is_root = false;
                break;
            }
            mask <<= 1;
        }
        let out = if is_root {
            Some(Payload::F64s(vec![acc]))
        } else {
            None
        };
        self.bcast_inner(comm, 0, out, coll_tag(PH_MAX_BCAST, tag))
            .into_f64s()[0]
    }

    /// Dissemination barrier: `ceil(log2 p)` rounds of paired empty
    /// messages. Synchronizes simulated clocks (up to the model's transfer
    /// charges) — this is where load imbalance becomes visible
    /// synchronization time.
    pub fn barrier(&mut self, comm: &Comm, tag: u64) {
        let p = comm.size();
        if p <= 1 {
            return;
        }
        let sp = self.span_enter(SpanCat::Coll, "barrier");
        self.barrier_inner(comm, tag);
        self.span_exit(sp);
    }

    fn barrier_inner(&mut self, comm: &Comm, tag: u64) {
        let p = comm.size();
        let base = coll_tag(PH_BARRIER, tag);
        let me = comm.local_rank();
        let mut round = 0u64;
        let mut dist = 1usize;
        while dist < p {
            // The round counter lives in its own bit field, so round `r` of
            // one barrier can never alias round 0 of a sibling barrier
            // whose base tag happens to be `tag + r`.
            assert!(round < MAX_ROUNDS, "barrier round counter overflow");
            let rtag = base | (round << ROUND_SHIFT);
            let dst = (me + dist) % p;
            let src = (me + p - dist) % p;
            self.send(comm, dst, rtag, Payload::Empty);
            let _ = self.recv(comm, src, rtag);
            dist <<= 1;
            round += 1;
        }
    }

    /// Gather variable-length f64 payloads to `root`; returns `Some(vec of
    /// per-local-rank data)` on the root. Linear algorithm (`p - 1` messages
    /// to the root); used for result collection, never inside the
    /// factorization inner loops.
    pub fn gather_f64(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Vec<f64>,
        tag: u64,
    ) -> Option<Vec<Vec<f64>>> {
        let sp = self.span_enter(SpanCat::Coll, "gather");
        let out = self.gather_f64_inner(comm, root, data, tag);
        self.span_exit(sp);
        out
    }

    fn gather_f64_inner(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Vec<f64>,
        tag: u64,
    ) -> Option<Vec<Vec<f64>>> {
        let p = comm.size();
        let tag = coll_tag(PH_GATHER, tag);
        let me = comm.local_rank();
        if me == root {
            let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
            out[root] = data;
            for src in 0..p {
                if src != root {
                    out[src] = self.recv_f64s(comm, src, tag);
                }
            }
            Some(out)
        } else {
            self.send(comm, root, tag, Payload::F64s(data));
            None
        }
    }
}

#[cfg(test)]
mod coll_tags {
    use super::*;
    use crate::tags::COLL_TAG;

    const PHASES: &[(u64, &str)] = &[
        (PH_BCAST, "bcast"),
        (PH_REDUCE, "reduce"),
        (PH_ALLREDUCE_BCAST, "allreduce-bcast"),
        (PH_MAX_REDUCE, "max-reduce"),
        (PH_MAX_BCAST, "max-bcast"),
        (PH_BARRIER, "barrier"),
        (PH_GATHER, "gather"),
    ];

    #[test]
    fn namespaces_are_disjoint() {
        // Phase ids are pairwise distinct, nonzero, clear of the round
        // field, clear of the caller-tag field, and below the COLL bit.
        let round_mask = (MAX_ROUNDS - 1) << ROUND_SHIFT;
        let user_mask = (1u64 << ROUND_SHIFT) - 1;
        for (i, &(pa, na)) in PHASES.iter().enumerate() {
            assert_ne!(pa, 0, "{na}");
            assert_eq!(pa & round_mask, 0, "{na} overlaps the round field");
            assert_eq!(pa & user_mask, 0, "{na} overlaps the caller-tag field");
            assert!(pa < COLL_TAG, "{na} overlaps the COLL namespace bit");
            for &(pb, nb) in &PHASES[i + 1..] {
                assert_ne!(pa, pb, "{na} vs {nb}");
            }
        }
        // The round field itself stays clear of the caller-tag bits.
        assert_eq!(round_mask & user_mask, 0);
    }

    #[test]
    fn sibling_collectives_with_nearby_tags_never_alias() {
        // The regressions that motivated the bit fields: a barrier's round
        // `r` tag versus a sibling barrier whose base tag differs by `r`
        // (formerly `tag + round`), and an allreduce's broadcast tag versus
        // another collective's reduce tag (formerly `tag ^ 0x5555`, which
        // maps e.g. 0x5554 onto 0x5554 + 1).
        for base in [0u64, 7, 0x5554, 0x5554 & !1, (12 << 48) | 3] {
            for delta in 1u64..8 {
                for ra in 0..MAX_ROUNDS {
                    for rb in 0..MAX_ROUNDS {
                        let a = coll_tag(PH_BARRIER, base) | (ra << ROUND_SHIFT);
                        let b = coll_tag(PH_BARRIER, base + delta) | (rb << ROUND_SHIFT);
                        assert_ne!(a, b, "barrier({base:#x}) r{ra} vs barrier+{delta} r{rb}");
                    }
                }
            }
            // An allreduce's two halves and a plain reduce/bcast with ANY
            // base tag below the namespace can only collide phase-by-phase,
            // so equal tags imply equal base tags within the same phase.
            let ar_bcast = coll_tag(PH_ALLREDUCE_BCAST, base);
            for other in [base, base ^ 0x5555, base ^ 0x3333, base + 1] {
                assert_ne!(ar_bcast, coll_tag(PH_REDUCE, other));
                assert_ne!(ar_bcast, coll_tag(PH_BCAST, other));
                assert_ne!(coll_tag(PH_MAX_BCAST, base), coll_tag(PH_REDUCE, other));
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows into the round/phase namespace")]
    fn oversized_caller_tag_is_rejected() {
        let _ = coll_tag(PH_BCAST, 1 << ROUND_SHIFT);
    }
}
