//! Collective operations built on point-to-point messages.
//!
//! Implemented with the classical tree algorithms so the simulated message
//! counts and critical-path latency match what an MPI library would incur:
//!
//! - broadcast / reduce: binomial trees, `ceil(log2 p)` rounds, over the
//!   whole communicator or over a roster of its ranks,
//! - barrier: dissemination algorithm, `ceil(log2 p)` rounds.
//!
//! Tags are namespaced under high bits so collective traffic can never
//! collide with user point-to-point tags on the same communicator, and
//! every collective *phase* (a broadcast, a reduction, a barrier round, ...)
//! owns a disjoint sub-namespace so two adjacent collectives with nearby
//! base tags can never alias either. The layout of a collective-internal
//! tag:
//!
//! ```text
//! bit 62        : COLL_TAG     — separates collective from user traffic
//! bits 57..=59  : phase id     — which collective phase (PH_*)
//! bits 53..=56  : round        — per-round counter (dissemination barrier)
//! bits 0..=52   : caller's tag — must stay below 2^53 (asserted)
//! ```
//!
//! Earlier revisions derived sub-tags arithmetically (`tag + round` for
//! barrier rounds, `tag ^ 0x5555` for the broadcast half of an allreduce),
//! which collides when a sibling collective's base tag differs by the same
//! small integer — e.g. two adjacent barriers with consecutive base tags.
//! Dedicated bit fields make the sub-namespaces disjoint by construction;
//! `coll_tags::namespaces_are_disjoint` pins the property. The layout
//! constants and the workspace-wide registry of declared tag kinds live in
//! [`crate::tags`], whose `audit()` the static communication planner re-runs
//! at plan time.

use crate::comm::Comm;
use crate::payload::Payload;
use crate::rank::Rank;
use crate::tags::{coll_tag, MAX_ROUNDS, PH_BARRIER, PH_BCAST, PH_REDUCE, ROUND_SHIFT};
use obs::SpanCat;

/// Position of local rank `local` in the binomial broadcast tree over `p`
/// ranks rooted at `root`: the rank it receives from (`None` at the root)
/// and the ranks it forwards to, in sending order. Ranks are rotated so the
/// root is relative 0; a non-root's parent is its relative rank with the
/// lowest set bit cleared, and every bit below that one addresses a distinct
/// child subtree, forwarded in decreasing bit order. The one definition of
/// the tree: [`Rank::bcast_among`] executes it over roster positions (and
/// [`Rank::bcast`] over the whole communicator), [`Rank::reduce_sum_among`]
/// walks it the other way, and `commplan` plans from it.
pub fn bcast_tree(
    p: usize,
    root: usize,
    local: usize,
) -> (Option<usize>, impl DoubleEndedIterator<Item = usize>) {
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

/// This rank's parent and children, as local ranks of `comm`, in the tree
/// of [`bcast_tree`] over the positions of `roster` (`None`: the whole
/// communicator) rooted at local rank `root`. Only members may ask.
fn tree_among<'a>(
    comm: &Comm,
    roster: Option<&'a [usize]>,
    root: usize,
    what: &str,
) -> (Option<usize>, impl DoubleEndedIterator<Item = usize> + 'a) {
    debug_assert!(
        roster.is_none_or(|r| r.windows(2).all(|w| w[0] < w[1])),
        "roster must ascend"
    );
    let pos = |m: usize| roster.map_or(Some(m), |r| r.binary_search(&m).ok());
    let at = pos(comm.local_rank())
        .unwrap_or_else(|| panic!("only roster members take part in a roster {what}"));
    let root_at = pos(root).unwrap_or_else(|| panic!("the {what} root is on its roster"));
    let p = roster.map_or(comm.size(), <[usize]>::len);
    assert!(root_at < p, "{what} root out of range");
    let member = move |pos: usize| roster.map_or(pos, |r| r[pos]);
    let (parent, children) = bcast_tree(p, root_at, at);
    (parent.map(member), children.map(member))
}

impl Rank {
    /// Broadcast from `root` (local rank) to every member of `comm`.
    /// `data` must be `Some` on the root and is ignored elsewhere. Every
    /// rank returns the broadcast payload. Binomial tree: `p - 1` messages
    /// total, `ceil(log2 p)` on the critical path. A [`Payload::Packed`]
    /// travels the tree as one shared buffer: every member returns the
    /// root's, and no rank copies it.
    pub fn bcast(&mut self, comm: &Comm, root: usize, data: Option<Payload>, tag: u64) -> Payload {
        self.bcast_inner(comm, None, root, data, tag)
    }

    /// Broadcast from `root` to the members of `roster` only: the ascending
    /// local ranks of `comm` that need the payload, `root` among them. Only
    /// members call it; the rest of the communicator neither sends nor
    /// receives. The binomial tree of [`bcast_tree`] over roster positions:
    /// `|roster| - 1` messages, and on the whole communicator exactly the
    /// edges of [`Rank::bcast`].
    pub fn bcast_among(
        &mut self,
        comm: &Comm,
        roster: &[usize],
        root: usize,
        data: Option<Payload>,
        tag: u64,
    ) -> Payload {
        self.bcast_inner(comm, Some(roster), root, data, tag)
    }

    fn bcast_inner(
        &mut self,
        comm: &Comm,
        roster: Option<&[usize]>,
        root: usize,
        data: Option<Payload>,
        tag: u64,
    ) -> Payload {
        let sp = self.span_enter(SpanCat::Coll, "bcast");
        let tag = coll_tag(PH_BCAST, tag);
        let (parent, children) = tree_among(comm, roster, root, "bcast");
        let payload = match parent {
            None => data.expect("bcast root must supply data"),
            Some(src) => self.recv(comm, src, tag),
        };
        for dst in children {
            self.send(comm, dst, tag, payload.clone());
        }
        self.span_exit(sp);
        payload
    }

    /// Elementwise-sum reduction of `data` to `root` (local rank) over every
    /// member of `comm`. Returns `Some(sum)` on the root, `None` elsewhere.
    /// Binomial tree with a deterministic combine order, so results are
    /// bitwise reproducible for a fixed communicator size.
    pub fn reduce_sum(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Vec<f64>,
        tag: u64,
    ) -> Option<Vec<f64>> {
        self.reduce_sum_inner(comm, None, root, data, tag)
    }

    /// Elementwise-sum reduction of `data` to `root` over the members of
    /// `roster` only: the ascending local ranks of `comm` holding a
    /// contribution, `root` among them. Only members call it. The tree of
    /// [`bcast_tree`] over roster positions, walked from the leaves: each
    /// member adds its children's operands in increasing bit order, then
    /// sends the sum to its parent — `|roster| - 1` messages, and on the
    /// whole communicator exactly [`Rank::reduce_sum`].
    pub fn reduce_sum_among(
        &mut self,
        comm: &Comm,
        roster: &[usize],
        root: usize,
        data: Vec<f64>,
        tag: u64,
    ) -> Option<Vec<f64>> {
        self.reduce_sum_inner(comm, Some(roster), root, data, tag)
    }

    fn reduce_sum_inner(
        &mut self,
        comm: &Comm,
        roster: Option<&[usize]>,
        root: usize,
        data: Vec<f64>,
        tag: u64,
    ) -> Option<Vec<f64>> {
        let sp = self.span_enter(SpanCat::Coll, "reduce");
        let tag = coll_tag(PH_REDUCE, tag);
        let (parent, children) = tree_among(comm, roster, root, "reduce");
        let mut acc = data;
        for src in children.rev() {
            let v = self.recv_f64s(comm, src, tag);
            assert_eq!(v.len(), acc.len(), "reduce_sum operand length mismatch");
            for (a, b) in acc.iter_mut().zip(v) {
                *a += b;
            }
        }
        let out = match parent {
            None => Some(acc),
            Some(dst) => {
                self.send(comm, dst, tag, Payload::F64s(acc));
                None
            }
        };
        self.span_exit(sp);
        out
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
}

#[cfg(test)]
mod coll_tags {
    use super::*;
    use crate::tags::{COLL_TAG, PHASES};

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
        // (formerly `tag + round`), and one collective's tag versus another
        // phase's (an allreduce once broadcast on `tag ^ 0x5555`, which maps
        // e.g. 0x5554 onto 0x5554 + 1).
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
            // A reduce and a broadcast with ANY base tags below the
            // namespace can only collide phase by phase: equal tags imply
            // equal phases and equal base tags.
            for other in [base, base ^ 0x5555, base ^ 0x3333, base + 1] {
                assert_ne!(coll_tag(PH_BCAST, base), coll_tag(PH_REDUCE, other));
                assert_ne!(coll_tag(PH_REDUCE, base), coll_tag(PH_BARRIER, other));
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows into the round/phase namespace")]
    fn oversized_caller_tag_is_rejected() {
        let _ = coll_tag(PH_BCAST, 1 << ROUND_SHIFT);
    }
}
