//! Rank programs written as plain blocking closures.
//!
//! [`Machine::run`] and [`Machine::try_run`] take `Fn(&mut BlockingRank) ->
//! T`: every rank runs on its own OS thread while it holds one of the
//! backend's run slots. [`BlockingRank`] derefs to [`Rank`] and shadows its
//! waiting methods with blocking forms, each of which drives the async one
//! to completion on the rank's thread: a `Pending` poll parks the thread
//! until the task table grants the rank a slot again. Matching, collective
//! trees, quiescence and the deadlock report are the async code's; nothing
//! here repeats them. The solver runs its ranks as tasks
//! ([`Machine::try_run_tasks`]).

use crate::backend::Sched;
use crate::comm::Comm;
use crate::faultlab::RecvError;
use crate::payload::Payload;
use crate::rank::Rank;
#[cfg(doc)]
use crate::Machine;
use std::future::Future;
use std::ops::{Deref, DerefMut};
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// A [`Rank`] whose receives and collectives block the calling thread.
pub struct BlockingRank<'a> {
    rank: &'a mut Rank,
    sched: Arc<Sched>,
    waker: &'a Waker,
}

impl<'a> BlockingRank<'a> {
    /// `rank` on its own thread, woken through `waker`.
    pub(crate) fn new(rank: &'a mut Rank, waker: &'a Waker) -> Self {
        let sched = Arc::clone(rank.sched());
        BlockingRank { rank, sched, waker }
    }

    /// [`Rank::send`], which never waits: forwarded only so an argument may
    /// read the rank (`rank.send(.., Payload::F64s(vec![rank.id() as f64]))`)
    /// as on a plain [`Rank`].
    pub fn send(&mut self, comm: &Comm, dst: usize, tag: u64, payload: Payload) {
        self.rank.send(comm, dst, tag, payload);
    }

    /// [`Rank::recv`], blocking.
    pub fn recv(&mut self, comm: &Comm, src: usize, tag: u64) -> Payload {
        let id = self.rank.id();
        drive(&self.sched, id, self.waker, self.rank.recv(comm, src, tag))
    }

    /// [`Rank::recv_checked`], blocking.
    pub fn recv_checked(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: u64,
    ) -> Result<Payload, RecvError> {
        let id = self.rank.id();
        drive(
            &self.sched,
            id,
            self.waker,
            self.rank.recv_checked(comm, src, tag),
        )
    }

    /// [`Rank::recv_f64s`], blocking.
    pub fn recv_f64s(&mut self, comm: &Comm, src: usize, tag: u64) -> Vec<f64> {
        let id = self.rank.id();
        drive(
            &self.sched,
            id,
            self.waker,
            self.rank.recv_f64s(comm, src, tag),
        )
    }

    /// [`Rank::bcast`], blocking.
    pub fn bcast(&mut self, comm: &Comm, root: usize, data: Option<Payload>, tag: u64) -> Payload {
        let id = self.rank.id();
        let fut = self.rank.bcast(comm, root, data, tag);
        drive(&self.sched, id, self.waker, fut)
    }

    /// [`Rank::bcast_among`], blocking.
    pub fn bcast_among(
        &mut self,
        comm: &Comm,
        roster: &[usize],
        root: usize,
        data: Option<Payload>,
        tag: u64,
    ) -> Payload {
        let id = self.rank.id();
        let fut = self.rank.bcast_among(comm, roster, root, data, tag);
        drive(&self.sched, id, self.waker, fut)
    }

    /// [`Rank::reduce_sum`], blocking.
    pub fn reduce_sum(
        &mut self,
        comm: &Comm,
        root: usize,
        data: Vec<f64>,
        tag: u64,
    ) -> Option<Vec<f64>> {
        let id = self.rank.id();
        let fut = self.rank.reduce_sum(comm, root, data, tag);
        drive(&self.sched, id, self.waker, fut)
    }

    /// [`Rank::reduce_sum_among`], blocking.
    pub fn reduce_sum_among(
        &mut self,
        comm: &Comm,
        roster: &[usize],
        root: usize,
        data: Vec<f64>,
        tag: u64,
    ) -> Option<Vec<f64>> {
        let id = self.rank.id();
        let fut = self.rank.reduce_sum_among(comm, roster, root, data, tag);
        drive(&self.sched, id, self.waker, fut)
    }

    /// [`Rank::barrier`], blocking.
    pub fn barrier(&mut self, comm: &Comm, tag: u64) {
        let id = self.rank.id();
        drive(&self.sched, id, self.waker, self.rank.barrier(comm, tag))
    }
}

impl Deref for BlockingRank<'_> {
    type Target = Rank;

    fn deref(&self) -> &Rank {
        self.rank
    }
}

impl DerefMut for BlockingRank<'_> {
    fn deref_mut(&mut self) -> &mut Rank {
        self.rank
    }
}

/// Poll `fut`, rank `rank`'s, to completion on the calling thread, which is
/// the rank's own: after each `Pending` (a receive that parked and gave its
/// slot up) sleep until the table grants the rank a slot again.
pub(crate) fn drive<F: Future>(sched: &Sched, rank: usize, waker: &Waker, fut: F) -> F::Output {
    let mut fut = pin!(fut);
    let mut cx = Context::from_waker(waker);
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
        sched.wait_turn(rank);
    }
}

/// The waker of a rank task on its own thread: unpark the thread.
pub(crate) struct Unpark(pub(crate) Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}
