//! Execution backends: how the simulated ranks are driven.
//!
//! The machine's SPMD contract — `f(&mut Rank)` per rank, blocking
//! receives, deterministic results — admits more than one execution
//! strategy. [`Backend`] names the two, and [`Machine::try_run`] runs either:
//!
//! - [`Backend::Threaded`]: the original free-running mode. Every rank is an
//!   OS thread scheduled by the kernel; receives block on the channel with
//!   a wall-clock backstop, and a watchdog thread runs the deadlock
//!   detector. Real host parallelism.
//! - [`Backend::Event`]: discrete-event mode. Ranks are *resumable tasks*:
//!   each still owns a (mostly parked) OS thread as its coroutine stack,
//!   but exactly one runs at any instant — the one holding the *baton*. A
//!   blocking receive that finds its inbox empty publishes what it waits
//!   for, picks the next ready rank and wakes it directly (`EventSched`);
//!   a send marks its destination runnable only if the message is the one
//!   the destination is parked on. No scheduler thread, no wall-clock
//!   timeouts, no watchdog: when the ready queue empties with live ranks
//!   still parked, the machine is provably quiescent and the parking rank
//!   resolves the situation *synchronously* from the wait-for graph
//!   (deadlock) or the failure board (cascade). This is what makes
//!   paper-scale grids — `P = 64×64 = 4096` ranks — run in one process:
//!   4096 parked tasks cost virtual address space, not CPU.
//!
//! Both backends execute the same per-rank program against the same
//! simulated clocks, so factor digests, makespans, and every `obs` ledger
//! (commvol/memprof/metrics) are bitwise identical between them — the
//! differential suite in `tests/backends.rs` pins exactly that.

use crate::faultlab::FailureBoard;
#[cfg(doc)]
use crate::{Machine, Rank, RunResult};
use commcheck::WaitGraph;
use obs::Json;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{JoinHandle, Thread};

/// Which execution backend drives a [`Machine`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// One free-running OS thread per rank (kernel-scheduled).
    #[default]
    Threaded,
    /// Cooperative discrete-event scheduler; ranks are resumable tasks and
    /// exactly one runs at a time.
    Event,
}

impl Backend {
    /// Canonical lowercase name, as used by the CLI, campaign specs, and
    /// snapshot files.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Threaded => "threaded",
            Backend::Event => "event",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threaded" => Ok(Backend::Threaded),
            "event" => Ok(Backend::Event),
            other => Err(format!(
                "unknown backend '{other}' (expected 'threaded' or 'event')"
            )),
        }
    }
}

/// Host-side counters of one event-backend run ([`RunResult::sched`]).
/// Deterministic — a function of the rank programs alone — but kept out of
/// the merged metrics registry: they describe the engine, not the
/// simulation, and no golden artifact depends on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Time slices granted: every resume of a rank task, the first included.
    pub steps: u64,
    /// Parked ranks made runnable by a send matching their published wait.
    pub wakeups: u64,
    /// Sends delivered to a parked rank that was waiting for something
    /// else. Each stays in the inbox for the receive that names it and
    /// costs no step.
    pub unmatched_sends: u64,
    /// Times the machine went quiescent with live ranks parked and the
    /// scheduler had to resolve it (deadlock verdict or cascade wake-all).
    pub quiescence_resolutions: u64,
}

impl SchedStats {
    /// The `host.sched` section of the run document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("steps".into(), Json::num(self.steps as f64)),
            ("wakeups".into(), Json::num(self.wakeups as f64)),
            (
                "unmatched_sends".into(),
                Json::num(self.unmatched_sends as f64),
            ),
            (
                "quiescence_resolutions".into(),
                Json::num(self.quiescence_resolutions as f64),
            ),
        ])
    }
}

/// What a parked receive is waiting for: the match key of
/// [`Rank::recv`](crate::Rank::recv), `src` a world rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct WaitKey {
    pub(crate) ctx: u64,
    pub(crate) tag: u64,
    pub(crate) src: usize,
}

impl WaitKey {
    fn matches(&self, src: usize, ctx: u64, tag: u64) -> bool {
        (self.src, self.ctx, self.tag) == (src, ctx, tag)
    }
}

/// Scheduler-side view of one rank task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// In the ready queue, waiting for the baton.
    Ready,
    /// Holding the baton (at most one rank at a time).
    Running,
    /// Parked in a blocking receive, waiting for a message matching the key.
    Blocked(WaitKey),
    /// Terminated; never scheduled again.
    Done,
}

/// Everything the scheduler knows, behind the one lock of [`EventSched`].
struct SchedState {
    state: Vec<TaskState>,
    ready: VecDeque<usize>,
    ndone: usize,
    /// Delivered sends so far (progress measure for the stall rule).
    nsends: u64,
    /// `(ndone, nsends)` at the last quiescent wake-all; a second quiescence
    /// with identical counters means the survivors are cyclically stuck.
    stall_snapshot: Option<(usize, u64)>,
    stats: SchedStats,
    wait_graph: Arc<WaitGraph>,
    board: Arc<FailureBoard>,
}

/// The cooperative scheduler of the event backend: a *baton pass*, shared
/// by every [`Rank`] of an event-mode run (a threaded-mode rank carries
/// `None` and never reaches the hooks below). There is no scheduler thread.
/// Exactly one rank task holds the baton and runs; when it parks in a
/// blocking receive ([`EventSched::park`]) or terminates ([`BatonGuard`]) it
/// picks the next ready rank itself and wakes it directly — one OS context
/// switch per step. The thread that called [`Machine::run`] sleeps in
/// [`EventSched::drive`] until every task is done.
///
/// # Matched wakeups
///
/// A parked rank publishes the [`WaitKey`] it waits for. The send path
/// ([`EventSched::note_send`]) marks the destination ready *at send time*
/// and only when the message matches that key; a send the parked receive
/// would merely stash leaves the destination parked (the message waits in
/// its inbox and is drained by the receive that wants it). A resumed rank
/// therefore finds its message — the only other resumes come from the
/// quiescence resolver and from transport-level duplicates, which match the
/// key but are filtered at intake.
///
/// # Ready-queue ordering (deterministic, by construction)
///
/// The ready queue is strict FIFO, seeded `0..n`. Only the baton holder
/// executes, so only it sends, and each matching send appends its
/// destination under the lock, in program order: the queue is a
/// deterministic function of the rank programs. *No* simulated quantity
/// depends on it, but determinism here also makes host-side behavior
/// (step counts, trace file layout) reproducible run-to-run.
///
/// # No wake can be lost
///
/// A rank parks only after draining its inbox without a match, and it holds
/// the baton from that drain until [`EventSched::park`] publishes its key
/// under the lock — nobody else runs in between, so no send can slip past.
/// Every later send to it takes the same lock, sees the key, and enqueues
/// it if it matches. A rank is never queued twice (enqueueing flips it to
/// `Ready`), and nothing re-queues a parked rank without new information:
/// a matching send, or the quiescence resolver — hence no spin-wake loop.
pub(crate) struct EventSched {
    st: Mutex<SchedState>,
    /// Rank task threads, set once by [`EventSched::drive`] before the first
    /// baton is handed out.
    threads: OnceLock<Vec<Thread>>,
    /// The thread sleeping in [`EventSched::drive`].
    driver: Thread,
}

impl EventSched {
    /// A scheduler for `n` rank tasks; the calling thread becomes the driver.
    pub(crate) fn new(n: usize, wait_graph: Arc<WaitGraph>, board: Arc<FailureBoard>) -> Self {
        EventSched {
            st: Mutex::new(SchedState {
                state: vec![TaskState::Ready; n],
                ready: (0..n).collect(),
                ndone: 0,
                nsends: 0,
                stall_snapshot: None,
                stats: SchedStats::default(),
                wait_graph,
                board,
            }),
            threads: OnceLock::new(),
            driver: std::thread::current(),
        }
    }

    /// The critical sections below are a few index writes and queue pushes;
    /// a panic inside one is a scheduler bug. Recover the guard anyway: the
    /// panicking rank's [`BatonGuard`] must still be able to pass the baton,
    /// or the run would hang instead of reporting the panic.
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hand the first baton to rank 0 and sleep until every task is done.
    /// `tasks[r]` is rank `r`'s task thread.
    pub(crate) fn drive<T>(&self, tasks: &[JoinHandle<T>]) -> SchedStats {
        self.threads
            .set(tasks.iter().map(|h| h.thread().clone()).collect())
            .expect("an event scheduler drives exactly one run");
        let first = self.lock().pick_next();
        self.wake(first);
        loop {
            let st = self.lock();
            if st.ndone == tasks.len() {
                return st.stats;
            }
            drop(st);
            std::thread::park();
        }
    }

    /// Wake whoever holds the baton next: a rank task, or — when every task
    /// is done — the driver.
    fn wake(&self, next: Option<usize>) {
        match next {
            Some(r) => self.threads.get().expect("baton passed before drive()")[r].unpark(),
            None => self.driver.unpark(),
        }
    }

    /// Sleep until `rank` holds the baton. Called once per task before its
    /// SPMD closure starts (nothing — not even rank construction — runs
    /// outside a time slice), and by [`EventSched::park`].
    pub(crate) fn wait_turn(&self, rank: usize) {
        while self.lock().state[rank] != TaskState::Running {
            std::thread::park();
        }
    }

    /// Record that `src` handed a `(ctx, tag)` message to `dst`'s inbox:
    /// a destination parked on a matching key becomes ready, in send order.
    pub(crate) fn note_send(&self, src: usize, dst: usize, ctx: u64, tag: u64) {
        let mut st = self.lock();
        st.nsends += 1;
        if let TaskState::Blocked(key) = st.state[dst] {
            if key.matches(src, ctx, tag) {
                st.state[dst] = TaskState::Ready;
                st.ready.push_back(dst);
                st.stats.wakeups += 1;
            } else {
                st.stats.unmatched_sends += 1;
            }
        }
    }

    /// `rank`'s blocking receive found nothing: publish what it waits for,
    /// pass the baton, and sleep until it comes back — because a matching
    /// message was sent, or because the machine went quiescent and the
    /// caller's deadlock/cascade checks should fire.
    pub(crate) fn park(&self, rank: usize, key: WaitKey) {
        let next = self.pass(rank, TaskState::Blocked(key));
        if next != Some(rank) {
            self.wake(next);
            self.wait_turn(rank);
        }
    }

    /// `rank` gives the baton up, entering state `to`; returns who gets it.
    fn pass(&self, rank: usize, to: TaskState) -> Option<usize> {
        let mut st = self.lock();
        st.state[rank] = to;
        st.ndone += usize::from(to == TaskState::Done);
        st.pick_next()
    }
}

impl SchedState {
    /// Choose who runs next and mark it running; `None` once every task is
    /// done. The caller has just given the baton up (parked or finished), so
    /// no rank is running.
    fn pick_next(&mut self) -> Option<usize> {
        if self.ndone == self.state.len() {
            return None;
        }
        if self.ready.is_empty() {
            self.resolve_quiescence();
        }
        let r = self
            .ready
            .pop_front()
            .expect("quiescence resolution re-queues every parked rank");
        self.state[r] = TaskState::Running;
        self.stats.steps += 1;
        Some(r)
    }

    /// The ready queue is empty but live ranks remain: every one of them is
    /// parked in a blocking receive with no matching message in its inbox,
    /// and — because sends are synchronous under cooperative scheduling —
    /// none is in flight. The machine cannot move on its own. Three cases:
    ///
    /// 1. No failure on the board: the parked ranks form a hopeless set by
    ///    construction. Publish the deadlock report synchronously (no
    ///    detector thread, no grace period — quiescence is proven, not
    ///    guessed) and wake everyone to abort with it.
    /// 2. A failure is on the board: wake everyone so waits on dead peers
    ///    resolve as cascades ([`crate::RecvError::PeerFailed`]).
    /// 3. A failure is on the board but the previous wake-all made no
    ///    progress (no termination, no send): the survivors are cyclically
    ///    stuck independent of the failure — publish the deadlock report
    ///    and wake them to abort.
    fn resolve_quiescence(&mut self) {
        self.stats.quiescence_resolutions += 1;
        let progress = (self.ndone, self.nsends);
        let stalled = self.stall_snapshot == Some(progress);
        self.stall_snapshot = Some(progress);
        if !self.board.has_failure() || stalled {
            // Deliberately ignore an empty verdict: all live ranks are
            // parked on parked-or-done ranks, so the stuck set is exactly
            // the parked set and never empty here.
            let _ = self.wait_graph.detect_now();
        }
        for r in 0..self.state.len() {
            if matches!(self.state[r], TaskState::Blocked(_)) {
                self.state[r] = TaskState::Ready;
                self.ready.push_back(r);
            }
        }
    }
}

/// Passes the baton when the rank task exits, normally or by panic, so a
/// dying rank can never strand the parked ones. Declared *before* the
/// wait-graph done-guard in the task body so it drops *after* it: by the
/// time the next rank (or the quiescence resolver) looks, the wait-for
/// graph already shows this rank finished.
pub(crate) struct BatonGuard {
    pub(crate) rank: usize,
    pub(crate) sched: Arc<EventSched>,
}

impl Drop for BatonGuard {
    fn drop(&mut self) {
        let next = self.sched.pass(self.rank, TaskState::Done);
        self.sched.wake(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_round_trips_through_its_name() {
        for b in [Backend::Threaded, Backend::Event] {
            assert_eq!(b.as_str().parse::<Backend>().unwrap(), b);
        }
        assert!("mpi".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Threaded);
    }
}
