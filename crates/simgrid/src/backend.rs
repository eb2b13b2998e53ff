//! Execution backends: how many simulated ranks may run at once.
//!
//! The machine's SPMD contract — one program per rank, receives that wait
//! for their message, deterministic results — admits more than one
//! execution strategy. Every rank is a task, and one table ([`Sched`])
//! hands out *run slots*: a rank runs only while it holds one. [`Backend`]
//! names the two slot counts a [`Machine`] offers:
//!
//! - [`Backend::Threaded`]: one slot per rank. Every rank task is polled on
//!   its own OS thread, every runnable rank runs at once and the kernel
//!   interleaves them. Real host parallelism.
//! - [`Backend::Event`]: one slot. Exactly one rank runs at any instant,
//!   and the ready ranks take the slot in FIFO order. Under
//!   [`Machine::try_run_tasks`] the calling thread polls every rank's
//!   program itself, a resume is a function call, and no OS thread is
//!   spawned: this is what makes paper-scale grids — `P = 64×64 = 4096`
//!   ranks — run in one process.
//!
//! A rank program's only await point is a receive. The table records every
//! rank task as ready, running, blocked in a receive (on what), or done, and
//! holds every message no receive has matched yet. A receive that finds no
//! match publishes its wait and its task's [`Waker`] there and gives its
//! slot up (the future returns `Pending`); a send queues its message there
//! and makes its destination ready only if the message is the one the
//! destination waits for. A rank granted a slot is woken through its waker:
//! the executor polls it again. When a park or an exit leaves no rank
//! runnable, the machine is provably quiescent and that rank resolves the
//! situation synchronously from the same table: a deadlock verdict, or a
//! cascade wake-all when a failure is on the board. No watchdog thread and
//! no wall-clock timeout exist under either slot count.
//!
//! Both backends execute the same per-rank program against the same
//! simulated clocks, so factor digests, makespans, and every `obs` ledger
//! (commvol/memprof/metrics) are bitwise identical between them — the
//! differential suite in `tests/backends.rs` pins exactly that.

use crate::faultlab::{FailureBoard, RecvError};
use crate::rank::Msg;
#[cfg(doc)]
use crate::{Machine, Rank, RunResult};
use obs::Json;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

/// Which execution backend drives a [`Machine`] run: how many run slots
/// its task table has.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// One slot per rank: every runnable rank runs, kernel-scheduled.
    #[default]
    Threaded,
    /// One slot: exactly one rank runs at a time; rank tasks are polled on
    /// the calling thread.
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

/// Host-side counters of a one-slot run ([`RunResult::sched`]).
/// Deterministic — a function of the rank programs alone — but kept out of
/// the merged metrics registry: they describe the engine, not the
/// simulation, and no golden artifact depends on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Slots granted: every poll of a rank task, the first included.
    pub steps: u64,
    /// Parked ranks made runnable by a send matching their published wait.
    pub wakeups: u64,
    /// Sends delivered to a parked rank that was waiting for something
    /// else. Each stays queued in the table for the receive that names it
    /// and costs no step.
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
/// [`Rank::recv`](crate::Rank::recv), `src` a world rank, and the traffic
/// phase active on the waiting rank (for the deadlock report).
#[derive(Clone, Debug)]
pub(crate) struct WaitInfo {
    pub(crate) src: usize,
    pub(crate) ctx: u64,
    pub(crate) tag: u64,
    pub(crate) phase: Arc<str>,
}

impl WaitInfo {
    /// The match key, `(ctx, src, tag)` (see [`Msg::key`]).
    pub(crate) fn key(&self) -> (u64, usize, u64) {
        (self.ctx, self.src, self.tag)
    }

    fn describe(&self) -> String {
        format!(
            "(ctx={}, src={}, tag={}, phase={})",
            self.ctx, self.src, self.tag, self.phase
        )
    }
}

/// The table's view of one rank task.
#[derive(Clone, Debug)]
enum TaskState {
    /// In the ready queue, waiting for a free slot.
    Ready,
    /// Holding a slot and running.
    Running,
    /// Parked in a receive, waiting for the message it names.
    Blocked(WaitInfo),
    /// Terminated; never runs or sends again.
    Done,
}

/// Everything the table knows, behind the one lock of [`Sched`].
struct Table {
    state: Vec<TaskState>,
    /// Each rank's messages that no receive has matched yet, in arrival
    /// order — an MPI unexpected-message queue. A receive takes the oldest
    /// with its key, so a queue is empty once its messages are all matched.
    mail: Vec<Vec<Msg>>,
    /// Ranks waiting for a slot, strict FIFO, seeded `0..n`.
    ready: VecDeque<usize>,
    /// What wakes each rank task when it is granted a slot: the executor's
    /// waker installed by [`Sched::start`], replaced by the one a receive
    /// parks with.
    wakers: Vec<Waker>,
    /// Slots no rank holds.
    free: usize,
    /// Ranks `Ready` or `Running`. A park or an exit that brings it to zero
    /// with ranks still live is quiescence.
    runnable: usize,
    ndone: usize,
    /// Delivered sends so far (progress measure for the stall rule).
    nsends: u64,
    /// `(ndone, nsends)` at the last quiescent wake-all; a second quiescence
    /// with identical counters means the survivors are cyclically stuck.
    stall_snapshot: Option<(usize, u64)>,
    stats: SchedStats,
    /// The deadlock report, once a quiescence resolution proved one.
    deadlock: Option<String>,
}

/// The machine's one wait-for graph and scheduler: a per-rank task table
/// with a fixed number of run slots, shared by every [`Rank`] of a run.
/// There is no scheduler thread.
///
/// # One dispatch rule
///
/// A rank runs only while it holds a slot. Every critical section that can
/// free a slot or make a rank ready — the start, a park, an exit, a
/// matching send — ends in [`Table::dispatch`]: ready ranks take the free
/// slots in FIFO order, are marked running, and their wakers are woken once
/// the lock is dropped. One slot per rank means a ready rank never waits;
/// one slot means a parking rank hands the executor to the next ready rank
/// directly.
///
/// # Delivery, parking and matched wakeups
///
/// A send ([`Sched::deliver`]) queues its message at the destination and,
/// in the same critical section, makes the destination ready only when
/// the message matches its published wait; a message some later receive
/// wants leaves it parked. A receive takes the oldest queued message with
/// its key ([`Sched::take`]); finding none it polls [`Sched::park`], which
/// looks once more under the lock and, still finding nothing, publishes what
/// it waits for and its waker, gives its slot up and returns `Pending`. A
/// resumed rank therefore finds its message; the only other resumes come
/// from the quiescence resolver.
///
/// # No wake can be lost, and quiescence is exact
///
/// A send's push and its decision to wake are one critical section, and so
/// are a park's last look and its publish (wait and waker together). So a
/// message delivered before a park is found by its look, and one delivered
/// after it finds the wait published; the waker is woken only after the
/// lock drops, and a thread executor's unpark outlives a late park. Sends
/// come only from running ranks: when no rank is runnable, every sent
/// message is queued and has been matched against the waits, and the
/// blocked ranks can never be woken by anything but the resolver. This
/// holds for any number of slots — no grace period, no in-flight guess.
///
/// # Ready-queue ordering (deterministic with one slot)
///
/// The ready queue is strict FIFO, seeded `0..n`. With one slot only one
/// rank executes, so only it sends, and each matching send appends its
/// destination under the lock, in program order: the queue is a
/// deterministic function of the rank programs. *No* simulated quantity
/// depends on it, but determinism here also makes host-side behavior
/// (step counts, trace file layout) reproducible run-to-run.
pub(crate) struct Sched {
    st: Mutex<Table>,
    /// Run slots: the most ranks that run at once.
    slots: usize,
    board: Arc<FailureBoard>,
}

impl Sched {
    /// A table for `n` rank tasks, all ready, with the backend's slots:
    /// one under [`Backend::Event`], one per rank under
    /// [`Backend::Threaded`].
    pub(crate) fn new(n: usize, backend: Backend, board: Arc<FailureBoard>) -> Self {
        let slots = match backend {
            Backend::Event => 1,
            Backend::Threaded => n,
        };
        Sched {
            st: Mutex::new(Table {
                state: vec![TaskState::Ready; n],
                mail: (0..n).map(|_| Vec::new()).collect(),
                ready: (0..n).collect(),
                wakers: vec![Waker::noop().clone(); n],
                free: slots,
                runnable: n,
                ndone: 0,
                nsends: 0,
                stall_snapshot: None,
                stats: SchedStats::default(),
                deadlock: None,
            }),
            slots,
            board,
        }
    }

    /// The critical sections below are a few index writes and queue pushes
    /// and removals; a panic inside one is a scheduler bug. Recover the
    /// guard anyway: the panicking rank's [`TaskGuard`] must still be able
    /// to end its task, or the run would hang instead of reporting the
    /// panic.
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Start the run; `wakers[r]` wakes rank `r`'s task. Fills the slots,
    /// wakes the ranks that got one, and returns: the caller's executor
    /// drives the tasks.
    pub(crate) fn start(&self, wakers: Vec<Waker>) {
        let mut st = self.lock();
        st.wakers = wakers;
        let run = st.dispatch();
        drop(st);
        wake(run);
    }

    /// The scheduler counters, once every task is done. `Some` only with
    /// one slot: with more the kernel interleaves the ranks, and the
    /// counters are not a function of the programs.
    pub(crate) fn stats(&self) -> Option<SchedStats> {
        (self.slots == 1).then(|| self.lock().stats)
    }

    /// Sleep the calling thread until `rank` holds a slot: how a rank on
    /// its own thread waits to start, and waits after a `Pending` poll. Its
    /// waker unparks the thread.
    pub(crate) fn wait_turn(&self, rank: usize) {
        while !matches!(self.lock().state[rank], TaskState::Running) {
            std::thread::park();
        }
    }

    /// Queue `msg` at `dst`, in arrival order: a destination parked on a
    /// matching wait becomes ready.
    pub(crate) fn deliver(&self, dst: usize, msg: Msg) {
        let mut st = self.lock();
        st.nsends += 1;
        let key = msg.key();
        st.mail[dst].push(msg);
        let TaskState::Blocked(w) = &st.state[dst] else {
            return;
        };
        if w.key() != key {
            st.stats.unmatched_sends += 1;
            return;
        }
        st.stats.wakeups += 1;
        st.wake(dst);
        let run = st.dispatch();
        drop(st);
        wake(run);
    }

    /// Take the oldest message queued at `rank` with `key = (ctx, src,
    /// tag)`: a receive's fast path.
    pub(crate) fn take(&self, rank: usize, key: (u64, usize, u64)) -> Option<Msg> {
        self.lock().take(rank, key)
    }

    /// Number of messages queued at `rank` that no receive has matched.
    #[cfg(test)]
    pub(crate) fn queued(&self, rank: usize) -> usize {
        self.lock().mail[rank].len()
    }

    /// Every message still queued, by destination. After the join these
    /// are the messages sent and never received.
    pub(crate) fn take_mail(&self) -> Vec<Vec<Msg>> {
        std::mem::take(&mut self.lock().mail)
    }

    /// Poll `rank`'s receive of `wait`, which found no queued match. Under
    /// the table lock: take the message if it has arrived since; fail if the
    /// machine has a verdict for this wait (a proven deadlock, or a source
    /// that terminated after a failure elsewhere — a cascade); else publish
    /// the wait and the task's waker, give the slot up and return `Pending`.
    /// A matching send or a quiescence resolution makes the rank ready, and
    /// the slot's grant wakes it to poll again: two critical sections per
    /// park.
    pub(crate) fn park(
        &self,
        rank: usize,
        wait: &WaitInfo,
        cx: &Context<'_>,
    ) -> Poll<Result<Msg, RecvError>> {
        let mut st = self.lock();
        if let Some(m) = st.take(rank, wait.key()) {
            return Poll::Ready(Ok(m));
        }
        if let Some(report) = &st.deadlock {
            return Poll::Ready(Err(RecvError::Deadlock {
                report: report.clone(),
            }));
        }
        if self.board.has_failure() && matches!(st.state[wait.src], TaskState::Done) {
            return Poll::Ready(Err(RecvError::PeerFailed {
                origin: self.board.primary_rank().unwrap_or(rank),
                src: wait.src,
                ctx: wait.ctx,
                tag: wait.tag,
            }));
        }
        st.state[rank] = TaskState::Blocked(wait.clone());
        st.wakers[rank].clone_from(cx.waker());
        self.stop_running(st);
        Poll::Pending
    }

    /// `rank`'s task ended, normally or by panic: it never sends again.
    pub(crate) fn exit(&self, rank: usize) {
        let mut st = self.lock();
        st.state[rank] = TaskState::Done;
        st.ndone += 1;
        self.stop_running(st);
    }

    /// A rank whose new state is already in `st` gives its slot up. If no
    /// rank is runnable now, resolve the quiescence. Then dispatch.
    fn stop_running(&self, mut st: MutexGuard<'_, Table>) {
        st.runnable -= 1;
        st.free += 1;
        if st.runnable == 0 && st.ndone < st.state.len() {
            st.resolve_quiescence(&self.board);
        }
        let run = st.dispatch();
        drop(st);
        wake(run);
    }
}

/// Wake the tasks [`Table::dispatch`] gave a slot, outside the lock.
fn wake(run: Vec<Waker>) {
    for w in run {
        w.wake();
    }
}

impl Table {
    fn take(&mut self, rank: usize, key: (u64, usize, u64)) -> Option<Msg> {
        let queue = &mut self.mail[rank];
        let at = queue.iter().position(|m| m.key() == key)?;
        Some(queue.remove(at))
    }

    /// Make parked rank `r` ready: it queues for a slot.
    fn wake(&mut self, r: usize) {
        self.runnable += 1;
        self.state[r] = TaskState::Ready;
        self.ready.push_back(r);
    }

    /// The one scheduling rule: ready ranks take the free slots, oldest
    /// first, and are marked running. Returns their wakers for the caller
    /// to wake once the lock is dropped.
    fn dispatch(&mut self) -> Vec<Waker> {
        let mut run = Vec::new();
        while self.free > 0 {
            let Some(r) = self.ready.pop_front() else {
                break;
            };
            self.state[r] = TaskState::Running;
            self.free -= 1;
            self.stats.steps += 1;
            run.push(self.wakers[r].clone());
        }
        run
    }

    /// No rank is runnable but live ranks remain: every one of them is
    /// parked in a receive with no matching message queued,
    /// and none is in flight (see [`Sched`]). The machine cannot move on
    /// its own. Three cases:
    ///
    /// 1. No failure on the board: the parked ranks form a hopeless set by
    ///    construction. Publish the deadlock report and wake everyone to
    ///    abort with it.
    /// 2. A failure is on the board: wake everyone so waits on dead peers
    ///    resolve as cascades ([`RecvError::PeerFailed`]).
    /// 3. A failure is on the board but the previous wake-all made no
    ///    progress (no termination, no send): the survivors are cyclically
    ///    stuck independent of the failure — publish the deadlock report
    ///    and wake them to abort.
    fn resolve_quiescence(&mut self, board: &FailureBoard) {
        self.stats.quiescence_resolutions += 1;
        let progress = (self.ndone, self.nsends);
        let stalled = self.stall_snapshot == Some(progress);
        self.stall_snapshot = Some(progress);
        if !board.has_failure() || stalled {
            self.deadlock = Some(deadlock_report(&self.state));
        }
        for r in 0..self.state.len() {
            if matches!(self.state[r], TaskState::Blocked(_)) {
                self.wake(r);
            }
        }
    }
}

/// The ranks that can never make progress: the largest set of blocked
/// ranks each waiting on a rank that is finished or itself in the set
/// (greatest fixed point). At quiescence that is every blocked rank.
fn stuck_set(state: &[TaskState]) -> Vec<usize> {
    let mut stuck: Vec<bool> = state
        .iter()
        .map(|s| matches!(s, TaskState::Blocked(_)))
        .collect();
    loop {
        let mut changed = false;
        for (r, s) in state.iter().enumerate() {
            if let (true, TaskState::Blocked(w)) = (stuck[r], s) {
                if !(stuck[w.src] || matches!(state[w.src], TaskState::Done)) {
                    stuck[r] = false;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (0..state.len()).filter(|&r| stuck[r]).collect()
}

/// The abort report naming every stuck rank and what it waits on.
fn deadlock_report(state: &[TaskState]) -> String {
    let members = stuck_set(state);
    let mut out = format!(
        "deadlock detected: {} rank(s) can never make progress\n",
        members.len()
    );
    for r in members {
        if let TaskState::Blocked(w) = &state[r] {
            out.push_str(&format!(
                "  rank {r} blocked in recv {} waiting on rank(s) {}\n",
                w.describe(),
                w.src
            ));
        }
    }
    out
}

/// Ends the rank's task on the table when its thread exits, normally or by
/// panic, so a dying rank can never strand the parked ones: it gives its
/// slot up, and its exit may be the one that proves quiescence. (The
/// calling-thread executor ends its tasks itself, after the poll that
/// finished or unwound them.)
pub(crate) struct TaskGuard {
    pub(crate) rank: usize,
    pub(crate) sched: Arc<Sched>,
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        self.sched.exit(self.rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocked(src: usize, ctx: u64, tag: u64) -> TaskState {
        TaskState::Blocked(WaitInfo {
            src,
            ctx,
            tag,
            phase: "fact".into(),
        })
    }

    #[test]
    fn backend_round_trips_through_its_name() {
        for b in [Backend::Threaded, Backend::Event] {
            assert_eq!(b.as_str().parse::<Backend>().unwrap(), b);
        }
        assert!("mpi".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Threaded);
    }

    #[test]
    fn cross_recv_cycle_is_stuck() {
        let state = [blocked(1, 0, 5), blocked(0, 0, 6)];
        assert_eq!(stuck_set(&state), vec![0, 1]);
        assert_eq!(
            deadlock_report(&state),
            "deadlock detected: 2 rank(s) can never make progress\n\
             \x20 rank 0 blocked in recv (ctx=0, src=1, tag=5, phase=fact) waiting on rank(s) 1\n\
             \x20 rank 1 blocked in recv (ctx=0, src=0, tag=6, phase=fact) waiting on rank(s) 0\n"
        );
    }

    #[test]
    fn waiting_on_a_running_rank_is_not_stuck() {
        // Rank 2 is running: the chain can still drain.
        let state = [blocked(1, 0, 1), blocked(2, 0, 1), TaskState::Running];
        assert!(stuck_set(&state).is_empty());
    }

    #[test]
    fn waiting_on_a_finished_rank_is_stuck() {
        let state = [blocked(1, 0, 9), TaskState::Done, blocked(0, 0, 3)];
        assert_eq!(stuck_set(&state), vec![0, 2]);
    }
}
