//! The machine driver: runs one task per simulated rank under the
//! configured [`Backend`] and collects results plus per-rank reports.

use crate::backend::{Backend, Sched, SchedStats, TaskGuard};
use crate::blocking::{drive, BlockingRank, Unpark};
use crate::faultlab::{
    FailKind, FailureBoard, FaultPlan, MachineFailure, OrderlyAbort, RankFailure, UnreceivedMsg,
};
use crate::rank::{FaultCtx, Rank};
use crate::stats::{RankReport, TrafficSummary};
use crate::timemodel::TimeModel;
use std::any::Any;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

/// A simulated distributed-memory machine with a fixed rank count and
/// machine model. Cheap to construct; each run builds fresh ranks and a
/// fresh task table.
#[derive(Clone, Debug)]
pub struct Machine {
    nranks: usize,
    model: TimeModel,
    /// Execution strategy (see [`Backend`]); threaded by default.
    backend: Backend,
    tracing: bool,
    host_profiling: bool,
    /// Seeded fault plan injected at the send path; `None` = healthy run.
    faults: Option<Arc<FaultPlan>>,
    /// Ack/retransmit recovery for droppable sends; off = drops are lost.
    recover: bool,
    /// Simulated-time receive deadline (seconds); `None` = wait until the
    /// message arrives or the machine proves it never will.
    recv_deadline: Option<f64>,
}

/// The outcome of one SPMD run.
#[derive(Debug)]
pub struct RunResult<T> {
    /// Per-rank return values, indexed by world rank.
    pub results: Vec<T>,
    /// Per-rank traffic/time reports, indexed by world rank.
    pub reports: Vec<RankReport>,
    /// Scheduler counters of a one-slot run (the event backend, or any
    /// one-rank machine); `None` with more slots, where the kernel
    /// interleaves the ranks.
    pub sched: Option<SchedStats>,
}

impl<T> RunResult<T> {
    /// Aggregate the per-rank reports.
    pub fn summary(&self) -> TrafficSummary {
        TrafficSummary::from_reports(&self.reports)
    }
}

impl Machine {
    /// A machine with `nranks` simulated processes. Panics if `nranks == 0`.
    pub fn new(nranks: usize, model: TimeModel) -> Self {
        assert!(nranks > 0, "machine needs at least one rank");
        Machine {
            nranks,
            model,
            backend: Backend::default(),
            tracing: false,
            host_profiling: false,
            faults: None,
            recover: false,
            recv_deadline: None,
        }
    }

    /// Select the execution backend: how many ranks may run at once (see
    /// [`Backend`] and `docs/backends.md`). Simulated results — factor
    /// digests, makespans, every ledger — are identical either way; only
    /// host-side scheduling differs. The threaded default (a slot and an OS
    /// thread per rank) keeps real parallelism; the event backend (one slot,
    /// rank tasks polled on the calling thread) runs arbitrarily large rank
    /// counts in one process.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Enable per-rank event tracing (see [`crate::trace`]). Costs memory
    /// proportional to the number of operations; off by default.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Enable the host-time profiler (see `obs::hostprof`): each rank
    /// attributes its thread's wall-clock time to a fixed phase taxonomy
    /// via RAII scopes, summing to 100% of the measured wall. Purely
    /// host-side — simulated clocks, results, and factor digests are
    /// untouched. When combined with [`Machine::with_tracing`], host
    /// counter tracks join the Chrome trace. Off by default.
    ///
    /// Valid under both backends. A rank's wall is the time it held a run
    /// slot — for a task, the sum of its polls: the profiler is paused while
    /// the rank is parked in a receive, so under the event backend the
    /// per-rank walls add up to (at most) the machine's.
    pub fn with_host_profiling(mut self) -> Self {
        self.host_profiling = true;
        self
    }

    /// Install a seeded fault plan (see [`crate::faultlab`]): messages
    /// matching its rules are dropped, duplicated, or delayed, ranks stall,
    /// and links degrade — all deterministically from the plan's seed. An
    /// unrecovered drop aborts the run with a deadlock report as soon as
    /// the machine goes quiescent, under either backend.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Enable ack/retransmit recovery for droppable sends: a lost attempt
    /// is resent after a simulated ack timeout with exponential backoff
    /// ([`crate::faultlab::RETRY_TIMEOUT_SECS`] and its siblings). With
    /// recovery on, a faulted run delivers the same payload sequence as the
    /// fault-free run — results stay bitwise identical, only clocks shift.
    pub fn with_recovery(mut self) -> Self {
        self.recover = true;
        self
    }

    /// Fail a receive whose matching message arrives more than `secs`
    /// *simulated* seconds after the receiver started waiting: a stall the
    /// run would otherwise absorb fails it, deterministically and
    /// independent of the host's schedule.
    pub fn with_recv_deadline(mut self, secs: f64) -> Self {
        self.recv_deadline = Some(secs);
        self
    }

    /// Number of simulated ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The machine model.
    pub fn model(&self) -> TimeModel {
        self.model
    }

    /// Run `f` as an SPMD program of rank tasks: `f(&mut rank)` for every
    /// rank, its receives the only await points. Under [`Backend::Event`]
    /// the calling thread polls every rank's future — no OS thread is
    /// spawned and a resume is a function call; under
    /// [`Backend::Threaded`] each rank's future is polled on its own
    /// thread. Blocks until all ranks return. A failure on any rank panics
    /// with the rank-attributed report of [`MachineFailure::render`]
    /// (primary cause first, cascades listed) so protocol bugs fail tests.
    /// Use [`Machine::try_run_tasks`] to handle the failure structurally
    /// instead.
    pub fn run_tasks<T, F>(&self, f: F) -> RunResult<T>
    where
        T: Send,
        F: AsyncFn(&mut Rank) -> T + Sync,
    {
        self.try_run_tasks(f)
            .unwrap_or_else(|mf| panic!("{}", mf.render()))
    }

    /// Like [`Machine::run_tasks`], but a failing rank yields a structured
    /// [`MachineFailure`] instead of a panic. Failures are collected on a
    /// machine-wide board; the *primary* (earliest non-cascade) entry names
    /// the original failing rank even when other ranks die in its wake —
    /// the panic-collection reports the cause, not the cascade.
    ///
    /// A run in which every rank returned still fails, with
    /// [`FailKind::Unreceived`], if a message was sent and never received.
    /// The check costs the message path nothing: unmatched messages wait
    /// in the task table, which outlives every rank, and what it holds
    /// after the run is the answer — the same one whichever of sender and
    /// receiver the host ran first.
    ///
    /// One task table (`Sched`) parks and wakes the ranks under either
    /// backend; the machine's [`Backend`] is only how many of them may run
    /// at once — all (threaded) or one (event).
    pub fn try_run_tasks<T, F>(&self, f: F) -> Result<RunResult<T>, MachineFailure>
    where
        T: Send,
        F: AsyncFn(&mut Rank) -> T + Sync,
    {
        self.execute(|run| match self.backend {
            Backend::Event => run.polled_here(&f),
            Backend::Threaded => run.on_threads(|rank, waker| {
                let sched = Arc::clone(rank.sched());
                drive(&sched, rank.id(), waker, f(rank))
            }),
        })
    }

    /// Run `f` as an SPMD program of blocking closures: one OS thread per
    /// rank, every thread calls `f(&mut rank)` while it holds one of the
    /// backend's run slots. [`BlockingRank`] derefs to [`Rank`]; its
    /// receives and collectives drive the async ones to completion on the
    /// rank's thread. Panics on failure like [`Machine::run_tasks`].
    pub fn run<T, F>(&self, f: F) -> RunResult<T>
    where
        T: Send,
        F: Fn(&mut BlockingRank) -> T + Sync,
    {
        self.try_run(f)
            .unwrap_or_else(|mf| panic!("{}", mf.render()))
    }

    /// [`Machine::run`] with the failure reported as
    /// [`Machine::try_run_tasks`] reports it.
    pub fn try_run<T, F>(&self, f: F) -> Result<RunResult<T>, MachineFailure>
    where
        T: Send,
        F: Fn(&mut BlockingRank) -> T + Sync,
    {
        self.execute(|run| run.on_threads(|rank, waker| f(&mut BlockingRank::new(rank, waker))))
    }

    /// One run: a fresh failure board and task table, the rank tasks
    /// driven by `exec`, then the verdict — the board's failures, else any
    /// message sent and never received, else every rank's result and
    /// report.
    fn execute<T>(
        &self,
        exec: impl FnOnce(&Run) -> Vec<Finished<T>>,
    ) -> Result<RunResult<T>, MachineFailure> {
        // An orderly rank shutdown unwinds with a typed payload that the
        // executor interprets via the failure board; the default panic
        // hook would still print "thread panicked" plus a backtrace for
        // it. Silence exactly that payload, once per process, and keep
        // the previous hook for genuine panics.
        static ORDERLY_HOOK: std::sync::Once = std::sync::Once::new();
        ORDERLY_HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !info.payload().is::<crate::faultlab::OrderlyAbort>() {
                    prev(info);
                }
            }));
        });

        let n = self.nranks;
        let board = Arc::new(FailureBoard::new());
        let run = Run {
            machine: self,
            // The task table is the run's one wait-for graph and holds every
            // message not yet received: it hands the backend's run slots to
            // the ready ranks, and it proves every deadlock from quiescence.
            sched: Arc::new(Sched::new(n, self.backend, Arc::clone(&board))),
            // One member list for every rank's world communicator.
            world: Arc::new((0..n).collect()),
            fctx: FaultCtx {
                faults: self.faults.clone(),
                recover: self.recover,
                recv_deadline: self.recv_deadline,
                board: Arc::clone(&board),
            },
        };
        let finished = exec(&run);
        let sched_stats = run.sched.stats();
        let mail = run.sched.take_mail();
        // The table and the ranks' template context hold board references.
        drop(run);
        let board = Arc::try_unwrap(board).expect("failure board still shared after the run");
        if board.has_failure() {
            return Err(MachineFailure {
                failures: board.into_failures(),
            });
        }
        // Every rank returned: nothing is in flight, and a message still
        // queued at its destination was never received.
        let mut left: Vec<(u64, UnreceivedMsg)> = Vec::new();
        for (dst, queue) in mail.into_iter().enumerate() {
            for m in queue {
                let unreceived = UnreceivedMsg {
                    src: m.src_world,
                    dst,
                    ctx: m.ctx,
                    tag: m.tag,
                    words: m.payload.words(),
                };
                left.push((m.uid, unreceived));
            }
        }
        if !left.is_empty() {
            // The uid is (sender, send sequence): a program order, where
            // the queues' own order is the host's.
            left.sort_by_key(|(uid, m)| (m.dst, *uid));
            let msgs: Vec<UnreceivedMsg> = left.into_iter().map(|(_, m)| m).collect();
            return Err(MachineFailure {
                failures: vec![RankFailure {
                    rank: msgs[0].dst,
                    phase: "finalize".to_string(),
                    kind: FailKind::Unreceived { msgs },
                    seq: 0,
                }],
            });
        }
        let (results, reports) = finished.into_iter().flatten().unzip();
        Ok(RunResult {
            results,
            reports,
            sched: sched_stats,
        })
    }
}

/// What one rank task left: its return value and report, or `None` when it
/// failed (the failure is on the board).
type Finished<T> = Option<(T, RankReport)>;

/// The shared state of one run, read by its executor.
struct Run<'m> {
    machine: &'m Machine,
    sched: Arc<Sched>,
    world: Arc<Vec<usize>>,
    fctx: FaultCtx,
}

impl Run<'_> {
    /// World rank `r`'s execution context.
    fn rank(&self, r: usize) -> Rank {
        let m = self.machine;
        Rank::new(
            r,
            Arc::clone(&self.world),
            m.model,
            m.tracing,
            m.host_profiling,
            self.fctx.clone(),
            Arc::clone(&self.sched),
        )
    }

    /// Record rank `r`'s unwinding on the board: orderly aborts recorded
    /// themselves, anything else is a raw panic.
    fn record_panic(&self, r: usize, e: Box<dyn Any + Send>) {
        if e.downcast_ref::<OrderlyAbort>().is_some() {
            return;
        }
        let message = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic>".to_string());
        self.fctx.board.record(RankFailure {
            rank: r,
            phase: String::new(),
            kind: FailKind::Panic { message },
            seq: 0,
        });
    }

    /// The one-slot executor: every rank's future, polled on the calling
    /// thread. Every [`Rank`] is built into one `Vec` first, and each task
    /// borrows its own. A rank granted the slot is woken through its waker,
    /// which names it to the loop below: one poll per grant, so a
    /// [`SchedStats`] step is a poll. A poll that unwinds ends its task like
    /// a return does.
    fn polled_here<T>(&self, f: &impl AsyncFn(&mut Rank) -> T) -> Vec<Finished<T>> {
        let n = self.world.len();
        let mut ranks: Vec<Rank> = (0..n).map(|r| self.rank(r)).collect();
        let granted = Arc::new(AtomicUsize::new(NONE));
        let wakers: Vec<Waker> = (0..n)
            .map(|rank| {
                let to = Arc::clone(&granted);
                Waker::from(Arc::new(Grant { rank, to }))
            })
            .collect();
        let mut done: Vec<Option<(T, f64)>> = (0..n).map(|_| None).collect();
        let mut tasks: Vec<Option<Task<'_, T>>> = ranks
            .iter_mut()
            .map(|rank| Some(Box::pin(f(rank)) as Task<'_, T>))
            .collect();
        let mut started: Vec<Option<Instant>> = vec![None; n];
        self.sched.start(wakers.clone());
        loop {
            let r = granted.swap(NONE, Ordering::Relaxed);
            if r == NONE {
                break;
            }
            let task = tasks[r].as_mut().expect("a granted task is live");
            // det-lint: allow(wall-clock): host-side wall_secs profiling only
            let t0 = *started[r].get_or_insert_with(Instant::now);
            let mut cx = Context::from_waker(&wakers[r]);
            match catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx))) {
                Ok(Poll::Pending) => continue,
                Ok(Poll::Ready(v)) => done[r] = Some((v, t0.elapsed().as_secs_f64())),
                Err(e) => self.record_panic(r, e),
            }
            tasks[r] = None;
            self.sched.exit(r);
        }
        // Every task ended: a grant is pending while any rank is live.
        debug_assert!(tasks.iter().all(Option::is_none), "a rank task never ended");
        drop(tasks);
        ranks
            .into_iter()
            .zip(done)
            .map(|(rank, d)| d.map(|(v, wall)| (v, rank.into_report(wall))))
            .collect()
    }

    /// One scoped OS thread per rank, each running `body` on its rank while
    /// it holds a slot and parking whenever `body` waits.
    fn on_threads<T: Send>(
        &self,
        body: impl Fn(&mut Rank, &Waker) -> T + Sync,
    ) -> Vec<Finished<T>> {
        std::thread::scope(|s| {
            let body = &body;
            let handles: Vec<_> = (0..self.world.len())
                .map(|r| {
                    std::thread::Builder::new()
                        .name(format!("simrank-{r}"))
                        // Factorization recursion and big local buffers:
                        // give each simulated rank a roomy stack. Lazily
                        // committed, so 4096 one-slot threads reserve
                        // address space, not RAM.
                        .stack_size(16 << 20)
                        .spawn_scoped(s, move || self.thread_task(r, body))
                        .expect("failed to spawn simulated rank")
                })
                .collect();
            let wakers = handles
                .iter()
                .map(|h| Waker::from(Arc::new(Unpark(h.thread().clone()))))
                .collect();
            // Fill the run slots; the joins below wait for the ranks.
            self.sched.start(wakers);
            let board = &self.fctx.board;
            let join = |(r, h): (usize, std::thread::ScopedJoinHandle<'_, Finished<T>>)| {
                // catch_unwind swallows unwinding panics; a join error here
                // means the thread aborted some other way.
                h.join().unwrap_or_else(|_| {
                    board.record(RankFailure {
                        rank: r,
                        phase: String::new(),
                        kind: FailKind::Panic {
                            message: "rank thread terminated abnormally".to_string(),
                        },
                        seq: 0,
                    });
                    None
                })
            };
            handles.into_iter().enumerate().map(join).collect()
        })
    }

    /// Rank `r`'s thread: wait for a slot (nothing — not even rank
    /// construction — runs before), then run `body`.
    fn thread_task<T>(&self, r: usize, body: &impl Fn(&mut Rank, &Waker) -> T) -> Finished<T> {
        // The rank is marked done (never sends again) even on panic.
        let _task = TaskGuard {
            rank: r,
            sched: Arc::clone(&self.sched),
        };
        self.sched.wait_turn(r);
        // det-lint: allow(wall-clock): host-side wall_secs profiling only
        let started = Instant::now();
        let mut rank = self.rank(r);
        let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
        match catch_unwind(AssertUnwindSafe(|| body(&mut rank, &waker))) {
            Ok(v) => Some((v, rank.into_report(started.elapsed().as_secs_f64()))),
            Err(e) => {
                self.record_panic(r, e);
                None
            }
        }
    }
}

/// A rank's future in the one-slot executor, borrowing its [`Rank`].
type Task<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// No rank holds the one-slot executor's grant.
const NONE: usize = usize::MAX;

/// The waker of a rank task in the one-slot executor: name the rank to the
/// executor's loop, which polls it next.
struct Grant {
    rank: usize,
    to: Arc<AtomicUsize>,
}

impl Wake for Grant {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        // Every wake happens on the executor's thread, inside a poll or the
        // loop's own `exit`: the grant publishes nothing across threads.
        self.to.store(self.rank, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    #[test]
    fn ring_exchange() {
        let m = Machine::new(5, TimeModel::zero());
        let out = m.run_tasks(async |rank| {
            let world = rank.world();
            let right = (rank.id() + 1) % 5;
            let left = (rank.id() + 4) % 5;
            rank.send(&world, right, 1, Payload::F64s(vec![rank.id() as f64]));
            rank.recv(&world, left, 1).await.into_f64s()[0]
        });
        assert_eq!(out.results, vec![4.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn out_of_order_delivery_is_buffered() {
        // Rank 0 sends two differently tagged messages; rank 1 receives them
        // in the opposite order.
        let m = Machine::new(2, TimeModel::zero());
        let out = m.run_tasks(async |rank| {
            let world = rank.world();
            if rank.id() == 0 {
                rank.send(&world, 1, 10, Payload::F64s(vec![1.0]));
                rank.send(&world, 1, 20, Payload::F64s(vec![2.0]));
                0.0
            } else {
                let b = rank.recv(&world, 0, 20).await.into_f64s()[0];
                let a = rank.recv(&world, 0, 10).await.into_f64s()[0];
                a * 10.0 + b
            }
        });
        assert_eq!(out.results[1], 12.0);
    }

    #[test]
    fn the_unexpected_message_queue_drains_to_empty() {
        // Rank 1 receives in the reverse of the order rank 0 sent in, so all
        // but the last of 1500 messages are stashed before they are wanted.
        // Once every message has met its receive nothing is left behind — no
        // per-key queue, no tombstone.
        const N: u64 = 1500;
        for backend in [Backend::Threaded, Backend::Event] {
            let m = Machine::new(2, TimeModel::zero()).with_backend(backend);
            let out = m.run_tasks(async |rank| {
                let world = rank.world();
                if rank.id() == 0 {
                    for tag in 0..N {
                        rank.send(&world, 1, tag, Payload::F64s(vec![tag as f64]));
                    }
                    (0, 0)
                } else {
                    let mut high_water = 0;
                    for tag in (0..N).rev() {
                        assert_eq!(
                            rank.recv(&world, 0, tag).await.into_f64s(),
                            vec![tag as f64]
                        );
                        high_water = high_water.max(rank.unexpected_msgs());
                    }
                    (high_water, rank.unexpected_msgs())
                }
            });
            let (high_water, left) = out.results[1];
            assert_eq!(high_water, N as usize - 1, "{backend}: stashed");
            assert_eq!(left, 0, "{backend}: left behind");
        }
    }

    #[test]
    fn bcast_all_sizes_all_roots() {
        for p in 1..=9usize {
            for root in 0..p {
                let m = Machine::new(p, TimeModel::zero());
                let out = m.run_tasks(async move |rank| {
                    let world = rank.world();
                    let data = if rank.world().local_rank() == root {
                        Some(Payload::F64s(vec![42.0, 7.0]))
                    } else {
                        None
                    };
                    rank.bcast(&world, root, data, 3).await.into_f64s()
                });
                for r in &out.results {
                    assert_eq!(r, &vec![42.0, 7.0], "p={p} root={root}");
                }
                // Binomial tree sends exactly p-1 messages.
                let total: u64 = out.reports.iter().map(|r| r.total_sent_msgs()).sum();
                assert_eq!(total, (p - 1) as u64, "p={p} root={root}");
            }
        }
    }

    #[test]
    fn reduce_sum_all_sizes_all_roots() {
        for p in 1..=9usize {
            for root in 0..p {
                let m = Machine::new(p, TimeModel::zero());
                let out = m.run_tasks(async move |rank| {
                    let world = rank.world();
                    let data = vec![rank.id() as f64, 1.0];
                    rank.reduce_sum(&world, root, data, 5).await
                });
                let expected0 = (0..p).sum::<usize>() as f64;
                for (i, r) in out.results.iter().enumerate() {
                    if i == root {
                        assert_eq!(r.as_ref().unwrap(), &vec![expected0, p as f64]);
                    } else {
                        assert!(r.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn subset_communicators_isolate_traffic() {
        let m = Machine::new(4, TimeModel::zero());
        let out = m.run_tasks(async |rank| {
            // Split into even/odd pairs; same tags on both communicators.
            let evens = [0usize, 2];
            let odds = [1usize, 3];
            let mine = if rank.id() % 2 == 0 {
                &evens[..]
            } else {
                &odds[..]
            };
            let other = if rank.id() % 2 == 0 {
                &odds[..]
            } else {
                &evens[..]
            };
            // SPMD discipline: create in the same order everywhere.
            let (c_even, c_odd) = if rank.id() % 2 == 0 {
                let a = rank.subset(mine);
                let b = rank.subset(other);
                (a, b)
            } else {
                let a = rank.subset(other);
                let b = rank.subset(mine);
                (a, b)
            };
            let comm = c_even.or(c_odd).unwrap();
            let peer = 1 - comm.local_rank();
            rank.send(&comm, peer, 77, Payload::F64s(vec![rank.id() as f64]));
            rank.recv(&comm, peer, 77).await.into_f64s()[0]
        });
        assert_eq!(out.results, vec![2.0, 3.0, 0.0, 1.0]);
    }

    #[test]
    fn clocks_model_alpha_beta() {
        let model = TimeModel {
            alpha: 1.0,
            beta: 0.1,
            flops_per_sec: 1.0,
        };
        let m = Machine::new(2, model);
        let out = m.run_tasks(async |rank| {
            let world = rank.world();
            if rank.id() == 0 {
                rank.advance_compute(10); // clock = 10
                rank.send(&world, 1, 0, Payload::F64s(vec![0.0; 10])); // +2 -> 12, arrival 12
                rank.clock()
            } else {
                rank.recv(&world, 0, 0).await; // ready at 12, +2 transfer = 14
                rank.clock()
            }
        });
        assert!((out.results[0] - 12.0).abs() < 1e-12);
        assert!((out.results[1] - 14.0).abs() < 1e-12);
        assert!((out.reports[1].t_comm - 14.0).abs() < 1e-12);
        assert!((out.reports[0].t_comp - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn rank_panic_propagates() {
        let m = Machine::new(2, TimeModel::zero());
        let _ = m.run_tasks(async |rank| {
            if rank.id() == 1 {
                panic!("boom");
            }
            // rank 0 must terminate too: it does nothing and returns.
            0
        });
    }
}
