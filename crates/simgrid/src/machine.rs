//! The machine driver: spawns one task per simulated rank, runs the SPMD
//! closure under the configured [`Backend`], and collects results plus
//! per-rank reports.

use crate::backend::{Backend, BatonGuard, EventSched, SchedStats};
use crate::faultlab::{
    FailKind, FailureBoard, FaultPlan, MachineFailure, OrderlyAbort, RankFailure, RetryPolicy,
    UnreceivedMsg,
};
use crate::rank::{FaultCtx, Msg, Rank};
use crate::stats::{RankReport, TrafficSummary};
use crate::timemodel::TimeModel;
use commcheck::WaitGraph;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default wall-clock receive backstop when neither
/// [`Machine::with_recv_timeout`] nor `SALU_RECV_TIMEOUT_SECS` overrides
/// it. Generous enough for heavily oversubscribed benchmark runs, small
/// enough that a protocol bug fails a test instead of hanging CI forever.
const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(300);

/// Per-run receive backstop: the machine's explicit setting wins, then the
/// `SALU_RECV_TIMEOUT_SECS` environment variable, then the default. Read
/// on every run (not latched per process), so tests and multi-machine
/// processes can vary it.
fn resolve_recv_timeout(explicit: Option<Duration>) -> Duration {
    explicit.unwrap_or_else(|| {
        std::env::var("SALU_RECV_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .map(Duration::from_secs)
            .unwrap_or(DEFAULT_RECV_TIMEOUT)
    })
}

/// A simulated distributed-memory machine with a fixed rank count and
/// machine model. Cheap to construct; each [`Machine::run`] spawns fresh
/// threads and channels.
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
    /// Ack/retransmit recovery for droppable sends; `None` = drops are lost.
    retry: Option<RetryPolicy>,
    /// Simulated-time receive deadline (seconds); `None` = wait forever
    /// (up to the wall-clock backstop).
    recv_deadline: Option<f64>,
    /// Wall-clock receive backstop override; `None` falls back to
    /// `SALU_RECV_TIMEOUT_SECS`, then the 300s default. Threaded backend
    /// only — the event backend has no blocked OS threads to unstick.
    recv_timeout: Option<Duration>,
}

/// The outcome of one SPMD run.
#[derive(Debug)]
pub struct RunResult<T> {
    /// Per-rank return values, indexed by world rank.
    pub results: Vec<T>,
    /// Per-rank traffic/time reports, indexed by world rank.
    pub reports: Vec<RankReport>,
    /// Scheduler counters of an event-backend run; `None` under the
    /// threaded backend, where the kernel schedules.
    pub sched: Option<SchedStats>,
}

/// Marks a rank finished in the wait-for graph when its thread exits —
/// normally or by panic — so the deadlock detector knows it will never
/// send again.
struct DoneGuard {
    graph: Arc<WaitGraph>,
    rank: usize,
}

impl Drop for DoneGuard {
    fn drop(&mut self) {
        self.graph.mark_done(self.rank);
    }
}

/// Stops and joins the detector thread, even when a rank panic unwinds
/// through [`Machine::run`]'s join loop.
struct DetectorGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for DetectorGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
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
            retry: None,
            recv_deadline: None,
            recv_timeout: None,
        }
    }

    /// Select the execution backend (see [`Backend`] and `docs/backends.md`).
    /// Simulated results — factor digests, makespans, every ledger — are
    /// identical either way; only host-side scheduling differs. The
    /// threaded default keeps real parallelism; the event backend runs
    /// arbitrarily large rank counts in one cooperative process.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Override the wall-clock receive backstop for this machine (threaded
    /// backend only). Without this, each run reads
    /// `SALU_RECV_TIMEOUT_SECS`, defaulting to 300s. The event backend
    /// never blocks an OS thread on a receive, so it ignores the backstop
    /// and detects stuckness exactly, from scheduler quiescence.
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = Some(timeout);
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
    /// Valid under both backends. Under the event backend a rank's wall is
    /// the time it held the baton: the profiler is paused while the rank is
    /// parked, so the per-rank walls add up to (at most) the machine's.
    pub fn with_host_profiling(mut self) -> Self {
        self.host_profiling = true;
        self
    }

    /// Install a seeded fault plan (see [`crate::faultlab`]): messages
    /// matching its rules are dropped, duplicated, or delayed, ranks stall,
    /// and links degrade — all deterministically from the plan's seed. Under
    /// the threaded backend the wait-for-graph watchdog runs whenever a plan
    /// is installed (even one with no rules), so an unrecovered drop aborts
    /// the run with a cycle report within ~100ms instead of hanging until
    /// the wall-clock backstop; the event backend needs no watchdog.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Enable ack/retransmit recovery for droppable sends (see
    /// [`RetryPolicy`]). With recovery on, a faulted run delivers the same
    /// payload sequence as the fault-free run — results stay bitwise
    /// identical, only clocks shift.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Fail a receive whose matching message arrives more than `secs`
    /// *simulated* seconds after the receiver started waiting. This is the
    /// primary stall-detection mechanism — deterministic and schedule-
    /// independent, unlike the wall-clock `SALU_RECV_TIMEOUT_SECS`
    /// backstop, which stays only as a last resort.
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

    /// Run `f` as an SPMD program: one OS thread per rank, every thread
    /// calls `f(&mut rank)`. Blocks until all ranks return. A failure on
    /// any rank panics with the rank-attributed report of
    /// [`MachineFailure::render`] (primary cause first, cascades listed) so
    /// protocol bugs fail tests. Use [`Machine::try_run`] to handle the
    /// failure structurally instead.
    pub fn run<T, F>(&self, f: F) -> RunResult<T>
    where
        T: Send + 'static,
        F: Fn(&mut Rank) -> T + Send + Sync + 'static,
    {
        match self.try_run(f) {
            Ok(r) => r,
            Err(mf) => panic!("{}", mf.render()),
        }
    }

    /// Like [`Machine::run`], but a failing rank yields a structured
    /// [`MachineFailure`] instead of a panic. Failures are collected on a
    /// machine-wide board; the *primary* (earliest non-cascade) entry names
    /// the original failing rank even when other ranks die in its wake —
    /// the panic-collection reports the cause, not the cascade.
    ///
    /// A run in which every rank returned still fails, with
    /// [`FailKind::Unreceived`], if a message was sent and never received.
    /// The check costs the message path nothing: a returned rank's inbox
    /// and unexpected-message queue stay open until every rank is joined,
    /// and what they hold then is the answer — the same one whichever of
    /// sender and receiver the host ran first.
    ///
    /// One engine runs both backends, one task per rank either way; the
    /// machine's [`Backend`] decides who schedules them — the kernel
    /// (threaded) or the ranks themselves, passing the `EventSched` baton
    /// (event).
    pub fn try_run<T, F>(&self, f: F) -> Result<RunResult<T>, MachineFailure>
    where
        T: Send + 'static,
        F: Fn(&mut Rank) -> T + Send + Sync + 'static,
    {
        let event_mode = self.backend == Backend::Event;
        // An orderly rank shutdown unwinds with a typed payload that the
        // join loop interprets via the failure board; the default panic
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
        let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let senders = Arc::new(senders);
        let f = Arc::new(f);
        let model = self.model;
        let tracing = self.tracing;
        let host_profiling = self.host_profiling;
        let board = Arc::new(FailureBoard::new());

        // The wait-for graph always exists (it feeds the receive-timeout
        // backstop's dump). The watchdog deadlock detector runs for faulted
        // threaded runs: an unrecovered drop must abort with a cycle
        // report, not hang. It is not always on — its grace confirmation is
        // wall-clock, and oversubscribed healthy runs must not be judged by
        // it. The event backend needs no watchdog — its scheduler detects
        // stuckness synchronously from quiescence.
        let wait_graph = Arc::new(WaitGraph::new(n));
        let _detector = (!event_mode && self.faults.is_some()).then(|| {
            let graph = Arc::clone(&wait_graph);
            let stop = Arc::new(AtomicBool::new(false));
            let stop2 = Arc::clone(&stop);
            let handle = std::thread::Builder::new()
                .name("commcheck-detector".to_string())
                .spawn(move || graph.run_detector(&stop2))
                .expect("failed to spawn deadlock detector");
            DetectorGuard {
                stop,
                handle: Some(handle),
            }
        });

        let sched = event_mode.then(|| {
            Arc::new(EventSched::new(
                n,
                Arc::clone(&wait_graph),
                Arc::clone(&board),
            ))
        });
        // One member list for every rank's world communicator.
        let world: Arc<Vec<usize>> = Arc::new((0..n).collect());

        let fctx = FaultCtx {
            faults: self.faults.clone(),
            retry: self.retry,
            recv_deadline: self.recv_deadline,
            recv_timeout: resolve_recv_timeout(self.recv_timeout),
            board: Arc::clone(&board),
        };
        let mut handles = Vec::with_capacity(n);
        for (world_rank, inbox) in receivers.into_iter().enumerate() {
            let senders = Arc::clone(&senders);
            let f = Arc::clone(&f);
            let graph = Arc::clone(&wait_graph);
            let fctx = fctx.clone();
            let sched = sched.clone();
            let world = Arc::clone(&world);
            let handle = std::thread::Builder::new()
                .name(format!("simrank-{world_rank}"))
                // Factorization recursion and big local buffers: give each
                // simulated rank a roomy stack. Lazily committed, so 4096
                // event-mode tasks reserve address space, not RAM.
                .stack_size(16 << 20)
                .spawn(move || {
                    // Declared first so it drops *last*: by the time the
                    // baton moves on, the wait-for graph below already
                    // shows the rank finished.
                    let _baton = sched.as_ref().map(|s| BatonGuard {
                        rank: world_rank,
                        sched: Arc::clone(s),
                    });
                    // Declared second, drops first: the rank is marked
                    // done (never sends again) even on panic.
                    let _done = DoneGuard {
                        graph: Arc::clone(&graph),
                        rank: world_rank,
                    };
                    let board = Arc::clone(&fctx.board);
                    if let Some(s) = &sched {
                        // Cooperative mode: no simulated work — not even
                        // rank construction — before the first time slice.
                        s.wait_turn(world_rank);
                    }
                    // det-lint: allow(wall-clock): host-side wall_secs profiling only
                    let started = Instant::now();
                    let mut rank = Rank::new(
                        world_rank,
                        world,
                        senders,
                        inbox,
                        model,
                        tracing,
                        host_profiling,
                        graph,
                        fctx,
                        sched,
                    );
                    let out =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rank)));
                    match out {
                        Ok(v) => {
                            let wall = started.elapsed().as_secs_f64();
                            Some((v, rank.into_report(wall)))
                        }
                        Err(e) => {
                            // Orderly aborts already recorded themselves on
                            // the board; anything else is a raw panic.
                            if e.downcast_ref::<OrderlyAbort>().is_none() {
                                let message = e
                                    .downcast_ref::<String>()
                                    .cloned()
                                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                                    .unwrap_or_else(|| "<non-string panic>".to_string());
                                board.record(RankFailure {
                                    rank: world_rank,
                                    phase: String::new(),
                                    kind: FailKind::Panic { message },
                                    seq: 0,
                                });
                            }
                            None
                        }
                    }
                })
                .expect("failed to spawn simulated rank");
            handles.push(handle);
        }
        // The template context holds a board reference; release it so the
        // post-join `Arc::try_unwrap` sees the sole owner.
        drop(fctx);

        // Event mode: hand out the first baton and sleep until every task
        // has terminated, so the join loop below never blocks for long.
        let sched_stats = sched.map(|s| s.drive(&handles));

        let mut results = Vec::with_capacity(n);
        let mut reports = Vec::with_capacity(n);
        // Each returned rank's (inbox, unexpected-message queue), by rank.
        let mut mail = Vec::with_capacity(n);
        for (world_rank, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(Some((out, (report, inbox, pending)))) => {
                    results.push(out);
                    reports.push(report);
                    mail.push((inbox, pending));
                }
                // Failure already recorded on the board.
                Ok(None) => {}
                // catch_unwind swallows unwinding panics; a join error here
                // means the thread aborted some other way.
                Err(_) => board.record(RankFailure {
                    rank: world_rank,
                    phase: String::new(),
                    kind: FailKind::Panic {
                        message: "rank thread terminated abnormally".to_string(),
                    },
                    seq: 0,
                }),
            }
        }
        let board = Arc::try_unwrap(board).expect("failure board still shared after join");
        if board.has_failure() {
            return Err(MachineFailure {
                failures: board.into_failures(),
            });
        }
        // Every rank returned (so `mail` is indexed by rank) and is joined:
        // nothing is in flight, and a message still queued at its
        // destination was never received. Transport duplicates (recovery
        // on) were never protocol messages.
        let mut left: Vec<(u64, UnreceivedMsg)> = Vec::new();
        for (dst, (inbox, pending)) in mail.into_iter().enumerate() {
            for m in pending.into_iter().chain(inbox.try_iter()) {
                if !m.injected_dup {
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
        Ok(RunResult {
            results,
            reports,
            sched: sched_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    #[test]
    fn ring_exchange() {
        let m = Machine::new(5, TimeModel::zero());
        let out = m.run(|rank| {
            let world = rank.world();
            let right = (rank.id() + 1) % 5;
            let left = (rank.id() + 4) % 5;
            rank.send(&world, right, 1, Payload::Idx(vec![rank.id()]));
            rank.recv(&world, left, 1).into_idx()[0]
        });
        assert_eq!(out.results, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn out_of_order_delivery_is_buffered() {
        // Rank 0 sends two differently tagged messages; rank 1 receives them
        // in the opposite order.
        let m = Machine::new(2, TimeModel::zero());
        let out = m.run(|rank| {
            let world = rank.world();
            if rank.id() == 0 {
                rank.send(&world, 1, 10, Payload::F64s(vec![1.0]));
                rank.send(&world, 1, 20, Payload::F64s(vec![2.0]));
                0.0
            } else {
                let b = rank.recv(&world, 0, 20).into_f64s()[0];
                let a = rank.recv(&world, 0, 10).into_f64s()[0];
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
            let out = m.run(|rank| {
                let world = rank.world();
                if rank.id() == 0 {
                    for tag in 0..N {
                        rank.send(&world, 1, tag, Payload::Idx(vec![tag as usize]));
                    }
                    (0, 0)
                } else {
                    let mut high_water = 0;
                    for tag in (0..N).rev() {
                        assert_eq!(rank.recv(&world, 0, tag).into_idx(), vec![tag as usize]);
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
                let out = m.run(move |rank| {
                    let world = rank.world();
                    let data = if rank.world().local_rank() == root {
                        Some(Payload::F64s(vec![42.0, 7.0]))
                    } else {
                        None
                    };
                    rank.bcast(&world, root, data, 3).into_f64s()
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
                let out = m.run(move |rank| {
                    let world = rank.world();
                    let data = vec![rank.id() as f64, 1.0];
                    rank.reduce_sum(&world, root, data, 5)
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
        let out = m.run(|rank| {
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
            rank.send(&comm, peer, 77, Payload::Idx(vec![rank.id()]));
            rank.recv(&comm, peer, 77).into_idx()[0]
        });
        assert_eq!(out.results, vec![2, 3, 0, 1]);
    }

    #[test]
    fn clocks_model_alpha_beta() {
        let model = TimeModel {
            alpha: 1.0,
            beta: 0.1,
            flops_per_sec: 1.0,
        };
        let m = Machine::new(2, model);
        let out = m.run(|rank| {
            let world = rank.world();
            if rank.id() == 0 {
                rank.advance_compute(10); // clock = 10
                rank.send(&world, 1, 0, Payload::F64s(vec![0.0; 10])); // +2 -> 12, arrival 12
                rank.clock()
            } else {
                rank.recv(&world, 0, 0); // ready at 12, +2 transfer = 14
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
        let _ = m.run(|rank| {
            if rank.id() == 1 {
                panic!("boom");
            }
            // rank 0 must terminate too: it does nothing and returns.
            0
        });
    }
}
