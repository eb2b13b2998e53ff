//! Wait-for-graph deadlock detection for the simulated machine.
//!
//! Every rank registers an edge when it blocks in a receive (directly or
//! inside a collective, which is built on receives): *who* it waits for and
//! *what* it waits on (ctx, tag, phase). A detector finds the set of ranks
//! that can never make progress — each waiting only on ranks that are
//! themselves stuck or finished — and publishes a report naming the exact
//! cycle, which every blocked rank picks up and aborts with.
//!
//! Detection is a two-phase protocol to tolerate in-flight messages: a
//! candidate stuck set is only *confirmed* if every member is still in the
//! same blocked episode after a grace period (a message in flight to a
//! blocked rank wakes it within microseconds, changing its episode).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What a blocked rank is waiting on. Cheap to build: registering a wait
/// allocates nothing.
#[derive(Clone, Debug)]
pub struct WaitInfo {
    /// The one world rank that can satisfy the receive.
    pub src: usize,
    pub ctx: u64,
    pub tag: u64,
    /// Traffic phase label active on the waiting rank.
    pub phase: Arc<str>,
}

impl WaitInfo {
    fn describe(&self) -> String {
        format!(
            "(ctx={}, src={}, tag={}, phase={})",
            self.ctx, self.src, self.tag, self.phase
        )
    }
}

#[derive(Clone, Debug, Default)]
enum RankState {
    #[default]
    Running,
    Blocked(WaitInfo),
    Done,
}

#[derive(Debug, Default)]
struct Slot {
    state: RankState,
    /// Bumped on every `block`, so the detector can tell "still in the same
    /// wait" from "woke up and blocked again".
    episode: u64,
}

/// The machine-wide wait-for graph. One per [`Machine::run`]; shared by all
/// rank threads and the detector.
#[derive(Debug)]
pub struct WaitGraph {
    slots: Mutex<Vec<Slot>>,
    deadlock: Mutex<Option<String>>,
    found: AtomicBool,
}

impl WaitGraph {
    pub fn new(nranks: usize) -> Self {
        WaitGraph {
            slots: Mutex::new((0..nranks).map(|_| Slot::default()).collect()),
            deadlock: Mutex::new(None),
            found: AtomicBool::new(false),
        }
    }

    /// Register that `rank` is blocking on a receive.
    pub fn block(&self, rank: usize, info: WaitInfo) {
        let mut slots = self.slots.lock().unwrap();
        slots[rank].state = RankState::Blocked(info);
        slots[rank].episode += 1;
    }

    /// Register that `rank` found its message and resumed.
    pub fn unblock(&self, rank: usize) {
        let mut slots = self.slots.lock().unwrap();
        slots[rank].state = RankState::Running;
    }

    /// Register that `rank`'s SPMD closure returned (or panicked): it will
    /// never send again.
    pub fn mark_done(&self, rank: usize) {
        let mut slots = self.slots.lock().unwrap();
        slots[rank].state = RankState::Done;
    }

    /// True when `rank` has terminated (marked done). A blocked receive
    /// whose source is done can never complete; the fault layer uses this
    /// to resolve waits on dead peers as cascade failures instead of
    /// hanging until the timeout backstop.
    pub fn is_done(&self, rank: usize) -> bool {
        matches!(self.slots.lock().unwrap()[rank].state, RankState::Done)
    }

    /// The confirmed deadlock report, if the detector found one. Cheap to
    /// poll: a relaxed atomic guards the lock.
    pub fn deadlock_report(&self) -> Option<String> {
        if !self.found.load(Ordering::Relaxed) {
            return None;
        }
        self.deadlock.lock().unwrap().clone()
    }

    /// One line per rank: Running / Done / Blocked on what. This is the
    /// wait-for-graph state named by the receive-timeout backstop message.
    pub fn dump(&self) -> String {
        let slots = self.slots.lock().unwrap();
        let mut out = String::from("wait-for graph:\n");
        for (r, s) in slots.iter().enumerate() {
            match &s.state {
                RankState::Running => out.push_str(&format!("  rank {r}: running\n")),
                RankState::Done => out.push_str(&format!("  rank {r}: finished\n")),
                RankState::Blocked(w) => {
                    out.push_str(&format!("  rank {r}: blocked in recv {}\n", w.describe()))
                }
            }
        }
        out
    }

    /// Find the candidate stuck set: blocked ranks whose source is
    /// finished or itself in the set (greatest fixed point). Members can
    /// never be unblocked — unless a message to one of them is still in
    /// flight, which [`WaitGraph::run_detector`] rules out by re-checking
    /// episodes after a grace period.
    fn candidate_stuck(&self) -> Vec<(usize, u64)> {
        let slots = self.slots.lock().unwrap();
        let n = slots.len();
        let mut stuck: Vec<bool> = slots
            .iter()
            .map(|s| matches!(s.state, RankState::Blocked(_)))
            .collect();
        let done: Vec<bool> = slots
            .iter()
            .map(|s| matches!(s.state, RankState::Done))
            .collect();
        loop {
            let mut changed = false;
            for r in 0..n {
                if !stuck[r] {
                    continue;
                }
                let RankState::Blocked(w) = &slots[r].state else {
                    unreachable!()
                };
                // A rank stays in the set only if its source can never
                // send again.
                if !(done[w.src] || stuck[w.src]) {
                    stuck[r] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (0..n)
            .filter(|&r| stuck[r])
            .map(|r| (r, slots[r].episode))
            .collect()
    }

    /// Format the confirmed stuck set as the abort report.
    fn format_deadlock(&self, members: &[(usize, u64)]) -> String {
        let slots = self.slots.lock().unwrap();
        let mut out = format!(
            "deadlock detected: {} rank(s) can never make progress\n",
            members.len()
        );
        for &(r, _) in members {
            if let RankState::Blocked(w) = &slots[r].state {
                out.push_str(&format!(
                    "  rank {r} blocked in recv {} waiting on rank(s) {}\n",
                    w.describe(),
                    w.src
                ));
            }
        }
        out
    }

    /// Synchronous detection for schedulers that *know* the machine is
    /// quiescent. The event-driven backend calls this when its ready queue
    /// empties with live ranks still blocked: under cooperative scheduling
    /// no message can be in flight at that point, so the candidate stuck
    /// set needs no grace period — it *is* the verdict. Publishes the
    /// report (blocked ranks pick it up via [`WaitGraph::deadlock_report`])
    /// and returns it; `None` when no rank is hopelessly stuck.
    pub fn detect_now(&self) -> Option<String> {
        let stuck = self.candidate_stuck();
        if stuck.is_empty() {
            return None;
        }
        let report = self.format_deadlock(&stuck);
        *self.deadlock.lock().unwrap() = Some(report.clone());
        self.found.store(true, Ordering::SeqCst);
        Some(report)
    }

    /// Detector loop: scan for a candidate stuck set, confirm it after a
    /// grace period (same members, same blocked episodes), then publish the
    /// report for blocked ranks to abort with. Runs until `stop` is set or
    /// a deadlock is confirmed. The machine owns this on a dedicated
    /// `commcheck-detector` thread when a fault plan is installed.
    pub fn run_detector(&self, stop: &AtomicBool) {
        const SCAN: Duration = Duration::from_millis(10);
        const GRACE: Duration = Duration::from_millis(50);
        while !stop.load(Ordering::Relaxed) {
            std::thread::sleep(SCAN);
            let candidate = self.candidate_stuck();
            if candidate.is_empty() {
                continue;
            }
            // Grace period: any in-flight message to a member wakes it and
            // bumps its episode (or unblocks it outright).
            std::thread::sleep(GRACE);
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let confirmed = self.candidate_stuck();
            if confirmed == candidate {
                let report = self.format_deadlock(&confirmed);
                *self.deadlock.lock().unwrap() = Some(report);
                self.found.store(true, Ordering::SeqCst);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait(src: usize, ctx: u64, tag: u64) -> WaitInfo {
        WaitInfo {
            src,
            ctx,
            tag,
            phase: "fact".into(),
        }
    }

    #[test]
    fn cross_recv_cycle_is_stuck() {
        let g = WaitGraph::new(2);
        g.block(0, wait(1, 0, 5));
        g.block(1, wait(0, 0, 6));
        let stuck = g.candidate_stuck();
        assert_eq!(stuck.iter().map(|s| s.0).collect::<Vec<_>>(), vec![0, 1]);
        let rep = g.format_deadlock(&stuck);
        assert!(rep.contains("rank 0"), "{rep}");
        assert!(rep.contains("tag=5"), "{rep}");
        assert!(rep.contains("tag=6"), "{rep}");
        assert!(rep.contains("phase=fact"), "{rep}");
    }

    #[test]
    fn waiting_on_running_rank_is_not_stuck() {
        let g = WaitGraph::new(3);
        g.block(0, wait(1, 0, 1));
        g.block(1, wait(2, 0, 1));
        // Rank 2 is running: the chain can still drain.
        assert!(g.candidate_stuck().is_empty());
    }

    #[test]
    fn waiting_on_finished_rank_is_stuck() {
        let g = WaitGraph::new(2);
        g.mark_done(1);
        g.block(0, wait(1, 0, 9));
        let stuck = g.candidate_stuck();
        assert_eq!(stuck.len(), 1);
        assert_eq!(stuck[0].0, 0);
    }

    #[test]
    fn unblock_clears_the_edge_and_episode_advances() {
        let g = WaitGraph::new(2);
        g.block(0, wait(1, 0, 1));
        g.mark_done(1);
        let before = g.candidate_stuck();
        assert_eq!(before.len(), 1);
        g.unblock(0);
        assert!(g.candidate_stuck().is_empty());
        g.block(0, wait(1, 0, 2));
        let after = g.candidate_stuck();
        assert_eq!(after.len(), 1);
        assert_ne!(before[0].1, after[0].1, "episode must advance");
    }

    #[test]
    fn detector_confirms_and_publishes() {
        let g = std::sync::Arc::new(WaitGraph::new(2));
        g.block(0, wait(1, 7, 5));
        g.block(1, wait(0, 7, 6));
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let (g2, s2) = (std::sync::Arc::clone(&g), std::sync::Arc::clone(&stop));
        let h = std::thread::spawn(move || g2.run_detector(&s2));
        h.join().unwrap();
        let rep = g.deadlock_report().expect("deadlock must be confirmed");
        assert!(rep.contains("deadlock detected"), "{rep}");
        assert!(rep.contains("ctx=7"), "{rep}");
    }

    #[test]
    fn detect_now_publishes_without_grace() {
        let g = WaitGraph::new(3);
        g.block(0, wait(1, 2, 5));
        g.block(1, wait(0, 2, 6));
        // Rank 2 is running: not part of the stuck set, detection still fires.
        let rep = g
            .detect_now()
            .expect("cycle must be detected synchronously");
        assert!(rep.contains("deadlock detected: 2 rank(s)"), "{rep}");
        assert!(rep.contains("ctx=2"), "{rep}");
        assert_eq!(g.deadlock_report().as_deref(), Some(rep.as_str()));
    }

    #[test]
    fn detect_now_is_none_while_progress_is_possible() {
        let g = WaitGraph::new(2);
        g.block(0, wait(1, 0, 1));
        // Rank 1 is running: nothing is stuck, nothing is published.
        assert!(g.detect_now().is_none());
        assert!(g.deadlock_report().is_none());
    }

    #[test]
    fn is_done_tracks_termination() {
        let g = WaitGraph::new(3);
        assert!(!g.is_done(1));
        g.mark_done(1);
        assert!(g.is_done(1));
        assert!(!g.is_done(2));
    }

    #[test]
    fn dump_names_every_rank_state() {
        let g = WaitGraph::new(3);
        g.block(1, wait(2, 0, 4));
        g.mark_done(2);
        let d = g.dump();
        assert!(d.contains("rank 0: running"), "{d}");
        assert!(d.contains("rank 1: blocked in recv"), "{d}");
        assert!(d.contains("src=2"), "{d}");
        assert!(d.contains("rank 2: finished"), "{d}");
    }
}
