//! Host-time profiler: a per-rank wall-clock ledger over a fixed phase
//! taxonomy.
//!
//! `memprof` answers "where did the bytes go" and `commvol` answers "where
//! did the words go"; this module answers "where did the *host seconds*
//! go". Algorithm layers open scoped RAII timers ([`HostScope`]) tagged
//! with a [`HostPhase`]; the profiler keeps a strict LIFO frame stack so
//! nested scopes attribute **self time** — elapsed minus time spent in
//! children — to the full phase path of the open stack. That one map is
//! the ledger: the per-phase totals are its sums by leaf phase, so they
//! partition the covered wall time with no double counting. Whatever the
//! run's measured wall clock is *not* covered by an explicit scope is
//! reported as [`HostPhase::Orchestration`], so the attribution sums to
//! 100% of the wall by construction (tests assert it).
//!
//! Frozen reports carry a host flop rate derived from the simulator's flop
//! counter. The machine's folded-stack text (`gemm;comm-wait 12345` lines,
//! each path's self time summed over ranks) renders directly in
//! `inferno`/`flamegraph.pl`.
//!
//! Unlike the simulated-time ledgers this one reads the **host** clock,
//! which is inherently nondeterministic; it therefore never touches
//! simulated time, results, or golden artifacts. Timeline events for the
//! Chrome counter tracks are stamped with the *simulated* time captured at
//! scope open, so their placement in the trace is deterministic even
//! though their values (nanoseconds) are not.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
// det-lint: allow(wall-clock): this module is the host-time profiler; reading the host clock is its job
use std::time::Instant;

/// What the host was doing. The taxonomy follows the hot path of the 2D
/// kernel under the 3D schedule plus the triangular solves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HostPhase {
    /// Building the rank's block store: allocating its kept share of the
    /// pattern and scattering its bucket of matrix values.
    StoreBuild,
    /// Dense panel factorization of a diagonal supernode.
    PanelFactor,
    /// Packing panel pairs into batched GEMM operands.
    Gather,
    /// The Schur-complement GEMM itself (per-block or batched).
    Gemm,
    /// Scattering batched GEMM results back into destination blocks.
    Scatter,
    /// Forward triangular solve.
    SolveFwd,
    /// Backward triangular solve.
    SolveBwd,
    /// Between the triangular solves of a run with a right-hand side:
    /// assembling the solution (and each refinement correction) over the
    /// whole machine and forming this rank's rows of the residual.
    Refine,
    /// Hashing the rank's factored blocks into the run's factor digest.
    Digest,
    /// Blocked in a receive whose message had not yet arrived on the
    /// physical channel.
    CommWait,
    /// Everything not covered by an explicit scope: scheduling, symbolic
    /// lookups, message packing in the simulator, allocator churn. Never
    /// opened as a scope — it is the residual `wall - sum(self times)`.
    Orchestration,
}

impl HostPhase {
    /// All phases, in the fixed order used by every report and track.
    pub const ALL: [HostPhase; 11] = [
        HostPhase::StoreBuild,
        HostPhase::PanelFactor,
        HostPhase::Gather,
        HostPhase::Gemm,
        HostPhase::Scatter,
        HostPhase::SolveFwd,
        HostPhase::SolveBwd,
        HostPhase::Refine,
        HostPhase::Digest,
        HostPhase::CommWait,
        HostPhase::Orchestration,
    ];

    /// The phases that do arithmetic — the denominator of the derived
    /// host flop rate.
    pub const COMPUTE: [HostPhase; 6] = [
        HostPhase::PanelFactor,
        HostPhase::Gather,
        HostPhase::Gemm,
        HostPhase::Scatter,
        HostPhase::SolveFwd,
        HostPhase::SolveBwd,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            HostPhase::StoreBuild => "store-build",
            HostPhase::PanelFactor => "panel-factor",
            HostPhase::Gather => "gather",
            HostPhase::Gemm => "gemm",
            HostPhase::Scatter => "scatter",
            HostPhase::SolveFwd => "solve-fwd",
            HostPhase::SolveBwd => "solve-bwd",
            HostPhase::Refine => "refine",
            HostPhase::Digest => "digest",
            HostPhase::CommWait => "comm-wait",
            HostPhase::Orchestration => "orchestration",
        }
    }
}

/// One closed scope on the host timeline: `ns` of **self** time under
/// `phase`, stamped with the simulated time at which the scope opened (so
/// Chrome counter samples land at deterministic trace positions).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostEvent {
    /// Simulated seconds at scope open.
    pub t: f64,
    pub phase: HostPhase,
    /// Host self-time nanoseconds.
    pub ns: u64,
}

/// One open frame on the scope stack; its phase is the matching entry of
/// `Inner::path`.
#[derive(Debug)]
struct Frame {
    start: Instant,
    /// Nanoseconds the rank spent paused while this frame was open; not
    /// part of its elapsed time.
    paused_ns: u64,
    /// Total elapsed nanoseconds of already-closed child scopes.
    child_ns: u64,
    /// Simulated time at open, stamped onto the timeline event.
    t_sim: f64,
}

#[derive(Debug, Default)]
struct Inner {
    stack: Vec<Frame>,
    /// Phase path of the open stack, root first (one entry per frame).
    path: Vec<HostPhase>,
    /// Self-time nanoseconds per full phase path: the only aggregate.
    folded: BTreeMap<Vec<HostPhase>, u64>,
    /// Per-scope timeline, recorded only when tracing.
    timeline: Option<Vec<HostEvent>>,
    /// When the current pause began, while the rank is paused.
    paused_at: Option<Instant>,
    /// Total nanoseconds spent paused.
    paused_ns: u64,
}

/// Per-rank host-time profiler. The owning rank thread is the only writer,
/// so the interior mutex is uncontended; `Arc` lets RAII guards outlive a
/// `&mut Rank` borrow.
#[derive(Debug)]
pub struct HostProf {
    inner: Mutex<Inner>,
}

impl HostProf {
    /// Lock the interior state, tolerating poison: a panic elsewhere on
    /// the rank thread (e.g. a failed report assertion) must not turn the
    /// RAII guard's drop into a double panic during unwind.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `timeline = true` additionally records one [`HostEvent`] per closed
    /// scope for counter-track export (costs memory proportional to scope
    /// count); the per-path totals are always on.
    pub fn new(timeline: bool) -> Self {
        HostProf {
            inner: Mutex::new(Inner {
                timeline: if timeline { Some(Vec::new()) } else { None },
                ..Default::default()
            }),
        }
    }

    /// Open a scope. The returned guard closes it on drop; scopes must
    /// nest (LIFO), which the RAII discipline enforces. `t_sim` is the
    /// simulated clock at open, used only to place timeline samples.
    pub fn scope(self: &Arc<Self>, phase: HostPhase, t_sim: f64) -> HostScope {
        let mut inner = self.lock();
        inner.path.push(phase);
        inner.stack.push(Frame {
            // det-lint: allow(wall-clock): host-time profiler scope open
            start: Instant::now(),
            paused_ns: 0,
            child_ns: 0,
            t_sim,
        });
        HostScope {
            prof: Some(Arc::clone(self)),
        }
    }

    /// Close the innermost scope (called by [`HostScope::drop`]).
    fn close_scope(&self) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let frame = inner
            .stack
            .pop()
            .expect("hostprof: scope closed with empty stack");
        // det-lint: allow(wall-clock): host-time profiler scope close
        let elapsed = (frame.start.elapsed().as_nanos() as u64).saturating_sub(frame.paused_ns);
        let self_ns = elapsed.saturating_sub(frame.child_ns);
        if let Some(ns) = inner.folded.get_mut(inner.path.as_slice()) {
            *ns += self_ns;
        } else {
            inner.folded.insert(inner.path.clone(), self_ns);
        }
        let phase = inner
            .path
            .pop()
            .expect("hostprof: one path entry per frame");
        if let Some(parent) = inner.stack.last_mut() {
            parent.child_ns += elapsed;
        }
        if let Some(tl) = &mut inner.timeline {
            tl.push(HostEvent {
                t: frame.t_sim,
                phase,
                ns: self_ns,
            });
        }
    }

    /// The rank stops running on the host (it parks and gives its run slot
    /// up): until [`HostProf::resume`], wall time
    /// is nobody's — it is taken out of every open frame and reported by
    /// [`HostProf::paused_secs`] so the caller can take it out of the rank's
    /// wall as well.
    pub fn pause(&self) {
        // det-lint: allow(wall-clock): host-time profiler pause
        self.lock().paused_at = Some(Instant::now());
    }

    /// The rank runs again; see [`HostProf::pause`].
    pub fn resume(&self) {
        let mut inner = self.lock();
        let Some(since) = inner.paused_at.take() else {
            return;
        };
        // det-lint: allow(wall-clock): host-time profiler resume
        let ns = since.elapsed().as_nanos() as u64;
        inner.paused_ns += ns;
        for frame in &mut inner.stack {
            frame.paused_ns += ns;
        }
    }

    /// Total seconds spent between [`HostProf::pause`] and
    /// [`HostProf::resume`] so far.
    pub fn paused_secs(&self) -> f64 {
        self.lock().paused_ns as f64 * 1.0e-9
    }

    /// Take the recorded timeline, sorted by simulated open time (scopes
    /// close in drop order, which is non-monotone under nesting). Empty
    /// when tracing was off.
    pub fn take_timeline(&self) -> Vec<HostEvent> {
        let mut tl = self.lock().timeline.take().unwrap_or_default();
        tl.sort_by(|a, b| a.t.total_cmp(&b.t));
        tl
    }

    /// Freeze into a report at the end of the run. `wall_secs` is the
    /// rank's measured wall time and `flops` its flop counter, which feeds
    /// the derived flop rate. Each phase's self time is the sum of the
    /// paths that end in it. Panics if scopes are still open — an
    /// unbalanced scope is a wiring bug.
    pub fn report(&self, wall_secs: f64, flops: u64) -> HostReport {
        let inner = self.lock();
        assert!(
            inner.stack.is_empty(),
            "hostprof: report with {} scope(s) still open",
            inner.stack.len()
        );
        let mut phase_ns: Vec<(HostPhase, u64)> = HostPhase::ALL.iter().map(|&p| (p, 0)).collect();
        let mut add = |phase: HostPhase, ns: u64| {
            let slot = phase_ns.iter_mut().find(|(p, _)| *p == phase);
            slot.expect("every phase is listed").1 += ns;
        };
        for (path, &ns) in &inner.folded {
            add(*path.last().expect("hostprof: a path has a frame"), ns);
        }
        let covered_ns: u64 = inner.folded.values().sum();
        let wall_ns = (wall_secs.max(0.0) * 1.0e9) as u64;
        add(HostPhase::Orchestration, wall_ns.saturating_sub(covered_ns));
        let folded = inner
            .folded
            .iter()
            .map(|(path, &ns)| {
                let s = path
                    .iter()
                    .map(|p| p.as_str())
                    .collect::<Vec<_>>()
                    .join(";");
                (s, ns)
            })
            .collect();
        HostReport {
            wall_secs,
            phase_ns,
            folded,
            flops,
        }
    }
}

/// RAII guard for one open [`HostProf`] scope. Obtained from
/// [`HostProf::scope`] (or [`HostScope::noop`] when profiling is off, so
/// call sites never branch).
#[must_use = "the scope closes when this guard drops"]
#[derive(Debug)]
pub struct HostScope {
    prof: Option<Arc<HostProf>>,
}

impl HostScope {
    /// A guard that does nothing — profiling disabled.
    pub fn noop() -> Self {
        HostScope { prof: None }
    }
}

impl Drop for HostScope {
    fn drop(&mut self) {
        if let Some(p) = self.prof.take() {
            p.close_scope();
        }
    }
}

/// Frozen per-rank host-time profile: self-time per phase (including the
/// [`HostPhase::Orchestration`] residual, so the entries partition the
/// wall), the folded phase paths they are summed from, and the flop count
/// for the derived rate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostReport {
    /// Measured wall seconds of the rank.
    pub wall_secs: f64,
    /// Self-time nanoseconds per phase, in [`HostPhase::ALL`] order. The
    /// `Orchestration` entry is the residual `wall - covered`.
    pub phase_ns: Vec<(HostPhase, u64)>,
    /// Folded phase paths (`"gemm"`, `"gemm;comm-wait"`, ...) with
    /// self-time nanoseconds.
    pub folded: Vec<(String, u64)>,
    /// Total flops the rank charged (from the simulator's flop counter).
    pub flops: u64,
}

impl HostReport {
    /// Self time of one phase in seconds.
    pub fn phase_secs(&self, phase: HostPhase) -> f64 {
        self.phase_ns
            .iter()
            .filter(|&&(p, _)| p == phase)
            .map(|&(_, ns)| ns as f64 * 1.0e-9)
            .sum()
    }

    /// Sum of all phase self times including the orchestration residual —
    /// equals `wall_secs` up to nanosecond rounding; tests assert it.
    pub fn attributed_secs(&self) -> f64 {
        self.phase_ns
            .iter()
            .map(|&(_, ns)| ns as f64 * 1.0e-9)
            .sum()
    }

    /// Seconds spent in compute phases (the flop-rate denominator).
    pub fn compute_secs(&self) -> f64 {
        HostPhase::COMPUTE.iter().map(|&p| self.phase_secs(p)).sum()
    }

    /// Derived host flop rate: ledger flops over compute-phase seconds
    /// (0 when no compute time was measured).
    pub fn flop_rate(&self) -> f64 {
        rate(self.flops, self.compute_secs())
    }
}

/// `flops / secs`, or 0 when no compute time was measured.
fn rate(flops: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        flops as f64 / secs
    } else {
        0.0
    }
}

/// The machine's host-time summary: max (with its rank) and summed wall,
/// per-phase seconds summed over ranks, the host flop rate — flops of all
/// ranks over their compute-phase seconds summed, the one machine-wide
/// rate — and the folded-stack text.
pub fn hostprof_json(per_rank: &[&HostReport]) -> Json {
    let (max_wall, max_rank) = crate::rank_max(per_rank.iter().map(|r| r.wall_secs));
    let sum_wall: f64 = per_rank.iter().map(|r| r.wall_secs).sum();
    let by_phase = Json::obj(HostPhase::ALL.map(|p| {
        let secs: f64 = per_rank.iter().map(|r| r.phase_secs(p)).sum();
        (p.as_str(), Json::num(secs))
    }));
    let flop_rate = rate(
        per_rank.iter().map(|r| r.flops).sum(),
        per_rank.iter().map(|r| r.compute_secs()).sum(),
    );
    Json::obj([
        ("max_wall_secs", Json::num(max_wall)),
        ("max_wall_secs_rank", Json::num(max_rank as f64)),
        ("sum_wall_secs", Json::num(sum_wall)),
        ("phase_secs", by_phase),
        ("flop_rate", Json::num(flop_rate)),
        ("folded_stacks", Json::str(folded_stacks(per_rank))),
    ])
}

/// The machine's phase paths as one folded-stack text, ready for a
/// flamegraph renderer: one `path ns` line per distinct path, its self time
/// summed over ranks, with the orchestration residual as a path of its
/// own. Its length is bounded by the number of distinct paths, not by the
/// number of ranks.
fn folded_stacks(per_rank: &[&HostReport]) -> String {
    let mut paths: BTreeMap<&str, u64> = BTreeMap::new();
    for r in per_rank {
        let orch = r
            .phase_ns
            .iter()
            .find(|(p, _)| *p == HostPhase::Orchestration);
        let orch = orch.map(|&(p, ns)| (p.as_str(), ns));
        let framed = r.folded.iter().map(|(path, ns)| (path.as_str(), *ns));
        for (path, ns) in framed.chain(orch) {
            *paths.entry(path).or_insert(0) += ns;
        }
    }
    let lines = paths.iter().filter(|(_, &ns)| ns > 0);
    lines.map(|(path, ns)| format!("{path} {ns}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spin_ns(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    /// Sum of a folded-stack text's line values.
    fn folded_total(txt: &str) -> u64 {
        txt.lines()
            .map(|line| line.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum()
    }

    #[test]
    fn self_time_excludes_children() {
        let p = Arc::new(HostProf::new(false));
        {
            let _outer = p.scope(HostPhase::Gemm, 0.0);
            spin_ns(200_000);
            {
                let _inner = p.scope(HostPhase::CommWait, 0.5);
                spin_ns(200_000);
            }
            spin_ns(200_000);
        }
        let r = p.report(1.0, 0);
        let gemm = r.phase_secs(HostPhase::Gemm);
        let wait = r.phase_secs(HostPhase::CommWait);
        assert!(gemm > 0.0 && wait > 0.0);
        // Gemm self time excludes the nested wait: both sides spun
        // ~400k/~200k ns, so gemm self must be well below outer elapsed
        // (600k+) and wait must hold its own share.
        assert!(wait >= 200_000.0 * 1.0e-9, "wait {wait}");
        assert!(gemm >= 400_000.0 * 1.0e-9, "gemm {gemm}");
        // Folded paths carry the nesting.
        let paths: Vec<&str> = r.folded.iter().map(|(s, _)| s.as_str()).collect();
        assert!(paths.contains(&"gemm"));
        assert!(paths.contains(&"gemm;comm-wait"));
    }

    #[test]
    fn paused_time_belongs_to_no_frame() {
        let p = Arc::new(HostProf::new(false));
        let t0 = Instant::now();
        {
            let _outer = p.scope(HostPhase::PanelFactor, 0.0);
            let _inner = p.scope(HostPhase::CommWait, 0.0);
            spin_ns(100_000);
            p.pause();
            spin_ns(5_000_000); // parked: another rank holds the slot
            p.resume();
            spin_ns(100_000);
        }
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        p.resume(); // without a pause: nothing happens
        let paused = p.paused_secs();
        assert!(paused >= 5.0e-3, "paused {paused}");
        let r = p.report(1.0, 0);
        let wait = r.phase_secs(HostPhase::CommWait);
        assert!(wait >= 200_000.0e-9, "wait {wait}");
        // The frames opened after `t0` and closed before `elapsed_ns` was
        // read, so their self times are at most the block's unpaused time;
        // a preempted spin lengthens both sides alike. The slack covers
        // only the rounding of `paused_secs` to seconds.
        let framed: u64 = r.folded.iter().map(|(_, ns)| ns).sum();
        let unpaused = elapsed_ns as f64 - paused * 1.0e9;
        assert!(
            framed as f64 <= unpaused + 1.0,
            "the pause leaked into a frame: {framed} ns framed of {unpaused} ns unpaused"
        );
    }

    #[test]
    fn covered_beyond_wall_saturates_orchestration_to_zero() {
        let p = Arc::new(HostProf::new(false));
        {
            let _g = p.scope(HostPhase::Gemm, 0.0);
            spin_ns(1_000_000);
        }
        let r = p.report(1.0e-9, 0);
        assert_eq!(r.phase_secs(HostPhase::Orchestration), 0.0);
    }

    #[test]
    fn timeline_sorted_by_sim_time_not_drop_order() {
        let p = Arc::new(HostProf::new(true));
        {
            // Outer opens at sim 1.0 but closes *after* the inner, which
            // opened at sim 2.0 — drop order is (2.0, 1.0).
            let _outer = p.scope(HostPhase::Gemm, 1.0);
            let _inner = p.scope(HostPhase::Gather, 2.0);
        }
        let tl = p.take_timeline();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].t, 1.0);
        assert_eq!(tl[0].phase, HostPhase::Gemm);
        assert_eq!(tl[1].t, 2.0);
        assert_eq!(tl[1].phase, HostPhase::Gather);
    }

    #[test]
    fn flop_rate_uses_the_flop_ledger() {
        let p = Arc::new(HostProf::new(false));
        {
            let _g = p.scope(HostPhase::Gemm, 0.0);
            spin_ns(1_000_000); // ≥ 1ms of compute-phase time
        }
        let r = p.report(0.01, 2_000_000);
        assert!(r.flop_rate() > 0.0);
        assert!(r.flop_rate() <= 2.0e9, "{}", r.flop_rate());
        // Zero-compute guard.
        assert_eq!(HostReport::default().flop_rate(), 0.0);
    }

    #[test]
    fn noop_scope_records_nothing() {
        let _g = HostScope::noop();
        drop(_g);
        let p = HostProf::new(false);
        let r = p.report(0.0, 0);
        assert_eq!(r.folded.len(), 0);
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn report_with_open_scope_panics() {
        let p = Arc::new(HostProf::new(false));
        let _g = p.scope(HostPhase::Gemm, 0.0);
        let _ = p.report(1.0, 0);
    }

    #[test]
    fn folded_stacks_render_paths_and_residual() {
        let p = Arc::new(HostProf::new(false));
        {
            let _g = p.scope(HostPhase::PanelFactor, 0.0);
            spin_ns(50_000);
        }
        let r = p.report(1.0, 0);
        let txt = folded_stacks(&[&r]);
        assert!(txt.starts_with("orchestration "), "{txt}");
        assert!(txt.contains("\npanel-factor "), "{txt}");
        assert_eq!(folded_total(&txt), 1_000_000_000);
    }

    #[test]
    fn json_roundtrips_and_aggregates() {
        let p = Arc::new(HostProf::new(false));
        {
            let _g = p.scope(HostPhase::Gemm, 0.0);
            spin_ns(50_000);
        }
        let (r, q) = (p.report(0.25, 100), p.report(0.5, 100));
        let doc = hostprof_json(&[&r, &q, &q]);
        let text = doc.dump();
        assert_eq!(Json::parse(&text).unwrap().dump(), text);
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.num_at(&["max_wall_secs"]), Ok(0.5));
        // The lowest of the ranks holding the maximum.
        assert_eq!(back.num_at(&["max_wall_secs_rank"]), Ok(1.0));
        assert_eq!(back.num_at(&["sum_wall_secs"]), Ok(1.25));
        assert!(back.at(&["phase_secs", "gemm"]).is_some());
        assert_eq!(
            back.num_at(&["flop_rate"]),
            Ok(300.0 / (r.compute_secs() + 2.0 * q.compute_secs()))
        );
        // One line per path, its self time summed over the ranks.
        let folded = back.at(&["folded_stacks"]).and_then(Json::as_str).unwrap();
        let gemm_ns: u64 = [&r, &q, &q].iter().map(|h| h.folded[0].1).sum();
        assert_eq!(r.folded[0].0, "gemm");
        assert!(folded.contains(&format!("gemm {gemm_ns}\n")), "{folded}");
        assert_eq!(folded.lines().count(), 2, "{folded}");
        assert_eq!(folded_total(folded), 1_250_000_000);
    }

    proptest! {
        /// Random nested open / close / pause / resume sequences: each
        /// phase's self time is the sum of the paths ending in it, the
        /// folded-stack lines add up to the attributed time (the wall, once
        /// the orchestration residual is in), and no frame is charged time
        /// the rank spent paused.
        #[test]
        fn phases_are_the_folded_paths_summed_by_leaf(
            seed in 0u64..1_000_000,
            nops in 1usize..80,
            wall in 0u8..2,
        ) {
            let mut state = seed;
            let mut draw = |n: u64| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 33) % n
            };
            let p = Arc::new(HostProf::new(true));
            let mut open = Vec::new();
            let mut paused = false;
            let t0 = Instant::now();
            for _ in 0..nops {
                // A parked rank runs nothing until it resumes.
                match (draw(4), paused) {
                    (_, true) | (3, false) => {
                        p.resume();
                        paused = false;
                    }
                    (0, false) => {
                        // Any phase but the orchestration residual.
                        let phase = HostPhase::ALL[draw(10) as usize];
                        open.push(p.scope(phase, 0.0));
                    }
                    (1, false) => drop(open.pop()),
                    _ => {
                        p.pause();
                        paused = true;
                    }
                }
            }
            p.resume();
            while open.pop().is_some() {}
            let elapsed_ns = t0.elapsed().as_nanos() as u64;
            let r = p.report(f64::from(wall), 0);

            for &(phase, ns) in r.phase_ns.iter().filter(|(p, _)| *p != HostPhase::Orchestration) {
                let by_paths: u64 = r
                    .folded
                    .iter()
                    .filter(|(path, _)| path.rsplit(';').next() == Some(phase.as_str()))
                    .map(|&(_, ns)| ns)
                    .sum();
                prop_assert!(ns == by_paths, "{:?}: {} != {}", phase, ns, by_paths);
            }
            let lines = folded_total(&folded_stacks(&[&r]));
            prop_assert_eq!((r.attributed_secs() * 1.0e9).round() as u64, lines);
            if wall == 1 {
                prop_assert_eq!(lines, 1_000_000_000);
            }

            let framed: u64 = r.folded.iter().map(|(_, ns)| ns).sum();
            let unpaused = elapsed_ns as f64 - p.paused_secs() * 1.0e9;
            prop_assert!(framed as f64 <= unpaused + 1.0, "{} > {}", framed, unpaused);
            prop_assert_eq!(p.take_timeline().iter().map(|e| e.ns).sum::<u64>(), framed);
        }
    }
}
