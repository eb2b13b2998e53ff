//! Host-time profiler: a per-rank wall-clock ledger over a fixed phase
//! taxonomy.
//!
//! `memprof` answers "where did the bytes go" and `commvol` answers "where
//! did the words go"; this module answers "where did the *host seconds*
//! go". Algorithm layers open scoped RAII timers ([`HostScope`]) tagged
//! with a [`HostPhase`] (and optionally a supernode); the profiler keeps a
//! strict LIFO frame stack so nested scopes attribute **self time** —
//! elapsed minus time spent in children — and the per-phase totals
//! therefore partition the covered wall time with no double counting.
//! Whatever the run's measured wall clock is *not* covered by an explicit
//! scope is reported as [`HostPhase::Orchestration`], so the attribution
//! sums to 100% of the wall by construction (tests assert it).
//!
//! Frozen reports carry derived gauges against the simulator's existing
//! ledgers — host flop rate from the flop counter, host wire bandwidth
//! from the wire-volume ledger — plus a folded-stack export
//! (`rank 0;gemm 12345` lines) that `inferno`/`flamegraph.pl` render
//! directly.
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

/// One open frame on the scope stack.
#[derive(Debug)]
struct Frame {
    phase: HostPhase,
    sn: Option<usize>,
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
    /// Phase path of the open stack, root first (mirror of `stack`).
    path: Vec<HostPhase>,
    /// Self-time nanoseconds per full phase path (folded stacks).
    folded: BTreeMap<Vec<HostPhase>, u64>,
    /// Self-time nanoseconds per phase, summed over paths.
    per_phase: BTreeMap<HostPhase, u64>,
    /// Self-time nanoseconds per supernode (scopes opened with one).
    per_sn: BTreeMap<usize, u64>,
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
    /// count); the phase/supernode/folded totals are always on.
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
    pub fn scope(self: &Arc<Self>, phase: HostPhase, sn: Option<usize>, t_sim: f64) -> HostScope {
        {
            let mut inner = self.lock();
            inner.path.push(phase);
            inner.stack.push(Frame {
                phase,
                sn,
                // det-lint: allow(wall-clock): host-time profiler scope open
                start: Instant::now(),
                paused_ns: 0,
                child_ns: 0,
                t_sim,
            });
        }
        HostScope {
            prof: Some(Arc::clone(self)),
        }
    }

    /// Close the innermost scope (called by [`HostScope::drop`]).
    fn close_scope(&self) {
        let mut inner = self.lock();
        let frame = inner
            .stack
            .pop()
            .expect("hostprof: scope closed with empty stack");
        // det-lint: allow(wall-clock): host-time profiler scope close
        let elapsed = (frame.start.elapsed().as_nanos() as u64).saturating_sub(frame.paused_ns);
        let self_ns = elapsed.saturating_sub(frame.child_ns);
        let key = inner.path.clone();
        inner.path.pop();
        *inner.folded.entry(key).or_insert(0) += self_ns;
        *inner.per_phase.entry(frame.phase).or_insert(0) += self_ns;
        if let Some(sn) = frame.sn {
            *inner.per_sn.entry(sn).or_insert(0) += self_ns;
        }
        if let Some(parent) = inner.stack.last_mut() {
            parent.child_ns += elapsed;
        }
        if let Some(tl) = &mut inner.timeline {
            tl.push(HostEvent {
                t: frame.t_sim,
                phase: frame.phase,
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
        let mut tl = self
            .inner
            .lock()
            .unwrap()
            .timeline
            .take()
            .unwrap_or_default();
        tl.sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap());
        tl
    }

    /// Freeze into a report at the end of the run. `wall_secs` is the
    /// rank thread's measured wall time; `flops` and `wire_words` come
    /// from the rank's flop counter and wire ledger and feed the derived
    /// gauges. Panics if scopes are still open — an unbalanced scope is a
    /// wiring bug.
    pub fn report(&self, wall_secs: f64, flops: u64, wire_words: u64) -> HostReport {
        let inner = self.lock();
        assert!(
            inner.stack.is_empty(),
            "hostprof: report with {} scope(s) still open",
            inner.stack.len()
        );
        let mut phase_ns: Vec<(HostPhase, u64)> = HostPhase::ALL
            .iter()
            .map(|&p| (p, inner.per_phase.get(&p).copied().unwrap_or(0)))
            .collect();
        let covered_ns: u64 = phase_ns.iter().map(|&(_, ns)| ns).sum();
        let wall_ns = (wall_secs.max(0.0) * 1.0e9) as u64;
        let orch_ns = wall_ns.saturating_sub(covered_ns);
        for (p, ns) in phase_ns.iter_mut() {
            if *p == HostPhase::Orchestration {
                *ns = orch_ns;
            }
        }
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
            per_supernode_ns: inner.per_sn.iter().map(|(&sn, &ns)| (sn, ns)).collect(),
            folded,
            flops,
            wire_words,
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
/// wall), per-supernode attribution, folded stacks for flamegraphs, and
/// the ledger inputs for the derived gauges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostReport {
    /// Measured wall seconds of the rank thread.
    pub wall_secs: f64,
    /// Self-time nanoseconds per phase, in [`HostPhase::ALL`] order. The
    /// `Orchestration` entry is the residual `wall - covered`.
    pub phase_ns: Vec<(HostPhase, u64)>,
    /// Self-time nanoseconds per supernode (scopes that named one).
    pub per_supernode_ns: Vec<(usize, u64)>,
    /// Folded phase paths (`"gemm"`, `"gemm;comm-wait"`, ...) with
    /// self-time nanoseconds — `folded_stacks` prepends the rank frame.
    pub folded: Vec<(String, u64)>,
    /// Total flops the rank charged (from the simulator's flop counter).
    pub flops: u64,
    /// Total algorithmic words the rank sent (from the wire ledger).
    pub wire_words: u64,
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
        let s = self.compute_secs();
        if s > 0.0 {
            self.flops as f64 / s
        } else {
            0.0
        }
    }

    /// Derived host wire bandwidth in bytes/sec: ledger words × 8 over
    /// the measured wall (0 when the wall is unmeasured).
    pub fn wire_bandwidth(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.wire_words as f64 * 8.0 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Folded-stack lines for flamegraph tools: one
    /// `"<root>;<phase>;... <ns>"` line per distinct path, with `root`
    /// (conventionally `"rank N"`) prepended, plus the orchestration
    /// residual as its own root-level frame.
    pub fn folded_stacks(&self, root: &str) -> String {
        let mut out = String::new();
        for (path, ns) in &self.folded {
            if *ns == 0 {
                continue;
            }
            out.push_str(&format!("{root};{path} {ns}\n"));
        }
        let orch = self
            .phase_ns
            .iter()
            .find(|&&(p, _)| p == HostPhase::Orchestration)
            .map_or(0, |&(_, ns)| ns);
        if orch > 0 {
            out.push_str(&format!(
                "{root};{} {orch}\n",
                HostPhase::Orchestration.as_str()
            ));
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("wall_secs".into(), Json::num(self.wall_secs)),
            (
                "phase_ns".into(),
                Json::Obj(
                    self.phase_ns
                        .iter()
                        .map(|&(p, ns)| (p.as_str().to_string(), Json::num(ns as f64)))
                        .collect(),
                ),
            ),
            (
                "per_supernode_ns".into(),
                Json::Arr(
                    self.per_supernode_ns
                        .iter()
                        .map(|&(sn, ns)| {
                            Json::Obj(vec![
                                ("sn".into(), Json::num(sn as f64)),
                                ("ns".into(), Json::num(ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "folded".into(),
                Json::Arr(
                    self.folded
                        .iter()
                        .map(|(path, ns)| {
                            Json::Obj(vec![
                                ("path".into(), Json::str(path.clone())),
                                ("ns".into(), Json::num(*ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("flops".into(), Json::num(self.flops as f64)),
            ("wire_words".into(), Json::num(self.wire_words as f64)),
            ("flop_rate".into(), Json::num(self.flop_rate())),
            ("wire_bandwidth".into(), Json::num(self.wire_bandwidth())),
        ])
    }
}

/// Machine-wide host profile document: per-rank reports plus a summary —
/// max wall, per-phase seconds summed over ranks, aggregate flop rate,
/// and the full folded-stack text ready for a flamegraph renderer.
pub fn hostprof_json(per_rank: &[HostReport]) -> Json {
    let max_wall = per_rank.iter().map(|r| r.wall_secs).fold(0.0, f64::max);
    let by_phase = Json::Obj(
        HostPhase::ALL
            .iter()
            .map(|&p| {
                let secs: f64 = per_rank.iter().map(|r| r.phase_secs(p)).sum();
                (p.as_str().to_string(), Json::num(secs))
            })
            .collect(),
    );
    let total_flops: u64 = per_rank.iter().map(|r| r.flops).sum();
    let total_compute: f64 = per_rank.iter().map(|r| r.compute_secs()).sum();
    let flop_rate = if total_compute > 0.0 {
        total_flops as f64 / total_compute
    } else {
        0.0
    };
    let mut folded = String::new();
    for (i, r) in per_rank.iter().enumerate() {
        folded.push_str(&r.folded_stacks(&format!("rank {i}")));
    }
    Json::Obj(vec![
        ("max_wall_secs".into(), Json::num(max_wall)),
        ("phase_secs".into(), by_phase),
        ("flop_rate".into(), Json::num(flop_rate)),
        ("folded_stacks".into(), Json::str(folded)),
        (
            "ranks".into(),
            Json::Arr(per_rank.iter().map(|r| r.to_json()).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_ns(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let p = Arc::new(HostProf::new(false));
        {
            let _outer = p.scope(HostPhase::Gemm, Some(3), 0.0);
            spin_ns(200_000);
            {
                let _inner = p.scope(HostPhase::CommWait, None, 0.5);
                spin_ns(200_000);
            }
            spin_ns(200_000);
        }
        let r = p.report(1.0, 0, 0);
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
        // Supernode attribution saw only the outer scope's self time.
        assert_eq!(r.per_supernode_ns.len(), 1);
        assert_eq!(r.per_supernode_ns[0].0, 3);
    }

    #[test]
    fn paused_time_belongs_to_no_frame() {
        let p = Arc::new(HostProf::new(false));
        {
            let _outer = p.scope(HostPhase::PanelFactor, None, 0.0);
            let _inner = p.scope(HostPhase::CommWait, None, 0.0);
            spin_ns(100_000);
            p.pause();
            spin_ns(5_000_000); // parked: another rank holds the slot
            p.resume();
            spin_ns(100_000);
        }
        p.resume(); // without a pause: nothing happens
        let paused = p.paused_secs();
        assert!(paused >= 5.0e-3, "paused {paused}");
        let r = p.report(1.0, 0, 0);
        let wait = r.phase_secs(HostPhase::CommWait);
        let panel = r.phase_secs(HostPhase::PanelFactor);
        assert!(wait >= 200_000.0e-9, "wait {wait}");
        assert!(
            wait + panel < 2.5e-3,
            "the pause leaked into a frame: wait {wait}, panel {panel}"
        );
    }

    #[test]
    fn attribution_sums_to_wall_via_orchestration() {
        let p = Arc::new(HostProf::new(false));
        {
            let _g = p.scope(HostPhase::PanelFactor, None, 0.0);
            spin_ns(100_000);
        }
        let wall = 0.0123;
        let r = p.report(wall, 0, 0);
        assert!(
            (r.attributed_secs() - wall).abs() < 1e-8,
            "sum {} wall {wall}",
            r.attributed_secs()
        );
        // Residual is positive: the scope covered far less than the wall.
        assert!(r.phase_secs(HostPhase::Orchestration) > 0.0);
    }

    #[test]
    fn covered_beyond_wall_saturates_orchestration_to_zero() {
        let p = Arc::new(HostProf::new(false));
        {
            let _g = p.scope(HostPhase::Gemm, None, 0.0);
            spin_ns(1_000_000);
        }
        let r = p.report(1.0e-9, 0, 0);
        assert_eq!(r.phase_secs(HostPhase::Orchestration), 0.0);
    }

    #[test]
    fn timeline_sorted_by_sim_time_not_drop_order() {
        let p = Arc::new(HostProf::new(true));
        {
            // Outer opens at sim 1.0 but closes *after* the inner, which
            // opened at sim 2.0 — drop order is (2.0, 1.0).
            let _outer = p.scope(HostPhase::Gemm, None, 1.0);
            let _inner = p.scope(HostPhase::Gather, None, 2.0);
        }
        let tl = p.take_timeline();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].t, 1.0);
        assert_eq!(tl[0].phase, HostPhase::Gemm);
        assert_eq!(tl[1].t, 2.0);
        assert_eq!(tl[1].phase, HostPhase::Gather);
    }

    #[test]
    fn derived_gauges_use_ledger_inputs() {
        let p = Arc::new(HostProf::new(false));
        {
            let _g = p.scope(HostPhase::Gemm, None, 0.0);
            spin_ns(1_000_000); // ≥ 1ms of compute-phase time
        }
        let r = p.report(0.01, 2_000_000, 1_000);
        assert!(r.flop_rate() > 0.0);
        // 1000 words × 8 B over 0.01 s = 800 kB/s.
        assert!((r.wire_bandwidth() - 800_000.0).abs() < 1e-6);
        // Zero-wall guard.
        let r0 = HostReport::default();
        assert_eq!(r0.wire_bandwidth(), 0.0);
        assert_eq!(r0.flop_rate(), 0.0);
    }

    #[test]
    fn noop_scope_records_nothing() {
        let _g = HostScope::noop();
        drop(_g);
        let p = HostProf::new(false);
        let r = p.report(0.0, 0, 0);
        assert_eq!(r.folded.len(), 0);
        assert_eq!(r.per_supernode_ns.len(), 0);
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn report_with_open_scope_panics() {
        let p = Arc::new(HostProf::new(false));
        let _g = p.scope(HostPhase::Gemm, None, 0.0);
        let _ = p.report(1.0, 0, 0);
    }

    #[test]
    fn folded_stacks_render_with_root_and_residual() {
        let p = Arc::new(HostProf::new(false));
        {
            let _g = p.scope(HostPhase::PanelFactor, None, 0.0);
            spin_ns(50_000);
        }
        let r = p.report(1.0, 0, 0);
        let txt = r.folded_stacks("rank 7");
        assert!(txt.contains("rank 7;panel-factor "));
        assert!(txt.contains("rank 7;orchestration "));
        for line in txt.lines() {
            let (_, ns) = line.rsplit_once(' ').unwrap();
            let _: u64 = ns.parse().unwrap();
        }
    }

    #[test]
    fn json_roundtrips_and_aggregates() {
        let p = Arc::new(HostProf::new(false));
        {
            let _g = p.scope(HostPhase::Gemm, Some(0), 0.0);
            spin_ns(50_000);
        }
        let doc = hostprof_json(&[p.report(0.5, 100, 10)]);
        let text = doc.dump();
        assert_eq!(Json::parse(&text).unwrap().dump(), text);
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("max_wall_secs").unwrap().as_f64(), Some(0.5));
        assert!(back.get("phase_secs").unwrap().get("gemm").is_some());
        assert!(back
            .get("folded_stacks")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("rank 0;gemm"));
    }
}
