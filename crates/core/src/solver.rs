//! End-to-end 3D solver API and the measurement output the experiment
//! harnesses consume.

use crate::factor3d::factor_3d;
use crate::forest::EtreeForest;
use crate::solve3d::{solve_3d, SolvePlan};
use simgrid::topology::build_grid_comms;
use simgrid::{
    Backend, FailKind, FaultPlan, Grid3d, Machine, MachineFailure, RankReport, RetryPolicy,
    TimeModel, TrafficSummary,
};
use slu2d::driver::Prepared;
use slu2d::factor2d::FactorOpts;
use slu2d::store::{BlockStore, StoreLayout};
use std::sync::Arc;

/// Configuration of one 3D run: grid shape plus tuning knobs.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// 2D layer shape: `pr x pc` processes per grid.
    pub pr: usize,
    pub pc: usize,
    /// Number of stacked 2D grids; must be a power of two.
    pub pz: usize,
    /// Lookahead window for the 2D kernel (§II-F).
    pub lookahead: usize,
    /// Static-pivoting threshold.
    pub pivot_threshold: f64,
    /// Iterative-refinement sweeps after the solve. SuperLU_DIST pairs
    /// static pivoting with refinement to recover accuracy lost to pivot
    /// perturbations (§VI: "SuperLU_DIST uses static pivoting with
    /// iterative refinement"); 0 disables.
    pub refine_steps: usize,
    /// Machine model for the simulated cluster.
    pub model: TimeModel,
    /// Record per-rank span/activity traces (enables the Gantt chart,
    /// Chrome trace export, and critical-path attribution on the output).
    /// Costs memory proportional to the operation count; off by default.
    pub tracing: bool,
    /// Profile host wall-clock time per rank (`obs::hostprof`): RAII
    /// scopes attribute the rank's measured wall to a fixed phase taxonomy
    /// (store-build/panel-factor/gather/gemm/scatter/solves/refine/digest/
    /// comm-wait plus an orchestration residual), summing to 100% by
    /// construction.
    /// Under the event backend a rank's wall is the time it held the baton.
    /// Purely host-side — simulated clocks, factors, and digests are
    /// untouched. Off by default.
    pub host_profiling: bool,
    /// Seeded deterministic fault plan (`simgrid::faultlab`): message
    /// drop/dup/delay rules, rank stall windows, link degradation. `None`
    /// (the default) costs nothing. Parse one from the `salu --faults`
    /// grammar with [`FaultPlan::parse`].
    pub fault_plan: Option<FaultPlan>,
    /// Ack/retransmit recovery for droppable sends. With recovery on, a
    /// faulted run delivers the exact fault-free payload sequence: factors
    /// stay *bitwise identical* (see [`Output3d::factor_digest`]), only
    /// simulated clocks shift. `None` means drops are simply lost — the
    /// run then fails structurally (a deadlock naming the edge; an
    /// unrecovered duplicate fails as an unreceived message naming it).
    pub retry: Option<RetryPolicy>,
    /// Simulated-time receive deadline in seconds: a receive whose message
    /// arrives later than this fails the rank with a structured error
    /// naming phase/supernode/level, replacing the wall-clock
    /// `SALU_RECV_TIMEOUT_SECS` backstop as the primary stall detector.
    pub recv_deadline: Option<f64>,
    /// Execution backend for the simulated machine (docs/backends.md).
    /// [`Backend::Threaded`] (the default) runs one free-running OS thread
    /// per rank; [`Backend::Event`] runs ranks as cooperatively scheduled
    /// tasks, making paper-scale grids (`pr*pc*pz = 4096` and beyond)
    /// single-process-cheap. Factor digests, simulated makespans, and all
    /// observability ledgers are bitwise identical between backends.
    pub backend: Backend,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            pr: 1,
            pc: 1,
            pz: 1,
            lookahead: 8,
            pivot_threshold: 1e-10,
            refine_steps: 0,
            model: TimeModel::edison_like(),
            tracing: false,
            host_profiling: false,
            fault_plan: None,
            retry: None,
            recv_deadline: None,
            backend: Backend::Threaded,
        }
    }
}

/// A structured solver failure from [`try_factor_and_solve`] /
/// [`try_factor_only`]: the machine's *primary* (earliest non-cascade)
/// rank failure, so the report names the original cause — e.g. the stalled
/// z-layer a `reduce` recv was waiting on — not whichever rank died in the
/// cascade.
#[derive(Clone, Debug)]
pub struct SolverError {
    /// World rank of the primary failure.
    pub rank: usize,
    /// Traffic phase active when it failed (`fact`, `reduce`, `solve`, ...).
    pub phase: String,
    /// Structured cause (recv deadline, payload mismatch, solver stage...).
    pub kind: FailKind,
    /// Number of ranks that failed in the primary's wake.
    pub cascades: usize,
}

impl SolverError {
    fn from_machine(mf: MachineFailure) -> Self {
        let primary = mf.primary();
        SolverError {
            rank: primary.rank,
            phase: primary.phase.clone(),
            kind: primary.kind.clone(),
            cascades: mf.failures.len() - 1,
        }
    }

    /// Supernode named by a solver-stage failure, if any.
    pub fn supernode(&self) -> Option<usize> {
        match &self.kind {
            FailKind::Solver { supernode, .. } => *supernode,
            _ => None,
        }
    }

    /// Forest level named by a solver-stage failure, if any.
    pub fn level(&self) -> Option<usize> {
        match &self.kind {
            FailKind::Solver { level, .. } => *level,
            _ => None,
        }
    }
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "solver failed on rank {} (phase `{}`): {}",
            self.rank, self.phase, self.kind
        )?;
        if self.cascades > 0 {
            write!(f, " (+{} cascaded rank failure(s))", self.cascades)?;
        }
        Ok(())
    }
}

impl std::error::Error for SolverError {}

/// Everything a 3D run reports.
pub struct Output3d {
    /// Solution in the original ordering (when a RHS was supplied).
    pub x: Option<Vec<f64>>,
    /// Per-rank traffic/time reports.
    pub reports: Vec<RankReport>,
    /// Total static-pivot perturbations.
    pub perturbations: usize,
    /// Supernodes whose panel phase ran ahead via lookahead (summed over
    /// ranks).
    pub lookahead_hits: usize,
    /// Maximum per-rank factor storage in words — the Fig. 11 numerator.
    pub max_store_words: u64,
    /// Total factor storage over all ranks, in words (replication makes
    /// this grow with `Pz`; the Fig. 11 overhead ratio uses it).
    pub total_store_words: u64,
    /// The tree-forest partition used (for critical-path diagnostics).
    pub forest: EtreeForest,
    /// Digest over every rank's factored blocks (block keys and dimensions
    /// in ascending key order, raw f64 bit patterns; ranks folded in world
    /// order). Two runs produced *bitwise identical* L/U factors iff their
    /// digests match, up to a 64-bit collision — the chaos suite's recovery
    /// guarantee ("faults with recovery change clocks, never values") is
    /// asserted through this. The function may change between builds: a
    /// digest is comparable only with digests computed by the same build,
    /// and no artifact stores one.
    pub factor_digest: u64,
    /// Scheduler counters of the run (steps, matched wakeups, unmatched
    /// sends, quiescence resolutions); `None` under the threaded backend.
    pub sched: Option<simgrid::SchedStats>,
    /// Simulated makespan of the factorization alone: the largest clock
    /// over ranks when `factor_3d` returned, before any solve. Bitwise what
    /// [`Output3d::makespan`] reports after [`factor_only`] under the same
    /// configuration.
    pub factor_makespan: f64,
    /// Dependency waves of the triangular solve per forest level, root
    /// first (the most of any part of the level); empty without a
    /// right-hand side.
    pub solve_waves: Vec<usize>,
}

impl Output3d {
    /// Aggregate traffic summary.
    pub fn summary(&self) -> TrafficSummary {
        TrafficSummary::from_reports(&self.reports)
    }

    /// Max per-rank words sent during 2D factorization (`W_fact`, Fig. 10).
    pub fn w_fact(&self) -> u64 {
        TrafficSummary::max_sent_words_in(&self.reports, "fact")
    }

    /// Max per-rank words sent during ancestor reduction (`W_red`, Fig. 10).
    pub fn w_red(&self) -> u64 {
        TrafficSummary::max_sent_words_in(&self.reports, "reduce")
    }

    /// Simulated makespan: the largest clock over ranks at the end of the
    /// run. That is the factorization's critical path after
    /// [`factor_only`]; after a run with a right-hand side it includes the
    /// solve and refinement.
    pub fn makespan(&self) -> f64 {
        self.summary().makespan
    }

    /// Per-rank span/activity stores; `None` unless the run had
    /// [`SolverConfig::tracing`] set.
    pub fn rank_obs(&self) -> Option<Vec<simgrid::RankObs>> {
        self.reports
            .iter()
            .map(|r| r.trace.clone())
            .collect::<Option<Vec<_>>>()
    }

    /// Chrome trace-event document of a traced run (load in
    /// <https://ui.perfetto.dev>). `None` when tracing was off.
    pub fn chrome_trace(&self) -> Option<simgrid::Json> {
        self.rank_obs().map(|obs| simgrid::obs::chrome_trace(&obs))
    }

    /// Critical path through the send→recv dependency graph of a traced
    /// run. `None` when tracing was off.
    pub fn critical_path(&self) -> Option<simgrid::CriticalPath> {
        self.rank_obs()
            .map(|obs| simgrid::CriticalPath::analyze(&obs))
    }

    /// Machine-wide metrics: every rank's registry merged (always
    /// available — metrics do not require tracing).
    pub fn metrics(&self) -> simgrid::MetricsRegistry {
        simgrid::merged_metrics(&self.reports)
    }

    /// Max per-rank ledger high-water mark (bytes).
    pub fn max_peak_bytes(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.memprof.peak_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Sum over ranks of ledger high-water marks (bytes) — the live-ledger
    /// memory measure behind the regenerated Fig. 11 table.
    pub fn total_peak_bytes(&self) -> u64 {
        self.reports.iter().map(|r| r.memprof.peak_bytes).sum()
    }

    /// Sum over ranks of peak-instant bytes attributed to one memory
    /// class.
    pub fn peak_class_bytes(&self, class: simgrid::MemClass) -> u64 {
        self.reports
            .iter()
            .map(|r| r.memprof.peak_class_bytes(class))
            .sum()
    }

    /// Per-rank host-time reports, when profiling was on.
    pub fn hostprof_reports(&self) -> Option<Vec<simgrid::HostReport>> {
        self.reports.iter().map(|r| r.hostprof.clone()).collect()
    }

    /// Sum over ranks of algorithmic words sent under one communication
    /// class (wire ledger).
    pub fn class_words(&self, class: simgrid::CommClass) -> u64 {
        self.reports
            .iter()
            .map(|r| r.commvol.class_cell(class).words)
            .sum()
    }

    /// Max per-rank algorithmic words sent (wire ledger) — the measured
    /// counterpart of the cost model's per-process volume `W(p, pz)`.
    pub fn max_rank_sent_words(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.commvol.sent_words())
            .max()
            .unwrap_or(0)
    }

    /// Sum over ranks of algorithmic words sent along one grid axis.
    pub fn axis_words(&self, axis: simgrid::GridAxis) -> u64 {
        self.reports
            .iter()
            .map(|r| r.commvol.axis_words(axis))
            .sum()
    }
}

/// Number of independent hash lanes a block's words are dealt into: enough
/// chains in flight to hide the latency of a 64-bit multiply, scalar or
/// vector (measured on the AVX-512 build host: 4 lanes 1.7 ns/word, 8 lanes
/// 1.0, 16 lanes 0.55, 32 lanes 0.45; the byte-wise FNV-1a it replaces 10.3).
const DIGEST_LANES: usize = 16;

/// One step of the digest's mixing chain: a bijection of `h` for fixed `w`
/// and of `w` for fixed `h` (rotation, XOR, multiplication by an odd
/// constant), so a change to one input word always changes the state. The
/// rotation carries high bits — an f64's sign and exponent — into the low
/// half, which a bare multiply-XOR chain never does.
#[inline]
fn digest_step(h: u64, w: u64) -> u64 {
    (h.rotate_left(23) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Digest of a block store: equal digests ⇔ bitwise-equal local factors
/// (same keys, same shapes, same f64 bit patterns), up to a 64-bit
/// collision. Each block's words are dealt round-robin into
/// [`DIGEST_LANES`] independent chains of whole `u64` words, so the
/// multiplies overlap instead of waiting on each other, and the lanes are
/// then folded in order with the block's key and dimensions, the blocks in
/// ascending key order. Every fold is a [`digest_step`], so the order of
/// lanes, words within a lane, and blocks all matter.
fn store_digest(store: &BlockStore) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h = SEED;
    for ((i, j), m) in store.iter() {
        let mut lanes = [SEED; DIGEST_LANES];
        let mut rounds = m.as_slice().chunks_exact(DIGEST_LANES);
        for round in &mut rounds {
            for (lane, v) in lanes.iter_mut().zip(round) {
                *lane = digest_step(*lane, v.to_bits());
            }
        }
        for (lane, v) in lanes.iter_mut().zip(rounds.remainder()) {
            *lane = digest_step(*lane, v.to_bits());
        }
        for header in [i, j, m.rows(), m.cols()] {
            h = digest_step(h, header as u64);
        }
        for lane in lanes {
            h = digest_step(h, lane);
        }
    }
    h
}

/// Factor only (no solve): the measurement entry point for every
/// factorization experiment.
pub fn factor_only(prep: &Prepared, cfg: &SolverConfig) -> Output3d {
    run(prep, cfg, None)
}

/// Factor and, when `rhs` is given, solve `A x = b` end to end. The
/// returned solution is in the original (pre-permutation) ordering.
pub fn factor_and_solve(prep: &Prepared, cfg: &SolverConfig, rhs: Option<Vec<f64>>) -> Output3d {
    run(prep, cfg, rhs)
}

/// Like [`factor_only`], but a failing run yields a structured
/// [`SolverError`] instead of a panic.
pub fn try_factor_only(prep: &Prepared, cfg: &SolverConfig) -> Result<Output3d, SolverError> {
    try_run(prep, cfg, None).map_err(SolverError::from_machine)
}

/// Like [`factor_and_solve`], but a failing run yields a structured
/// [`SolverError`] — the primary rank failure with its phase, and for
/// solver-stage failures the supernode and forest level — instead of a
/// panic.
pub fn try_factor_and_solve(
    prep: &Prepared,
    cfg: &SolverConfig,
    rhs: Option<Vec<f64>>,
) -> Result<Output3d, SolverError> {
    try_run(prep, cfg, rhs).map_err(SolverError::from_machine)
}

/// Solve, then run `refine_steps` sweeps of iterative refinement, on the
/// ranks of `comm`. `solve_once` returns this rank's partial solution for a
/// right-hand side, of which it reads only `my_rows`; every rank of `comm`
/// materializes the full vector by allreduce and forms the residual
/// `b - A x` on those rows alone, so each row is computed once on the
/// machine.
fn solve_and_refine(
    rank: &mut simgrid::Rank,
    comm: &simgrid::Comm,
    pa: &sparsemat::Csr,
    my_rows: &[std::ops::Range<usize>],
    b: &[f64],
    refine_steps: usize,
    mut solve_once: impl FnMut(&mut simgrid::Rank, &[f64]) -> Vec<f64>,
) -> Vec<f64> {
    let xp = solve_once(rank, b);
    let mut x_full = {
        let _host = rank.host_scope(simgrid::HostPhase::Refine);
        rank.allreduce_sum(comm, xp, simgrid::tags::CB_SOLVE_X)
    };
    for step in 0..refine_steps {
        let r = {
            let _host = rank.host_scope(simgrid::HostPhase::Refine);
            let mut r = vec![0.0; b.len()];
            let mut nnz = 0;
            for i in my_rows.iter().cloned().flatten() {
                let mut ax = 0.0;
                for (c, v) in pa.row_cols(i).iter().zip(pa.row_vals(i)) {
                    ax += v * x_full[*c];
                }
                r[i] = b[i] - ax;
                nnz += pa.row_cols(i).len();
            }
            rank.advance_compute(2 * nnz as u64);
            r
        };
        let dxp = solve_once(rank, &r);
        let _host = rank.host_scope(simgrid::HostPhase::Refine);
        let dx = rank.allreduce_sum(comm, dxp, simgrid::tags::CB_REFINE | step as u64);
        for (xi, di) in x_full.iter_mut().zip(dx) {
            *xi += di;
        }
    }
    x_full
}

/// What grid `z` allocates and what it initializes: `keep(sn)` holds for the
/// supernodes of its forest parts plus every replicated ancestor, and
/// `value_pred(i, j)` for the blocks whose values of `A` land on this grid —
/// each block's designated initialization grid is the factoring grid of its
/// deeper endpoint; the other grids start it at zero (§III-A).
fn layer_predicates<'a>(
    forest: &'a EtreeForest,
    sym: &'a symbolic::Symbolic,
    z: usize,
) -> (
    impl Fn(usize) -> bool + 'a,
    impl Fn(usize, usize) -> bool + 'a,
) {
    let keep = move |sn: usize| forest.keeps(sym.part.node_of_sn[sn], z);
    let value_pred = move |bi: usize, bj: usize| {
        let (ni, nj) = (sym.part.node_of_sn[bi], sym.part.node_of_sn[bj]);
        let deeper = if forest.part_level[ni] >= forest.part_level[nj] {
            ni
        } else {
            nj
        };
        forest.factoring_grid(deeper) == z
    };
    (keep, value_pred)
}

fn run(prep: &Prepared, cfg: &SolverConfig, rhs: Option<Vec<f64>>) -> Output3d {
    match try_run(prep, cfg, rhs) {
        Ok(out) => out,
        Err(mf) => panic!("{}", mf.render()),
    }
}

fn try_run(
    prep: &Prepared,
    cfg: &SolverConfig,
    rhs: Option<Vec<f64>>,
) -> Result<Output3d, MachineFailure> {
    // A bad grid is bad input, not a broken invariant: report it the way the
    // machine reports its own config errors.
    let grid3 = Grid3d::try_new(cfg.pr, cfg.pc, cfg.pz).map_err(MachineFailure::config)?;
    if let Some(b) = rhs.as_ref().filter(|b| b.len() != prep.a.nrows) {
        return Err(MachineFailure::config(format!(
            "right-hand side has {} entries but the matrix has {} rows",
            b.len(),
            prep.a.nrows
        )));
    }
    let mut machine = Machine::new(grid3.size(), cfg.model).with_backend(cfg.backend);
    if cfg.tracing {
        machine = machine.with_tracing();
    }
    if cfg.host_profiling {
        machine = machine.with_host_profiling();
    }
    if let Some(plan) = &cfg.fault_plan {
        machine = machine.with_fault_plan(plan.clone());
    }
    if let Some(retry) = cfg.retry {
        machine = machine.with_retry(retry);
    }
    if let Some(deadline) = cfg.recv_deadline {
        machine = machine.with_recv_deadline(deadline);
    }
    let forest = Arc::new(EtreeForest::build(&prep.tree, &prep.sym, cfg.pz));
    let pa = Arc::clone(&prep.pa);
    let sym = Arc::clone(&prep.sym);
    // Where every block and matrix entry lives on a layer: derived once for
    // the machine, read by every rank's store.
    let layout = Arc::new(StoreLayout::new(&pa, &sym, &grid3.grid2d));
    // Likewise the solve's batches, when there is something to solve.
    let plan = rhs
        .is_some()
        .then(|| Arc::new(SolvePlan::new(&sym, &forest, &grid3.grid2d)));
    let solve_waves = plan.as_ref().map_or(Vec::new(), |p| p.waves_per_level());
    let rhs_p = rhs.map(|b| Arc::new(prep.permute_rhs(&b)));
    let opts = FactorOpts {
        lookahead: cfg.lookahead,
        pivot_threshold: cfg.pivot_threshold,
    };
    let forest_cl = Arc::clone(&forest);
    let cfg_refine = cfg.refine_steps;

    let out = machine.try_run(move |rank| {
        let comms = build_grid_comms(rank, &grid3);
        let (my_r, my_c, my_z) = comms.coords;

        let (keep, value_pred) = layer_predicates(&forest_cl, &sym, my_z);
        let mut store = {
            let _host = rank.host_scope(simgrid::HostPhase::StoreBuild);
            BlockStore::from_layout(
                Arc::clone(&layout),
                &pa,
                &sym,
                my_r,
                my_c,
                &keep,
                &value_pred,
            )
        };
        let store_words = store.total_words();

        // A structured stage failure ends this rank in an orderly way: the
        // machine's failure board attributes the run to it (not to the
        // ranks that cascade), and `try_run` surfaces it as the error.
        let outcome = match factor_3d(rank, &grid3, &comms, &mut store, &sym, &forest_cl, opts) {
            Ok(o) => o,
            Err(kind) => rank.fail(kind),
        };
        let factor_clock = rank.clock();
        let factor_digest = {
            let _host = rank.host_scope(simgrid::HostPhase::Digest);
            store_digest(&store)
        };

        let x_full = rhs_p.as_ref().zip(plan.as_ref()).map(|(b, plan)| {
            rank.set_phase("solve");
            let world = rank.world();
            let mine = plan.solved_by(comms.coords);
            let my_rows: Vec<_> = mine.iter().map(|&k| sym.part.ranges[k].clone()).collect();
            let solve_once = |rank: &mut simgrid::Rank, rhs: &[f64]| {
                solve_3d(rank, &grid3, &comms, &store, &sym, plan, opts, rhs)
                    .unwrap_or_else(|kind| rank.fail(kind))
            };
            solve_and_refine(rank, &world, &pa, &my_rows, b, cfg_refine, solve_once)
        });
        (
            outcome.perturbations,
            outcome.lookahead_hits,
            store_words,
            factor_digest,
            factor_clock,
            x_full.filter(|_| rank.id() == 0),
        )
    })?;

    let perturbations = out.results.iter().map(|r| r.0).sum();
    let lookahead_hits = out.results.iter().map(|r| r.1).sum();
    let max_store_words = out.results.iter().map(|r| r.2).max().unwrap_or(0);
    let total_store_words = out.results.iter().map(|r| r.2).sum();
    // Fold the per-rank digests in world-rank order (the order is part of
    // the identity: rank r's factors must match rank r's).
    let factor_digest = out.results.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, r| {
        (h.rotate_left(17) ^ r.3).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let factor_makespan = out.results.iter().map(|r| r.4).fold(0.0, f64::max);
    let x = out
        .results
        .into_iter()
        .find_map(|r| r.5)
        .map(|px| prep.unpermute_solution(&px));
    Ok(Output3d {
        x,
        reports: out.reports,
        perturbations,
        lookahead_hits,
        max_store_words,
        total_store_words,
        forest: Arc::try_unwrap(forest).unwrap_or_else(|a| (*a).clone()),
        factor_digest,
        sched: out.sched,
        factor_makespan,
        solve_waves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt, kkt_3d};
    use sparsemat::testmats::Geometry;
    use sparsemat::Csr;

    fn check(a: Csr, geometry: Geometry, pr: usize, pc: usize, pz: usize, tol: f64) -> Output3d {
        let n = a.nrows;
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let b = a.matvec(&x_true);
        let prep = Prepared::new(a, geometry, 8, 8);
        let cfg = SolverConfig {
            pr,
            pc,
            pz,
            model: TimeModel::zero(),
            ..Default::default()
        };
        let out = factor_and_solve(&prep, &cfg, Some(b.clone()));
        let x = out.x.as_ref().expect("solution");
        let r = prep.a.residual_inf(x, &b);
        let bmax = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        assert!(
            r / bmax < tol,
            "{pr}x{pc}x{pz}: relative residual {}",
            r / bmax
        );
        out
    }

    // ---- The store and its digest: what every bitwise contract rests on ----

    use densela::Mat;
    use proptest::prelude::*;
    use simgrid::Grid2d;
    use slu2d::store::InitValues;
    use std::collections::BTreeMap;

    /// The store as every rank used to build it — scan the whole pattern,
    /// then the whole matrix, keeping what is this rank's. The oracle the
    /// layout-indexed store is compared against.
    fn scan_build(
        a: &Csr,
        sym: &symbolic::Symbolic,
        grid: &Grid2d,
        (my_r, my_c): (usize, usize),
        keep: &dyn Fn(usize) -> bool,
        value_pred: &dyn Fn(usize, usize) -> bool,
    ) -> BTreeMap<(usize, usize), Mat> {
        let part = &sym.part;
        let mut blocks = BTreeMap::new();
        let mine = |i: usize, j: usize| grid.owner(i, j) == (my_r, my_c);
        for j in (0..part.nsup()).filter(|&j| keep(j)) {
            let wj = part.width(j);
            if mine(j, j) {
                blocks.insert((j, j), Mat::zeros(wj, wj));
            }
            for &i in sym.fill.struct_of[j].iter().filter(|&&i| keep(i)) {
                let wi = part.width(i);
                if mine(i, j) {
                    blocks.insert((i, j), Mat::zeros(wi, wj));
                }
                if mine(j, i) {
                    blocks.insert((j, i), Mat::zeros(wj, wi));
                }
            }
        }
        for row in 0..a.nrows {
            let bi = part.sn_of_col[row];
            for (col, val) in a.row_cols(row).iter().zip(a.row_vals(row)) {
                let bj = part.sn_of_col[*col];
                if !keep(bi) || !keep(bj) || !mine(bi, bj) || !value_pred(bi, bj) {
                    continue;
                }
                let m = blocks
                    .get_mut(&(bi, bj))
                    .expect("the pattern holds all of A");
                *m.at_mut(row - part.ranges[bi].start, col - part.ranges[bj].start) += *val;
            }
        }
        blocks
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Every rank of a `pr x pc x pz` machine, under the solver's real
    /// predicates: the layout-built store equals the scanned one block for
    /// block and bit for bit, and digests the same however it was filled.
    fn assert_stores_match_the_oracle(prep: &Prepared, pr: usize, pc: usize, pz: usize) {
        let ctx = format!("{pr}x{pc}x{pz}");
        let grid = Grid2d::new(pr, pc);
        let forest = EtreeForest::build(&prep.tree, &prep.sym, pz);
        let layout = Arc::new(StoreLayout::new(&prep.pa, &prep.sym, &grid));
        let mut total_blocks = 0;
        for z in 0..pz {
            let (keep, value_pred) = layer_predicates(&forest, &prep.sym, z);
            for (r, c) in (0..pr).flat_map(|r| (0..pc).map(move |c| (r, c))) {
                let oracle = scan_build(&prep.pa, &prep.sym, &grid, (r, c), &keep, &value_pred);
                let shared = BlockStore::from_layout(
                    Arc::clone(&layout),
                    &prep.pa,
                    &prep.sym,
                    r,
                    c,
                    &keep,
                    &value_pred,
                );
                let private = BlockStore::build_with_value_pred(
                    &prep.pa,
                    &prep.sym,
                    &grid,
                    r,
                    c,
                    &keep,
                    &value_pred,
                );
                for (name, store) in [("shared", &shared), ("private", &private)] {
                    let ctx = format!("{ctx} z={z} ({r},{c}) {name} layout");
                    assert_eq!(
                        store.keys().collect::<Vec<_>>(),
                        oracle.keys().copied().collect::<Vec<_>>(),
                        "{ctx}: block sets"
                    );
                    assert_eq!(store.len(), oracle.len(), "{ctx}");
                    for ((i, j), want) in &oracle {
                        let got = store.get(*i, *j).expect("listed key");
                        assert_eq!(
                            (got.rows(), got.cols()),
                            (want.rows(), want.cols()),
                            "{ctx}: shape of ({i},{j})"
                        );
                        assert_eq!(bits(got), bits(want), "{ctx}: block ({i},{j})");
                    }
                }
                // The digest is a function of the content, not of how or in
                // what order the store was filled.
                let mut refilled = BlockStore::empty(Arc::clone(&layout), r, c);
                for ((i, j), m) in oracle.iter().rev() {
                    refilled.insert(*i, *j, m.clone());
                }
                assert_eq!(store_digest(&shared), store_digest(&refilled), "{ctx}");
                assert_eq!(store_digest(&shared), store_digest(&private), "{ctx}");
                total_blocks += oracle.len();
            }
        }
        assert!(
            total_blocks >= layout.num_blocks(),
            "{ctx}: every block is kept on some layer"
        );
    }

    #[test]
    fn layout_built_stores_equal_the_scanning_oracle() {
        let planar = Prepared::new(
            grid2d_5pt(24, 24, 0.1, 1),
            Geometry::Grid2d { nx: 24, ny: 24 },
            8,
            8,
        );
        assert_stores_match_the_oracle(&planar, 2, 2, 4);
        let nonplanar = Prepared::new(
            grid3d_7pt(10, 10, 10, 0.1, 2),
            Geometry::Grid3d {
                nx: 10,
                ny: 10,
                nz: 10,
            },
            8,
            8,
        );
        assert_stores_match_the_oracle(&nonplanar, 1, 3, 2);
        assert_stores_match_the_oracle(&nonplanar, 1, 1, 1);
        let kkt = Prepared::new(kkt_3d(6, 5, 4, 1e-2, 3), Geometry::General, 8, 8);
        assert_stores_match_the_oracle(&kkt, 3, 2, 2);
    }

    /// A small store with blocks of many shapes, values from the matrix.
    fn digest_fixture() -> BlockStore {
        let prep = Prepared::new(
            grid2d_5pt(12, 12, 0.1, 5),
            Geometry::Grid2d { nx: 12, ny: 12 },
            8,
            7,
        );
        let grid = Grid2d::new(1, 1);
        let mut store = BlockStore::build(
            &prep.pa,
            &prep.sym,
            &grid,
            0,
            0,
            &|_| true,
            InitValues::FromMatrix,
        );
        // Make every word distinct, keeping fill blocks zero-free too: a
        // swap of equal words would be no change at all.
        let keys: Vec<_> = store.keys().collect();
        for (n, &(i, j)) in keys.iter().enumerate() {
            let m = store.get_mut(i, j).unwrap();
            for (e, v) in m.as_mut_slice().iter_mut().enumerate() {
                *v += 1.0 + (n * 1000 + e) as f64;
            }
        }
        store
    }

    /// `store` with the words of block `key` permuted or rewritten.
    fn with_words(
        store: &BlockStore,
        key: (usize, usize),
        edit: impl FnOnce(&mut [f64]),
    ) -> BlockStore {
        let mut changed = store.clone();
        edit(changed.get_mut(key.0, key.1).unwrap().as_mut_slice());
        changed
    }

    proptest! {
        #[test]
        fn digest_sees_every_bit_and_every_swap(block in 0usize..10_000, a in 0usize..10_000, b in 0usize..10_000, bit in 0u32..64) {
            let store = digest_fixture();
            let base = store_digest(&store);
            let keys: Vec<_> = store.keys().collect();
            let key = keys[block % keys.len()];
            let len = store.get(key.0, key.1).unwrap().as_slice().len();
            let (a, b) = (a % len, b % len);
            let flipped = with_words(&store, key, |w| w[a] = f64::from_bits(w[a].to_bits() ^ (1 << bit)));
            prop_assert!(store_digest(&flipped) != base, "bit {} of word {} of block {:?}", bit, a, key);
            if a != b {
                // Any two words: same lane when a ≡ b (mod lanes), else not.
                let swapped = with_words(&store, key, |w| w.swap(a, b));
                prop_assert!(store_digest(&swapped) != base, "words {} and {} of block {:?}", a, b, key);
            }
        }
    }

    #[test]
    fn digest_orders_words_within_and_across_lanes() {
        let store = digest_fixture();
        let base = store_digest(&store);
        // A block of three rounds whose last two lanes hold equally many
        // words (the remainder of a partial round goes to the first lanes).
        let key = store
            .iter()
            .map(|(key, m)| (key, m.as_slice().len()))
            .find(|(_, len)| *len >= 3 * DIGEST_LANES && len % DIGEST_LANES <= DIGEST_LANES - 2)
            .map(|(key, _)| key)
            .expect("a block of three rounds");
        // Same lane: one round apart.
        let same = with_words(&store, key, |w| w.swap(1, 1 + DIGEST_LANES));
        assert_ne!(store_digest(&same), base);
        // Neighbouring lanes, same depth.
        let across = with_words(&store, key, |w| w.swap(1, 2));
        assert_ne!(store_digest(&across), base);
        // The case a symmetric combination of the lanes cannot see: a block
        // that is zero except for two words at the same depth of two lanes.
        // Swapping them exchanges the two lanes' states exactly.
        let sparse = |x: f64, y: f64| {
            with_words(&store, key, |w| {
                w.fill(0.0);
                w[2 * DIGEST_LANES - 2] = x;
                w[2 * DIGEST_LANES - 1] = y;
            })
        };
        assert_ne!(
            store_digest(&sparse(3.5, -0.25)),
            store_digest(&sparse(-0.25, 3.5))
        );
        // An f64's sign lives in the top bit, which a multiply never carries
        // downwards: equal magnitudes of opposite sign, one lane, swapped.
        let signs = |x: f64, y: f64| {
            with_words(&store, key, |w| {
                w[0] = x;
                w[DIGEST_LANES] = y;
            })
        };
        assert_ne!(
            store_digest(&signs(2.0, -2.0)),
            store_digest(&signs(-2.0, 2.0))
        );
    }

    #[test]
    fn digest_binds_content_to_key_shape_and_presence() {
        let store = digest_fixture();
        let base = store_digest(&store);
        // Two equal-shaped blocks exchange their contents.
        let keys: Vec<_> = store.keys().collect();
        let shape = |&(i, j): &(usize, usize)| {
            let m = store.get(i, j).unwrap();
            (m.rows(), m.cols())
        };
        let (p, q) = keys
            .iter()
            .enumerate()
            .find_map(|(n, p)| {
                let q = keys[n + 1..].iter().find(|q| shape(q) == shape(p))?;
                Some((*p, *q))
            })
            .expect("two blocks of one shape");
        let mut exchanged = store.clone();
        let (mp, mq) = (
            exchanged.take(p.0, p.1).unwrap(),
            exchanged.take(q.0, q.1).unwrap(),
        );
        exchanged.insert(p.0, p.1, mq);
        exchanged.insert(q.0, q.1, mp);
        assert_eq!(
            exchanged.keys().collect::<Vec<_>>(),
            keys,
            "same keys, same order"
        );
        assert_ne!(store_digest(&exchanged), base);
        // Taking a block out and putting it back is no change.
        let mut restored = store.clone();
        let m = restored.take(p.0, p.1).unwrap();
        restored.insert(p.0, p.1, m);
        assert_eq!(store_digest(&restored), base);

        // The same words under transposed dimensions.
        let tall = *keys
            .iter()
            .find(|k| shape(k).0 != shape(k).1)
            .expect("a non-square block");
        let mut transposed = store.clone();
        let m = transposed.take(tall.0, tall.1).unwrap();
        transposed.insert(
            tall.0,
            tall.1,
            Mat::from_vec(m.cols(), m.rows(), m.as_slice().to_vec()),
        );
        assert_ne!(store_digest(&transposed), base);

        // An all-zero block is content: dropping it is seen.
        let zeroed = with_words(&store, tall, |w| w.fill(0.0));
        let mut dropped = zeroed.clone();
        dropped.take(tall.0, tall.1).unwrap();
        assert_eq!(dropped.len(), zeroed.len() - 1);
        assert_ne!(store_digest(&dropped), store_digest(&zeroed));
    }

    #[test]
    fn pz1_equals_2d_baseline() {
        check(
            grid2d_5pt(12, 12, 0.1, 1),
            Geometry::Grid2d { nx: 12, ny: 12 },
            2,
            2,
            1,
            1e-8,
        );
    }

    #[test]
    fn pz2_single_layer_ranks() {
        check(
            grid2d_5pt(12, 12, 0.1, 2),
            Geometry::Grid2d { nx: 12, ny: 12 },
            1,
            1,
            2,
            1e-8,
        );
    }

    #[test]
    fn pz2_with_2x2_layers() {
        check(
            grid2d_5pt(14, 14, 0.1, 3),
            Geometry::Grid2d { nx: 14, ny: 14 },
            2,
            2,
            2,
            1e-8,
        );
    }

    #[test]
    fn pz4_planar() {
        check(
            grid2d_5pt(16, 16, 0.1, 4),
            Geometry::Grid2d { nx: 16, ny: 16 },
            1,
            2,
            4,
            1e-8,
        );
    }

    #[test]
    fn pz8_planar_deep_forest() {
        check(
            grid2d_5pt(20, 20, 0.1, 5),
            Geometry::Grid2d { nx: 20, ny: 20 },
            1,
            1,
            8,
            1e-8,
        );
    }

    #[test]
    fn pz2_nonplanar() {
        check(
            grid3d_7pt(5, 5, 5, 0.1, 6),
            Geometry::Grid3d {
                nx: 5,
                ny: 5,
                nz: 5,
            },
            2,
            1,
            2,
            1e-8,
        );
    }

    #[test]
    fn pz4_kkt_multilevel_ordering() {
        check(kkt_3d(3, 3, 3, 1e-2, 7), Geometry::General, 1, 2, 4, 1e-6);
    }

    #[test]
    fn reduction_traffic_appears_only_for_pz_gt_1() {
        let a = grid2d_5pt(12, 12, 0.1, 8);
        let prep = Prepared::new(a, Geometry::Grid2d { nx: 12, ny: 12 }, 8, 8);
        let o1 = factor_only(
            &prep,
            &SolverConfig {
                pr: 2,
                pc: 2,
                pz: 1,
                model: TimeModel::zero(),
                ..Default::default()
            },
        );
        assert_eq!(o1.w_red(), 0);
        let o2 = factor_only(
            &prep,
            &SolverConfig {
                pr: 2,
                pc: 2,
                pz: 2,
                model: TimeModel::zero(),
                ..Default::default()
            },
        );
        assert!(o2.w_red() > 0, "Pz=2 must reduce ancestors along z");
        // And the per-process 2D-factorization volume shrinks (the headline
        // effect of the algorithm).
        assert!(
            o2.w_fact() < o1.w_fact(),
            "W_fact {} (Pz=2) !< {} (Pz=1)",
            o2.w_fact(),
            o1.w_fact()
        );
    }

    #[test]
    fn factor_makespan_is_the_factor_only_makespan() {
        // What `salu` divides the 2D baseline by: the clock when the
        // factorization ended, read off the run that also solved.
        let a = grid2d_5pt(14, 14, 0.1, 3);
        let b = a.matvec(&vec![1.0; a.nrows]);
        let prep = Prepared::new(a, Geometry::Grid2d { nx: 14, ny: 14 }, 8, 8);
        let cfg = SolverConfig {
            pr: 2,
            pc: 1,
            pz: 2,
            refine_steps: 1,
            ..Default::default()
        };
        let solved = factor_and_solve(&prep, &cfg, Some(b));
        let factored = factor_only(&prep, &cfg);
        assert_eq!(
            solved.factor_makespan.to_bits(),
            factored.makespan().to_bits()
        );
        assert_eq!(
            factored.factor_makespan.to_bits(),
            factored.makespan().to_bits()
        );
        assert!(solved.makespan() > solved.factor_makespan);
    }

    #[test]
    fn memory_grows_with_replication() {
        let a = grid3d_7pt(6, 6, 6, 0.1, 9);
        let prep = Prepared::new(
            a,
            Geometry::Grid3d {
                nx: 6,
                ny: 6,
                nz: 6,
            },
            8,
            8,
        );
        let m1 = factor_only(
            &prep,
            &SolverConfig {
                pr: 1,
                pc: 2,
                pz: 1,
                model: TimeModel::zero(),
                ..Default::default()
            },
        )
        .max_store_words;
        let m4 = factor_only(
            &prep,
            &SolverConfig {
                pr: 1,
                pc: 2,
                pz: 4,
                model: TimeModel::zero(),
                ..Default::default()
            },
        )
        .max_store_words;
        // Same number of ranks per layer; Pz=4 replicates ancestors, so the
        // busiest rank must hold more than ... well, per-rank layer memory:
        // with Pz=4 each layer holds 1/4 of the subtrees plus ancestors, so
        // the per-rank max can go either way; what MUST grow is total:
        // max-per-rank x ranks. Compare totals instead.
        assert!(
            4 * 2 * m4 > 2 * m1,
            "replication cannot shrink total memory"
        );
    }

    #[test]
    fn full_run_receives_every_message_it_sends() {
        // The whole 3D factor+solve pipeline: every send matched. (A
        // message left unreceived would panic inside `run`.)
        let a = grid2d_5pt(12, 12, 0.1, 11);
        let n = a.nrows;
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
        let b = a.matvec(&x_true);
        let prep = Prepared::new(a, Geometry::Grid2d { nx: 12, ny: 12 }, 8, 8);
        let cfg = SolverConfig {
            pr: 2,
            pc: 1,
            pz: 2,
            model: TimeModel::zero(),
            ..Default::default()
        };
        let out = factor_and_solve(&prep, &cfg, Some(b));
        let sent: u64 = out.reports.iter().map(|r| r.commvol.sent_msgs()).sum();
        let received: u64 = out.reports.iter().map(|r| r.commvol.recv_msgs()).sum();
        assert_eq!(sent, received);
        assert!(sent > 0);
        assert!(out.x.is_some());
    }

    #[test]
    fn try_entry_points_report_a_bad_grid_as_a_config_error() {
        let a = grid2d_5pt(8, 8, 0.0, 0);
        let b = vec![1.0; a.nrows];
        let prep = Prepared::new(a, Geometry::Grid2d { nx: 8, ny: 8 }, 8, 8);
        for (pr, pc, pz) in [(1, 1, 3), (1, 1, 0), (0, 2, 2), (2, 0, 1)] {
            let cfg = SolverConfig {
                pr,
                pc,
                pz,
                ..Default::default()
            };
            let errs = [
                try_factor_only(&prep, &cfg).err(),
                try_factor_and_solve(&prep, &cfg, Some(b.clone())).err(),
            ];
            for err in errs {
                let err = err.unwrap_or_else(|| panic!("{pr}x{pc}x{pz} must be rejected"));
                assert_eq!(err.phase, "config");
                assert!(
                    matches!(&err.kind, FailKind::Config { detail }
                        if detail.contains(&format!("{pr}x{pc}x{pz}"))),
                    "unexpected failure kind: {}",
                    err.kind
                );
            }
        }
    }

    #[test]
    fn try_factor_and_solve_rejects_a_wrong_length_rhs_as_a_config_error() {
        let a = grid2d_5pt(8, 8, 0.0, 0);
        let n = a.nrows;
        let prep = Prepared::new(a, Geometry::Grid2d { nx: 8, ny: 8 }, 8, 8);
        let cfg = SolverConfig {
            pc: 2,
            ..Default::default()
        };
        for len in [n + 3, n - 1, 0] {
            let err = try_factor_and_solve(&prep, &cfg, Some(vec![1.0; len]))
                .err()
                .unwrap_or_else(|| panic!("a right-hand side of {len} entries must be rejected"));
            assert_eq!(err.phase, "config");
            assert!(
                matches!(&err.kind, FailKind::Config { detail }
                    if detail.contains(&format!("{len} entries"))
                        && detail.contains(&format!("{n} rows"))),
                "unexpected failure kind: {}",
                err.kind
            );
        }
    }

    /// The solver's own program leaves nothing unreceived, so the machine
    /// failure → [`SolverError`] conversion is handed a run that does: rank
    /// 0 sends twice, rank 1 receives once.
    #[test]
    fn an_unreceived_message_becomes_a_solver_error_naming_it() {
        for backend in [Backend::Threaded, Backend::Event] {
            let m = Machine::new(2, TimeModel::zero()).with_backend(backend);
            let mf = m
                .try_run(|rank| {
                    let world = rank.world();
                    if rank.id() == 0 {
                        rank.send(&world, 1, 7, simgrid::Payload::F64s(vec![1.0, 2.0]));
                        rank.send(&world, 1, 8, simgrid::Payload::F64s(vec![3.0; 5]));
                    } else {
                        let _ = rank.recv(&world, 0, 7);
                    }
                })
                .expect_err("an unreceived message is a failure");
            // What `run` panics with names the message too.
            assert!(mf.render().contains("sent but never received"));
            let err = SolverError::from_machine(mf);
            assert_eq!((err.rank, err.cascades), (1, 0), "{backend}");
            assert!(
                err.to_string().contains("0 -> 1 (ctx=0, tag=8 ["),
                "{backend}: {err}"
            );
            assert!(err.to_string().contains("5 words"), "{backend}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_pz() {
        let a = grid2d_5pt(8, 8, 0.0, 0);
        let prep = Prepared::new(a, Geometry::Grid2d { nx: 8, ny: 8 }, 8, 8);
        let _ = factor_only(
            &prep,
            &SolverConfig {
                pz: 3,
                ..Default::default()
            },
        );
    }
}
