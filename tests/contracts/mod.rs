//! The bitwise contracts of a 3D run, checked over one table of shapes.
//!
//! A [`Shape`] is what a run is given: a matrix, the `(leaf, maxsup)` pins,
//! a grid, the lookahead, refinement steps, a right-hand side and a fault
//! spec; [`table`] holds them. A [`Run`] is one variation of a shape:
//! backend, rerun, its `Pz = 1` twin, its fault-free twin, tracing,
//! profiling. [`run`] makes each variation once per test binary, whichever
//! test asks first (a rerun on a matrix generated, ordered and analyzed
//! anew), and checks every run against its own ledgers as it completes. A [`Contract`] compares the runs it needs; [`check`] evaluates
//! contracts over shapes, and a failure names the shape and the contract.
//!
//! To add a shape, add a row to [`table`] and list it in a test's
//! [`check`]. To add a contract, add a [`Contract`] variant and its arm in
//! `Contract::eval`, and list it where it applies.

#![allow(dead_code)] // each test binary uses its own part of the harness

pub mod table;

use commplan::{build_plan, check_plan, compare_with_measured, CommPlan, Dir};
use salu::prelude::*;
use salu::simgrid::obs::validate_chrome_trace;
use salu::simgrid::{validate_trace, ActivityKind, Grid2d, Grid3d, Json};
use salu::slu2d::store::{BlockStore, InitValues};
use salu::slu2d::{seq_factor, seq_solve};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};
use Backend::{Event, Threaded};

/// The fault plan of the chaos shapes, at seed 7.
pub const CHAOS: &str = "drop:p=0.05;dup:p=0.02;delay:p=0.1,secs=2e-3";

/// How a shape's matrix is made.
#[derive(Clone, Copy, Debug)]
pub enum Gen {
    /// `grid2d_5pt(n, n, 0.1, seed)`.
    Grid2d(usize, u64),
    /// `grid3d_7pt(n, n, n, 0.1, seed)`.
    Grid3d(usize, u64),
    /// `kkt_3d(n, n, n, 1e-2, seed)`.
    Kkt(usize, u64),
    /// A test-suite proxy.
    Suite(&'static str, Scale),
    Fn(fn() -> (Csr, Geometry)),
}

/// The right-hand side: none (factor only), `A * x_true`, or `b` itself.
#[derive(Clone, Copy, Debug)]
pub enum Rhs {
    None,
    Truth(fn(usize) -> f64),
    B(fn(usize) -> f64),
}

#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub matrix: Gen,
    pub grid: [usize; 3],
    pub pins: (usize, usize),
    pub lookahead: usize,
    pub refine: usize,
    pub rhs: Rhs,
    /// A `--faults` spec, run at seed 7 with recovery on.
    pub faults: Option<&'static str>,
    pub pivot: Option<f64>,
    /// `TimeModel::zero()` instead of `edison_like()`.
    pub zero_time: bool,
    /// Every run of the shape is traced.
    pub traced: bool,
    /// The backend of the contracts that take one run.
    pub backend: Backend,
}

/// Setters that return the value with one field changed.
macro_rules! setters {
    ($($field:ident: $ty:ty),*) => {$(
        pub const fn $field(mut self, $field: $ty) -> Self {
            self.$field = $field;
            self
        }
    )*};
}

impl Shape {
    pub const fn new(name: &'static str, matrix: Gen, grid: [usize; 3]) -> Shape {
        Shape {
            name,
            matrix,
            grid,
            pins: (16, 24),
            lookahead: 8,
            refine: 0,
            rhs: Rhs::None,
            faults: None,
            pivot: None,
            zero_time: false,
            traced: false,
            backend: Threaded,
        }
    }
    setters!(pins: (usize, usize), lookahead: usize, refine: usize, rhs: Rhs,
        faults: Option<&'static str>, pivot: Option<f64>, zero_time: bool, traced: bool,
        backend: Backend);
    pub fn ranks(&self) -> usize {
        self.grid.iter().product()
    }
    /// The shape's first run on `backend`.
    pub fn run(&self, backend: Backend) -> Run {
        Run::default().backend(backend).traced(self.traced)
    }
    /// Its configuration for one variation.
    pub fn config(&self, run: Run) -> SolverConfig {
        let [pr, pc, pz] = self.grid;
        let faults = self.faults.filter(|_| !run.clean);
        let model = [TimeModel::edison_like(), TimeModel::zero()][self.zero_time as usize];
        let base = SolverConfig::default();
        SolverConfig {
            pr,
            pc,
            pz: if run.flat { 1 } else { pz },
            lookahead: self.lookahead,
            pivot_threshold: self.pivot.unwrap_or(base.pivot_threshold),
            refine_steps: self.refine,
            model,
            tracing: run.traced,
            host_profiling: run.profiled,
            fault_plan: faults.map(|s| FaultPlan::parse(s, 7).expect("fault spec parses")),
            recover: faults.is_some(),
            backend: run.backend,
            ..base
        }
    }
    /// The right-hand side, if any.
    pub fn b(&self) -> Option<Vec<f64>> {
        self.b_of(&prep(self).a)
    }
    fn b_of(&self, a: &Csr) -> Option<Vec<f64>> {
        match self.rhs {
            Rhs::None => None,
            Rhs::Truth(x) => Some(a.matvec(&(0..a.nrows).map(x).collect::<Vec<_>>())),
            Rhs::B(b) => Some((0..a.nrows).map(b).collect()),
        }
    }
}

/// One variation of a shape.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Run {
    pub backend: Backend,
    /// 0 for the first run, 1 for its rerun.
    pub nth: u8,
    /// On one layer (`Pz = 1`).
    pub flat: bool,
    /// Without the shape's faults.
    pub clean: bool,
    pub traced: bool,
    pub profiled: bool,
}

impl Run {
    setters!(backend: Backend, nth: u8, flat: bool, clean: bool, traced: bool, profiled: bool);
}

/// A completed run, its host wall clock (factorization and solve only),
/// and the texts contracts compare, each rendered once.
pub struct Done {
    pub out: Output3d,
    pub wall: f64,
    sim: OnceLock<String>,
    trace: OnceLock<Option<String>>,
}

impl Done {
    /// The account's `sim` section.
    pub fn sim(&self) -> &str {
        let sim = || self.out.account().get("sim").expect("sim section").pretty();
        self.sim.get_or_init(sim)
    }
    /// The Chrome trace, if the run was traced.
    pub fn trace(&self) -> Option<&str> {
        let text = || self.out.chrome_trace().map(|t| t.pretty());
        self.trace.get_or_init(text).as_deref()
    }
}

type Cache<T> = Mutex<BTreeMap<String, &'static OnceLock<T>>>;

/// The cell of `key`, leaked: a test binary's runs live as long as it.
fn cell<T: Sync>(cache: &Cache<T>, key: String) -> &'static OnceLock<T> {
    let mut map = cache.lock().expect("no test panics holding the cache lock");
    map.entry(key).or_insert_with(|| Box::leak(Box::default()))
}

/// The ordered and analyzed matrix of a shape, made once per binary.
pub fn prep(shape: &Shape) -> &'static Prepared {
    prep_nth(shape, 0)
}

/// The matrix of a shape's `nth` run: a rerun generates, orders and
/// analyzes its own, so [`Contract::Rerun`] repeats the whole pipeline.
fn prep_nth(shape: &Shape, nth: u8) -> &'static Prepared {
    static PREPS: Cache<Prepared> = Mutex::new(BTreeMap::new());
    let key = format!("{:?} {:?} {nth}", shape.matrix, shape.pins);
    cell(&PREPS, key).get_or_init(|| {
        use salu::sparsemat::matgen::{grid2d_5pt, grid3d_7pt, kkt_3d};
        let (a, geometry) = match shape.matrix {
            Gen::Grid2d(n, seed) => (
                grid2d_5pt(n, n, 0.1, seed),
                Geometry::Grid2d { nx: n, ny: n },
            ),
            Gen::Grid3d(n, seed) => {
                let cube = Geometry::Grid3d {
                    nx: n,
                    ny: n,
                    nz: n,
                };
                (grid3d_7pt(n, n, n, 0.1, seed), cube)
            }
            Gen::Kkt(n, seed) => (kkt_3d(n, n, n, 1e-2, seed), Geometry::General),
            Gen::Suite(name, scale) => {
                let tm = test_matrix(name, scale);
                (tm.matrix, tm.geometry)
            }
            Gen::Fn(f) => f(),
        };
        Prepared::new(a, geometry, shape.pins.0, shape.pins.1)
    })
}

/// One variation of a shape, run once per test binary and checked against
/// its own ledgers.
pub fn run(shape: &Shape, run: Run) -> &'static Done {
    static RUNS: Cache<Done> = Mutex::new(BTreeMap::new());
    cell(&RUNS, format!("{shape:?} {run:?}")).get_or_init(|| {
        let (p, cfg) = (prep_nth(shape, run.nth), shape.config(run));
        let b = shape.b_of(&p.a);
        let started = std::time::Instant::now();
        let out = match b {
            Some(b) => try_factor_and_solve(p, &cfg, Some(b)),
            None => try_factor_only(p, &cfg),
        };
        let out = out.unwrap_or_else(|e| panic!("{}, {run:?}: {e}", shape.name));
        let wall = started.elapsed().as_secs_f64();
        if let Err(e) = catch_unwind(AssertUnwindSafe(|| own_ledgers(shape, run, &out))) {
            panic!("{}, {run:?}: {}", shape.name, panic_text(&*e));
        }
        Done {
            out,
            wall,
            sim: OnceLock::new(),
            trace: OnceLock::new(),
        }
    })
}

/// What every run must say of itself: each edge's words and messages are
/// booked alike by sender and receiver, each rank's memory peak is fully
/// attributed, traffic is sent only under `fact`, `reduce` (with more
/// than one layer) and `solve` (with a right-hand side), and the account's
/// per-phase traffic is the ledgers'.
pub fn own_ledgers(shape: &Shape, run: Run, out: &Output3d) {
    let mut sent: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
    let mut recv = sent.clone();
    let layered = shape.grid[2] > 1 && !run.flat;
    let solved = !matches!(shape.rhs, Rhs::None);
    for (me, r) in out.reports.iter().enumerate() {
        for e in &r.commvol.sent_to {
            let s = sent.entry((me, e.peer)).or_default();
            *s = (s.0 + e.msgs, s.1 + e.words);
        }
        for e in &r.commvol.recv_from {
            let s = recv.entry((e.peer, me)).or_default();
            *s = (s.0 + e.msgs, s.1 + e.words);
        }
        let m = &r.memprof;
        assert_eq!(m.peak_attr_sum(), m.peak_bytes, "rank {me}: peak");
        for p in r.commvol.entries.iter().map(|e| e.phase.as_str()) {
            let allowed = p == "fact" || (p == "reduce" && layered) || (p == "solve" && solved);
            assert!(allowed, "rank {me} sends under phase {p:?}");
        }
    }
    assert_eq!(sent, recv, "per-edge (msgs, words) sent/received disagree");
    // `sim.run.<phase>` against a fold of the raw ledger rows: per rank the
    // sum over the phase's rows, then the maximum over ranks, each field on
    // its own.
    let account = out.account();
    for phase in ["fact", "reduce", "solve"] {
        for (field, of) in [("msgs", 0), ("words", 1)] {
            let per_rank = out.reports.iter().map(|r| {
                let rows = r.commvol.entries.iter().filter(|e| e.phase == phase);
                rows.map(|e| [e.cell.msgs, e.cell.words][of]).sum::<u64>()
            });
            let want = per_rank.max().unwrap_or(0) as f64;
            let got = account.num_at(&["sim", "run", phase, field]);
            assert_eq!(got, Ok(want), "account sim.run.{phase}.{field}");
        }
    }
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    match (e.downcast_ref::<&str>(), e.downcast_ref::<String>()) {
        (Some(s), _) => s.to_string(),
        (_, Some(s)) => s.clone(),
        _ => "non-text panic".into(),
    }
}

/// How close a solution must be.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// `|b - A x|_inf / max(1, |b|_inf)`.
    Rel(f64),
    /// `|b - A x|_inf`.
    Abs(f64),
    /// `|x - x_true|_inf`, for an [`Rhs::Truth`] shape.
    Err(f64),
}

#[derive(Clone, Copy, Debug)]
pub enum Contract {
    /// Threaded and event runs agree bitwise: digest, makespan, x, the
    /// `sim` sections and per-rank ledgers, and, when traced, the traces.
    Backends,
    /// A rerun on the backend repeats the run bitwise, trace included; an
    /// event rerun repeats the scheduler counters, and no rank ever waited
    /// in a cycle.
    Rerun(Backend),
    /// x is within this distance of the sequential solve of the same
    /// factors and of the shape's `Pz = 1` run (relative to `max(1, |x|)`).
    Agrees(f64),
    /// The solution meets the bound.
    Solves(Bound),
    /// The static plan holds and is both backends' wire ledger, cell for
    /// cell and edge for edge; on a traced run each rank's messages are its
    /// planned events, in order. Factor-only shapes.
    PlanLedger,
    /// Faults with recovery were injected and recovered, yet each backend's
    /// run has the fault-free wire ledger, digest and x bits, at a later
    /// makespan.
    Recovered,
    /// Each backend's trace validates as a Chrome trace, after a round trip
    /// through its text, and rank by rank as a span store.
    TraceValid,
    /// Tracing and profiling move no simulated output.
    HostFlags,
    /// A profile attributes each rank's wall to its phases within 1%.
    Attributed,
    /// The gather-GEMM-scatter kernel ran, as often on both backends.
    Batched,
}

/// Evaluate each contract on each shape; a failure names both.
pub fn check(shapes: &[Shape], contracts: &[Contract]) {
    for shape in shapes {
        for c in contracts {
            if let Err(e) = catch_unwind(AssertUnwindSafe(|| c.eval(shape))) {
                panic!("shape `{}` breaks {c:?}: {}", shape.name, panic_text(&*e));
            }
        }
    }
}

impl Contract {
    fn eval(self, s: &Shape) {
        match self {
            Contract::Backends => {
                let (t, e) = (run(s, s.run(Threaded)), run(s, s.run(Event)));
                assert_same_run(t, e);
                assert!(t.out.sched.is_none() || s.ranks() == 1, "threaded counters");
                assert!(e.out.sched.is_some(), "event scheduler counters");
            }
            Contract::Rerun(backend) => {
                let (first, again) = (run(s, s.run(backend)), run(s, s.run(backend).nth(1)));
                assert_same_run(first, again);
                assert_eq!(first.out.sched, again.out.sched, "scheduler counters");
                if let Some(st) = first.out.sched.filter(|_| backend == Event) {
                    assert_eq!(st.quiescence_resolutions, 0, "a rank waited in a cycle");
                    // Every resume is a first slice or a matched wakeup.
                    assert_eq!(st.steps, s.ranks() as u64 + st.wakeups, "{st:?}");
                }
            }
            Contract::Agrees(tol) => agrees(s, tol),
            Contract::Solves(bound) => {
                let x = x_of(&run(s, s.run(s.backend)).out);
                let got = match bound {
                    Bound::Rel(_) => rel_residual(s),
                    Bound::Abs(_) => prep(s).a.residual_inf(x, &s.b().unwrap()),
                    Bound::Err(_) => {
                        let Rhs::Truth(truth) = s.rhs else {
                            panic!("no x_true")
                        };
                        let err = x.iter().enumerate().map(|(i, v)| (v - truth(i)).abs());
                        err.fold(0.0, f64::max)
                    }
                };
                let (Bound::Rel(tol) | Bound::Abs(tol) | Bound::Err(tol)) = bound;
                assert!(got < tol, "{bound:?}: {got}");
            }
            Contract::PlanLedger => plan_is_ledger(s),
            Contract::Recovered => recovered(s),
            Contract::TraceValid => {
                for backend in [Threaded, Event] {
                    trace_valid(run(s, s.run(backend).traced(true)), backend);
                }
            }
            Contract::HostFlags => host_flags(s),
            Contract::Attributed => {
                let profiled = &run(s, s.run(s.backend).profiled(true)).out;
                for (rank, r) in profiled.reports.iter().enumerate() {
                    let hp = r.hostprof.as_ref().expect("profiling was on");
                    assert!(hp.wall_secs > 0.0, "rank {rank} wall");
                    // The orchestration phase absorbs the wall no scope
                    // covers: only ns quantization and the skew between
                    // the wall probe and the last scope close remain.
                    let (attributed, wall) = (hp.attributed_secs(), hp.wall_secs);
                    let rel = (attributed - wall).abs() / wall;
                    assert!(rel < 0.01, "rank {rank}: {attributed} s of {wall} s");
                }
            }
            Contract::Batched => {
                let batched = |o: &Output3d| o.metrics().counter("schur.batched_supernodes");
                let (t, e) = (&run(s, s.run(Threaded)).out, &run(s, s.run(Event)).out);
                assert!(batched(t) > 0, "no supernode was batched");
                assert_eq!(batched(t), batched(e));
            }
        }
    }
}

fn agrees(s: &Shape, tol: f64) {
    let (p, b) = (prep(s), s.b().expect("a right-hand side"));
    let x = x_of(&run(s, s.run(s.backend)).out);
    let one = Grid2d::new(1, 1);
    let mut store = BlockStore::build(&p.pa, &p.sym, &one, 0, 0, &|_| true, InitValues::FromMatrix);
    seq_factor(&mut store, &p.sym, s.config(Run::default()).pivot_threshold);
    let x_seq = p.unpermute_solution(&seq_solve(&store, &p.sym, &p.permute_rhs(&b)));
    let d = distance(x, &x_seq);
    assert!(d < tol, "{d} from the sequential solve");
    let flat = &run(s, s.run(Event).flat(true)).out;
    let d = distance(x, x_of(flat));
    assert!(d < tol, "{d} from Pz = 1");
    let quiescent = flat.sched.expect("event run").quiescence_resolutions;
    assert_eq!(quiescent, 0, "a rank waited in a cycle at Pz = 1");
}

fn recovered(s: &Shape) {
    let clean = &run(s, s.run(Threaded).clean(true)).out;
    let wire = |o: &Output3d| o.account().at(&["sim", "commvol"]).expect("wire").pretty();
    for backend in [Threaded, Event] {
        let faulted = &run(s, s.run(backend)).out;
        let m = faulted.metrics();
        for counter in ["fault.injected.drop", "fault.recovered.retransmit"] {
            assert!(m.counter(counter) > 0, "{backend}: {counter} is 0");
        }
        // Retransmits are charged to the fault ledger, never to the
        // algorithmic wire volume.
        let resent = m.counter("fault.resent_words");
        assert!(resent > 0, "{backend}: no resent words");
        assert_eq!(wire(faulted), wire(clean), "{backend}: wire section");
        assert_eq!(faulted.reports.len(), clean.reports.len());
        for (rank, (f, c)) in faulted.reports.iter().zip(&clean.reports).enumerate() {
            assert_eq!(f.commvol, c.commvol, "{backend}: rank {rank} wire ledger");
        }
        let digests = (faulted.factor_digest, clean.factor_digest);
        assert_eq!(digests.0, digests.1, "{backend}: digest");
        assert_eq!(bits(faulted), bits(clean), "{backend}: x bits");
        let later = faulted.makespan() > clean.makespan();
        assert!(later, "{backend}: not later");
    }
}

fn trace_valid(done: &Done, backend: Backend) {
    let text = done.trace().expect("tracing was on");
    let parsed = Json::parse(text).expect("the trace parses back");
    let stats = validate_chrome_trace(&parsed).unwrap_or_else(|e| panic!("{backend}: {e}"));
    let ranks = done.out.reports.len();
    assert_eq!(stats.tracks, ranks, "{backend}: one track per rank");
    // level -> phase -> supernode or collective
    let nesting = stats.max_nesting;
    assert!(nesting >= 3, "{backend}: nesting {nesting}");
    assert!(stats.flow_pairs > 0, "{backend}: no send -> recv flow");
    assert!(stats.events > stats.tracks, "{backend}: no spans");
    for rep in &done.out.reports {
        validate_trace(rep).unwrap_or_else(|e| panic!("{backend}: {e}"));
        let activities = rep.trace.as_ref().unwrap().activities.len();
        assert!(activities > 1, "{backend}");
    }
}

fn host_flags(s: &Shape) {
    let plain = run(s, s.run(s.backend));
    assert!(plain.out.reports.iter().all(|r| r.hostprof.is_none()));
    let doc = plain.out.account();
    let hostprof = doc.at(&["host", "hostprof"]);
    assert_eq!(hostprof, Some(&Json::Null), "profile claimed");
    for flags in [
        s.run(s.backend).profiled(true),
        s.run(s.backend).traced(true),
    ] {
        let flagged = run(s, flags);
        assert_same_run_untraced(flagged, plain);
        let sched = (flagged.out.sched, plain.out.sched);
        assert_eq!(sched.0, sched.1, "{flags:?}: scheduler counters");
        let clocks = |d: &Done| {
            d.out
                .reports
                .iter()
                .map(|r| r.clock.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(clocks(flagged), clocks(plain), "{flags:?}: rank clocks");
    }
}

/// The static communication plan of a shape's factorization.
pub fn plan(s: &Shape) -> CommPlan {
    let [pr, pc, pz] = s.grid;
    let p = prep(s);
    let forest = EtreeForest::build(&p.tree, &p.sym, pz);
    build_plan(&p.sym, &forest, Grid3d::new(pr, pc, pz), s.lookahead)
}

/// Plan == ledger on both backends, and plan order == event order on their
/// traces.
fn plan_is_ledger(s: &Shape) {
    let plan = plan(s);
    let audit = check_plan(&plan);
    let findings = audit.findings.join("\n");
    assert!(audit.ok(), "static plan checks failed:\n{findings}");
    assert!(audit.msgs > 0, "the plan is empty");
    let mut msgs = Vec::new();
    for backend in [Threaded, Event] {
        let out = &run(s, s.run(backend)).out;
        let ledgers: Vec<_> = out.reports.iter().map(|r| r.commvol.clone()).collect();
        let stats = compare_with_measured(&plan, &ledgers)
            .unwrap_or_else(|m| panic!("plan != {backend} ledger:\n{}", m.join("\n")));
        assert_eq!(stats.ranks, s.ranks());
        assert!(stats.msgs > 0, "no planned traffic compared");
        msgs.push(stats.msgs);
        // Totals cannot see order: pin the plan's panel order, broadcast
        // edges and context ids to what each rank did, message by message.
        for (rank, ran) in out.rank_obs().iter().flatten().enumerate() {
            let ran: Vec<_> = (ran.activities.iter())
                .filter_map(|a| {
                    let dir = match a.kind {
                        ActivityKind::Send => Dir::Send,
                        ActivityKind::Recv => Dir::Recv,
                        _ => return None,
                    };
                    let msg = a.msg.expect("a fault-free message has an identity");
                    let peer = a.peer.expect("a message has a peer");
                    Some((dir, peer, msg.ctx, msg.tag, a.words))
                })
                .collect();
            let planned: Vec<_> = (plan.events[rank].iter())
                .map(|e| (e.dir, e.peer, e.ctx, e.tag, e.words))
                .collect();
            let n = ran.len().max(planned.len());
            if let Some(at) = (0..n).find(|&i| ran.get(i) != planned.get(i)) {
                panic!(
                    "{backend}: rank {rank} leaves its planned program at event {at} of {}: ran \
                     {:?}, planned {:?} (dir, peer, ctx, tag, words)",
                    planned.len(),
                    ran.get(at),
                    planned.get(at)
                );
            }
        }
    }
    assert_eq!(msgs[0], msgs[1], "plan-check compared different traffic");
}

/// Two runs agree on everything the simulation determines, and on nothing
/// the host adds: digest, makespan and x bits, their accounts' `sim`
/// sections (counters, memory and wire ledgers), and every rank's ledgers
/// and counters those are summed from.
fn assert_same_run_untraced(a: &Done, b: &Done) {
    let (p, q) = (&a.out, &b.out);
    assert_eq!(p.factor_digest, q.factor_digest, "factor digests");
    let (ma, mb) = (p.makespan(), q.makespan());
    assert_eq!(ma.to_bits(), mb.to_bits(), "makespans {ma} vs {mb}");
    assert_eq!(bits(p), bits(q), "x bits");
    assert!(a.sim() == b.sim(), "the accounts' sim sections differ");
    assert_eq!(p.reports.len(), q.reports.len(), "rank counts");
    for (rank, (p, q)) in p.reports.iter().zip(&q.reports).enumerate() {
        assert_eq!(p.commvol, q.commvol, "rank {rank} wire ledger");
        assert_eq!(p.memprof, q.memprof, "rank {rank} memory ledger");
        assert_eq!(p.metrics, q.metrics, "rank {rank} counters");
    }
}

/// [`assert_same_run_untraced`], and the traces byte for byte.
fn assert_same_run(a: &Done, b: &Done) {
    assert_same_run_untraced(a, b);
    assert!(a.trace() == b.trace(), "traces differ");
}

/// `|b - A x|_inf / max(1, |b|_inf)` of the shape's run on its backend.
pub fn rel_residual(s: &Shape) -> f64 {
    let x = x_of(&run(s, s.run(s.backend)).out);
    let b = s.b().expect("a right-hand side");
    prep(s).a.residual_inf(x, &b) / b.iter().fold(1.0f64, |m, v| m.max(v.abs()))
}

pub fn bits(o: &Output3d) -> Option<Vec<u64>> {
    let x = o.x.as_ref()?;
    Some(x.iter().map(|v| v.to_bits()).collect())
}

pub fn x_of(o: &Output3d) -> &[f64] {
    o.x.as_deref().expect("solution")
}

/// `|x - y|_inf / max(1, |y|_inf)`.
pub fn distance(x: &[f64], y: &[f64]) -> f64 {
    let scale = y.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    let diff = x.iter().zip(y).map(|(u, w)| (u - w).abs());
    diff.fold(0.0, f64::max) / scale
}
