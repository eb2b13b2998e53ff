//! The two kinds of run: the untraced closed loop that yields the end-to-end
//! metrics, and the traced run that takes the same path apart layer by layer.

use crate::adapter::{self, Inputs, Scale, SimCounts, Variant, Workload};
use crate::probes::{self, Metrics};
use crate::spans::Spans;
use crate::stats::{fastest, median};
use salu::prelude::*;
use salu::simgrid::Json;
use std::time::Instant;

/// An operation whose normwise backward error exceeds this has failed.
pub const BACKWARD_ERROR_LIMIT: f64 = 1e-10;

/// A NaN is over the limit too.
fn too_large(backward_error: f64) -> bool {
    backward_error.is_nan() || backward_error > BACKWARD_ERROR_LIMIT
}

/// End-to-end metric names and units, as BENCHMARK.json lists them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("factor_solve_s", "s"),
    ("time_to_solution_s", "s"),
    ("host_peak_rss_mb", "MB"),
];

/// Per-layer metric names and units, as BENCHMARK.json lists them. The part
/// before the first dot is the crate the number belongs to (`bench` is the
/// benchmark itself). `sim_s` is a second on the simulated clock: exact, and
/// the same on every run of one input, unlike every host-clock `s`.
pub const PER_LAYER: [(&str, &str); 71] = [
    ("sparsemat.gen_s", "s"),
    ("sparsemat.mtx_read_s", "s"),
    ("sparsemat.mtx_read_mb_per_s", "MB/s"),
    ("sparsemat.permute_s", "s"),
    ("sparsemat.nnz", "count"),
    ("ordering.graph_s", "s"),
    ("ordering.nd_s", "s"),
    ("symbolic.analyze_s", "s"),
    ("symbolic.nsup", "count"),
    ("symbolic.factor_words", "words"),
    ("symbolic.flops", "flop"),
    ("symbolic.max_panel_rows", "count"),
    ("lu3d.forest_s", "s"),
    ("lu3d.forest_critical_path_share", "ratio"),
    ("lu3d.factor_only_s", "s"),
    ("lu3d.solve_refine_s", "s"),
    ("lu3d.sim_factor_makespan_s", "sim_s"),
    ("lu3d.sim_solution_makespan_s", "sim_s"),
    ("lu3d.sim_solve_refine_s", "sim_s"),
    ("lu3d.refine_steps", "count"),
    ("lu3d.w_fact_words", "words"),
    ("lu3d.w_red_words", "words"),
    ("lu3d.zred_words_share", "ratio"),
    ("lu3d.speedup_vs_2d", "ratio"),
    ("lu3d.comm_reduction_vs_2d", "ratio"),
    ("lu3d.mem_overhead_vs_2d", "ratio"),
    ("lu3d.backward_error", "ratio"),
    ("lu3d.perturbations", "count"),
    ("lu3d.total_store_words", "words"),
    ("slu2d.store_build_s", "s"),
    ("slu2d.seq_factor_s", "s"),
    ("slu2d.seq_solve_s", "s"),
    ("slu2d.factor_gflops", "Gflop/s"),
    ("slu2d.lookahead_hits", "count"),
    ("slu2d.padding_waste_ratio", "ratio"),
    ("densela.gemm_gflops", "Gflop/s"),
    ("densela.gemm_blocked_gflops", "Gflop/s"),
    ("densela.getrf_gflops", "Gflop/s"),
    ("densela.trsm_gflops", "Gflop/s"),
    ("densela.probe_peak_gflops", "Gflop/s"),
    ("densela.probe_stream_gbps", "GB/s"),
    ("densela.probe_stream_array_mb", "MB"),
    ("densela.probe_llc_mb", "MB"),
    ("densela.gemm_blocked_roofline_frac", "ratio"),
    ("densela.flops_performed", "flop"),
    ("densela.flops_skipped_share", "ratio"),
    ("simgrid.pingpong_ns_per_msg.threaded", "ns"),
    ("simgrid.pingpong_ns_per_msg.event", "ns"),
    ("simgrid.bcast_ns_per_msg_p256.threaded", "ns"),
    ("simgrid.bcast_ns_per_msg_p256.event", "ns"),
    ("simgrid.spawn_us_per_rank_p1024.threaded", "us"),
    ("simgrid.spawn_us_per_rank_p1024.event", "us"),
    ("simgrid.host_us_per_msg", "us"),
    ("simgrid.msgs_total", "count"),
    ("simgrid.words_total", "words"),
    ("simgrid.sim_words_max_rank", "words"),
    ("simgrid.sim_msgs_max_rank", "count"),
    ("simgrid.sim_peak_mem_max_rank_mb", "MB"),
    ("simgrid.single_rank_overhead_s", "s"),
    ("simgrid.sim_comm_share", "ratio"),
    ("simgrid.other_backend_wall_ratio", "ratio"),
    ("obs.tracing_wall_ratio", "ratio"),
    ("obs.trace_events", "count"),
    ("commplan.build_s", "s"),
    ("commplan.check_s", "s"),
    ("commplan.planned_msgs", "count"),
    ("commplan.plan_equals_ledger", "count"),
    ("bench.traced_time_to_solution_s", "s"),
    ("bench.tracing_overhead_s", "s"),
    ("bench.traced_reps", "count"),
    ("bench.pinned", "count"),
];

/// The factor-only simulated columns of the `kkt12`, P = 1024, Pz = 4,
/// level-schedule point in `results/BENCH_pr10.json`: (makespan, W_fact,
/// W_red). `kkt_scale` at full scale is that point, so a traced run says
/// whether this benchmark and the old trajectory still measure one machine.
const BENCH_PR10_POINT: (f64, u64, u64) = (0.004499285733333318, 44_012, 2_318);

/// What one invocation reports.
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// False when an operation failed or a cross-check did not hold.
    pub correct: bool,
    pub metrics: Metrics,
    /// Sample counts and ranges, provenance of the inputs: printed before
    /// the result line and kept in `run` documents.
    pub info: Vec<(String, Json)>,
}

/// Peak resident set of this process so far, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Check one operation's output against the limits and against the first
/// good operation of this run; say why on stderr when it fails.
fn passes(
    inputs: &Inputs,
    result: &Result<Output3d, SolverError>,
    reference: &mut Option<SimCounts>,
) -> bool {
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("operation failed: {e}");
            return false;
        }
    };
    let Some(x) = &out.x else {
        eprintln!("operation failed: no solution returned");
        return false;
    };
    let berr = inputs.backward_error(x);
    if too_large(berr) {
        eprintln!("operation failed: backward error {berr:e} > {BACKWARD_ERROR_LIMIT:e}");
        return false;
    }
    let counts = SimCounts::of(out);
    match reference {
        None => {
            *reference = Some(counts);
            true
        }
        Some(first) if first.same_as(&counts) => true,
        Some(first) => {
            eprintln!("operation failed: simulated outputs moved: {first:?} then {counts:?}");
            false
        }
    }
}

/// Samples of the untraced closed loop.
struct Loop {
    setup_s: Vec<f64>,
    factor_solve_s: Vec<f64>,
    failed: u64,
    warmup_ok: bool,
    reference: Option<SimCounts>,
}

impl Loop {
    fn time_to_solution_s(&self) -> Vec<f64> {
        self.setup_s
            .iter()
            .zip(&self.factor_solve_s)
            .map(|(s, f)| s + f)
            .collect()
    }
}

/// One client, closed loop: an untimed warm-up operation, then operations
/// back to back for `seconds` (at least `min_ops`), each one set-up plus
/// factor-and-solve, checked after its timers stop.
fn closed_loop(w: &Workload, inputs: &Inputs, seconds: f64, min_ops: usize) -> Loop {
    let mut reference = None;
    let warmup = adapter::factor_solve(w, Variant::Default, &adapter::setup(w, inputs), inputs);
    let mut l = Loop {
        setup_s: Vec::new(),
        factor_solve_s: Vec::new(),
        failed: 0,
        warmup_ok: passes(inputs, &warmup, &mut reference),
        reference,
    };
    drop(warmup);
    let started = Instant::now();
    while l.setup_s.len() < min_ops || started.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let prep = adapter::setup(w, inputs);
        let t1 = Instant::now();
        let result = adapter::factor_solve(w, Variant::Default, &prep, inputs);
        let t2 = Instant::now();
        l.setup_s.push((t1 - t0).as_secs_f64());
        l.factor_solve_s.push((t2 - t1).as_secs_f64());
        if !passes(inputs, &result, &mut l.reference) {
            l.failed += 1;
        }
    }
    l
}

fn sample_info(name: &str, values: &[f64]) -> (String, Json) {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (
        name.to_string(),
        Json::Obj(vec![
            ("median".into(), Json::num(median(values))),
            ("min".into(), Json::num(fastest(values))),
            ("max".into(), Json::num(max)),
            ("samples".into(), Json::num(values.len() as f64)),
        ]),
    )
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(w: &Workload, inputs: &Inputs, seconds: f64) -> RunReport {
    let l = closed_loop(w, inputs, seconds, 3);
    let tts = l.time_to_solution_s();
    let rss = peak_rss_mb();
    let mut metrics = Metrics::default();
    metrics.put("setup_s", fastest(&l.setup_s));
    metrics.put("factor_solve_s", fastest(&l.factor_solve_s));
    metrics.put("time_to_solution_s", fastest(&tts));
    metrics.put("host_peak_rss_mb", rss.unwrap_or(f64::NAN));
    let samples = Json::Obj(vec![
        sample_info("setup_s", &l.setup_s),
        sample_info("factor_solve_s", &l.factor_solve_s),
        sample_info("time_to_solution_s", &tts),
        sample_info("host_peak_rss_mb", &[rss.unwrap_or(f64::NAN)]),
    ]);
    RunReport {
        attempted: l.setup_s.len() as u64,
        failed: l.failed,
        correct: l.failed == 0 && l.warmup_ok && rss.is_some(),
        metrics,
        info: vec![("samples".into(), samples)],
    }
}

fn ratio_or_one(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

/// State the sections of a traced run share.
struct Traced<'a> {
    w: &'a Workload,
    inputs: &'a mut Inputs,
    scale: Scale,
    spans: Spans,
    m: Metrics,
    /// Cleared by a failed probe or cross-check (failed operations are
    /// counted apart).
    correct: bool,
    /// Simulated outputs of the first good operation.
    reference: Option<SimCounts>,
    /// Fastest operation of the untraced loop: the base of the wall ratios.
    factor_solve_s: f64,
}

impl Traced<'_> {
    /// The loop's operations again, stage by stage under spans. Returns the
    /// last set-up, the last good output, and (operations, failed).
    fn staged_loop(&mut self, seconds: f64) -> (Prepared, Option<Output3d>, u64, u64) {
        let (w, inputs) = (self.w, &*self.inputs);
        let (mut ops, mut failed) = (0, 0);
        let mut prep = None;
        let mut last = None;
        let started = Instant::now();
        while ops < 2 || started.elapsed().as_secs_f64() < seconds {
            let result = self.spans.scope("time_to_solution", |s| {
                let p = s.scope("setup", |s| adapter::staged_setup(w, inputs, s));
                let result = s.scope("lu3d.factor_solve", |_| {
                    adapter::factor_solve(w, Variant::Default, &p, inputs)
                });
                prep = Some(p);
                result
            });
            ops += 1;
            if !passes(inputs, &result, &mut self.reference) {
                failed += 1;
            }
            last = result.ok().or(last);
        }
        (
            prep.expect("at least two operations ran"),
            last,
            ops,
            failed,
        )
    }

    /// `sparsemat`, `ordering`, `symbolic`: the set-up stages and the
    /// counts everything downstream inherits from them.
    fn setup_metrics(&mut self, prep: &Prepared, tmp: &std::path::Path) {
        // The workload's own input path was timed in the loop; the other
        // one is a single side probe on the same matrix.
        let file_bytes = match self.inputs.write_mtx(self.w, tmp) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("cannot write the Matrix Market probe file: {e}");
                self.correct = false;
                0
            }
        };
        let (w, inputs) = (self.w, &*self.inputs);
        if w.reads_file() {
            self.spans
                .repeat("sparsemat.gen", |_| adapter::generate_matrix(w, inputs));
        } else if file_bytes > 0 {
            self.spans
                .repeat("sparsemat.mtx_read", |_| adapter::parse_mtx(inputs));
        }
        let mtx_read_s = self.spans.fastest("sparsemat.mtx_read");
        self.m
            .put("sparsemat.gen_s", self.spans.fastest("sparsemat.gen"));
        self.m.put("sparsemat.mtx_read_s", mtx_read_s);
        self.m.put(
            "sparsemat.mtx_read_mb_per_s",
            ratio_or_one(file_bytes as f64 / 1e6, mtx_read_s),
        );
        self.m.put(
            "sparsemat.permute_s",
            self.spans.fastest("sparsemat.permute"),
        );
        self.m.put("sparsemat.nnz", prep.a.nnz() as f64);
        self.m
            .put("ordering.graph_s", self.spans.fastest("ordering.graph"));
        self.m
            .put("ordering.nd_s", self.spans.fastest("ordering.nd"));
        self.m
            .put("symbolic.analyze_s", self.spans.fastest("symbolic.analyze"));
        let fill = prep.sym.stats();
        self.m.put("symbolic.nsup", fill.nsup as f64);
        self.m
            .put("symbolic.factor_words", fill.factor_words as f64);
        self.m.put("symbolic.flops", fill.total_flops as f64);
        self.m
            .put("symbolic.max_panel_rows", fill.max_panel_rows as f64);
    }

    /// Factor-only runs of a variant under a span; the last one's output.
    fn factor_only(
        &mut self,
        span: &'static str,
        variant: Variant,
        prep: &Prepared,
    ) -> Option<Output3d> {
        let w = self.w;
        let out = self
            .spans
            .repeat(span, |_| adapter::factor_only(w, variant, prep));
        if let Err(e) = &out {
            eprintln!("{span} failed: {e}");
            self.correct = false;
        }
        out.ok()
    }

    /// `lu3d`, `slu2d`, `simgrid`: what the factorization and the solve did
    /// on the simulated machine. `full` is a factor-and-solve output, `fo`
    /// and `flat` factor-only ones on the workload's grid and on one layer.
    fn machine_metrics(&mut self, full: &Output3d, fo: &Output3d, flat: &Output3d) {
        let m = &mut self.m;
        let factor_only_s = self.spans.fastest("lu3d.factor_only");
        let (sim_fo, sim_full) = (fo.makespan(), full.makespan());
        m.put("lu3d.factor_only_s", factor_only_s);
        m.put("lu3d.solve_refine_s", self.factor_solve_s - factor_only_s);
        m.put("lu3d.sim_factor_makespan_s", sim_fo);
        m.put("lu3d.sim_solution_makespan_s", sim_full);
        m.put("lu3d.sim_solve_refine_s", sim_full - sim_fo);
        m.put("lu3d.refine_steps", self.w.refine_steps as f64);
        let (w_fact, w_red) = (fo.w_fact(), fo.w_red());
        m.put("lu3d.w_fact_words", w_fact as f64);
        m.put("lu3d.w_red_words", w_red as f64);
        m.put(
            "lu3d.zred_words_share",
            w_red as f64 / (w_fact + w_red).max(1) as f64,
        );
        m.put("lu3d.speedup_vs_2d", flat.makespan() / sim_fo);
        m.put(
            "lu3d.comm_reduction_vs_2d",
            ratio_or_one(
                flat.max_rank_sent_words() as f64,
                fo.max_rank_sent_words() as f64,
            ),
        );
        m.put(
            "lu3d.mem_overhead_vs_2d",
            fo.total_store_words as f64 / flat.total_store_words as f64,
        );
        let x = full.x.as_ref().expect("a checked operation has a solution");
        m.put("lu3d.backward_error", self.inputs.backward_error(x));
        m.put("lu3d.perturbations", full.perturbations as f64);
        m.put("lu3d.total_store_words", full.total_store_words as f64);
        m.put(
            "slu2d.factor_gflops",
            fo.summary().total_flops as f64 / factor_only_s / 1e9,
        );
        m.put("slu2d.lookahead_hits", fo.lookahead_hits as f64);
        let (mut words, mut struct_words) = (0u64, 0u64);
        for entry in fo.reports.iter().flat_map(|r| &r.commvol.entries) {
            words += entry.cell.words;
            struct_words += entry.cell.struct_words;
        }
        m.put(
            "slu2d.padding_waste_ratio",
            1.0 - ratio_or_one(struct_words as f64, words as f64),
        );
        let msgs: u64 = full.reports.iter().map(|r| r.commvol.sent_msgs()).sum();
        let sent: u64 = full.reports.iter().map(|r| r.commvol.sent_words()).sum();
        // Host time per simulated message; 0 where nothing is sent.
        let us_per_msg = if msgs == 0 {
            0.0
        } else {
            self.factor_solve_s * 1e6 / msgs as f64
        };
        m.put("simgrid.host_us_per_msg", us_per_msg);
        m.put("simgrid.msgs_total", msgs as f64);
        m.put("simgrid.words_total", sent as f64);
        let counts = SimCounts::of(full);
        m.put("simgrid.sim_words_max_rank", counts.words_max_rank as f64);
        m.put("simgrid.sim_msgs_max_rank", counts.msgs_max_rank as f64);
        m.put(
            "simgrid.sim_peak_mem_max_rank_mb",
            counts.peak_bytes_max_rank as f64 / 1048576.0,
        );
        m.put(
            "simgrid.sim_comm_share",
            full.summary().max_t_comm / sim_full,
        );
    }

    /// The operation once more with the opt-in recorder on, and once on the
    /// other backend: both must leave every simulated output where it was.
    fn variant_metrics(&mut self, prep: &Prepared) {
        let (w, inputs) = (self.w, &*self.inputs);
        for (span, variant) in [
            ("obs.traced_factor_solve", Variant::Traced),
            ("simgrid.other_backend_factor_solve", Variant::OtherBackend),
        ] {
            let result = self
                .spans
                .repeat(span, |_| adapter::factor_solve(w, variant, prep, inputs));
            if !passes(inputs, &result, &mut self.reference) {
                self.correct = false;
            }
            if variant == Variant::Traced {
                let events = result.ok().and_then(|out| out.rank_obs()).map_or(0, |obs| {
                    obs.iter()
                        .map(|r| r.spans.len() + r.activities.len())
                        .sum::<usize>()
                });
                self.m.put("obs.trace_events", events as f64);
            }
        }
        self.m.put(
            "obs.tracing_wall_ratio",
            self.spans.fastest("obs.traced_factor_solve") / self.factor_solve_s,
        );
        self.m.put(
            "simgrid.other_backend_wall_ratio",
            self.spans.fastest("simgrid.other_backend_factor_solve") / self.factor_solve_s,
        );
    }
}

/// Whether a factor-only output of `kkt_scale` still equals the committed
/// trajectory point, bit for bit.
fn matches_bench_pr10(fo: &Output3d) -> bool {
    let found = (fo.makespan(), fo.w_fact(), fo.w_red());
    let same = found.0.to_bits() == BENCH_PR10_POINT.0.to_bits()
        && (found.1, found.2) == (BENCH_PR10_POINT.1, BENCH_PR10_POINT.2);
    if !same {
        eprintln!(
            "note: factor-only simulated columns {found:?} differ from the \
             results/BENCH_pr10.json point {BENCH_PR10_POINT:?}"
        );
    }
    same
}

/// The traced run: every per-layer metric. A quarter of `seconds` goes to
/// the untraced loop (the reference the tracing overhead is taken against),
/// a quarter to the same operations taken apart under spans, and the probes
/// take what they take (about the other half at full scale).
pub fn per_layer(
    w: &Workload,
    inputs: &mut Inputs,
    seconds: f64,
    scale: Scale,
    pinned: bool,
    tmp: &std::path::Path,
) -> (RunReport, Spans) {
    let plain = closed_loop(w, inputs, seconds / 4.0, 2);
    let plain_tts = plain.time_to_solution_s();
    let mut t = Traced {
        w,
        inputs,
        scale,
        spans: Spans::new(),
        m: Metrics::default(),
        correct: plain.warmup_ok,
        reference: plain.reference,
        factor_solve_s: fastest(&plain.factor_solve_s),
    };
    let (prep, last, traced_ops, traced_failed) = t.staged_loop(seconds / 4.0);
    let traced_tts = t.spans.fastest("time_to_solution");
    t.setup_metrics(&prep, tmp);

    let forest = t.spans.repeat("lu3d.forest", |_| {
        EtreeForest::build(&prep.tree, &prep.sym, w.grid.2)
    });
    t.m.put("lu3d.forest_s", t.spans.fastest("lu3d.forest"));
    t.m.put(
        "lu3d.forest_critical_path_share",
        forest.critical_path_cost(&prep.tree, &prep.sym) as f64
            / prep.sym.stats().total_flops.max(1) as f64,
    );

    let fo = t.factor_only("lu3d.factor_only", Variant::Default, &prep);
    let flat = t.factor_only("lu3d.factor_only_2d", Variant::Flat2d, &prep);
    drop(t.factor_only("lu3d.factor_only_p1", Variant::SingleRank, &prep));
    let mut info = Vec::new();
    match (last, &fo, &flat) {
        (Some(full), Some(fo), Some(flat)) => {
            t.machine_metrics(&full, fo, flat);
            if w.name == "kkt_scale" && t.scale == Scale::Full {
                info.push((
                    "matches_bench_pr10".to_string(),
                    Json::Bool(matches_bench_pr10(fo)),
                ));
            }
        }
        _ => t.correct = false,
    }
    drop(flat);

    let seq_error = probes::sequential_probes(w, t.inputs, &prep, &mut t.spans, &mut t.m);
    if too_large(seq_error) {
        eprintln!("sequential baseline: backward error {seq_error:e} > {BACKWARD_ERROR_LIMIT:e}");
        t.correct = false;
    }
    // One rank on the machine against no machine at all: store, forest,
    // panel packing and the always-on instruments.
    t.m.put(
        "simgrid.single_rank_overhead_s",
        t.spans.fastest("lu3d.factor_only_p1") - t.spans.fastest("slu2d.seq_factor"),
    );

    t.variant_metrics(&prep);
    if let Some(fo) = &fo {
        t.correct &= probes::commplan_probes(w, &prep, &forest, fo, &mut t.spans, &mut t.m);
    }
    probes::host_probes(t.scale, &mut t.spans, &mut t.m);

    t.m.put("bench.traced_time_to_solution_s", traced_tts);
    t.m.put("bench.tracing_overhead_s", traced_tts - fastest(&plain_tts));
    t.m.put("bench.traced_reps", traced_ops as f64);
    t.m.put("bench.pinned", f64::from(u8::from(pinned)));

    info.insert(
        0,
        (
            "samples".to_string(),
            Json::Obj(vec![
                sample_info("untraced.time_to_solution_s", &plain_tts),
                sample_info(
                    "traced.time_to_solution_s",
                    &t.spans.durations("time_to_solution"),
                ),
            ]),
        ),
    );
    let failed = plain.failed + traced_failed;
    let report = RunReport {
        attempted: plain_tts.len() as u64 + traced_ops,
        failed,
        correct: t.correct && failed == 0,
        metrics: t.m,
        info,
    };
    (report, t.spans)
}
