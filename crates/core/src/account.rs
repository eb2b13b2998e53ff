//! The one account of a run, and the text rendered from it.
//!
//! [`Output3d::account`] is the only place a run's aggregates are derived,
//! and the run document `salu --run-out` and every campaign job write: the
//! `salu-run/4` schema, whose size does not grow with the number of ranks.
//! [`RunText`] and [`baseline_text`] render accounts as the text `salu`
//! prints, reading nothing but the document. The schema and what each
//! section holds: docs/observability.md, "The run document".

use crate::solver::Output3d;
use simgrid::{obs, Json, TrafficSummary};

/// The run document's schema tag.
const SCHEMA: &str = "salu-run/4";

impl Output3d {
    /// The run's account: machine-wide aggregates, each per-rank maximum
    /// with the rank that holds it (see the module docs).
    pub fn account(&self) -> Json {
        let memprof: Vec<_> = self.reports.iter().map(|r| &r.memprof).collect();
        let commvol: Vec<_> = self.reports.iter().map(|r| &r.commvol).collect();
        let sched = self.sched.as_ref().map_or(Json::Null, |s| s.to_json());
        let hostprof = self.host_reports();
        let hostprof = hostprof.map_or(Json::Null, |h| obs::hostprof_json(&h));
        Json::obj([
            ("schema", Json::str(SCHEMA)),
            (
                "sim",
                Json::obj([
                    ("run", self.run_json()),
                    ("metrics", self.metrics().to_json()),
                    ("memprof", obs::memprof_json(&memprof)),
                    ("commvol", obs::commvol_json(&commvol)),
                ]),
            ),
            (
                "host",
                Json::obj([("sched", sched), ("hostprof", hostprof)]),
            ),
        ])
    }

    /// Every rank's host profile, when the run was profiled.
    fn host_reports(&self) -> Option<Vec<&simgrid::HostReport>> {
        self.reports.iter().map(|r| r.hostprof.as_ref()).collect()
    }

    /// `sim.run`: the run's own clocks and counts.
    fn run_json(&self) -> Json {
        let s = self.summary();
        let phase = |label| {
            let (msgs, words) = TrafficSummary::max_sent_in(&self.reports, label);
            let num = |n: u64| Json::num(n as f64);
            Json::obj([("msgs", num(msgs)), ("words", num(words))])
        };
        let waves = self.solve_waves.iter().map(|&w| Json::num(w as f64));
        let waves = self
            .x
            .as_ref()
            .map_or(Json::Null, |_| Json::Arr(waves.collect()));
        Json::obj([
            ("makespan_secs", Json::num(s.makespan)),
            ("factor_makespan_secs", Json::num(self.factor_makespan)),
            ("flops", Json::num(s.total_flops as f64)),
            ("perturbations", Json::num(self.perturbations as f64)),
            ("lookahead_hits", Json::num(self.lookahead_hits as f64)),
            ("solve_waves", waves),
            ("fact", phase("fact")),
            ("reduce", phase("reduce")),
            ("solve", phase("solve")),
        ])
    }
}

/// The text `salu` prints of a run, rendered from its account alone.
#[derive(Debug)]
pub struct RunText {
    /// The `factor+solve` block below its wall-clock header and residual
    /// line: pivot perturbations, simulated time, `W_fact` / `W_red`, peak
    /// memory and wire volume.
    pub summary: String,
    /// The `--report` digest up to the critical path, which a traced run
    /// prints from its trace between the two halves: the factorization's
    /// and the solve's share of the clock and the wire.
    pub digest_clock: String,
    /// The rest of the digest: memory and wire by class and axis, the Schur
    /// dispatch split, the event scheduler and host time.
    pub digest_ledgers: String,
}

/// The whole number at `path`.
fn count(doc: &Json, path: &[&str]) -> Result<u64, String> {
    doc.num_at(path).map(|v| v as u64)
}

impl RunText {
    /// Render an account; an error names the first field it lacks.
    pub fn of(doc: &Json) -> Result<RunText, String> {
        let run = |key: &str| doc.num_at(&["sim", "run", key]);
        let phase = |p: &str, field: &str| count(doc, &["sim", "run", p, field]);
        let (w_fact, w_red) = (phase("fact", "words")?, phase("reduce", "words")?);
        let mem = |key: &str| doc.num_at(&["sim", "memprof", key]);
        let wire = |key: &str| doc.num_at(&["sim", "commvol", key]);

        let summary = format!(
            "  pivot perturbations   = {}\n\
             \x20 simulated time        = {:.4} s\n\
             \x20 W_fact / W_red        = {w_fact} / {w_red} words per rank (max)\n\
             \x20 peak memory per rank  = {:.2} MB (ledger high-water, max over ranks)\n\
             \x20 wire volume           = {} words total, {} max per rank; \
             {} edges (max {} / mean {:.0} words)\n",
            run("perturbations")? as u64,
            run("makespan_secs")?,
            mem("max_peak_bytes")? / 1e6,
            wire("total_sent_words")? as u64,
            wire("max_rank_sent_words")? as u64,
            wire("edges")? as u64,
            wire("max_edge_words")? as u64,
            wire("mean_edge_words")?,
        );

        let (makespan, factor) = (run("makespan_secs")?, run("factor_makespan_secs")?);
        let mut digest_clock = format!(
            "\n== run digest ==\n\
             simulated makespan      = {makespan:.6} s\n\
             factor                  = {factor:.6} s simulated; \
             W_fact / W_red = {w_fact} / {w_red} words (max rank)\n"
        );
        let waves = doc
            .at(&["sim", "run", "solve_waves"])
            .and_then(Json::as_arr);
        if let Some(waves) = waves {
            let waves = waves
                .iter()
                .map(|w| count(w, &[]))
                .collect::<Result<Vec<_>, _>>()?;
            digest_clock += &format!(
                "solve + refinement      = {:.6} s simulated; {} msgs / {} words (max rank); \
                 waves per forest level, root first: {waves:?}\n",
                makespan - factor,
                phase("solve", "msgs")?,
                phase("solve", "words")?,
            );
        }

        let mut ledgers = format!(
            "peak memory             = {:.2} MB max rank / {:.2} MB all ranks; \
             at the peak instant, by class:\n",
            mem("max_peak_bytes")? / 1e6,
            mem("sum_peak_bytes")? / 1e6,
        );
        for (class, bytes) in members(doc, &["sim", "memprof", "peak_by_class"])? {
            let bytes = bytes.num_at(&[])?;
            if bytes > 0.0 {
                ledgers += &format!("  {class:<22}= {:.2} MB\n", bytes / 1e6);
            }
        }
        ledgers += &format!(
            "wire volume             = {} words, by class:\n",
            wire("total_sent_words")? as u64
        );
        for (class, cell) in members(doc, &["sim", "commvol", "by_class"])? {
            let words = count(cell, &["words"])?;
            if words > 0 {
                ledgers += &format!("  {class:<22}= {words} words\n");
            }
        }
        let axes = members(doc, &["sim", "commvol", "by_axis"])?
            .iter()
            .map(|(axis, words)| Ok(format!("{axis} {}", count(words, &[])?)))
            .collect::<Result<Vec<_>, String>>()?;
        ledgers += &format!("  by axis: {}\n", axes.join(", "));

        // One count per (rank, supernode) of a level the rank factors. The
        // zero-flop count holds the updates that applied nothing: those the
        // rank has no share of, and those whose U piece is all zeros (zero
        // scales are skipped and charge no flop).
        let counter = |name: &str| count(doc, &["sim", "metrics", name]).unwrap_or(0);
        let (updates, zero_flop) = (counter("schur.updates"), counter("schur.zero_flop_updates"));
        let batched = counter("schur.batched_supernodes");
        ledgers += &format!(
            "schur updates           = {updates} (rank, supernode) updates: {batched} batched \
             gather-GEMM-scatter, {} per-block; {zero_flop} zero-flop (no local share, or an \
             all-zero U piece)\n",
            updates.saturating_sub(batched)
        );

        if let Some(s) = doc.at(&["host", "sched"]).filter(|s| **s != Json::Null) {
            ledgers += &format!(
                "event scheduler         = {} steps, {} matched wakeups, {} unmatched sends \
                 (no step each), {} quiescence resolution(s)\n",
                count(s, &["steps"])?,
                count(s, &["wakeups"])?,
                count(s, &["unmatched_sends"])?,
                count(s, &["quiescence_resolutions"])?,
            );
        }
        if let Some(h) = doc.at(&["host", "hostprof"]).filter(|h| **h != Json::Null) {
            let wall_sum = h.num_at(&["sum_wall_secs"])?;
            ledgers += &format!(
                "host time               = {:.4} s max rank / {wall_sum:.4} s all ranks \
                 ({:.2} Mflop/s over compute-phase seconds), by phase:\n",
                h.num_at(&["max_wall_secs"])?,
                h.num_at(&["flop_rate"])? / 1e6,
            );
            for (phase, secs) in members(h, &["phase_secs"])? {
                let secs = secs.num_at(&[])?;
                if secs > 0.0 {
                    let share = if wall_sum > 0.0 {
                        100.0 * secs / wall_sum
                    } else {
                        0.0
                    };
                    ledgers += &format!("  {phase:<22}= {secs:>9.4} s  ({share:4.1}%)\n");
                }
            }
        }
        Ok(RunText {
            summary,
            digest_clock,
            digest_ledgers: ledgers,
        })
    }
}

/// The members of the object at `path`.
fn members<'a>(doc: &'a Json, path: &[&str]) -> Result<&'a [(String, Json)], String> {
    doc.at(path)
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("no object at {}", path.join(".")))
}

/// The 2D-baseline comparison below its header, from the 3D run's account
/// and the baseline's (a factor-only run on the same number of ranks).
pub fn baseline_text(run: &Json, base: &Json) -> Result<String, String> {
    let base_makespan = base.num_at(&["sim", "run", "makespan_secs"])?;
    let w_fact = |doc: &Json| count(doc, &["sim", "run", "fact", "words"]);
    let words_3d = w_fact(run)? + count(run, &["sim", "run", "reduce", "words"])?;
    let base_fact = w_fact(base)?;
    let peaks = |doc: &Json| doc.num_at(&["sim", "memprof", "sum_peak_bytes"]);
    Ok(format!(
        "  simulated time        = {base_makespan:.4} s\n\
         \x20 W_fact                = {base_fact} words per rank (max)\n\
         \x20 3D speedup            = {:.2}x   comm reduction = {:.2}x   \
         memory overhead = {:+.0}%\n",
        base_makespan / run.num_at(&["sim", "run", "factor_makespan_secs"])?,
        base_fact as f64 / words_3d.max(1) as f64,
        100.0 * (peaks(run)? / peaks(base)? - 1.0),
    ))
}
