//! Campaign execution: expand a spec into jobs, run them (optionally in
//! parallel), and collect one [`Snapshot`] point per job plus per-job
//! artifact directories.
//!
//! Each job factors its matrix `reps` times and keeps the **minimum** host
//! wall-clock — the standard estimator for run-to-run noise. Simulated
//! metrics (makespan, ledger bytes, wire words) are bitwise deterministic,
//! so they are taken from the last repetition after asserting the factor
//! digest never moved.
//!
//! Every job writes its run document (`simgrid::run_document`, schema
//! `salu-run/1`) as `run.json` into `<out>/jobs/<slug>/`; with `trace = true`
//! in the spec, one extra traced repetition also writes `trace.json` (kept
//! out of the timed repetitions so tracing overhead never pollutes the wall
//! column).

use crate::snapshot::{BenchPoint, PointKey, Snapshot, DEFAULT_LOOKAHEAD};
use crate::spec::{CampaignSpec, Job, MatrixSource};
use lu3d::solver::{try_factor_only, Output3d, SolverConfig};
use simgrid::{Backend, FaultPlan, Grid2d, RetryPolicy, TimeModel};
use slu2d::driver::Prepared;
use sparsemat::testmats::{test_matrix, Geometry, Scale};
use sparsemat::{matgen, Csr};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Everything a finished campaign run produced.
pub struct CampaignOutcome {
    pub snapshot: Snapshot,
    /// Sweep combinations that could not form a grid (reported by the
    /// CLI so the sweep never shrinks silently).
    pub skipped: Vec<String>,
    /// One human-readable line per job, in job order.
    pub lines: Vec<String>,
    /// Jobs that errored or panicked, as `slug: reason` lines. A failed
    /// job never tears down the sweep — the remaining jobs still run and
    /// snapshot; the CLI turns a non-empty list into exit 1.
    pub failed: Vec<String>,
}

/// Build the matrix for one source. Generator seeds are pinned so the
/// same spec always factors the same matrix.
fn build_matrix(source: &MatrixSource) -> Result<(Csr, Geometry), String> {
    match source {
        MatrixSource::Named { name, scale } => {
            let scale = match scale.as_str() {
                "tiny" => Scale::Tiny,
                "small" => Scale::Small,
                "bench" => Scale::Bench,
                other => return Err(format!("unknown scale '{other}'")),
            };
            let tm = test_matrix(name, scale);
            Ok((tm.matrix, tm.geometry))
        }
        // The CLI's `--gen` grammar, at its default value asymmetry.
        MatrixSource::Gen { spec } => matgen::from_spec(spec, 0.1),
    }
}

/// Solver config for one job. The layer is `bench::config`'s near-square
/// split, so campaign points are comparable with the historical snapshots.
fn job_config(job: &Job) -> Result<SolverConfig, String> {
    let pxy = job.p / job.pz;
    if pxy == 0 {
        return Err(format!("p={} pz={}: empty layer", job.p, job.pz));
    }
    let layer = Grid2d::near_square(pxy);
    let fault_plan = match &job.faults {
        Some(spec) => {
            Some(FaultPlan::parse(spec, 1).map_err(|e| format!("bad faults spec '{spec}': {e}"))?)
        }
        None => None,
    };
    Ok(SolverConfig {
        pr: layer.pr,
        pc: layer.pc,
        pz: job.pz,
        model: TimeModel::edison_like(),
        lookahead: job.lookahead,
        backend: job.backend,
        // Event-mode jobs are the scaling points, whose wall column should
        // not carry the profiler's scope timers: their `host.hostprof` is
        // `null`.
        host_profiling: job.backend == Backend::Threaded,
        retry: fault_plan.is_some().then(RetryPolicy::default),
        fault_plan,
        ..Default::default()
    })
}

/// Result of one job's timed repetitions.
struct JobRun {
    wall_secs: f64,
    out: Output3d,
    n: usize,
}

fn run_job(job: &Job, prep: &Prepared) -> Result<JobRun, String> {
    let cfg = job_config(job)?;
    let mut wall = f64::INFINITY;
    let mut last: Option<Output3d> = None;
    for _ in 0..job.reps.max(1) {
        // det-lint: allow(wall-clock): campaign jobs measure host wall time
        let t0 = std::time::Instant::now();
        let out = try_factor_only(prep, &cfg).map_err(|e| format!("{} failed: {e}", job.slug()))?;
        wall = wall.min(t0.elapsed().as_secs_f64());
        if let Some(prev) = &last {
            if prev.factor_digest != out.factor_digest {
                return Err(format!(
                    "{}: factor digest moved between repetitions ({:#018x} != {:#018x})",
                    job.slug(),
                    prev.factor_digest,
                    out.factor_digest
                ));
            }
        }
        last = Some(out);
    }
    Ok(JobRun {
        wall_secs: wall,
        out: last.expect("at least one repetition"),
        n: prep.a.nrows,
    })
}

/// Write one job's artifact files: `run.json`, and `trace.json` when asked.
fn write_artifacts(
    dir: &Path,
    job: &Job,
    prep: &Prepared,
    run: &JobRun,
    trace: bool,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let write = |name: &str, doc: &simgrid::Json| -> Result<(), String> {
        let path = dir.join(name);
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(
        "run.json",
        &simgrid::run_document(&run.out.reports, run.out.sched.as_ref()),
    )?;
    if trace {
        // One extra traced repetition, outside the timed loop: tracing
        // allocates span stores and would pollute the wall column.
        let mut cfg = job_config(job)?;
        cfg.tracing = true;
        let out = try_factor_only(prep, &cfg)
            .map_err(|e| format!("{} trace run failed: {e}", job.slug()))?;
        if out.factor_digest != run.out.factor_digest {
            return Err(format!(
                "{}: traced run changed the factor digest",
                job.slug()
            ));
        }
        write(
            "trace.json",
            &out.chrome_trace().expect("tracing was enabled"),
        )?;
    }
    Ok(())
}

/// Convert one finished job into a snapshot point.
fn to_point(job: &Job, run: &JobRun) -> BenchPoint {
    let s = run.out.summary();
    BenchPoint {
        key: PointKey {
            matrix: job.matrix.label(),
            n: run.n as u64,
            p: job.p as u64,
            pz: job.pz as u64,
            lookahead: (job.lookahead as u64 != DEFAULT_LOOKAHEAD).then_some(job.lookahead as u64),
            faults: job.faults.clone(),
            backend: (job.backend != Backend::Threaded).then(|| job.backend.to_string()),
        },
        scale: job.matrix.scale(),
        metrics: vec![
            ("wall_secs".into(), run.wall_secs),
            ("makespan_secs".into(), run.out.makespan()),
            ("max_peak_bytes".into(), run.out.max_peak_bytes() as f64),
            ("total_peak_bytes".into(), run.out.total_peak_bytes() as f64),
            ("w_fact_words".into(), run.out.w_fact() as f64),
            ("w_red_words".into(), run.out.w_red() as f64),
            ("total_sent_words".into(), s.total_sent_words as f64),
        ],
    }
}

/// Convert a panic in one job into that job's failure. A panic that
/// unwound out of a scoped worker thread would re-raise at scope exit and
/// tear down every sibling's in-flight work; caught here it is just a
/// failed job like any `Err`, and the sweep keeps going.
fn panic_firewall<T>(slug: &str, work: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(format!("{slug}: job panicked: {msg}"))
    })
}

/// Run every job of a campaign. Jobs execute on `spec.workers` threads;
/// results keep job order regardless of completion order.
pub fn run_campaign(spec: &CampaignSpec, out_dir: &Path) -> Result<CampaignOutcome, String> {
    let (jobs, skipped) = spec.expand();
    if jobs.is_empty() {
        return Err("campaign expanded to zero jobs".into());
    }
    // Preprocess each distinct (matrix, leaf, maxsup) once, serially: the
    // symbolic phase is shared work, not part of the measured wall.
    let mut preps: HashMap<(MatrixSource, usize, usize), Arc<Prepared>> = HashMap::new();
    for job in &jobs {
        if let std::collections::hash_map::Entry::Vacant(e) =
            preps.entry((job.matrix.clone(), job.leaf, job.maxsup))
        {
            let (matrix, geometry) = build_matrix(&job.matrix)?;
            e.insert(Arc::new(Prepared::new(
                matrix, geometry, job.leaf, job.maxsup,
            )));
        }
    }
    let jobs_dir = out_dir.join("jobs");
    type JobResult = Result<(BenchPoint, String), String>;
    let results: Mutex<Vec<Option<JobResult>>> = Mutex::new(vec![None; jobs.len()]);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..spec.workers.min(jobs.len()) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let job = &jobs[i];
                let prep = &preps[&(job.matrix.clone(), job.leaf, job.maxsup)];
                let dir = jobs_dir.join(job.slug());
                let res = panic_firewall(&job.slug(), || {
                    run_job(job, prep).and_then(|run| {
                        write_artifacts(&dir, job, prep, &run, spec.trace)?;
                        let point = to_point(job, &run);
                        let line = format!(
                            "{:<40} wall {:>9.4}s  makespan {:>10.6}s  peak {:>8.2} MB  {:>10} words",
                            job.slug(),
                            run.wall_secs,
                            run.out.makespan(),
                            run.out.max_peak_bytes() as f64 / 1e6,
                            point.metric("total_sent_words").unwrap_or(0.0) as u64,
                        );
                        Ok((point, line))
                    })
                });
                results.lock().expect("results lock")[i] = Some(res);
            });
        }
    });
    let mut points = Vec::new();
    let mut lines = Vec::new();
    let mut failed = Vec::new();
    for slot in results.into_inner().expect("results lock") {
        match slot.expect("every job ran") {
            Ok((point, line)) => {
                points.push(point);
                lines.push(line);
            }
            Err(e) => failed.push(e),
        }
    }
    Ok(CampaignOutcome {
        snapshot: Snapshot {
            label: spec.pr_label.clone(),
            points,
        },
        skipped,
        lines,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    /// File names in one job's artifact directory, sorted.
    fn job_files(dir: &Path, slug: &str) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir.join("jobs").join(slug))
            .expect("job directory")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    fn run_doc(dir: &Path, slug: &str) -> simgrid::Json {
        let text = std::fs::read_to_string(dir.join("jobs").join(slug).join("run.json")).unwrap();
        simgrid::Json::parse(&text).expect("run.json parses")
    }

    #[test]
    fn tiny_campaign_runs_and_snapshots() {
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"t\"\npr = \"test\"\nreps = 2\nworkers = 2\n\
             [[point]]\nmatrix = \"k2d5pt\"\nscale = \"tiny\"\np = [4]\npz = [1, 2]\n",
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("campaign-test-{}", std::process::id()));
        let out = run_campaign(&spec, &dir).unwrap();
        assert_eq!(out.snapshot.points.len(), 2);
        assert!(out.skipped.is_empty());
        let key = PointKey {
            matrix: "k2d5pt".into(),
            n: out.snapshot.points[0].key.n,
            p: 4,
            pz: 1,
            lookahead: None,
            faults: None,
            backend: None,
        };
        let planar = out.snapshot.find(&key).unwrap();
        assert!(planar.metric("wall_secs").unwrap() > 0.0);
        assert!(planar.metric("makespan_secs").unwrap() > 0.0);
        // one run document per job, and nothing else
        for p in &out.snapshot.points {
            let slug = format!("k2d5pt-p{}-pz{}", p.key.p, p.key.pz);
            assert_eq!(job_files(&dir, &slug), ["run.json"], "{slug}");
            let doc = run_doc(&dir, &slug);
            assert_eq!(
                doc.get("schema").and_then(|s| s.as_str()),
                Some("salu-run/1")
            );
            let host = doc.get("host").expect("host section");
            assert!(host.get("hostprof").and_then(|h| h.as_obj()).is_some());
            assert_eq!(host.get("sched"), Some(&simgrid::Json::Null));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_jobs_share_sim_metrics_and_skip_hostprof() {
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"e\"\npr = \"test\"\n\
             [[point]]\nmatrix = \"k2d5pt\"\nscale = \"tiny\"\np = [4]\npz = [2]\nbackend = [\"threaded\", \"event\"]\n",
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("campaign-evt-{}", std::process::id()));
        let out = run_campaign(&spec, &dir).unwrap();
        assert!(out.failed.is_empty(), "{:?}", out.failed);
        assert_eq!(out.snapshot.points.len(), 2);
        let (thr, evt) = (&out.snapshot.points[0], &out.snapshot.points[1]);
        assert_eq!(thr.key.backend, None);
        assert_eq!(evt.key.backend.as_deref(), Some("event"));
        // every simulated/ledger metric is backend-independent, bitwise
        for m in [
            "makespan_secs",
            "max_peak_bytes",
            "w_fact_words",
            "total_sent_words",
        ] {
            assert_eq!(thr.metric(m), evt.metric(m), "{m}");
        }
        // ... and so is the whole `sim` section of the two run documents;
        // the event job carries scheduler counters and no host-time profile.
        let (thr_doc, evt_doc) = (
            run_doc(&dir, "k2d5pt-p4-pz2"),
            run_doc(&dir, "k2d5pt-p4-pz2-event"),
        );
        assert_eq!(thr_doc.get("sim"), evt_doc.get("sim"));
        let host = evt_doc.get("host").expect("host section");
        assert!(host.get("sched").and_then(|s| s.as_obj()).is_some());
        assert_eq!(
            host.get("hostprof"),
            Some(&simgrid::Json::Null),
            "event jobs must not claim host-time attribution"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_jobs_are_recorded_without_sinking_the_sweep() {
        // Job 1's faults spec fails to parse inside the worker pool; job 2
        // is healthy and must still run, point, and snapshot.
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"f\"\npr = \"test\"\n\
             [[point]]\nmatrix = \"k2d5pt\"\nscale = \"tiny\"\np = [4]\nfaults = [\"not-a-fault-spec\", \"\"]\n",
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("campaign-fail-{}", std::process::id()));
        let out = run_campaign(&spec, &dir).unwrap();
        assert_eq!(out.failed.len(), 1, "{:?}", out.failed);
        assert!(
            out.failed[0].contains("not-a-fault-spec"),
            "{}",
            out.failed[0]
        );
        assert_eq!(out.snapshot.points.len(), 1);
        assert!(out.snapshot.points[0].key.faults.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panic_firewall_turns_unwinds_into_job_failures() {
        let ok = panic_firewall("s", || Ok::<_, String>(7));
        assert_eq!(ok, Ok(7));
        let err = panic_firewall("slug-a", || -> Result<(), String> { panic!("boom {}", 3) });
        assert_eq!(err, Err("slug-a: job panicked: boom 3".into()));
        let err = panic_firewall("slug-b", || -> Result<(), String> {
            panic!("static payload")
        });
        assert_eq!(err, Err("slug-b: job panicked: static payload".into()));
    }

    #[test]
    fn gen_sources_and_bad_scales() {
        assert!(build_matrix(&MatrixSource::Gen {
            spec: "grid2d:4".into()
        })
        .is_ok());
        assert!(build_matrix(&MatrixSource::Gen {
            spec: "nope:4".into()
        })
        .is_err());
        assert!(build_matrix(&MatrixSource::Named {
            name: "k2d5pt".into(),
            scale: "huge".into()
        })
        .is_err());
    }
}
