//! Campaign execution: expand a spec into jobs, run them (optionally in
//! parallel), and collect one [`Snapshot`] point per job plus per-job
//! artifact directories.
//!
//! Each job factors its matrix once. Its simulated columns (makespan,
//! ledger bytes, wire words) are deterministic functions of the structure
//! and the configuration; its host wall clock is recorded beside them as
//! information. That a rerun, or tracing, moves no simulated bit is the
//! contract suite's to check (`tests/contracts/`), not the campaign's.
//!
//! Every job writes its run document (`Output3d::account`, schema
//! `salu-run/4`) as `run.json` into `<out>/jobs/<slug>/`, and its snapshot
//! columns are read from that document. With `trace = true` in the spec,
//! the run is traced and the compute time on its critical path becomes the
//! `crit_comp_secs` column (a per-run timeline is `salu --trace-out`).

use crate::snapshot::{BenchPoint, Snapshot};
use crate::spec::{CampaignSpec, Job, MatrixSource};
use lu3d::solver::{try_factor_only, Output3d, SolverConfig};
use simgrid::{Grid2d, Json, TimeModel};
use slu2d::driver::Prepared;
use sparsemat::testmats::{test_matrix, Geometry};
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
        // The spec parser admits only `testmats::ALL_NAMES`.
        MatrixSource::Named { name, scale } => {
            let tm = test_matrix(name, *scale);
            Ok((tm.matrix, tm.geometry))
        }
        // The CLI's `--gen` grammar, at its default value asymmetry.
        MatrixSource::Gen { spec } => matgen::from_spec(spec, 0.1),
    }
}

/// Solver config for one job: the one place a `(P, Pz)` point becomes a
/// grid. The layer is the near-square split of `P / Pz`, as in every
/// historical snapshot.
fn job_config(job: &Job) -> Result<SolverConfig, String> {
    let pxy = job.p / job.pz;
    if pxy == 0 {
        return Err(format!("p={} pz={}: empty layer", job.p, job.pz));
    }
    let layer = Grid2d::near_square(pxy);
    Ok(SolverConfig {
        pr: layer.pr,
        pc: layer.pc,
        pz: job.pz,
        model: TimeModel::edison_like(),
        lookahead: job.lookahead,
        backend: job.backend,
        ..Default::default()
    })
}

/// Result of one job's run.
struct JobRun {
    wall_secs: f64,
    out: Output3d,
    n: usize,
    supernodes: usize,
    /// Compute time on the critical path, when the run was traced.
    crit_comp_secs: Option<f64>,
}

fn run_job(job: &Job, prep: &Prepared, trace: bool) -> Result<JobRun, String> {
    let cfg = SolverConfig {
        tracing: trace,
        ..job_config(job)?
    };
    // det-lint: allow(wall-clock): campaign jobs record host wall time
    let t0 = std::time::Instant::now();
    let out = try_factor_only(prep, &cfg).map_err(|e| format!("{} failed: {e}", job.slug()))?;
    let wall_secs = t0.elapsed().as_secs_f64();
    let crit_comp_secs = trace.then(|| {
        let cp = out.critical_path().expect("tracing was enabled");
        cp.kind_attribution().get("comp").copied().unwrap_or(0.0)
    });
    Ok(JobRun {
        wall_secs,
        out,
        n: prep.a.nrows,
        supernodes: prep.sym.nsup(),
        crit_comp_secs,
    })
}

/// Write one job's run document, `<dir>/run.json`.
fn write_run_document(dir: &Path, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let path = dir.join("run.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Convert one finished job into a snapshot point: the simulated columns
/// are its account's.
fn to_point(job: &Job, run: &JobRun, account: &Json) -> Result<BenchPoint, String> {
    // No key on these paths has a dot of its own.
    let at = |path: &str| account.num_at(&path.split('.').collect::<Vec<_>>());
    let figure_columns = [
        ("flops", Some(at("sim.run.flops")?)),
        ("crit_comp_secs", run.crit_comp_secs),
        ("lookahead_hits", Some(at("sim.run.lookahead_hits")?)),
        ("store_words", Some(run.out.total_store_words as f64)),
        ("supernodes", Some(run.supernodes as f64)),
    ];
    let metrics = [
        ("wall_secs", run.wall_secs),
        ("makespan_secs", at("sim.run.makespan_secs")?),
        ("max_peak_bytes", at("sim.memprof.max_peak_bytes")?),
        ("total_peak_bytes", at("sim.memprof.sum_peak_bytes")?),
        ("w_fact_words", at("sim.run.fact.words")?),
        ("w_red_words", at("sim.run.reduce.words")?),
        ("total_sent_words", at("sim.commvol.total_sent_words")?),
    ];
    let figure_columns = figure_columns
        .into_iter()
        .filter_map(|(k, v)| Some((k, v?)));
    let metrics = metrics.into_iter().chain(figure_columns);
    Ok(BenchPoint {
        key: job.key(run.n as u64),
        scale: job.matrix.scale(),
        metrics: metrics.map(|(k, v)| (k.to_string(), v)).collect(),
    })
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
    // symbolic phase is shared work, not part of the measured wall. A
    // matrix that cannot be built, or whose preparation panics, fails the
    // jobs that use it and no other.
    type Prep = Result<Arc<Prepared>, String>;
    let mut preps: HashMap<(MatrixSource, usize, usize), Prep> = HashMap::new();
    for job in &jobs {
        let key = (job.matrix.clone(), job.leaf, job.maxsup);
        preps.entry(key).or_insert_with(|| {
            panic_firewall("matrix preparation", || {
                let (matrix, geometry) = build_matrix(&job.matrix)?;
                let prep = Prepared::new(matrix, geometry, job.leaf, job.maxsup);
                Ok(Arc::new(prep))
            })
        });
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
                let dir = jobs_dir.join(job.slug());
                let prep = &preps[&(job.matrix.clone(), job.leaf, job.maxsup)];
                let prep = prep.as_ref().map_err(|e| format!("{}: {e}", job.slug()));
                let res = prep.and_then(|prep| panic_firewall(&job.slug(), || {
                    run_job(job, prep, spec.trace).and_then(|run| {
                        let account = run.out.account();
                        write_run_document(&dir, &account)?;
                        let point = to_point(job, &run, &account)?;
                        let column = |k| point.metric(k).unwrap_or(0.0);
                        let line = format!(
                            "{:<40} wall {:>9.4}s  makespan {:>10.6}s  peak {:>8.2} MB  {:>10} words",
                            job.slug(),
                            run.wall_secs,
                            column("makespan_secs"),
                            column("max_peak_bytes") / 1e6,
                            column("total_sent_words") as u64,
                        );
                        Ok((point, line))
                    })
                }));
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
            "[campaign]\nname = \"t\"\npr = \"test\"\nworkers = 2\ntrace = true\n\
             [[point]]\nmatrix = \"k2d5pt\"\nscale = \"tiny\"\np = [4]\npz = [1, 2]\n",
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("campaign-test-{}", std::process::id()));
        let out = run_campaign(&spec, &dir).unwrap();
        assert_eq!(out.snapshot.points.len(), 2);
        assert!(out.skipped.is_empty());
        let (jobs, _) = spec.expand();
        let planar = out.snapshot.find(&jobs[0].key(256)).unwrap();
        assert!(planar.metric("wall_secs").unwrap() > 0.0);
        let makespan = planar.metric("makespan_secs").unwrap();
        assert!(makespan > 0.0);
        // the traced run splits the critical path; the figure columns are
        // filled in
        let comp = planar.metric("crit_comp_secs").unwrap();
        assert!(comp > 0.0 && comp <= makespan, "{comp} vs {makespan}");
        for col in ["flops", "lookahead_hits", "store_words", "supernodes"] {
            assert!(planar.metric(col).is_some(), "{col}");
        }
        // one run document per job, and nothing else: tracing writes no file
        for p in &out.snapshot.points {
            let slug = format!("k2d5pt-p{}-pz{}", p.key.p, p.key.pz);
            assert_eq!(job_files(&dir, &slug), ["run.json"], "{slug}");
            let doc = run_doc(&dir, &slug);
            assert_eq!(
                doc.get("schema").and_then(|s| s.as_str()),
                Some("salu-run/4")
            );
            // jobs run unprofiled, so the wall column carries no scope
            // timers
            let host = doc.get("host").expect("host section");
            assert_eq!(host.get("hostprof"), Some(&simgrid::Json::Null));
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
        // the event job carries scheduler counters and, like the threaded
        // one, no host-time profile, so their wall columns compare.
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
            "campaign jobs must not claim host-time attribution"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_jobs_are_recorded_without_sinking_the_sweep() {
        // Job 1 has no ranks, so its grid fails to form inside the worker
        // pool; job 2 is healthy and must still run, point, and snapshot.
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"f\"\npr = \"test\"\n\
             [[point]]\nmatrix = \"k2d5pt\"\nscale = \"tiny\"\np = [0, 4]\n",
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("campaign-fail-{}", std::process::id()));
        let out = run_campaign(&spec, &dir).unwrap();
        assert_eq!(out.failed.len(), 1, "{:?}", out.failed);
        assert!(out.failed[0].contains("empty layer"), "{}", out.failed[0]);
        assert_eq!(out.snapshot.points.len(), 1);
        assert_eq!(out.snapshot.points[0].key.p, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_matrix_that_cannot_be_built_fails_only_its_jobs() {
        let mut spec = CampaignSpec::parse(
            "[campaign]\nname = \"m\"\npr = \"test\"\n\
             [[point]]\ngen = \"grid2d:1\"\np = [4]\npz = [1, 2]\n\
             [[point]]\ngen = \"grid2d:8\"\np = [4]\n",
        )
        .unwrap();
        // The spec parser refuses `grid2d:0`; a source set by hand still
        // reaches the runner, which fails its jobs alone.
        spec.points[0].matrix = MatrixSource::Gen {
            spec: "grid2d:0".into(),
        };
        let dir = std::env::temp_dir().join(format!("campaign-matrix-{}", std::process::id()));
        let out = run_campaign(&spec, &dir).unwrap();
        // One line per job of the broken matrix, each naming the reason.
        assert_eq!(out.failed.len(), 2, "{:?}", out.failed);
        for (line, pz) in out.failed.iter().zip([1, 2]) {
            assert!(line.starts_with(&format!("grid2d0-p4-pz{pz}")), "{line}");
            assert!(line.contains("the matrix would be empty"), "{line}");
        }
        // The healthy point still ran, snapshotted and wrote its document.
        assert_eq!(out.snapshot.points.len(), 1);
        assert_eq!(out.snapshot.points[0].key.matrix, "grid2d8");
        assert_eq!(job_files(&dir, "grid2d8-p4-pz1"), ["run.json"]);
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
    fn gen_sources_build_or_fail_structurally() {
        assert!(build_matrix(&MatrixSource::Gen {
            spec: "grid2d:4".into()
        })
        .is_ok());
        for spec in ["nope:4", "grid2d:0", "kkt:0"] {
            assert!(build_matrix(&MatrixSource::Gen { spec: spec.into() }).is_err());
        }
    }
}
