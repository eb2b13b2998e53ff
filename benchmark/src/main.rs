//! The repository benchmark: matrix in -> solution out, on the host clock
//! and the simulated one, four workloads, a probe per layer.
//!
//! Without a subcommand this is the driver's entry point: one workload, one
//! JSON result on the last line of standard output. `run`, `compare` and
//! `selfcheck` wrap that entry point for people. See `benchmark/README.md`.

mod adapter;
mod measure;
mod probes;
mod report;
mod spans;
mod stats;

use adapter::{Inputs, Scale, WORKLOADS};
use report::{Document, Run, Table};
use salu::simgrid::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: salu-benchmark --workload NAME --seed N --seconds S --trace 0|1
                      [--scale full|smoke]
       salu-benchmark run [--seed N] [--runs K] [--seconds S] [--trace 0|1]
                      [--scale full|smoke] [--out FILE]
       salu-benchmark compare BASE.json CHANGE.json
       salu-benchmark selfcheck [--seed N] [--runs K] [--seconds S]
                      [--scale full|smoke]

workloads: planar_refine nonplanar_schur kkt_scale mtx_general
run, compare and selfcheck read BENCHMARK.json from the current directory
(the repository root).";

/// Set in a process that was re-executed under `taskset`, so it does not
/// try again.
const CHILD_ENV: &str = "SALU_BENCHMARK_PINNED_CHILD";

/// Options shared by the entry points; each reads the ones it needs.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    runs: u64,
    out: Option<PathBuf>,
    /// Arguments that are not options: the two files of `compare`.
    files: Vec<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        scale: Scale::Full,
        runs: 1,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            o.files.push(PathBuf::from(arg));
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let bad = || format!("bad value `{value}` for {arg}");
        match arg.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds >= 0.0 && o.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => o.scale = Scale::parse(value).ok_or_else(bad)?,
            "--runs" => {
                o.runs = value.parse().map_err(|_| bad())?;
                if o.runs == 0 || o.runs > 1000 {
                    return Err(bad());
                }
            }
            "--out" => o.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {arg}")),
        }
    }
    Ok(o)
}

/// CPUs this process may run on, from `Cpus_allowed_list` (e.g. `0-1,4`).
fn allowed_cpus() -> Vec<usize> {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi.min(lo + 4096));
        }
    }
    cpus
}

/// Re-execute this invocation pinned to the last allowed CPU. Cross-core
/// hand-off between rank threads is most of the run-to-run noise (and much
/// of the cost) of an unpinned run. `None` means pinning is not available
/// and the caller carries on unpinned, which the run records.
fn reexec_pinned(args: &[String]) -> Option<ExitCode> {
    if std::env::var_os(CHILD_ENV).is_some() {
        return None;
    }
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return None;
    }
    let cpu = cpus.last()?.to_string();
    let probe = Command::new("taskset")
        .args(["-c", &cpu, "true"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    if !probe.is_ok_and(|s| s.success()) {
        return None;
    }
    let status = Command::new("taskset")
        .args(["-c", &cpu])
        .arg(std::env::current_exe().ok()?)
        .args(args)
        .env(CHILD_ENV, "1")
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().unwrap_or(1) as u8))
}

/// Scratch directory next to the executable: inside the build directory,
/// so inside the checkout and ignored by git.
fn scratch_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("salu-benchmark-tmp")
}

/// The driver's entry point: one workload, one result line.
fn drive(o: &Options, args: &[String]) -> ExitCode {
    let Some(name) = &o.workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(w) = adapter::workload(name, o.scale) else {
        eprintln!("unknown workload `{name}`\n{USAGE}");
        return ExitCode::from(2);
    };
    if let Some(code) = reexec_pinned(args) {
        return code;
    }
    let cpus = allowed_cpus();
    let pinned = cpus.len() == 1;
    let tmp = scratch_dir();
    let mut inputs = match Inputs::generate(&w, o.seed, &tmp) {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("cannot make the inputs under {}: {e}", tmp.display());
            return ExitCode::from(1);
        }
    };

    let (mut report, names) = if o.trace {
        let (report, spans) = measure::per_layer(&w, &mut inputs, o.seconds, o.scale, pinned, &tmp);
        let path = tmp.join(format!("trace-{}.json", w.name));
        let doc = Json::Obj(vec![
            ("header".into(), report::provenance()),
            ("workload".into(), Json::str(w.name)),
            ("seed".into(), Json::num(o.seed as f64)),
            ("pinned".into(), Json::Bool(pinned)),
            ("spans".into(), spans.to_json(w.name)),
        ]);
        match std::fs::write(&path, doc.pretty()) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
        (report, &measure::PER_LAYER[..])
    } else {
        (
            measure::end_to_end(&w, &inputs, o.seconds),
            &measure::END_TO_END[..],
        )
    };

    // Exactly the metrics of the table, each a finite number.
    let mut metrics = Vec::with_capacity(names.len());
    for &(metric, unit) in names {
        let found = report.metrics.0.iter().find(|(n, _)| n == metric);
        let value = match found {
            Some(&(_, v)) if v.is_finite() => v,
            other => {
                eprintln!("metric {metric} is missing or not finite: {other:?}");
                report.correct = false;
                0.0
            }
        };
        metrics.push((
            metric.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::num(value)),
                ("unit".into(), Json::str(unit)),
            ]),
        ));
    }

    let mut info = vec![
        ("workload".to_string(), Json::str(w.name)),
        ("seed".to_string(), Json::num(o.seed as f64)),
        ("pinned".to_string(), Json::Bool(pinned)),
        (
            "cpu".to_string(),
            cpus.first()
                .filter(|_| pinned)
                .map_or(Json::Null, |&c| Json::num(c as f64)),
        ),
        (
            "rhs_digest".to_string(),
            Json::str(format!("{:016x}", inputs.rhs_digest())),
        ),
    ];
    info.append(&mut report.info);
    println!(
        "{}",
        Json::Obj(vec![("info".into(), Json::Obj(info))]).dump()
    );
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(report.correct)),
            ("attempted".into(), Json::num(report.attempted as f64)),
            ("failed".into(), Json::num(report.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .dump()
    );
    ExitCode::SUCCESS
}

/// Run every workload `o.runs` times, seeds `o.seed`, `o.seed + 1`, ..., each
/// run in its own child process through the driver's entry point.
fn collect(o: &Options) -> Result<Document, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut header = match report::provenance() {
        Json::Obj(members) => members,
        _ => Vec::new(),
    };
    header.push(("seed".into(), Json::num(o.seed as f64)));
    header.push(("runs_per_workload".into(), Json::num(o.runs as f64)));
    header.push(("seconds".into(), Json::num(o.seconds)));
    header.push(("scale".into(), Json::str(o.scale.as_str())));
    let mut runs = Vec::new();
    for workload in WORKLOADS {
        for seed in o.seed..o.seed + o.runs {
            // With `--trace 1` every untraced run is followed by a traced one.
            for trace in [false, true].into_iter().take(1 + usize::from(o.trace)) {
                eprintln!("{workload}: seed {seed}, trace {}", u8::from(trace));
                let out = Command::new(&exe)
                    .args(["--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &o.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .args(["--scale", o.scale.as_str()])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
                if !out.status.success() {
                    return Err(format!("the {workload} run exited with {}", out.status));
                }
                let stdout = String::from_utf8_lossy(&out.stdout);
                let mut lines = stdout.lines().rev();
                let result = lines
                    .next()
                    .ok_or_else(|| format!("the {workload} run printed nothing"))?;
                let result =
                    Json::parse(result).map_err(|e| format!("{workload} result line: {e}"))?;
                let info = lines
                    .next()
                    .and_then(|line| Json::parse(line).ok())
                    .and_then(|doc| doc.get("info").cloned())
                    .unwrap_or(Json::Null);
                runs.push(Run {
                    workload: workload.to_string(),
                    seed,
                    trace,
                    info,
                    result,
                });
            }
        }
    }
    Ok(Document {
        header: Json::Obj(header),
        runs,
    })
}

fn subcommand(name: &str, o: &Options) -> Result<bool, String> {
    let table = Table::load(Path::new("BENCHMARK.json"))?;
    match name {
        "run" => {
            let doc = collect(o)?;
            if let Some(path) = &o.out {
                std::fs::write(path, doc.render())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            println!("{}", doc.header.pretty());
            doc.print(&table);
            Ok(doc.failures().0 == 0)
        }
        "compare" => {
            let [base, change] = &o.files[..] else {
                return Err("compare takes two files".to_string());
            };
            let (base, change) = (Document::load(base)?, Document::load(change)?);
            Ok(report::compare(&base, &change, &table, false))
        }
        "selfcheck" => {
            let first = collect(o)?;
            let second = collect(o)?;
            let steady = report::compare(&first, &second, &table, true);
            let clean = first.failures().0 + second.failures().0 == 0;
            println!(
                "selfcheck: {}",
                if steady && clean { "passed" } else { "FAILED" }
            );
            Ok(steady && clean)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = match args.first() {
        Some(first) if !first.starts_with("--") => (Some(first.as_str()), &args[1..]),
        _ => (None, &args[..]),
    };
    let options = match parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match name {
        None => drive(&options, &args),
        Some(name) => match subcommand(name, &options) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}
