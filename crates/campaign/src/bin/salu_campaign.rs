//! `salu-campaign` — run declarative perf campaigns and gate regressions.
//!
//! ```sh
//! # run a campaign: jobs + artifacts + BENCH_<pr>.json + report.md
//! salu-campaign run campaigns/smoke.toml --out-dir results/campaign/smoke
//!
//! # compare any two snapshots
//! salu-campaign compare results/campaign/smoke/BENCH_pr8.json results/BENCH_pr4.json
//! ```
//!
//! `run` exits 1 when a job fails or when the spec names a `baseline`
//! and any gated metric regressed; `compare` exits 1 on a gated
//! regression. Exit 2 means bad usage or unreadable input.

use campaign::{
    compare, compare_markdown, run_campaign, run_markdown, CampaignSpec, Snapshot, Tolerance,
};
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n\
         \x20 salu-campaign run SPEC.toml [--out-dir DIR] [--baseline FILE] [--jobs N]\n\
         \x20 salu-campaign compare NEW.json BASELINE.json [--tol-wall X] [--tol-sim X] [--gate-wall]\n\
         \n\
         run      expand the sweep spec, execute every job (best-of-N wall,\n\
         \x20        per-job artifact dirs), write BENCH_<pr>.json and report.md\n\
         \x20        into --out-dir (default results/campaign/<name>), and — when\n\
         \x20        a baseline is configured — also regression.md/.json, failing\n\
         \x20        on gated regressions.\n\
         compare  diff two BENCH_*.json snapshots (salu-bench-snapshot/3) and\n\
         \x20        print the regression report. --tol-* override the default\n\
         \x20        bands (wall 0.5, sim 0.02); --gate-wall makes wall\n\
         \x20        regressions fail the gate too.\n\
         \n\
         See docs/campaign.md."
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => usage(),
    }
}

fn cmd_run(args: &[String]) -> ! {
    let mut spec_path = None;
    let mut out_dir = None;
    let mut baseline_flag = None;
    let mut jobs_flag = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out-dir" => out_dir = Some(PathBuf::from(value(&mut it, "--out-dir"))),
            "--baseline" => baseline_flag = Some(value(&mut it, "--baseline")),
            "--jobs" => {
                jobs_flag = Some(
                    value(&mut it, "--jobs")
                        .parse::<usize>()
                        .unwrap_or_else(|_| {
                            eprintln!("--jobs needs a positive integer");
                            usage()
                        }),
                )
            }
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(other.to_string())
            }
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
    }
    let Some(spec_path) = spec_path else { usage() };
    let text = std::fs::read_to_string(&spec_path).unwrap_or_else(|e| {
        eprintln!("failed to read {spec_path}: {e}");
        exit(2)
    });
    let mut spec = CampaignSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("{spec_path}: {e}");
        exit(2)
    });
    if let Some(j) = jobs_flag {
        spec.workers = j.max(1);
    }
    if baseline_flag.is_some() {
        spec.baseline = baseline_flag;
    }
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("results/campaign").join(&spec.name));
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| {
        eprintln!("failed to create {}: {e}", out_dir.display());
        exit(2)
    });

    let (jobs, _) = spec.expand();
    println!(
        "campaign '{}': {} jobs, best-of-{}, {} worker(s) -> {}",
        spec.name,
        jobs.len(),
        spec.reps,
        spec.workers,
        out_dir.display()
    );
    let outcome = run_campaign(&spec, &out_dir).unwrap_or_else(|e| {
        eprintln!("campaign failed:\n{e}");
        exit(1)
    });
    for line in &outcome.lines {
        println!("  {line}");
    }
    for f in &outcome.failed {
        eprintln!("  FAILED: {f}");
    }
    for s in &outcome.skipped {
        println!("  skipped: {s}");
    }

    let bench_path = out_dir.join(format!("BENCH_{}.json", spec.pr_label));
    write_file(&bench_path, &outcome.snapshot.to_json().pretty());
    write_file(
        &out_dir.join("report.md"),
        &run_markdown(&outcome.snapshot, &outcome.skipped, &outcome.failed),
    );
    println!(
        "snapshot written to {} ({} points)",
        bench_path.display(),
        outcome.snapshot.points.len()
    );
    // Failed jobs fail the run, but only after the surviving points have
    // been snapshotted, reported, and (below) compared.
    let failed_jobs = !outcome.failed.is_empty();
    if failed_jobs {
        eprintln!("{} job(s) failed — see report.md", outcome.failed.len());
    }

    let Some(baseline_path) = &spec.baseline else {
        exit(if failed_jobs { 1 } else { 0 })
    };
    let baseline = Snapshot::load(baseline_path).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    });
    let cmp = compare(&outcome.snapshot, &baseline, spec.tolerance);
    write_file(&out_dir.join("regression.md"), &compare_markdown(&cmp));
    write_file(&out_dir.join("regression.json"), &cmp.to_json().pretty());
    let (imp, unch, reg, inc) = cmp.tallies();
    println!(
        "vs {baseline_path}: {} matched points ({imp} improved, {unch} unchanged, \
         {reg} regressed, {inc} incomparable); {} missing, {} new",
        cmp.matched.len(),
        cmp.missing.len(),
        cmp.extra.len()
    );
    if cmp.regressed() {
        eprintln!(
            "regression gate FAILED — see {}",
            out_dir.join("regression.md").display()
        );
        exit(1);
    }
    println!("regression gate clean");
    exit(if failed_jobs { 1 } else { 0 })
}

fn cmd_compare(args: &[String]) -> ! {
    let mut paths = Vec::new();
    let mut tol = Tolerance::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tol-wall" => tol.wall = parse_f64(&value(&mut it, "--tol-wall")),
            "--tol-sim" => tol.sim = parse_f64(&value(&mut it, "--tol-sim")),
            "--gate-wall" => tol.gate_wall = true,
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
    }
    let [new_path, base_path] = paths.as_slice() else {
        usage()
    };
    let load = |p: &str| {
        Snapshot::load(p).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        })
    };
    let cmp = compare(&load(new_path), &load(base_path), tol);
    print!("{}", compare_markdown(&cmp));
    exit(if cmp.regressed() { 1 } else { 0 })
}

fn value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next().cloned().unwrap_or_else(|| {
        eprintln!("missing value for {flag}");
        usage()
    })
}

fn parse_f64(s: &str) -> f64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad number '{s}'");
        usage()
    })
}

fn write_file(path: &std::path::Path, content: &str) {
    std::fs::write(path, content).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", path.display());
        exit(1)
    });
}
