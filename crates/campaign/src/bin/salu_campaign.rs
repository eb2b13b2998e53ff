//! `salu-campaign` — run declarative campaigns and gate the simulated
//! columns exactly.
//!
//! ```sh
//! # run a campaign: jobs + artifacts + BENCH_<pr>.json + report.md, and
//! # the exact gate against the spec's baseline
//! salu-campaign run campaigns/smoke.toml --out-dir campaign_smoke
//!
//! # compare any two snapshots
//! salu-campaign compare campaign_scaling/BENCH_pr30.json results/BENCH_pr30.json
//!
//! # the paper's tables and figures from a run of campaigns/paper.toml
//! salu-campaign figures campaign_paper
//! ```
//!
//! `run` exits 1 when a job fails or when the spec names a `baseline` and
//! any simulated column moved; `compare` exits 1 when any simulated column
//! moved (the wall column is never compared); `figures` exits 1 when it
//! cannot render (an unreadable directory, or a point or run document a
//! figure needs is missing). Otherwise exit 2 means bad usage or
//! unreadable input.

use campaign::{compare, compare_markdown, run_campaign, run_markdown, CampaignSpec, Snapshot};
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n\
         \x20 salu-campaign run SPEC.toml [--out-dir DIR]\n\
         \x20 salu-campaign compare NEW.json BASELINE.json\n\
         \x20 salu-campaign figures OUT_DIR\n\
         \n\
         run      expand the sweep spec, run every job once (per-job artifact\n\
         \x20        dirs), write BENCH_<pr>.json and report.md into --out-dir\n\
         \x20        (default results/campaign/<name>), and, when the spec names\n\
         \x20        a baseline, regression.md/.json, failing if any simulated\n\
         \x20        column moved.\n\
         compare  diff two BENCH_*.json snapshots (salu-bench-snapshot/3):\n\
         \x20        every simulated column equal or moved, any move fails;\n\
         \x20        wall_secs is not compared.\n\
         figures  render the paper's tables and figures from a `run` of\n\
         \x20        campaigns/paper.toml into OUT_DIR/figures.txt and stdout.\n\
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
        Some("figures") => cmd_figures(&args[1..]),
        _ => usage(),
    }
}

fn cmd_figures(args: &[String]) -> ! {
    let [dir] = args else { usage() };
    let dir = PathBuf::from(dir);
    let text = campaign::figures::render(&dir).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    print!("{text}");
    write_file(&dir.join("figures.txt"), &text);
    exit(0)
}

fn cmd_run(args: &[String]) -> ! {
    let mut spec_path = None;
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out-dir" => out_dir = Some(PathBuf::from(value(&mut it, "--out-dir"))),
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
    let spec = CampaignSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("{spec_path}: {e}");
        exit(2)
    });
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("results/campaign").join(&spec.name));
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| {
        eprintln!("failed to create {}: {e}", out_dir.display());
        exit(2)
    });

    let (jobs, _) = spec.expand();
    println!(
        "campaign '{}': {} jobs, {} worker(s) -> {}",
        spec.name,
        jobs.len(),
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
    let cmp = compare(&outcome.snapshot, &baseline);
    write_file(&out_dir.join("regression.md"), &compare_markdown(&cmp));
    write_file(&out_dir.join("regression.json"), &cmp.to_json().pretty());
    let (equal, moved) = cmp.tallies();
    println!(
        "vs {baseline_path}: {} matched points ({equal} equal, {moved} moved); \
         {} missing, {} new",
        cmp.matched.len(),
        cmp.missing.len(),
        cmp.extra.len()
    );
    if cmp.moved() {
        eprintln!(
            "regression gate FAILED: a simulated column moved — see {}",
            out_dir.join("regression.md").display()
        );
        exit(1);
    }
    println!("regression gate clean");
    exit(if failed_jobs { 1 } else { 0 })
}

fn cmd_compare(args: &[String]) -> ! {
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("unknown argument {flag}");
        usage()
    }
    let [new_path, base_path] = args else { usage() };
    let load = |p: &str| {
        Snapshot::load(p).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2)
        })
    };
    let cmp = compare(&load(new_path), &load(base_path));
    print!("{}", compare_markdown(&cmp));
    exit(if cmp.moved() { 1 } else { 0 })
}

fn value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next().cloned().unwrap_or_else(|| {
        eprintln!("missing value for {flag}");
        usage()
    })
}

fn write_file(path: &std::path::Path, content: &str) {
    std::fs::write(path, content).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", path.display());
        exit(1)
    });
}
