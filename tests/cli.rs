//! The `salu` binary on inputs that used to panic between the reader and
//! the ordering: every one ends in a one-line message and exit 1, or runs.

use salu::simgrid::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

fn salu(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_salu"))
        .args(args)
        .output()
        .expect("salu runs")
}

fn mtx_file(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("scratch file written");
    path
}

/// Exit 1 with exactly one line on stderr (so: no panic message, no
/// backtrace), which names what is wrong.
fn assert_rejected(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
}

#[test]
fn empty_matrix_file_is_rejected() {
    let path = mtx_file(
        "cli_empty.mtx",
        "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
    );
    let out = salu(&["--mtx", path.to_str().unwrap(), "--grid", "1x1x1"]);
    assert_rejected(&out, "0 x 0");
}

#[test]
fn rectangular_matrix_file_is_rejected() {
    let path = mtx_file(
        "cli_rect.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 1.0\n2 3 1.0\n",
    );
    let out = salu(&["--mtx", path.to_str().unwrap(), "--grid", "1x1x1"]);
    assert_rejected(&out, "2 x 3");
}

#[test]
fn hostile_size_line_is_rejected() {
    let path = mtx_file(
        "cli_hostile.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 1000000000000000000\n1 1 1.0\n",
    );
    let out = salu(&["--mtx", path.to_str().unwrap(), "--grid", "1x1x1"]);
    assert_rejected(&out, "failed to read");
}

#[test]
fn leaf_size_zero_runs_on_the_multilevel_engine() {
    let out = salu(&[
        "--gen",
        "kkt:3",
        "--leaf",
        "0",
        "--grid",
        "1x1x1",
        "--no-compare",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("residual"), "stdout: {stdout}");
}

/// A flag the CLI no longer has is bad usage (exit 2, the argument named
/// ahead of the usage text), not an option that is read and dropped:
/// `--schedule`, the five output flags `--run-out` took the place of, the
/// communication-check switch (every run checks now) and the Cholesky pair.
#[test]
fn removed_flags_are_rejected() {
    for flag in [
        "--schedule",
        "--metrics-out",
        "--mem-out",
        "--commvol-out",
        "--hostprof-out",
        "--plan-out",
        // In two pieces: a search for the retired name finds no live use.
        concat!("--sanit", "ize"),
        "--chol",
        "--sym",
    ] {
        let out = salu(&["--gen", "grid2d:8", "--grid", "1x1x1", flag, "-"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr: {stderr}");
        let (first, usage) = stderr.split_once('\n').expect("usage follows");
        assert_eq!(first, format!("unknown argument {flag}"), "{flag}");
        assert!(!usage.contains(flag), "{flag}: the usage text offers it");
        for kept in ["--run-out", "--trace-out"] {
            assert!(usage.contains(kept), "the usage text lost {kept}");
        }
    }
}

/// `--run-out -` prints one `salu-run/1` document among the report lines:
/// the host-time profile is on because the flag turns it on, the scheduler
/// counters are there exactly when a scheduler of ours ran.
#[test]
fn run_out_prints_one_versioned_document() {
    for (backend, has_sched) in [("threaded", false), ("event", true)] {
        let out = salu(&[
            "--gen",
            "grid2d:8",
            "--grid",
            "1x2x2",
            "--no-compare",
            "--backend",
            backend,
            "--run-out",
            "-",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{backend}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The pretty-printed document is the only text between a line that
        // is exactly `{` and one that is exactly `}`.
        let lines: Vec<&str> = stdout.lines().collect();
        let open = lines
            .iter()
            .position(|l| *l == "{")
            .expect("document opens");
        let close = lines
            .iter()
            .rposition(|l| *l == "}")
            .expect("document closes");
        let doc = Json::parse(&lines[open..=close].join("\n"))
            .unwrap_or_else(|e| panic!("{backend}: document does not parse: {e}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("salu-run/1"),
            "{backend}"
        );
        let sim = doc.get("sim").expect("sim section");
        for section in ["metrics", "memprof", "commvol"] {
            assert!(
                sim.get(section).and_then(Json::as_obj).is_some(),
                "{backend}: sim.{section}"
            );
        }
        let host = doc.get("host").expect("host section");
        assert!(
            host.get("hostprof").and_then(Json::as_obj).is_some(),
            "{backend}: --run-out turns host profiling on"
        );
        let sched = host.get("sched").expect("host.sched");
        if has_sched {
            assert!(sched.get("steps").and_then(Json::as_f64).unwrap() > 0.0);
        } else {
            assert_eq!(sched, &Json::Null, "{backend}: the kernel scheduled");
        }
        assert!(
            doc.get("plan").is_none(),
            "{backend}: no --plan-check, no plan"
        );
    }
}
