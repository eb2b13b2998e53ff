//! The `salu` binary: inputs that used to panic between the reader and the
//! ordering end in a one-line message and exit 1, or run; its flags; and
//! its text, which is a rendering of the run document it writes.

use salu::lu3d::RunText;
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

/// The document `--run-out -` printed: the pretty-printed JSON is the only
/// text between a line that is exactly `{` and one that is exactly `}`.
fn document_in(stdout: &str) -> Json {
    let lines: Vec<&str> = stdout.lines().collect();
    let open = lines
        .iter()
        .position(|l| *l == "{")
        .expect("document opens");
    let close = lines
        .iter()
        .rposition(|l| *l == "}")
        .expect("document closes");
    Json::parse(&lines[open..=close].join("\n")).expect("document parses")
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
/// communication-check switch (every run checks now), the Cholesky pair
/// and the offline trace linter (the trace validator checks message pairing
/// and causality).
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
        "--lint-trace",
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

/// A generator size or supernode width of 0, and a fault value the injector
/// cannot apply (it would run clocks backwards or collapse them), are bad
/// usage: exit 2 naming the input, not a panic and not a run.
#[test]
fn degenerate_sizes_and_fault_values_are_refused() {
    let refused = |args: &[&str], needle: &str| {
        let out = salu(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
    };
    refused(&["--gen", "grid2d:8", "--maxsup", "0"], "bad --maxsup 0");
    for spec in ["grid2d:0", "kkt:0"] {
        refused(&["--gen", spec, "--grid", "1x1x1"], "size 0");
    }
    for faults in [
        "delay:p=0.5,secs=-1",
        "degrade:factor=-5",
        "drop:p=2",
        "drop:p=nan",
        "stall:rank=1,at=0,secs=-1",
        "stall:rank=1,at=nan,secs=1",
    ] {
        let args = ["--gen", "grid2d:8", "--grid", "2x2x2", "--no-compare"];
        refused(&[&args[..], &["--faults", faults]].concat(), faults);
    }
}

/// `--run-out -` prints one `salu-run/4` document among the report lines:
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
        let doc = document_in(&stdout);
        assert_eq!(
            doc.at(&["schema"]).and_then(Json::as_str),
            Some("salu-run/4"),
            "{backend}"
        );
        for section in ["run", "metrics", "memprof", "commvol"] {
            assert!(
                doc.at(&["sim", section]).and_then(Json::as_obj).is_some(),
                "{backend}: sim.{section}"
            );
        }
        assert!(
            doc.at(&["host", "hostprof"])
                .and_then(Json::as_obj)
                .is_some(),
            "{backend}: --run-out turns host profiling on"
        );
        let sched = doc.at(&["host", "sched"]).expect("host.sched");
        if has_sched {
            assert!(sched.num_at(&["steps"]).unwrap() > 0.0);
        } else {
            assert_eq!(sched, &Json::Null, "{backend}: the kernel scheduled");
        }
        assert!(
            doc.at(&["plan"]).is_none(),
            "{backend}: no --plan-check, no plan"
        );
    }
}

/// `--report`'s "schur updates" line counts the updates ranks applied: the
/// zero-flop ones (mostly supernodes a rank has no share of the update of)
/// are printed apart, and both are the run document's counters.
#[test]
fn report_counts_schur_updates_apart_from_no_local_share() {
    let out = salu(&[
        "--gen",
        "grid2d:16",
        "--grid",
        "2x2x2",
        "--no-compare",
        "--report",
        "--run-out",
        "-",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("schur updates"))
        .expect("a schur updates line");
    let numbers: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    let [updates, batched, per_block, zero_flop] = numbers[..] else {
        panic!("four counts in {line:?}");
    };
    assert_eq!(batched + per_block, updates, "{line}");
    let doc = document_in(&stdout);
    let counter = |name| doc.num_at(&["sim", "metrics", name]).expect(name) as u64;
    assert_eq!(
        (updates, zero_flop),
        (counter("schur.updates"), counter("schur.zero_flop_updates")),
        "{line}"
    );
    assert!(updates > 0 && zero_flop > 0, "{line}");
    assert!(counter("schur.flops") >= updates, "{line}");
}

/// The text is a function of the document: the run document `--run-out`
/// writes, parsed back and rendered by the library, is the summary and the
/// digest stdout shows, byte for byte, on both backends. A traced report
/// prints its critical path once, in the digest.
#[test]
fn printed_text_is_the_rendered_run_document() {
    for backend in ["threaded", "event"] {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{backend}.json"));
        let trace =
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{backend}_t.json"));
        let args = "--gen grid2d:16 --grid 2x2x2 --refine 2 --report --backend";
        let mut args: Vec<&str> = args.split(' ').collect();
        args.extend([backend, "--run-out", path.to_str().unwrap()]);
        args.extend(["--trace-out", trace.to_str().unwrap()]);
        let out = salu(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = Json::parse(&std::fs::read_to_string(&path).expect("document written"));
        let text = RunText::of(&doc.expect("document parses")).expect("the document renders");
        for block in [&text.summary, &text.digest_clock, &text.digest_ledgers] {
            assert!(
                stdout.contains(block.as_str()),
                "{backend}: not in stdout:\n{block}"
            );
        }
        // The blocks carry the run's own lines.
        assert!(
            text.digest_clock.contains("solve + refinement"),
            "{backend}"
        );
        assert!(text.digest_ledgers.contains("host time"), "{backend}");
        let has_sched = text.digest_ledgers.contains("event scheduler");
        assert_eq!(has_sched, backend == "event");
        let paths = stdout.matches("critical path: makespan").count();
        assert_eq!(paths, 1, "{backend}: {stdout}");
    }
}
