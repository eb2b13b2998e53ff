//! The `salu` binary: inputs that used to panic between the reader and the
//! ordering end in a one-line message and exit 1, or run; its flags; its
//! text, which is a rendering of the run document it writes; and its gates
//! (P = 4096, conformance, plan check, chaos) as a user runs them.

use salu::lu3d::RunText;
use salu::simgrid::obs::validate_chrome_trace;
use salu::simgrid::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn salu(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_salu"))
        .args(args)
        .output()
        .expect("salu runs")
}

/// A scratch file of the test target, named `name`.
fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn mtx_file(name: &str, bytes: impl AsRef<[u8]>) -> PathBuf {
    let path = scratch(name);
    std::fs::write(&path, bytes).expect("scratch file written");
    path
}

/// Runs `salu` on `args` (split at spaces) followed by `files`, asserts its
/// exit code and that its output (stdout, then stderr) holds every needle,
/// and returns that output.
fn expect(args: &str, files: &[&Path], code: i32, needles: &[&str]) -> String {
    let files = files.iter().map(|f| f.to_str().expect("a UTF-8 path"));
    let args: Vec<&str> = args.split(' ').chain(files).collect();
    let out = salu(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let text = stdout + String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {text}");
    for needle in needles {
        assert!(text.contains(needle), "{args:?}: no {needle:?} in {text}");
    }
    text.into_owned()
}

fn json_file(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("file written");
    Json::parse(&text).expect("file parses")
}

/// The document `--run-out -` (or `--conformance -`) printed: the
/// pretty-printed JSON is the only text between a line that is exactly `{`
/// and one that is exactly `}`.
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
    let args = "--gen kkt:3 --leaf 0 --grid 1x1x1 --no-compare";
    expect(args, &[], 0, &["residual"]);
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
        let args =
            format!("--gen grid2d:8 --grid 1x2x2 --no-compare --run-out - --backend {backend}");
        let doc = document_in(&expect(&args, &[], 0, &[]));
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
    let args = "--gen grid2d:16 --grid 2x2x2 --no-compare --report --run-out -";
    let stdout = expect(args, &[], 0, &[]);
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
        let path = scratch(&format!("cli_{backend}.json"));
        let trace = scratch(&format!("cli_{backend}_t.json"));
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
        let text = RunText::of(&json_file(&path)).expect("the document renders");
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

/// A pattern file with CRLF line endings and a Latin-1 comment, as older
/// SuiteSparse exports have them, reads, orders and solves: the reader
/// decodes only the header and the size line.
#[test]
fn crlf_file_with_a_latin1_comment_solves() {
    let bytes = b"%%MatrixMarket matrix coordinate pattern symmetric\r\n% author: Jos\xe9\r\n\
        3 3 5\r\n1 1\r\n2 2\r\n3 1\r\n3 2\r\n3 3\r\n";
    let path = mtx_file("cli_crlf_latin1.mtx", bytes);
    expect("--grid 1x1x1 --mtx", &[&path], 0, &["residual"]);
}

const P4096: &str = "--gen grid2d:64 --grid 64x64x1 --backend event --no-compare";
/// The pinned chaos run: `CHAOS`, then a fault plan such as `FAULTS`.
const CHAOS: &str = "--gen grid2d:24 --grid 2x2x4 --no-compare --fault-seed 7 --faults";
const FAULTS: &str = "drop:p=0.05;dup:p=0.02;delay:p=0.1,secs=2e-3";

/// The paper's P = 4096 (`grid2d:64` on a 64x64x1 grid, event backend):
/// refinement through 4 096 ranks, and 1 072 supernodes of at most 8
/// columns, each rank taking only its own steps.
#[test]
fn paper_scale_refines_and_runs_small_supernodes() {
    for extra in ["--refine 2", "--leaf 8 --maxsup 8"] {
        expect(&format!("{P4096} {extra}"), &[], 0, &["residual"]);
    }
}

/// The P = 4096 run document, host profiling on: it holds no per-rank
/// array, so it stays under 64 KiB.
#[test]
fn paper_scale_run_document_stays_small() {
    let path = scratch("cli_run_4096.json");
    expect(&format!("{P4096} --report --run-out"), &[&path], 0, &[]);
    let bytes = std::fs::metadata(&path).expect("document written").len();
    assert!(bytes <= 65_536, "the document is {bytes} bytes");
    let schema = json_file(&path).at(&["schema"]).cloned();
    assert_eq!(schema.as_ref().and_then(Json::as_str), Some("salu-run/4"));
}

/// The cost-model gate passes on the planar proxy, and the static plan
/// matches the measured ledger exactly, also after a recovered fault run
/// (retransmissions are `fault.*` counters, never ledger cells).
#[test]
fn conformance_and_plan_check_pass() {
    let proxy = "--gen grid2d:64 --grid 2x2x4 --no-compare";
    let (run, plan_run) = (scratch("cli_conf_run.json"), scratch("cli_plan_run.json"));
    let conformance = format!("{proxy} --conformance - --run-out");
    let report = document_in(&expect(&conformance, &[&run], 0, &[]));
    assert_eq!(report.at(&["passed"]).and_then(Json::as_bool), Some(true));
    let matches = ["plan check: measured ledger matches the plan exactly"];
    let plan_check = format!("{proxy} --plan-check --run-out");
    expect(&plan_check, &[&plan_run], 0, &matches);
    let checks_ok = json_file(&plan_run).at(&["plan", "checks_ok"]).cloned();
    assert_eq!(checks_ok.as_ref().and_then(Json::as_bool), Some(true));
    let recovered = format!("{CHAOS} {FAULTS} --plan-check");
    expect(&recovered, &[], 0, &matches);
}

/// Chaos: with recovery the pinned drop/dup/delay plan leaves factors
/// bitwise identical to the fault-free run and a trace that validates;
/// without it the drops fail the run structurally, naming the deadlock.
#[test]
fn chaos_recovers_bitwise_or_fails_structurally() {
    let trace = scratch("cli_chaos_trace.json");
    let recovered = format!("{CHAOS} {FAULTS} --trace-out");
    expect(&recovered, &[&trace], 0, &["factors bitwise identical"]);
    validate_chrome_trace(&json_file(&trace)).expect("the trace validates");
    let unrecovered = format!("{CHAOS} drop:p=0.05 --no-recover");
    let failed = ["deadlock detected", "solver failed on rank"];
    expect(&unrecovered, &[], 1, &failed);
}
