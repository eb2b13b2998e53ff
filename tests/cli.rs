//! The `salu` binary on inputs that used to panic between the reader and
//! the ordering: every one ends in a one-line message and exit 1, or runs.

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
/// ahead of the usage text), not an option that is read and dropped.
#[test]
fn removed_schedule_flag_is_rejected() {
    let out = salu(&[
        "--gen",
        "grid2d:8",
        "--grid",
        "1x1x1",
        "--schedule",
        "level",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with("unknown argument --schedule\n"),
        "stderr: {stderr}"
    );
}
