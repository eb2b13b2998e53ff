//! Smoke-scale runs of the real executable through the driver's entry
//! point, checked against the table in BENCHMARK.json.

use salu::simgrid::Json;
use std::process::Command;
use std::time::Instant;

const BIN: &str = env!("CARGO_BIN_EXE_salu-benchmark");

fn table() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names_of(table: &Json, list: &str) -> Vec<(String, String)> {
    table
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{list}` list"))
        .iter()
        .map(|row| {
            let field = |k: &str| row.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads(table: &Json) -> Vec<String> {
    table
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("`workloads` list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// One smoke-scale invocation: (info, result), the last two lines printed.
fn smoke(workload: &str, seed: u64, trace: bool) -> (Json, Json) {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "smoke"])
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().expect("a result line")).expect("result parses");
    let info = Json::parse(lines.next().expect("an info line")).expect("info parses");
    (info.get("info").expect("info object").clone(), result)
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name}"))
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

#[test]
fn table_obeys_the_contract() {
    let table = table();
    let keys: Vec<&str> = table
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let end_to_end = names_of(&table, "end_to_end");
    let per_layer = names_of(&table, "per_layer");
    let workloads = workloads(&table);
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!((2..=8).contains(&workloads.len()));

    let mut seen = std::collections::BTreeSet::new();
    for name in end_to_end
        .iter()
        .chain(&per_layer)
        .map(|(n, _)| n)
        .chain(&workloads)
    {
        assert!(is_name(name), "bad name `{name}`");
        assert!(seen.insert(name.clone()), "`{name}` is used twice");
    }
    for (_, unit) in end_to_end.iter().chain(&per_layer) {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(
            !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
            "bad unit `{unit}`"
        );
    }

    // Set-up time is there, in seconds, and no bound is larger than its own.
    let rows = table.get("end_to_end").and_then(Json::as_arr).unwrap();
    let bound = |row: &Json| row.get("bound").and_then(Json::as_f64).expect("bound");
    let setup = rows
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    for row in rows {
        assert!(bound(row) > 0.0 && bound(row) <= 0.25);
        assert!(bound(row) <= bound(setup));
    }
    for w in table.get("workloads").and_then(Json::as_arr).unwrap() {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn smoke_runs_report_exactly_the_tables_metrics() {
    let started = Instant::now();
    let table = table();
    for workload in workloads(&table) {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let (info, result) = smoke(&workload, 1, trace);
            let keys: Vec<&str> = result
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} trace {trace}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let reported: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(reported, names_of(&table, list), "{workload} trace {trace}");
            assert_eq!(
                info.get("workload").and_then(Json::as_str),
                Some(workload.as_str())
            );
        }
    }
    assert!(
        started.elapsed().as_secs_f64() < 20.0,
        "smoke runs took {:?}",
        started.elapsed()
    );
}

#[test]
fn the_seed_decides_the_inputs_and_the_simulated_clock_repeats() {
    const SIMULATED: [&str; 6] = [
        "lu3d.sim_factor_makespan_s",
        "lu3d.sim_solution_makespan_s",
        "simgrid.sim_words_max_rank",
        "simgrid.sim_msgs_max_rank",
        "simgrid.sim_peak_mem_max_rank_mb",
        "simgrid.msgs_total",
    ];
    for workload in workloads(&table()) {
        let (info_a, a) = smoke(&workload, 1, true);
        let (info_b, b) = smoke(&workload, 1, true);
        let (info_c, c) = smoke(&workload, 2, true);
        for name in SIMULATED {
            assert_eq!(
                metric(&a, name).to_bits(),
                metric(&b, name).to_bits(),
                "{workload}: {name} moved between two runs on one seed"
            );
        }
        let digest = |info: &Json| {
            info.get("rhs_digest")
                .and_then(Json::as_str)
                .map(String::from)
        };
        assert_eq!(digest(&info_a), digest(&info_b));
        assert_ne!(digest(&info_a), digest(&info_c), "{workload}");
        if workload == "mtx_general" {
            // Here the seed changes the structure, not only the values.
            assert_ne!(metric(&a, "sparsemat.nnz"), metric(&c, "sparsemat.nnz"));
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "kkt_scale", "--seed", "x"][..],
        &["--seed", "1"][..],
    ] {
        let out = Command::new(BIN).args(args).output().expect("starts");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
