//! Everything around a single run: the metric table in BENCHMARK.json,
//! provenance headers, documents holding many runs, and the comparison of
//! two such documents under the table's bounds.

use crate::adapter::WORKLOADS;
use crate::stats::{self, Better, Verdict};
use salu::simgrid::Json;
use std::path::Path;
use std::process::Command;

/// One row of BENCHMARK.json's `end_to_end` or `per_layer` list.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base median the metric may worsen by; per-layer metrics
    /// have none.
    pub bound: Option<f64>,
}

/// The one table of names, units, directions and bounds.
pub struct Table {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Table {
    /// Load BENCHMARK.json.
    pub fn load(path: &Path) -> Result<Table, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let rows = doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
            rows.iter()
                .map(|row| {
                    let field = |k: &str| {
                        row.get(k)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("a `{key}` row lacks `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        better: match field("better")? {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("`better` is `{other}`")),
                        },
                        bound: row.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Table {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// Trimmed standard output of a command; `None` if it cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and with what a set of runs was made.
pub fn provenance() -> Json {
    let text = |found: Option<String>| Json::str(found.unwrap_or_else(|| "unknown".to_string()));
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        });
    // What `-C target-cpu` (set in the repository's .cargo/config.toml)
    // turned on in this build: the kernels' vector width depends on it.
    let features: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter_map(|&(name, on)| on.then_some(name))
    .collect();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::Obj(vec![
        (
            "git_commit".into(),
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        // Whether the working tree differs from that commit (null outside
        // a git repository, as in the driver's checkout).
        (
            "git_dirty".into(),
            command_line("git", &["status", "--porcelain"])
                .map_or(Json::Null, |s| Json::Bool(!s.is_empty())),
        ),
        ("rustc".into(), text(command_line("rustc", &["-V"]))),
        ("nproc".into(), Json::num(nproc as f64)),
        ("cpu_model".into(), text(cpu_model)),
        ("target_features".into(), Json::str(features.join(","))),
    ])
}

/// A value for a table: counts without decimals, small values in
/// scientific notation, the rest to six decimals.
fn show(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.6}")
    }
}

/// One invocation kept in a document.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub info: Json,
    pub result: Json,
}

impl Run {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::str(self.workload.as_str())),
            ("seed".into(), Json::num(self.seed as f64)),
            ("trace".into(), Json::Bool(self.trace)),
            ("info".into(), self.info.clone()),
            ("result".into(), self.result.clone()),
        ])
    }

    fn from_json(doc: &Json) -> Option<Run> {
        Some(Run {
            workload: doc.get("workload")?.as_str()?.to_string(),
            seed: doc.get("seed")?.as_f64()? as u64,
            trace: doc.get("trace")?.as_bool()?,
            info: doc.get("info")?.clone(),
            result: doc.get("result")?.clone(),
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn count(&self, key: &str) -> u64 {
        self.result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
    }
}

/// A set of runs with the header saying where they were made.
pub struct Document {
    pub header: Json,
    pub runs: Vec<Run>,
}

impl Document {
    /// The document as JSON text, one run per line.
    pub fn render(&self) -> String {
        let runs: Vec<String> = self.runs.iter().map(|r| r.to_json().dump()).collect();
        format!(
            "{{\n\"schema\": \"salu-benchmark-runs/1\",\n\"header\": {},\n\"runs\": [\n{}\n]\n}}\n",
            self.header.dump(),
            runs.join(",\n")
        )
    }

    pub fn load(path: &Path) -> Result<Document, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: no `runs` list", path.display()))?
            .iter()
            .map(|r| Run::from_json(r).ok_or_else(|| format!("{}: malformed run", path.display())))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Document {
            header: doc.get("header").cloned().unwrap_or(Json::Null),
            runs,
        })
    }

    /// Values of one metric over the runs of one workload.
    fn values(&self, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload && r.trace == trace)
            .filter_map(|r| r.metric(metric))
            .collect()
    }

    /// Failed and attempted operations over all runs.
    pub fn failures(&self) -> (u64, u64) {
        self.runs.iter().fold((0, 0), |(f, a), r| {
            let wrong = r.result.get("correct").and_then(Json::as_bool) != Some(true);
            // A run that reports itself incorrect without a failed
            // operation (a broken cross-check) still counts as one failure.
            let failed = r.count("failed").max(u64::from(wrong));
            (f + failed, a + r.count("attempted"))
        })
    }

    /// Print every metric by name with its unit, one block per workload:
    /// the median over the document's runs and their spread.
    pub fn print(&self, table: &Table) {
        for workload in WORKLOADS {
            for (trace, specs) in [(false, &table.end_to_end), (true, &table.per_layer)] {
                let mut header_printed = false;
                for spec in specs {
                    let values = self.values(workload, trace, &spec.name);
                    if values.is_empty() {
                        continue;
                    }
                    if !header_printed {
                        println!(
                            "\n{workload} — {} ({} run(s))",
                            if trace { "per layer" } else { "end to end" },
                            values.len()
                        );
                        header_printed = true;
                    }
                    let spread = stats::spread(&values)
                        .map_or_else(|| "-".to_string(), |s| format!("{:.2}%", 100.0 * s));
                    println!(
                        "  {:<42} {:>16} {:<8} spread {}",
                        spec.name,
                        show(stats::median(&values)),
                        spec.unit,
                        spread
                    );
                }
            }
        }
        let (failed, attempted) = self.failures();
        println!("\noperations: {attempted} attempted, {failed} failed");
    }
}

/// Compare two documents under the table's bounds: one row per (workload,
/// end-to-end metric), every ratio printed with its base. With `steady`
/// set (the self-check: both sides are the same code) a spread above a third
/// of the bound is flagged too. Returns whether nothing regressed, nothing
/// but `setup_s` was left unresolved, and the change did not fail more
/// operations than the base.
pub fn compare(base: &Document, change: &Document, table: &Table, steady: bool) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<20} {:>12} {:>12} {:>7} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "change", "n", "ratio", "spread", "spread'", "bound"
    );
    for workload in WORKLOADS {
        for spec in &table.end_to_end {
            let a = base.values(workload, false, &spec.name);
            let b = change.values(workload, false, &spec.name);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let bound = spec.bound.unwrap_or(0.0);
            let verdict = stats::verdict(&a, &b, spec.better, bound);
            let (sa, sb) = (
                stats::spread(&a).unwrap_or(0.0),
                stats::spread(&b).unwrap_or(0.0),
            );
            // The contract exempts set-up time from the spread test; its
            // medians are compared all the same.
            let worse = stats::worse_by(stats::median(&a), stats::median(&b), spec.better);
            let unresolved = verdict == Verdict::Unresolved && spec.name != "setup_s";
            if worse > bound || unresolved {
                ok = false;
            }
            let wide = steady && sa.max(sb) > bound / 3.0;
            println!(
                "{:<16} {:<20} {:>12.6} {:>12.6} {:>7} {:>8.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}{}",
                workload,
                spec.name,
                stats::median(&a),
                stats::median(&b),
                format!("{}/{}", a.len(), b.len()),
                stats::median(&b) / stats::median(&a),
                100.0 * sa,
                100.0 * sb,
                100.0 * bound,
                verdict.as_str(),
                if wide {
                    " (spread above a third of the bound)"
                } else {
                    ""
                }
            );
        }
    }
    println!(
        "(base and change are medians over the runs, in the metric's unit; n counts the runs \
         of base/change; ratio = change / base)"
    );

    // Per-layer values carry no bound: listed where both sides have them.
    for workload in WORKLOADS {
        let rows: Vec<_> = table
            .per_layer
            .iter()
            .filter_map(|spec| {
                let a = base.values(workload, true, &spec.name);
                let b = change.values(workload, true, &spec.name);
                (!a.is_empty() && !b.is_empty())
                    .then(|| (spec, stats::median(&a), stats::median(&b)))
            })
            .collect();
        if rows.is_empty() {
            continue;
        }
        println!("\n{workload} — per layer (no bound): base, change, change / base");
        for (spec, a, b) in rows {
            let ratio = if a == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", b / a)
            };
            println!(
                "  {:<42} {:>16} {:>16} {:<8} {}",
                spec.name,
                show(a),
                show(b),
                spec.unit,
                ratio
            );
        }
    }

    let ((fa, aa), (fb, ab)) = (base.failures(), change.failures());
    println!("\nfailed operations: base {fa} of {aa}, change {fb} of {ab}");
    ok && fb <= fa
}

#[cfg(test)]
mod tests {
    use super::*;

    fn document(factor_solve_s: &[f64], failed: u64) -> Document {
        let runs = factor_solve_s
            .iter()
            .enumerate()
            .map(|(i, &v)| Run {
                workload: WORKLOADS[0].to_string(),
                seed: i as u64,
                trace: false,
                info: Json::Null,
                result: Json::Obj(vec![
                    ("correct".into(), Json::Bool(failed == 0)),
                    ("attempted".into(), Json::num(5.0)),
                    ("failed".into(), Json::num(failed as f64)),
                    (
                        "metrics".into(),
                        Json::Obj(vec![(
                            "factor_solve_s".into(),
                            Json::Obj(vec![
                                ("value".into(), Json::num(v)),
                                ("unit".into(), Json::str("s")),
                            ]),
                        )]),
                    ),
                ]),
            })
            .collect();
        Document {
            header: Json::Null,
            runs,
        }
    }

    fn table() -> Table {
        Table {
            end_to_end: vec![MetricSpec {
                name: "factor_solve_s".into(),
                unit: "s".into(),
                better: Better::Lower,
                bound: Some(0.1),
            }],
            per_layer: Vec::new(),
        }
    }

    #[test]
    fn compare_applies_the_bound_and_counts_failures() {
        let base = document(&[1.0, 1.01, 0.99, 1.0], 0);
        assert!(compare(
            &base,
            &document(&[1.05, 1.04, 1.06, 1.05], 0),
            &table(),
            false
        ));
        assert!(!compare(
            &base,
            &document(&[1.2, 1.21, 1.19, 1.2], 0),
            &table(),
            false
        ));
        assert!(!compare(
            &base,
            &document(&[1.0, 1.0, 1.0, 1.0], 1),
            &table(),
            false
        ));
        // Too noisy to resolve a 10% change: not a pass.
        assert!(!compare(
            &base,
            &document(&[0.7, 1.3, 0.8, 1.2], 0),
            &table(),
            false
        ));
    }

    #[test]
    fn documents_round_trip_through_json() {
        let doc = document(&[1.0, 2.0], 0);
        let back = Json::parse(&doc.render()).expect("parses");
        let runs = back.get("runs").and_then(Json::as_arr).expect("runs");
        let run = Run::from_json(&runs[1]).expect("well-formed run");
        assert_eq!(run.metric("factor_solve_s"), Some(2.0));
        assert_eq!(doc.failures(), (0, 10));
    }
}
