//! Bench-snapshot documents: the `BENCH_*.json` perf trajectory.
//!
//! Every PR that moves performance leaves one snapshot in `results/`, all
//! in one schema, `salu-bench-snapshot/3`: one record per measured
//! configuration, keyed by
//! `(matrix, n, p, pz, lookahead, backend, leaf, maxsup)`, with
//! the metric columns of [`METRICS`] and the figure columns of
//! [`FIGURE_COLUMNS`]. `scale` is carried for display but not matched on
//! (matrix + n already pin the problem). A record that omits an option
//! column means that option's default (`lookahead = 8`,
//! `backend = "threaded"`); one that omits the supernode pins
//! (`leaf`, `maxsup`; every record written before they were columns)
//! matches any pin.
//!
//! The snapshots of PRs 3 and 4 were written in two earlier generations
//! and migrated once (docs/campaign.md, "Snapshots"); the loader reads
//! only `/3` and says so when handed anything else.

use simgrid::Json;

/// Identity of one measured configuration.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointKey {
    pub matrix: String,
    pub n: u64,
    pub p: u64,
    pub pz: u64,
    /// `None` for points at the default window (and in documents that
    /// predate option sweeps); matched as equal to the default.
    pub lookahead: Option<u64>,
    /// Execution backend (`threaded` | `event`). `None` in documents that
    /// predate the backend column; matched as equal to `threaded`, so
    /// every historical snapshot keeps comparing against threaded runs.
    pub backend: Option<String>,
    /// Supernode partition pins. `None` in documents that predate the pin
    /// columns; matched as equal to any pin.
    pub leaf: Option<u64>,
    pub maxsup: Option<u64>,
}

impl PointKey {
    /// Canonical form for matching: an absent option column and its
    /// explicit default mean the same configuration.
    fn canon(&self) -> (String, u64, u64, u64, u64, String) {
        (
            self.matrix.clone(),
            self.n,
            self.p,
            self.pz,
            self.lookahead.unwrap_or(DEFAULT_LOOKAHEAD),
            self.backend.clone().unwrap_or_else(|| "threaded".into()),
        )
    }

    pub fn matches(&self, other: &PointKey) -> bool {
        let pin = |a: Option<u64>, b: Option<u64>| a.zip(b).is_none_or(|(a, b)| a == b);
        self.canon() == other.canon()
            && pin(self.leaf, other.leaf)
            && pin(self.maxsup, other.maxsup)
    }

    /// The pins, when given and off the 32/32 default.
    fn pins(&self) -> Option<(u64, u64)> {
        let pins = (
            self.leaf.unwrap_or(DEFAULT_PIN),
            self.maxsup.unwrap_or(DEFAULT_PIN),
        );
        (pins != (DEFAULT_PIN, DEFAULT_PIN)).then_some(pins)
    }

    /// Filesystem-safe slug naming the point's job directory
    /// (`<out>/jobs/<slug>/`). Options at their defaults add nothing, so
    /// the slugs of default points never change as options are added.
    pub fn slug(&self) -> String {
        let mut s = format!("{}-p{}-pz{}", self.matrix, self.p, self.pz);
        if let Some(la) = self.lookahead.filter(|&la| la != DEFAULT_LOOKAHEAD) {
            s.push_str(&format!("-la{la}"));
        }
        if let Some((leaf, maxsup)) = self.pins() {
            s.push_str(&format!("-leaf{leaf}-maxsup{maxsup}"));
        }
        if let Some(b) = self.backend.as_deref().filter(|&b| b != "threaded") {
            s.push_str(&format!("-{b}"));
        }
        s
    }
}

/// The default lookahead window (`SolverConfig::default().lookahead`),
/// assumed for records without a `lookahead` column.
pub const DEFAULT_LOOKAHEAD: u64 = 8;

/// The default supernode pins (`leaf` and `maxsup` of a campaign point).
pub const DEFAULT_PIN: u64 = 32;

impl std::fmt::Display for PointKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} n={} P={} Pz={}",
            self.matrix, self.n, self.p, self.pz
        )?;
        if let Some(la) = self.lookahead {
            if la != DEFAULT_LOOKAHEAD {
                write!(f, " la={la}")?;
            }
        }
        if let Some((leaf, maxsup)) = self.pins() {
            write!(f, " leaf={leaf} maxsup={maxsup}")?;
        }
        if let Some(b) = &self.backend {
            if b != "threaded" {
                write!(f, " backend={b}")?;
            }
        }
        Ok(())
    }
}

/// The comparable metrics of one point, in emission order. `wall_secs` is
/// the only host-sensitive column; everything else is simulated or
/// ledger-derived and therefore deterministic.
pub const METRICS: &[&str] = &[
    "wall_secs",
    "makespan_secs",
    "max_peak_bytes",
    "total_peak_bytes",
    "w_fact_words",
    "w_red_words",
    "total_sent_words",
];

/// What the paper's figures read that neither [`METRICS`] nor a run
/// document holds (`crit_comp_secs` only from a `trace = true` campaign):
/// data, carried and never compared.
pub const FIGURE_COLUMNS: &[&str] = &[
    "flops",
    "crit_comp_secs",
    "lookahead_hits",
    "store_words",
    "supernodes",
];

/// True for metrics measured on the host wall clock (noisy across machines
/// and runs); false for simulated/ledger metrics (deterministic).
pub fn is_wall_metric(name: &str) -> bool {
    name == "wall_secs"
}

/// One measured configuration with its metric values.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchPoint {
    pub key: PointKey,
    /// Display-only provenance column (`small` / `bench` / `gen` ...).
    pub scale: String,
    /// `(column name, value)` in [`METRICS`] then [`FIGURE_COLUMNS`]
    /// order; a document missing a column simply omits it.
    pub metrics: Vec<(String, f64)>,
}

impl BenchPoint {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// The one snapshot schema generation read and written.
pub const SCHEMA: &str = "salu-bench-snapshot/3";

/// A loaded snapshot document.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The `pr` label, e.g. `pr4`.
    pub label: String,
    pub points: Vec<BenchPoint>,
}

impl Snapshot {
    /// Parse a `BENCH_*.json` document.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("snapshot has no schema field")?;
        if schema != SCHEMA {
            return Err(format!(
                "snapshot schema is '{schema}', but the only supported generation is \
                 '{SCHEMA}' (the /1 and /2 files of PRs 3-4 were migrated once; see \
                 docs/campaign.md)"
            ));
        }
        let label = doc
            .get("pr")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let raw = doc
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("snapshot has no points array")?;
        let mut points = Vec::new();
        for (i, pt) in raw.iter().enumerate() {
            points.push(load_point(pt).map_err(|e| format!("point #{i}: {e}"))?);
        }
        Ok(Snapshot { label, points })
    }

    /// Read and parse a snapshot file.
    pub fn load(path: &str) -> Result<Snapshot, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
        Snapshot::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// The point matching `key`, if any.
    pub fn find(&self, key: &PointKey) -> Option<&BenchPoint> {
        self.points.iter().find(|p| p.key.matches(key))
    }

    /// Serialize as a [`SCHEMA`] document.
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                let mut fields = vec![
                    ("matrix".into(), Json::str(&p.key.matrix)),
                    ("scale".into(), Json::str(&p.scale)),
                    ("n".into(), Json::num(p.key.n as f64)),
                    ("p".into(), Json::num(p.key.p as f64)),
                    ("pz".into(), Json::num(p.key.pz as f64)),
                    (
                        "lookahead".into(),
                        Json::num(p.key.lookahead.unwrap_or(DEFAULT_LOOKAHEAD) as f64),
                    ),
                    (
                        "backend".into(),
                        Json::str(p.key.backend.as_deref().unwrap_or("threaded")),
                    ),
                ];
                for (name, pin) in [("leaf", p.key.leaf), ("maxsup", p.key.maxsup)] {
                    if let Some(v) = pin {
                        fields.push((name.into(), Json::num(v as f64)));
                    }
                }
                for (k, v) in &p.metrics {
                    fields.push((k.clone(), Json::num(*v)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("pr".into(), Json::str(&self.label)),
            ("points".into(), Json::Arr(points)),
        ])
    }
}

fn load_point(pt: &Json) -> Result<BenchPoint, String> {
    let str_field = |k: &str| pt.get(k).and_then(Json::as_str).map(str::to_string);
    let opt_num = |k: &str| pt.get(k).and_then(Json::as_f64).map(|v| v as u64);
    let num_field = |k: &str| -> Result<u64, String> {
        pt.get(k)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("missing numeric field '{k}'"))
    };
    Ok(BenchPoint {
        key: PointKey {
            matrix: str_field("matrix").ok_or("missing matrix name")?,
            n: num_field("n")?,
            p: num_field("p")?,
            pz: num_field("pz")?,
            lookahead: opt_num("lookahead"),
            backend: str_field("backend"),
            leaf: opt_num("leaf"),
            maxsup: opt_num("maxsup"),
        },
        scale: str_field("scale").unwrap_or_default(),
        metrics: METRICS
            .iter()
            .chain(FIGURE_COLUMNS)
            .filter_map(|m| pt.get(m).and_then(Json::as_f64).map(|v| (m.to_string(), v)))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> PointKey {
        PointKey {
            matrix: "m".into(),
            n: 10,
            p: 4,
            pz: 1,
            ..Default::default()
        }
    }

    #[test]
    fn records_without_option_columns_load_at_the_defaults() {
        // The shape of the migrated PR 3 / PR 4 records: no option columns.
        let s = Snapshot::parse(
            r#"{
              "schema": "salu-bench-snapshot/3", "pr": "pr3",
              "points": [{"matrix": "k2d5pt", "n": 4096, "p": 16, "pz": 1,
                          "wall_secs": 0.03, "makespan_secs": 0.007,
                          "max_peak_bytes": 566032, "total_peak_bytes": 5318408,
                          "w_fact_words": 204950, "w_red_words": 0,
                          "total_sent_words": 1868472, "not_a_metric": 1.5}]
            }"#,
        )
        .unwrap();
        assert_eq!(s.label, "pr3");
        assert_eq!(s.points.len(), 1);
        let p = &s.points[0];
        assert_eq!(p.key.lookahead, None);
        assert_eq!(p.metric("wall_secs"), Some(0.03));
        assert_eq!(p.metric("w_fact_words"), Some(204950.0));
        // only the columns of METRICS are compared metrics
        assert_eq!(p.metric("not_a_metric"), None);
    }

    #[test]
    fn roundtrips_through_to_json() {
        let snap = Snapshot {
            label: "pr8".into(),
            points: vec![BenchPoint {
                key: PointKey {
                    matrix: "nlpkkt".into(),
                    n: 1024,
                    p: 16,
                    pz: 4,
                    lookahead: Some(4),
                    backend: Some("event".into()),
                    leaf: Some(16),
                    maxsup: Some(24),
                },
                scale: "small".into(),
                metrics: vec![
                    ("wall_secs".into(), 0.007),
                    ("makespan_secs".into(), 5.5e-4),
                    ("flops".into(), 1.25e7),
                    ("crit_comp_secs".into(), 1e-4),
                ],
            }],
        };
        let reparsed = Snapshot::parse(&snap.to_json().pretty()).unwrap();
        assert_eq!(reparsed, snap);
    }

    #[test]
    fn absent_and_default_lookahead_match() {
        let a = key();
        assert!(a.matches(&PointKey {
            lookahead: Some(DEFAULT_LOOKAHEAD),
            ..a.clone()
        }));
        assert!(!a.matches(&PointKey {
            lookahead: Some(2),
            ..a.clone()
        }));
    }

    #[test]
    fn backend_column_defaults_to_threaded() {
        let old = key();
        // An absent column and an explicit "threaded" are the same point;
        // an event point is new coverage, never matched against threaded.
        assert!(old.matches(&PointKey {
            backend: Some("threaded".into()),
            ..old.clone()
        }));
        assert!(!old.matches(&PointKey {
            backend: Some("event".into()),
            ..old.clone()
        }));
        // Display keeps old keys stable and flags only non-default backends.
        assert!(!old.to_string().contains("backend"));
        let evt = PointKey {
            backend: Some("event".into()),
            ..old
        };
        assert!(evt.to_string().ends_with("backend=event"));
    }

    #[test]
    fn records_without_pins_match_any_pin() {
        let old = key();
        let pinned = |leaf, maxsup| PointKey {
            leaf: Some(leaf),
            maxsup: Some(maxsup),
            ..old.clone()
        };
        // every committed snapshot predates the pin columns and keeps
        // comparing as before...
        assert!(old.matches(&pinned(16, 24)) && pinned(8, 8).matches(&old));
        // ...while two pinned points differ by their pins.
        assert!(!pinned(8, 8).matches(&pinned(32, 32)));
        assert!(!pinned(32, 8).matches(&pinned(32, 32)));
        assert!(pinned(16, 24).to_string().ends_with("leaf=16 maxsup=24"));
        assert!(!pinned(32, 32).to_string().contains("leaf"));
    }

    #[test]
    fn exactly_one_schema_generation_is_accepted() {
        // The retired generations are refused by name, not half-loaded.
        for old in ["salu-bench-snapshot/1", "salu-bench-snapshot/2"] {
            let e =
                Snapshot::parse(&format!(r#"{{"schema": "{old}", "points": []}}"#)).unwrap_err();
            assert!(e.contains(old) && e.contains(SCHEMA), "{e}");
        }
        assert!(Snapshot::parse(r#"{"schema": "salu-bench-snapshot/9", "points": []}"#).is_err());
        assert!(Snapshot::parse(r#"{"points": []}"#).is_err());
        assert!(Snapshot::parse(r#"{"schema": "other/1", "points": []}"#).is_err());
    }

    #[test]
    fn every_committed_snapshot_loads() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).expect("results/ exists") {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let snap = Snapshot::load(path.to_str().unwrap()).unwrap_or_else(|e| panic!("{e}"));
                assert!(!snap.points.is_empty(), "{name}");
                seen += 1;
            }
        }
        assert!(seen >= 4, "expected BENCH_pr3/4/8/10");
    }
}
