//! Campaign spec: the declarative description of a perf sweep.
//!
//! A spec is a TOML file (see [`crate::toml`] for the supported subset)
//! with one `[campaign]` header, an optional `[tolerance]` table, and one
//! `[[point]]` block per matrix configuration. Each `[[point]]` names a
//! matrix (a `sparsemat::testmats` proxy or a generator spec) and sweeps
//! the grid/options axes; [`CampaignSpec::expand`] takes the cross product
//! into concrete [`Job`]s, skipping (and reporting) invalid combinations
//! like `p % pz != 0` rather than silently shrinking the sweep.

use crate::compare::Tolerance;
use crate::snapshot::{PointKey, DEFAULT_LOOKAHEAD, DEFAULT_PIN};
use crate::toml::{self, Table, Value};
use simgrid::Backend;
use sparsemat::testmats::{Scale, ALL_NAMES};

/// Where a point's matrix comes from.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MatrixSource {
    /// A named `sparsemat::testmats` proxy (one of `ALL_NAMES`) at a scale.
    Named { name: String, scale: Scale },
    /// A generator spec in `salu --gen` syntax, e.g. `grid3d:16`,
    /// `kkt:10`.
    Gen { spec: String },
}

impl MatrixSource {
    /// Short label used in point keys and artifact paths.
    pub fn label(&self) -> String {
        match self {
            MatrixSource::Named { name, .. } => name.clone(),
            MatrixSource::Gen { spec } => spec.replace(':', ""),
        }
    }

    /// The `scale` column recorded in snapshots.
    pub fn scale(&self) -> String {
        match self {
            MatrixSource::Named { scale, .. } => scale.name().into(),
            MatrixSource::Gen { .. } => "gen".into(),
        }
    }
}

/// One `[[point]]` block, before sweep expansion.
#[derive(Clone, Debug)]
pub struct PointSpec {
    pub matrix: MatrixSource,
    pub leaf: usize,
    pub maxsup: usize,
    pub p: Vec<usize>,
    pub pz: Vec<usize>,
    pub lookahead: Vec<usize>,
    /// Execution backends to sweep (`threaded` | `event`); defaults to
    /// threaded only, matching every historical snapshot.
    pub backend: Vec<Backend>,
    /// Per-point repetition override. Paper-scale points (P = 4096) take
    /// minutes per rep; this lets one point opt out of the campaign-wide
    /// best-of-N without loosening the small points.
    pub reps: Option<usize>,
}

/// One concrete run: a single cell of the sweep cross product.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub matrix: MatrixSource,
    pub leaf: usize,
    pub maxsup: usize,
    pub p: usize,
    pub pz: usize,
    pub lookahead: usize,
    pub backend: Backend,
    pub reps: usize,
}

impl Job {
    /// The snapshot key of this job's point; `n` is the order of its
    /// matrix, known once the matrix is built.
    pub fn key(&self, n: u64) -> PointKey {
        PointKey {
            matrix: self.matrix.label(),
            n,
            p: self.p as u64,
            pz: self.pz as u64,
            lookahead: (self.lookahead as u64 != DEFAULT_LOOKAHEAD)
                .then_some(self.lookahead as u64),
            backend: (self.backend != Backend::Threaded).then(|| self.backend.to_string()),
            leaf: Some(self.leaf as u64),
            maxsup: Some(self.maxsup as u64),
        }
    }

    /// Filesystem-safe slug naming this job's artifact directory (the
    /// slug never reads `n`).
    pub fn slug(&self) -> String {
        self.key(0).slug()
    }

    /// Everything but `reps` agrees: two points listing one configuration
    /// name one job.
    fn same_config(&self, other: &Job) -> bool {
        Job {
            reps: other.reps,
            ..self.clone()
        } == *other
    }
}

/// A fully parsed campaign.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    pub name: String,
    /// Label stamped into the emitted snapshot's `pr` field (e.g. `pr8`).
    pub pr_label: String,
    /// Best-of-N repetitions for the wall-clock column.
    pub reps: usize,
    /// Parallel job slots. 1 (the default) keeps wall-clock measurements
    /// unperturbed; raise it when sweeping simulated-only metrics.
    pub workers: usize,
    /// Baseline snapshot to compare against after the run, if any.
    pub baseline: Option<String>,
    /// Run one extra traced repetition per job and record its
    /// critical-path split as the `crit_comp_secs` snapshot column (no
    /// trace file is written).
    pub trace: bool,
    pub tolerance: Tolerance,
    pub points: Vec<PointSpec>,
}

impl CampaignSpec {
    /// Parse a spec document.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let doc = toml::parse(text)?;
        for (name, _) in &doc.sections {
            if !["campaign", "tolerance", "point"].contains(&name.as_str()) {
                return Err(format!(
                    "unknown section [{name}] (known: [campaign], [tolerance], [[point]])"
                ));
            }
        }
        let header = doc
            .section("campaign")
            .ok_or("spec has no [campaign] section")?;
        known_keys(header, CAMPAIGN_KEYS).map_err(|e| format!("[campaign]: {e}"))?;
        let name = req_str(header, "campaign", "name")?;
        let pr_label = opt_str(header, "pr")?.unwrap_or_else(|| name.clone());
        let reps = opt_usize(header, "campaign", "reps")?.unwrap_or(1).max(1);
        let workers = opt_usize(header, "campaign", "workers")?
            .unwrap_or(1)
            .max(1);
        let baseline = opt_str(header, "baseline")?;
        let trace = match header.get("trace") {
            Some(v) => v.as_bool().ok_or("[campaign] trace must be a boolean")?,
            None => false,
        };
        let mut tolerance = Tolerance::default();
        if let Some(t) = doc.section("tolerance") {
            known_keys(t, TOLERANCE_KEYS).map_err(|e| format!("[tolerance]: {e}"))?;
            if let Some(v) = t.get("wall") {
                tolerance.wall = v.as_f64().ok_or("[tolerance] wall must be a number")?;
            }
            if let Some(v) = t.get("sim") {
                tolerance.sim = v.as_f64().ok_or("[tolerance] sim must be a number")?;
            }
            if let Some(v) = t.get("gate_wall") {
                tolerance.gate_wall = v
                    .as_bool()
                    .ok_or("[tolerance] gate_wall must be a boolean")?;
            }
        }
        let mut points = Vec::new();
        for (i, table) in doc.sections_named("point").into_iter().enumerate() {
            points.push(parse_point(table).map_err(|e| format!("[[point]] #{}: {e}", i + 1))?);
        }
        if points.is_empty() {
            return Err("spec has no [[point]] blocks".into());
        }
        Ok(CampaignSpec {
            name,
            pr_label,
            reps,
            workers,
            baseline,
            trace,
            tolerance,
            points,
        })
    }

    /// Expand sweeps into concrete jobs. Combinations where `p` is not a
    /// multiple of `pz` cannot form a grid; they are returned separately so
    /// the runner can report them instead of dropping them silently. A
    /// configuration that several points list is one job (the first
    /// point's `reps`), so it is factored once.
    pub fn expand(&self) -> (Vec<Job>, Vec<String>) {
        let mut jobs: Vec<Job> = Vec::new();
        let mut skipped = Vec::new();
        for pt in &self.points {
            for &p in &pt.p {
                for &pz in &pt.pz {
                    if !pz.is_power_of_two() || p % pz != 0 {
                        skipped.push(format!(
                            "{} p={p} pz={pz}: pz must be a power of two dividing p",
                            pt.matrix.label()
                        ));
                        continue;
                    }
                    for &lookahead in &pt.lookahead {
                        for &backend in &pt.backend {
                            let job = Job {
                                matrix: pt.matrix.clone(),
                                leaf: pt.leaf,
                                maxsup: pt.maxsup,
                                p,
                                pz,
                                lookahead,
                                backend,
                                reps: pt.reps.unwrap_or(self.reps),
                            };
                            if !jobs.iter().any(|j| j.same_config(&job)) {
                                jobs.push(job);
                            }
                        }
                    }
                }
            }
        }
        (jobs, skipped)
    }
}

/// The keys each block reads. Anything else is an error, not an ignored
/// line: a misspelt axis must not quietly shrink the sweep.
const CAMPAIGN_KEYS: &[&str] = &["name", "pr", "reps", "workers", "baseline", "trace"];
const TOLERANCE_KEYS: &[&str] = &["wall", "sim", "gate_wall"];
const POINT_KEYS: &[&str] = &[
    "matrix",
    "gen",
    "scale",
    "leaf",
    "maxsup",
    "p",
    "pz",
    "lookahead",
    "backend",
    "reps",
];

fn known_keys(t: &Table, known: &[&str]) -> Result<(), String> {
    for (key, _) in &t.entries {
        if key == "batched" {
            return Err(
                "key 'batched' was removed: the Schur update now picks its kernel per \
                 supernode from the update's size (docs/perf.md), so there is no second \
                 path to sweep — delete the line"
                    .into(),
            );
        }
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown key '{key}' (known: {})", known.join(", ")));
        }
    }
    Ok(())
}

fn parse_point(t: &Table) -> Result<PointSpec, String> {
    known_keys(t, POINT_KEYS)?;
    let matrix = match (t.get("matrix"), t.get("gen")) {
        (Some(m), None) => {
            let name = m.as_str().ok_or("matrix must be a string")?;
            if !ALL_NAMES.contains(&name) {
                return Err(format!(
                    "unknown matrix '{name}' (known: {})",
                    ALL_NAMES.join(", ")
                ));
            }
            let scale = match t.get("scale") {
                None => Scale::Small,
                Some(v) => {
                    let s = v.as_str().ok_or("scale must be a string")?;
                    Scale::from_name(s)
                        .ok_or_else(|| format!("unknown scale '{s}' (known: tiny, small, bench)"))?
                }
            };
            MatrixSource::Named {
                name: name.to_string(),
                scale,
            }
        }
        (None, Some(g)) => MatrixSource::Gen {
            spec: g.as_str().ok_or("gen must be a string")?.to_string(),
        },
        (Some(_), Some(_)) => return Err("give either matrix or gen, not both".into()),
        (None, None) => return Err("needs a matrix name or a gen spec".into()),
    };
    let usize_list = |key: &str, default: usize| -> Result<Vec<usize>, String> {
        match t.get(key) {
            None => Ok(vec![default]),
            Some(v) => {
                let vals: Option<Vec<usize>> = v.as_list().iter().map(Value::as_usize).collect();
                let vals =
                    vals.ok_or_else(|| format!("{key} must be a non-negative integer list"))?;
                if vals.is_empty() {
                    return Err(format!("{key} sweep is empty"));
                }
                Ok(vals)
            }
        }
    };
    let p = usize_list("p", 0)?;
    if p == vec![0] {
        return Err("needs a p sweep (total rank counts)".into());
    }
    let pz = usize_list("pz", 1)?;
    let lookahead = usize_list("lookahead", 8)?;
    let backend = match t.get("backend") {
        None => vec![Backend::Threaded],
        Some(v) => {
            let vals: Option<Vec<Backend>> = v
                .as_list()
                .iter()
                .map(|x| x.as_str().and_then(|s| s.parse().ok()))
                .collect();
            let vals = vals.ok_or("backend must be a list of 'threaded' | 'event'")?;
            if vals.is_empty() {
                return Err("backend sweep is empty".into());
            }
            vals
        }
    };
    let reps = match t.get("reps") {
        None => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or("reps must be a non-negative integer")?
                .max(1),
        ),
    };
    Ok(PointSpec {
        matrix,
        leaf: single_usize(t, "leaf", DEFAULT_PIN as usize)?,
        maxsup: single_usize(t, "maxsup", DEFAULT_PIN as usize)?,
        p,
        pz,
        lookahead,
        backend,
        reps,
    })
}

fn single_usize(t: &Table, key: &str, default: usize) -> Result<usize, String> {
    match t.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| format!("{key} must be a non-negative integer")),
    }
}

fn req_str(t: &Table, section: &str, key: &str) -> Result<String, String> {
    t.get(key)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("[{section}] needs a string '{key}'"))
}

fn opt_str(t: &Table, key: &str) -> Result<Option<String>, String> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("'{key}' must be a string")),
    }
}

fn opt_usize(t: &Table, section: &str, key: &str) -> Result<Option<usize>, String> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("[{section}] '{key}' must be a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
[campaign]
name = \"smoke\"
pr = \"pr8\"
reps = 3
workers = 2
baseline = \"results/BENCH_pr4.json\"

[tolerance]
wall = 0.5
sim = 0.02

[[point]]
matrix = \"k2d5pt\"
p = [16]
pz = [1, 4]
lookahead = [0, 8]

[[point]]
gen = \"grid3d:8\"
p = 8
pz = [2, 3]
";

    #[test]
    fn parses_and_expands_cross_product() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.pr_label, "pr8");
        assert_eq!(spec.reps, 3);
        assert_eq!(spec.baseline.as_deref(), Some("results/BENCH_pr4.json"));
        assert_eq!(spec.tolerance.sim, 0.02);
        let (jobs, skipped) = spec.expand();
        // point 1: 1 p x 2 pz x 2 lookahead = 4; point 2: pz=2 only (pz=3
        // is not a power of two) = 1.
        assert_eq!(jobs.len(), 5);
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].contains("pz=3"));
        assert!(jobs.iter().any(|j| j.pz == 4 && j.lookahead == 0));
        assert_eq!(
            jobs[4].matrix,
            MatrixSource::Gen {
                spec: "grid3d:8".into()
            }
        );
        assert_eq!(jobs[4].slug(), "grid3d8-p8-pz2");
    }

    #[test]
    fn defaults_fill_unswept_axes() {
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"d\"\n[[point]]\nmatrix = \"nlpkkt\"\np = 4\n",
        )
        .unwrap();
        let (jobs, skipped) = spec.expand();
        assert!(skipped.is_empty());
        assert_eq!(jobs.len(), 1);
        let j = &jobs[0];
        assert_eq!((j.pz, j.lookahead, j.leaf, j.maxsup), (1, 8, 32, 32));
        assert_eq!(j.reps, 1);
        assert_eq!(spec.pr_label, "d", "pr label defaults to the name");
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(
            CampaignSpec::parse("[campaign]\nname = \"x\"\n").is_err(),
            "no points"
        );
        assert!(
            CampaignSpec::parse("[campaign]\nname = \"x\"\n[[point]]\np = 4\n").is_err(),
            "no matrix"
        );
        assert!(
            CampaignSpec::parse(
                "[campaign]\nname = \"x\"\n[[point]]\nmatrix = \"k2d5pt\"\ngen = \"b:1\"\np = 4\n"
            )
            .is_err(),
            "both matrix and gen"
        );
        assert!(
            CampaignSpec::parse("[campaign]\nname = \"x\"\n[[point]]\nmatrix = \"k2d5pt\"\n")
                .is_err(),
            "no p sweep"
        );
        // A misspelt matrix or scale is a parse error naming the block and
        // the known values, not a panic when the job builds its matrix.
        for (line, want) in [
            (
                "matrix = \"k2d5ptt\"",
                format!("unknown matrix 'k2d5ptt' (known: {})", ALL_NAMES.join(", ")),
            ),
            (
                "matrix = \"k2d5pt\"\nscale = \"huge\"",
                "unknown scale 'huge'".into(),
            ),
        ] {
            let e = CampaignSpec::parse(&format!(
                "[campaign]\nname = \"x\"\n[[point]]\nmatrix = \"k2d5pt\"\np = 4\n[[point]]\np = 4\n{line}\n"
            ))
            .unwrap_err();
            assert!(e.starts_with("[[point]] #2") && e.contains(&want), "{e}");
        }
    }

    #[test]
    fn pins_name_the_job_and_a_repeated_configuration_is_one_job() {
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"x\"\n\
             [[point]]\nmatrix = \"k2d5pt\"\np = 8\npz = [2, 4]\nleaf = 8\nmaxsup = 8\n\
             [[point]]\nmatrix = \"k2d5pt\"\np = [8, 16]\npz = 2\nreps = 3\n\
             [[point]]\nmatrix = \"k2d5pt\"\np = 8\npz = 2\n",
        )
        .unwrap();
        let (jobs, _) = spec.expand();
        let slugs: Vec<String> = jobs.iter().map(Job::slug).collect();
        // the pins suffix the slug only off the 32/32 default; the third
        // block repeats the second's first configuration
        let want = [
            "k2d5pt-p8-pz2-leaf8-maxsup8",
            "k2d5pt-p8-pz4-leaf8-maxsup8",
            "k2d5pt-p8-pz2",
            "k2d5pt-p16-pz2",
        ];
        assert_eq!(slugs, want);
        assert_eq!(
            jobs[2].reps, 3,
            "the first block to list a job sets its reps"
        );
        let (k8, k32) = (jobs[0].key(4096), jobs[2].key(4096));
        assert!(
            !k8.matches(&k32),
            "the pins are part of the point's identity"
        );
        assert_eq!(k32.leaf, Some(DEFAULT_PIN));
    }

    #[test]
    fn unknown_keys_and_sections_are_errors_naming_the_key_and_block() {
        let with_point_key = |line: &str| {
            CampaignSpec::parse(&format!(
                "[campaign]\nname = \"x\"\n[[point]]\nmatrix = \"k2d5pt\"\np = 4\n{line}\n"
            ))
            .unwrap_err()
        };
        // A stale spec from before the Schur paths were folded: named, with
        // the reason, not ignored.
        let e = with_point_key("batched = [false, true]");
        assert!(
            e.contains("[[point]] #1") && e.contains("'batched' was removed"),
            "{e}"
        );
        // Typo'd axes used to shrink the sweep to its defaults in silence;
        // so would the `schedule` axis of a spec from before there was one
        // program order.
        for typo in [
            "bached = [true]",
            "backends = [\"event\"]",
            "Pz = [1, 4]",
            "schedule = [\"level\"]",
        ] {
            let e = with_point_key(typo);
            let key = typo.split(' ').next().unwrap();
            assert!(
                e.contains("[[point]] #1") && e.contains(&format!("unknown key '{key}'")),
                "{e}"
            );
        }
        let e = CampaignSpec::parse(
            "[campaign]\nname = \"x\"\nbaselin = \"b.json\"\n[[point]]\nmatrix = \"k2d5pt\"\np = 4\n",
        )
        .unwrap_err();
        assert!(
            e.contains("[campaign]") && e.contains("unknown key 'baselin'"),
            "{e}"
        );
        let e = CampaignSpec::parse(
            "[campaign]\nname = \"x\"\n[tolerance]\nsimm = 0.1\n[[point]]\nmatrix = \"k2d5pt\"\np = 4\n",
        )
        .unwrap_err();
        assert!(
            e.contains("[tolerance]") && e.contains("unknown key 'simm'"),
            "{e}"
        );
        // A misspelt block header would drop the whole block.
        let e = CampaignSpec::parse(
            "[campaign]\nname = \"x\"\n[[point]]\nmatrix = \"k2d5pt\"\np = 4\n[[points]]\nmatrix = \"b\"\np = 4\n",
        )
        .unwrap_err();
        assert!(e.contains("unknown section [points]"), "{e}");
    }

    #[test]
    fn every_committed_campaign_parses() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../campaigns");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).expect("campaigns/ exists") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "toml") {
                committed(path.file_name().unwrap().to_str().unwrap());
                seen += 1;
            }
        }
        assert!(
            seen >= 3,
            "expected smoke.toml, scaling.toml and paper.toml"
        );
    }

    /// A committed campaign's spec and jobs; none may be skipped.
    fn committed(file: &str) -> (CampaignSpec, Vec<Job>) {
        let path = format!("{}/../../campaigns/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = CampaignSpec::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let (jobs, skipped) = spec.expand();
        assert!(skipped.is_empty(), "{path}: {skipped:?}");
        (spec, jobs)
    }

    #[test]
    fn backend_sweeps_expand_and_suffix_the_slug() {
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"b\"\nreps = 3\n\
             [[point]]\nmatrix = \"k2d5pt\"\np = 4\nbackend = [\"threaded\", \"event\"]\nreps = 1\n",
        )
        .unwrap();
        let (jobs, _) = spec.expand();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].backend, Backend::Threaded);
        assert_eq!(jobs[1].backend, Backend::Event);
        assert!(!jobs[0].slug().contains("event"));
        assert!(jobs[1].slug().ends_with("-event"));
        // the per-point override beats the campaign-wide best-of-N
        assert_eq!((jobs[0].reps, jobs[1].reps), (1, 1));
        // unswept points stay threaded at the campaign reps
        let d = CampaignSpec::parse(
            "[campaign]\nname = \"d\"\nreps = 3\n[[point]]\nmatrix = \"k2d5pt\"\np = 4\n",
        )
        .unwrap();
        let (jobs, _) = d.expand();
        assert_eq!(jobs[0].backend, Backend::Threaded);
        assert_eq!(jobs[0].reps, 3);
        assert!(
            CampaignSpec::parse(
                "[campaign]\nname = \"x\"\n[[point]]\nmatrix = \"k2d5pt\"\np = 4\nbackend = [\"fiber\"]\n"
            )
            .is_err(),
            "unknown backend names must be rejected at parse time"
        );
    }

    #[test]
    fn the_committed_campaigns_keep_what_ci_reads() {
        // CI's smoke gate: k2d5pt sweeps both backends, and the
        // paper-scale event point is present, single-rep.
        let (_, jobs) = committed("smoke.toml");
        assert!(jobs
            .iter()
            .any(|j| j.matrix.label() == "k2d5pt" && j.backend == Backend::Event));
        let paper = jobs.iter().find(|j| j.p == 4096).expect("the P=4096 point");
        assert_eq!((paper.backend, paper.reps), (Backend::Event, 1));
        assert_eq!(paper.slug(), "grid2d64-p4096-pz1-event");
        // CI's drift check against results/BENCH_pr30.json: 4 P values x 2
        // Pz, all event-backend, the paper-scale replicated point included.
        let (spec, jobs) = committed("scaling.toml");
        assert_eq!((spec.pr_label.as_str(), jobs.len()), ("pr30", 8));
        assert!(jobs.iter().all(|j| j.backend == Backend::Event));
        assert!(jobs.iter().any(|j| j.p == 4096 && j.pz == 4));
        // CI renders the paper's figures from 173 jobs, where the figure
        // binaries it replaced ran 379 factorizations; Fig. 9 reads the
        // traced critical-path split.
        let (spec, jobs) = committed("paper.toml");
        assert!(spec.trace);
        assert_eq!(jobs.len(), 173);
        let mut slugs: Vec<String> = jobs.iter().map(Job::slug).collect();
        slugs.sort();
        slugs.dedup();
        assert_eq!(slugs.len(), jobs.len(), "one job directory per job");
    }
}
