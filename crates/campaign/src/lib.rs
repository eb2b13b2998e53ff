#![forbid(unsafe_code)]

//! Perf-campaign runner: declarative sweeps, per-job artifacts, and
//! bench-regression gates.
//!
//! A campaign is a TOML spec (see `campaigns/*.toml` and docs/campaign.md)
//! that sweeps generator/matrix × `n` × `P` × `Pz` × options
//! (`lookahead`, `backend`). The runner expands the sweep into
//! jobs, factors each one best-of-N, writes per-job artifact directories
//! (metrics / memprof / commvol / hostprof — the latter for
//! threaded-backend jobs only), and emits:
//!
//! - a `BENCH_<pr>.json` snapshot (schema `salu-bench-snapshot/3`) that
//!   extends the `results/BENCH_*.json` trajectory, and
//! - a markdown run report, plus — when a baseline is given — a
//!   regression report with per-metric verdicts
//!   (improved / unchanged / regressed / incomparable).
//!
//! The comparator matches points by
//! `(matrix, n, p, pz, lookahead, backend, leaf, maxsup)`; deterministic
//! simulated metrics gate under a tight tolerance band, host wall-clock
//! under a loose, by default non-gating one. [`figures::render`] prints the
//! paper's tables and figures from the output of `campaigns/paper.toml`.
//! The `salu-campaign` binary fronts all of this for the CLI and CI.

pub mod compare;
pub mod figures;
pub mod report;
pub mod runner;
pub mod snapshot;
pub mod spec;
pub mod toml;

pub use compare::{compare, Comparison, MetricVerdict, PointComparison, Tolerance, Verdict};
pub use report::{compare_markdown, run_markdown};
pub use runner::{run_campaign, CampaignOutcome};
pub use snapshot::{BenchPoint, PointKey, Snapshot, DEFAULT_LOOKAHEAD, METRICS};
pub use spec::{CampaignSpec, Job, MatrixSource, PointSpec};
