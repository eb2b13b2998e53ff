#![forbid(unsafe_code)]

//! Campaign runner: declarative sweeps of the simulated machine, per-job
//! artifacts, and an exact gate on the simulated columns.
//!
//! A campaign is a TOML spec (see `campaigns/*.toml` and docs/campaign.md)
//! that sweeps generator/matrix × `n` × `P` × `Pz` × options
//! (`lookahead`, `backend`). The runner expands the sweep into
//! jobs, factors each one once, writes per-job artifact directories
//! (the run document; every job runs unprofiled, so its `hostprof` is
//! `null`), and emits:
//!
//! - a `BENCH_<pr>.json` snapshot (schema `salu-bench-snapshot/3`) that
//!   extends the `results/BENCH_*.json` trajectory, and
//! - a markdown run report, plus — when a baseline is given — a
//!   regression report that marks each simulated column equal or moved.
//!
//! The comparator matches points by
//! `(matrix, n, p, pz, lookahead, backend, leaf, maxsup)`. Every simulated
//! column is deterministic, so any move, up or down, fails the gate; the
//! host wall clock is recorded and never compared. [`figures::render`]
//! prints the paper's tables and figures from the output of
//! `campaigns/paper.toml`. The `salu-campaign` binary fronts all of this
//! for the CLI and CI.

pub mod compare;
pub mod figures;
pub mod report;
pub mod runner;
pub mod snapshot;
pub mod spec;
pub mod toml;

pub use compare::{compare, Comparison, MetricVerdict, PointComparison};
pub use report::{compare_markdown, run_markdown};
pub use runner::{run_campaign, CampaignOutcome};
pub use snapshot::{BenchPoint, PointKey, Snapshot, DEFAULT_LOOKAHEAD, METRICS};
pub use spec::{CampaignSpec, Job, MatrixSource, PointSpec};
