#![forbid(unsafe_code)]

//! Observability for the simulated 3D LU stack: hierarchical span tracing,
//! a cross-crate metrics registry, Chrome trace export, and critical-path
//! attribution.
//!
//! This crate is a leaf — it knows nothing about the simulator or the
//! factorization. Each `simgrid` rank bundles one of each instrument here
//! behind a hook per send, receive, compute charge and wait, so every
//! quantity is recorded once: the ledgers count, the [`Recorder`] keeps
//! the timeline (spans opened by algorithm layers via `Rank` methods,
//! activities charged by the machine itself), and the Chrome counter
//! tracks are projections of what those recorded, not a third copy.
//!
//! # The pieces
//!
//! - [`span`]: nested spans (`level → phase → supernode → collective`) over
//!   simulated time, plus the machine-level activity stream.
//! - [`metrics`]: named counters, mergeable across ranks and dumpable as
//!   JSON.
//! - [`memprof`]: the tagged allocation ledger — per-rank high-water
//!   marks with class+tree-level attribution of the peak instant.
//! - [`commvol`]: the wire-volume ledger — per-rank sent/received words
//!   keyed by `(phase, class, tree level, grid axis)` and by edge, with
//!   padding-waste accounting per class.
//! - [`hostprof`]: the host-time profiler — scoped RAII wall-clock timers
//!   over a fixed phase taxonomy, with self-time attribution that sums to
//!   100% of the measured wall and a machine-wide folded-stack export for
//!   flamegraphs.
//! - [`chrome`]: trace-event JSON for <https://ui.perfetto.dev>, with
//!   send→recv flow arrows, `mem` / `wire` / `host` counter tracks from
//!   one builder, and a structural validator.
//! - [`critpath`]: backward walk over the send→recv dependency graph
//!   yielding the makespan-determining chain and per-phase attribution
//!   that sums to 100% of the makespan.
//! - [`json`]: the dependency-free JSON value type the exporters use, with
//!   one path getter ([`Json::at`]) for the documents they write.
//!
//! # Example
//!
//! ```
//! use obs::{Recorder, SpanCat, ActivityKind, CriticalPath, chrome_trace};
//!
//! let mut rec = Recorder::new(0);
//! let phase = rec.enter(SpanCat::Phase, "fact", 0.0);
//! rec.activity(ActivityKind::Compute, 0.0, 1.0, None, 0, None);
//! rec.exit(phase, 1.0);
//! let obs = rec.finish(1.0);
//!
//! let path = CriticalPath::analyze(std::slice::from_ref(&obs));
//! assert!((path.attribution_fractions()["fact"] - 1.0).abs() < 1e-12);
//! let doc = chrome_trace(&[obs]);
//! assert!(doc.get("traceEvents").is_some());
//! ```

pub mod chrome;
pub mod commvol;
pub mod critpath;
pub mod hostprof;
pub mod json;
pub mod memprof;
pub mod metrics;
pub mod span;

pub use chrome::{chrome_trace, validate_chrome_trace, ChromeTraceStats};
pub use commvol::{
    commvol_json, CommClass, CommEntry, CommKey, CommLedger, CommReport, EdgeVolume, GridAxis,
};
pub use critpath::{CritSegment, CriticalPath, SegKind};
pub use hostprof::{hostprof_json, HostEvent, HostPhase, HostProf, HostReport, HostScope};
pub use json::Json;
pub use memprof::{
    max_peak_bytes, memprof_json, MemAttr, MemClass, MemEvent, MemLedger, MemReport,
};
pub use metrics::MetricsRegistry;
pub use span::{Activity, ActivityKind, MsgInfo, RankObs, Recorder, SpanCat, SpanId, SpanRecord};

/// The largest of the per-rank `values` (in world-rank order) and the
/// lowest rank holding it; `(0, 0)` for no ranks. Each per-rank maximum the
/// run document states carries this rank, so a reader can open that
/// rank's track in the trace.
pub fn rank_max<T: PartialOrd + Default>(values: impl IntoIterator<Item = T>) -> (T, usize) {
    let mut max = (T::default(), 0);
    for (rank, v) in values.into_iter().enumerate() {
        if v > max.0 {
            max = (v, rank);
        }
    }
    max
}
