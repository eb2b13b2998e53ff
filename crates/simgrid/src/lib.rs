// Indexing loops are the clearer idiom in numeric kernel code.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]

//! Simulated distributed-memory machine: the MPI substrate for the sparse
//! LU reproduction.
//!
//! The paper runs on a Cray XC30 with MPI. This crate replaces that with a
//! *simulated machine* that preserves every quantity the paper's evaluation
//! measures:
//!
//! - **Ranks are tasks** executing the same SPMD closure; point-to-point
//!   messages travel over unbounded channels (eager-mode MPI semantics:
//!   sends never block, receives block until a matching message arrives).
//!   Two interchangeable [`backend`]s drive them: free-running OS threads
//!   (the default) or a cooperative discrete-event scheduler that runs
//!   paper-scale rank counts — `P = 4096` and beyond — in one process.
//!   Simulated results are bitwise identical either way.
//! - **Collectives are built on point-to-point** (binomial-tree broadcast
//!   and reduce, dissemination barrier), so message *counts* and *volumes*
//!   match what a real MPI implementation would transfer.
//! - **A per-rank wire ledger** (`obs::commvol`), keyed by a user-set phase
//!   label, gives the exact `W_fact` / `W_red` split of the paper's Fig. 10.
//! - **Per-rank simulated clocks** follow an α-β (latency + inverse
//!   bandwidth) network model plus a flop-rate compute model. A receive
//!   advances the receiver's clock to the message arrival time, so the final
//!   clock of the last rank is the simulated *critical-path* time — the
//!   quantity behind Fig. 9's `T_scu`/`T_comm` split and Fig. 12's FLOP/s.
//!
//! # SPMD discipline
//!
//! Communicator creation ([`Rank::subset`]) is collective and deterministic:
//! all ranks must create communicators in the same order (they derive their
//! context ids from a per-rank counter). This mirrors `MPI_Comm_create`.
//!
//! ```
//! use simgrid::{Machine, Payload, TimeModel};
//!
//! let machine = Machine::new(4, TimeModel::edison_like());
//! let out = machine.run(|rank| {
//!     let world = rank.world();
//!     // ring: everyone sends its id to the right
//!     let right = (rank.id() + 1) % 4;
//!     let left = (rank.id() + 3) % 4;
//!     rank.send(&world, right, 7, Payload::F64s(vec![rank.id() as f64]));
//!     let got = rank.recv(&world, left, 7).into_f64s();
//!     got[0] as usize
//! });
//! assert_eq!(out.results, vec![3, 0, 1, 2]);
//! ```

pub mod backend;
pub mod coll;
pub mod comm;
pub mod faultlab;
pub mod machine;
pub mod payload;
pub mod rank;
pub mod stats;
pub mod tags;
pub mod timemodel;
pub mod topology;
pub mod trace;

pub use backend::{Backend, SchedStats};
pub use comm::Comm;
pub use faultlab::{
    EdgeFilter, FailKind, FailureBoard, FaultAction, FaultPlan, FaultRule, LinkRule,
    MachineFailure, RankFailure, RecvError, RetryPolicy, StallRule, UnreceivedMsg,
};
pub use machine::{Machine, RunResult};
pub use payload::{KindMismatch, Payload, PayloadKind};
pub use rank::Rank;
pub use stats::{merged_metrics, run_document, RankReport, TrafficSummary};
pub use timemodel::TimeModel;
pub use topology::{Grid2d, Grid3d};
pub use trace::{render_gantt, validate_trace};
// Observability substrate: spans, activities, metrics, Chrome export,
// critical-path analysis (see the `obs` crate).
pub use obs;
pub use obs::{
    ActivityKind, CommClass, CommLedger, CriticalPath, GridAxis, HostPhase, HostReport, HostScope,
    Json, MemClass, MemLedger, MemReport, MetricsRegistry, RankObs, SpanCat, SpanId,
};
// The wait-for graph embedded in every run and the offline trace linter.
pub use commcheck;
