#![forbid(unsafe_code)]

//! The paper's contribution: a communication-avoiding 3D sparse LU
//! factorization (Sao, Li, Vuduc; IPDPS 2018).
//!
//! The algorithm arranges `P = Pxy x Pz` processes as `Pz` stacked 2D grids
//! and partitions the elimination tree into an *elimination tree-forest*
//! `E_f` (§III-C): `Pz` independent subtree-forests at the deepest level
//! plus progressively shared ancestor forests above them. Each 2D grid
//! factors its own forest while accumulating Schur-complement updates into
//! *replicated copies* of the ancestor blocks; after each level, pairs of
//! grids sum their ancestor copies along the z-axis (*ancestor reduction*)
//! and the surviving half proceeds (Algorithm 1).
//!
//! Module map:
//! - [`forest`]: the greedy inter-grid load-balancing partition of the
//!   separator tree into `E_f` (paper Fig. 8), plus the replication/keep
//!   queries that decide which blocks each grid allocates and initializes.
//! - [`factor3d`]: Algorithm 1 itself — per-level 2D factorization (via
//!   [`slu2d::factor_nodes`]) and the pairwise ancestor reduction.
//! - [`solve3d`]: the triangular solve on the 3D factor layout — per-forest
//!   sweeps with accumulator reductions and solution broadcasts along z.
//! - [`solver`]: the end-to-end API — order, analyze, partition, factor,
//!   solve — plus the measurement output every experiment harness consumes.
//!
//! ```
//! use lu3d::solver::{SolverConfig, factor_and_solve};
//! use slu2d::driver::Prepared;
//! use sparsemat::matgen::grid2d_5pt;
//! use sparsemat::testmats::Geometry;
//!
//! let a = grid2d_5pt(12, 12, 0.1, 0);
//! let x_true: Vec<f64> = (0..a.nrows).map(|i| i as f64 * 0.1).collect();
//! let b = a.matvec(&x_true);
//! let prep = Prepared::new(a, Geometry::Grid2d { nx: 12, ny: 12 }, 8, 8);
//! let cfg = SolverConfig { pr: 1, pc: 2, pz: 2, ..Default::default() };
//! let out = factor_and_solve(&prep, &cfg, Some(b.clone()));
//! let x = out.x.unwrap();
//! let resid = prep.a.residual_inf(&x, &b);
//! assert!(resid < 1e-8);
//! ```

pub mod factor3d;
pub mod forest;
pub mod solve3d;
pub mod solver;
pub mod symbolic3d;

pub use factor3d::factor_3d;
pub use forest::EtreeForest;
pub use solver::{
    factor_and_solve, factor_only, try_factor_and_solve, try_factor_only, Output3d, SolverConfig,
    SolverError,
};
pub use symbolic3d::distributed_symbolic;
