#![forbid(unsafe_code)]

//! # salu — a communication-avoiding 3D sparse LU factorization
//!
//! A full-stack Rust reproduction of *"A Communication-Avoiding 3D LU
//! Factorization Algorithm for Sparse Matrices"* (Sao, Li, Vuduc;
//! IPDPS 2018) — the 3D algorithm that later shipped in SuperLU_DIST.
//!
//! The stack, bottom to top:
//!
//! | crate | role |
//! |---|---|
//! | [`sparsemat`] | sparse formats, stencil/KKT generators, Matrix Market I/O |
//! | [`ordering`] | nested dissection (geometric + multilevel), separator trees |
//! | [`symbolic`] | supernodes, block fill, elimination trees, cost prediction |
//! | [`densela`] | dense GEMM/TRSM/GETRF kernels with flop metering |
//! | [`simgrid`] | simulated distributed machine: ranks, collectives, traffic counters, α-β clocks |
//! | [`slu2d`] | the SuperLU_DIST-style 2D baseline factorization + solve |
//! | [`lu3d`] | **the paper's contribution**: tree-forest partitioning, replicated ancestors, Algorithm 1 |
//! | [`costmodel`] | the closed-form cost models of the paper's Table II |
//!
//! ## Quickstart
//!
//! ```
//! use salu::prelude::*;
//!
//! // A 2D Poisson problem (the paper's planar model matrix, scaled down).
//! let a = sparsemat::matgen::grid2d_5pt(16, 16, 0.1, 0);
//! let x_true: Vec<f64> = (0..a.nrows).map(|i| (i % 5) as f64).collect();
//! let b = a.matvec(&x_true);
//!
//! // Order + analyze once, factor with a 1x2x2 process grid (Pz = 2).
//! let prep = Prepared::new(
//!     a,
//!     Geometry::Grid2d { nx: 16, ny: 16 },
//!     8,  // nested-dissection leaf size
//!     8,  // max supernode width
//! );
//! let cfg = SolverConfig { pr: 1, pc: 2, pz: 2, ..Default::default() };
//! let out = factor_and_solve(&prep, &cfg, Some(b.clone()));
//!
//! // Communication statistics, the quantities the paper optimizes:
//! println!("W_fact = {} words, W_red = {} words", out.w_fact(), out.w_red());
//! let x = out.x.unwrap();
//! assert!(prep.a.residual_inf(&x, &b) < 1e-8);
//! ```

pub mod sample;

pub use commplan;
pub use costmodel;
pub use densela;
pub use lu3d;
pub use ordering;
pub use simgrid;
pub use slu2d;
pub use sparsemat;
pub use symbolic;

/// The names most programs need.
pub mod prelude {
    pub use costmodel::{Alg, NonPlanarModel, PlanarModel};
    pub use lu3d::solver::{
        factor_and_solve, factor_only, try_factor_and_solve, try_factor_only, Output3d,
        SolverConfig, SolverError,
    };
    pub use lu3d::EtreeForest;
    pub use simgrid::{Backend, FaultPlan, Machine, TimeModel};
    pub use slu2d::driver::Prepared;
    pub use slu2d::factor2d::FactorOpts;
    pub use sparsemat::testmats::{test_matrix, test_suite, Geometry, MatrixClass, Scale};
    pub use sparsemat::{Csr, Perm};
}
