// Indexing loops are the clearer idiom in numeric kernel code.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]

//! Baseline 2D right-looking supernodal sparse LU — the SuperLU_DIST model
//! (paper §II-E) rebuilt on the simulated machine.
//!
//! The matrix, after nested-dissection reordering and symbolic analysis, is
//! a block-sparse matrix of supernodal panels distributed block-cyclically
//! over a `pr x pc` process grid: block `(I, J)` lives on process
//! `(I mod pr, J mod pc)`. Factorization of each supernode `k` runs the
//! paper's four panel kernels followed by the Schur-complement update:
//!
//! 1. *diagonal factorization* — the owner of `A_kk` factors it in place
//!    (static pivoting);
//! 2. *diagonal broadcast* — `L_kk`/`U_kk` go across the owner's process
//!    row and column;
//! 3. *panel solve* — column owners compute `L(I,k) = A(I,k) U_kk^{-1}`,
//!    row owners compute `U(k,J) = L_kk^{-1} A(k,J)`;
//! 4. *panel broadcast* — each owner packs its panel blocks into one
//!    message and broadcasts along its row (L) or column (U);
//! 5. *Schur update* — every process updates its owned trailing blocks
//!    `A(I,J) -= L(I,k) U(k,J)`.
//!
//! [`factor2d::factor_nodes`] drives these steps over an arbitrary
//! ascending supernode list — the entry point the 3D algorithm calls per
//! tree-forest level (`dSparseLU2D(A, nList)` in Algorithm 1) — with an
//! optional elimination-tree lookahead window (§II-F).

pub mod condest;
pub mod driver;
pub mod factor2d;
pub mod kernels;
pub mod seq;
pub mod solve2d;
pub mod store;

pub use condest::{condest_1, inverse_norm1_estimate, seq_solve_transpose};
pub use factor2d::{factor_nodes, FactorEnv, FactorOpts};
pub use seq::{seq_factor, seq_solve, seq_solve_multi};
pub use store::BlockStore;
