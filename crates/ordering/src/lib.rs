#![forbid(unsafe_code)]

//! Fill-reducing ordering substrate: the METIS substitute.
//!
//! The paper orders matrices with METIS nested dissection before
//! factorization (§II-B). This crate provides two nested-dissection engines
//! and the separator-tree output the symbolic phase consumes:
//!
//! - [`geometric`]: exact coordinate-plane separators for regular 2D/3D
//!   grids — these reproduce the separator sizes (`sqrt(n/2^i)`, `n^(2/3)`)
//!   that the paper's analysis in §IV assumes, so measured results can be
//!   compared against the closed-form models.
//! - [`multilevel`]: a general-graph multilevel bisection (heavy-edge
//!   matching coarsening, graph-growing initial bisection, Fiduccia-
//!   Mattheyses refinement) for matrices without usable geometry (the KKT
//!   proxy, Matrix Market inputs).
//!
//! Both produce a [`septree::SepTree`]: the binary tree of separators and
//! leaf subdomains, in postorder, together with the nested-dissection
//! permutation. The elimination tree of the reordered matrix is exactly
//! this tree (paper Fig. 2c), which is what the 3D algorithm partitions
//! across process grids.

pub mod bisect;
pub mod geometric;
pub mod graph;
pub mod multilevel;
pub mod nd;
pub mod refine;
pub mod septree;

pub use graph::Graph;
pub use nd::{nested_dissection, NdOptions};
pub use septree::{SepNode, SepTree};
