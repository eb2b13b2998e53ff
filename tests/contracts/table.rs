//! The shapes the root suites run. Pins default to `(16, 24)`, lookahead
//! to 8, the time model to `edison_like`, the backend of single-run
//! contracts to `threaded`.

use super::Gen::{Fn, Grid2d, Grid3d, Kkt, Suite};
use super::Rhs::{Truth, B};
use super::{Gen, Shape, CHAOS};
use salu::prelude::*;
use salu::sparsemat::Coo;
use Backend::Event;

/// Factor-only runs across generators, layer shapes and options
/// (`tests/backends.rs`); [`BATCHED`] crosses the Schur batching
/// threshold.
pub const BACKENDS: [Shape; 7] = [
    // No Z replication.
    Shape::new("grid2d:16 2x2x1", Grid2d(16, 1), [2, 2, 1]),
    Shape::new("grid2d:16 2x2x4 lookahead=0", Grid2d(16, 1), [2, 2, 4]).lookahead(0),
    Shape::new("grid2d:16 4x1x2 (tall layer)", Grid2d(16, 1), [4, 1, 2]),
    Shape::new("grid2d:20 2x2x2 chaos", Grid2d(20, 1), [2, 2, 2]).faults(Some(CHAOS)),
    Shape::new("grid3d:6 2x2x2", Grid3d(6, 1), [2, 2, 2]),
    BATCHED,
    Shape::new("kkt:4 2x2x2 lookahead=4", Kkt(4, 1), [2, 2, 2]).lookahead(4),
];
pub const BATCHED: Shape =
    Shape::new("grid3d:14 2x2x2 leaf=maxsup=32", Grid3d(14, 1), [2, 2, 2]).pins((32, 32));

/// One fixed P = 16 program: KKT factored on 2x2x4, solved, refined once.
pub const P16: Shape = Shape::new("kkt:4 2x2x4 refine 1", Kkt(4, 1), [2, 2, 4])
    .refine(1)
    .rhs(B(|i| ((i * 7 % 13) as f64) - 6.0));

/// Paper scale in one process: P = 4096 on the event backend.
pub const P4096: Shape = Shape::new("grid2d:64 64x64x1", Grid2d(64, 1), [64, 64, 1])
    .rhs(Truth(|_| 1.0))
    .backend(Event);

/// Traced factor+solve runs (`tests/determinism.rs`): the `kkt:6` layers
/// prune panel rosters, and its two refinement sweeps put the solve's
/// roster reductions and halo exchange in the trace.
pub const DETERMINISM: [Shape; 2] = [
    traced_solve("grid2d:12 2x1x2", Grid2d(12, 5), [2, 1, 2], 8, 1),
    traced_solve("kkt:6 4x4x2", Kkt(6, 1), [4, 4, 2], 12, 2),
];
const fn traced_solve(
    name: &'static str,
    m: Gen,
    grid: [usize; 3],
    maxsup: usize,
    refine: usize,
) -> Shape {
    let s = Shape::new(name, m, grid).pins((8, maxsup)).refine(refine);
    s.rhs(Truth(|i| ((i % 9) as f64) - 4.0)).traced(true)
}

/// The solve in waves over rosters (`tests/solve_waves.rs`), two
/// refinement sweeps each.
pub const SOLVES: [Shape; 7] = [
    wave(Shape::new("grid2d:24 2x2x4", Grid2d(24, 1), [2, 2, 4])),
    wave(Shape::new("grid3d:10 1x3x2", Grid3d(10, 2), [1, 3, 2])),
    wave(Shape::new("kkt:6 3x5x2", Kkt(6, 3), [3, 5, 2])),
    // One leaf holding a path graph, one column per supernode: every
    // supernode waits for the one before it.
    wave(Shape::new("tridiagonal chain 2x2x1", Fn(chain), [2, 2, 1])).pins((40, 1)),
    // Layers wide enough that most rows and columns hold no block of a
    // given supernode: the rosters must prune.
    wave(Shape::new("kkt:6 4x4x2", Kkt(6, 1), [4, 4, 2])).pins((8, 12)),
    wave(Shape::new("grid2d:24 1x8x1", Grid2d(24, 6), [1, 8, 1])),
    wave(Shape::new("grid2d:14 3x2x2", Grid2d(14, 5), [3, 2, 2])),
];
const fn wave(s: Shape) -> Shape {
    let s = s.pins((8, 8)).refine(2);
    s.rhs(B(|i| ((i * 7 % 23) as f64) - 11.0))
}
fn chain() -> (Csr, Geometry) {
    let a = salu::sparsemat::matgen::random_band(40, 1, 1.0, 4);
    (a, Geometry::General)
}

/// A pinned drop/delay/dup plan against the full solver, with recovery
/// (`tests/chaos.rs`): three solves, so recovered duplicates and
/// retransmits cross the solve's batched collectives.
pub const CHAOS_SOLVE: Shape = Shape::new("grid2d:20 2x2x4 chaos", Grid2d(20, 5), [2, 2, 4])
    .pins((8, 8))
    .refine(2)
    .rhs(Truth(|i| ((i % 9) as f64) - 4.0))
    .faults(Some(CHAOS));

/// Plan == ledger (`tests/commplan_check.rs`): traced factor-only runs.
pub const PLAN_SMALL_3D: Shape =
    Shape::new("grid2d:16 2x2x2", Grid2d(16, 1), [2, 2, 2]).traced(true);
/// The conformance configuration, the one `tests/cli.rs` runs through
/// `salu --plan-check`.
pub const PLAN_CONFORMANCE: Shape =
    Shape::new("grid2d:64 2x2x4", Grid2d(64, 1), [2, 2, 4]).traced(true);
/// No Z replication, a Z-only line, and one wide process row whose panel
/// broadcasts reach the columns of their rosters only.
pub const PLAN_DEGENERATE: [Shape; 3] = [
    BACKENDS[0].traced(true),
    Shape::new("grid2d:16 1x1x2", Grid2d(16, 1), [1, 1, 2]).traced(true),
    Shape::new("grid2d:24 1x16x1", Grid2d(24, 1), [1, 16, 1]).traced(true),
];
/// No lookahead changes the local schedule, not the wire program.
pub const PLAN_ZERO_LOOKAHEAD: Shape =
    Shape::new("grid2d:16 2x1x2 lookahead=0", Grid2d(16, 1), [2, 1, 2])
        .lookahead(0)
        .traced(true);
/// 3D Poisson and KKT; on the square 4x4 layer most panels reach a part of
/// each row and column.
pub const PLAN_OTHER: [Shape; 3] = [
    BACKENDS[4].traced(true),
    BACKENDS[6].traced(true),
    Shape::new("kkt:6 4x4x2", Kkt(6, 1), [4, 4, 2]).traced(true),
];
/// A recovered chaos run: retransmits never leak into the ledger the plan
/// predicts.
pub const PLAN_FAULTS: Shape =
    Shape::new("grid2d:24 2x2x4 chaos", Grid2d(24, 1), [2, 2, 4]).faults(Some(CHAOS));

/// Host-profiled runs (`tests/hostprof.rs`).
pub const HOST: Shape = Shape::new("grid2d:16 2x2x2", Grid2d(16, 3), [2, 2, 2])
    .pins((8, 8))
    .rhs(Truth(|i| (i % 7) as f64));
pub const HOST_EVENT: Shape = Shape::new("grid2d:24 2x2x4", Grid2d(24, 3), [2, 2, 4])
    .pins((8, 8))
    .rhs(Truth(|_| 1.0))
    .backend(Event);

/// Traced runs of `tests/observability.rs` on `1 x 2 x pz`.
pub const fn traced_12(pz: usize) -> Shape {
    Shape::new("grid2d:12 1x2xPz", Grid2d(12, 3), [1, 2, pz])
        .pins((8, 8))
        .rhs(Truth(|i| (i % 7) as f64))
        .traced(true)
}
pub const FACTOR_ONLY_TRACED: Shape = Shape::new("grid2d:12 1x2x2", Grid2d(12, 3), [1, 2, 2])
    .pins((8, 8))
    .traced(true);
/// A profiled P = 256 run whose account must stay small.
pub const RUN_DOC: Shape = Shape::new("grid2d:32 8x8x4", Grid2d(32, 3), [8, 8, 4])
    .pins((8, 8))
    .rhs(Truth(|_| 1.0))
    .backend(Event);
pub const fn ancestors(pz: usize) -> Shape {
    Shape::new("grid2d:24 1x2xPz", Grid2d(24, 3), [1, 2, pz]).pins((8, 8))
}

/// A suite matrix factored on `p` ranks in `pz` layers
/// (`tests/comm_invariants.rs`), pins `(16, 16)`.
pub const fn suite(name: &'static str, scale: Scale, p: usize, pz: usize) -> Shape {
    let pxy = p / pz;
    let (pr, pc) = if pxy >= 4 { (2, pxy / 2) } else { (1, pxy) };
    Shape::new(name, Suite(name, scale), [pr, pc, pz]).pins((16, 16))
}

/// Factor + solve of a suite matrix at `pr x pc x pz`
/// (`tests/end_to_end.rs`).
pub const fn solved(name: &'static str, grid: [usize; 3]) -> Shape {
    Shape::new(name, Suite(name, Scale::Tiny), grid)
        .pins((16, 16))
        .rhs(Truth(|i| ((i * 5 % 17) as f64) - 8.0))
        .zero_time(true)
}
/// A fully dense matrix: nested dissection finds no separator, the tree
/// collapses, and the supernodal machinery is a distributed dense LU
/// through the panel-chain path big separators take too.
pub const DENSE: Shape = Shape::new("dense 48", Fn(dense), [2, 2, 1])
    .pins((8, 8))
    .rhs(Truth(|i| (i as f64) * 0.5 - 10.0))
    .zero_time(true);
fn dense() -> (Csr, Geometry) {
    let n = 48;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        for j in 0..n {
            let off = (((i * 31 + j * 17) % 13) as f64) / 13.0 - 0.4;
            coo.push(i, j, if i == j { n as f64 } else { off });
        }
    }
    (coo.to_csr(), Geometry::General)
}
/// `ecology` written to Matrix Market and read back, ordered as a general
/// graph.
pub const MTX_ROUNDTRIP: Shape = Shape {
    name: "ecology through .mtx",
    matrix: Fn(ecology_roundtrip),
    ..solved("ecology", [2, 2, 2])
};
fn ecology_roundtrip() -> (Csr, Geometry) {
    let tm = test_matrix("ecology", Scale::Tiny);
    let mut buf = Vec::new();
    salu::sparsemat::io::write_matrix_market(&mut buf, &tm.matrix).unwrap();
    let a = salu::sparsemat::io::read_matrix_market(&buf[..]).unwrap();
    assert_eq!(a, tm.matrix);
    (a, Geometry::General)
}

/// Edge cases (`tests/failure_injection.rs`), on the zero time model.
pub const fn edge(name: &'static str, matrix: fn() -> (Csr, Geometry), grid: [usize; 3]) -> Shape {
    Shape::new(name, Fn(matrix), grid).zero_time(true)
}
/// A saddle-point system with an exactly zero (2,2) block: zero pivots
/// without row pivoting.
fn zero_pivots(m: usize) -> (Csr, Geometry) {
    let mut coo = Coo::new(2 * m, 2 * m);
    for i in 0..m {
        coo.push(i, i, 2.0);
        if i + 1 < m {
            coo.push(i, i + 1, -0.5);
            coo.push(i + 1, i, -0.5);
        }
        coo.push(m + i, i, 1.0);
        coo.push(i, m + i, 1.0);
    }
    (coo.to_csr(), Geometry::General)
}
pub const ZERO_PIVOTS: Shape = edge("zero pivots, m = 12", || zero_pivots(12), [1, 2, 2])
    .pins((6, 6))
    .pivot(Some(1e-8))
    .rhs(Truth(|i| ((i % 4) as f64) - 1.5));
pub const REFINED: Shape = edge("zero pivots, m = 16", || zero_pivots(16), [1, 2, 2])
    .pins((6, 6))
    .pivot(Some(1e-6))
    .rhs(Truth(|i| ((i % 5) as f64) - 2.0));
/// 36 vertices on 8 layers: some get empty forests and must idle.
pub const MORE_GRIDS: Shape = Shape::new("grid2d:6 1x1x8", Grid2d(6, 3), [1, 1, 8])
    .pins((4, 4))
    .rhs(Truth(|i| i as f64 * 0.25))
    .zero_time(true);
pub const SINGLE_VERTEX: Shape = edge("one vertex", || diagonal(1, 4.0), [1, 1, 1])
    .pins((4, 4))
    .rhs(Truth(|_| 2.0));
pub const DIAGONAL: Shape = edge("diagonal 30", || diagonal(30, 1.0), [2, 2, 2])
    .pins((4, 4))
    .rhs(Truth(|_| 3.0));
/// `diag(d, 2d, ..., nd)`.
fn diagonal(n: usize, d: f64) -> (Csr, Geometry) {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, (i + 1) as f64 * d);
    }
    (coo.to_csr(), Geometry::General)
}
/// Two independent subdomains: an empty separator, a forest with an empty
/// root.
pub const DISCONNECTED: Shape = edge("two grid2d:5 blocks", disconnected, [1, 2, 2])
    .pins((8, 8))
    .rhs(Truth(|i| ((i % 6) as f64) - 2.0));
fn disconnected() -> (Csr, Geometry) {
    let blk = salu::sparsemat::matgen::grid2d_5pt(5, 5, 0.1, 1);
    let m = blk.nrows;
    let mut coo = Coo::new(2 * m, 2 * m);
    for i in 0..m {
        for (j, v) in blk.row_cols(i).iter().zip(blk.row_vals(i)) {
            coo.push(i, *j, *v);
            coo.push(m + i, m + *j, *v);
        }
    }
    (coo.to_csr(), Geometry::General)
}
/// A lookahead window far beyond the supernode count.
pub const HUGE_LOOKAHEAD: Shape =
    Shape::new("grid2d:10 2x2x1 lookahead=10000", Grid2d(10, 2), [2, 2, 1])
        .pins((8, 8))
        .lookahead(10_000)
        .rhs(B(|i| i as f64))
        .zero_time(true);
