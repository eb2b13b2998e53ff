//! The multilevel ordering is a pinned function of (graph, seed).
//!
//! Every downstream number in the repository — `symbolic.flops`, the factor
//! digests, the simulated makespans in `results/BENCH_pr*.json`, the campaign
//! baselines — is a function of the permutation and separator tree that
//! `nested_dissection` returns. A change that makes the ordering *cheaper*
//! must therefore leave it the same function, bit for bit; these digests are
//! how that is checked without regenerating a single golden.
//!
//! **How the constants were produced.** They were captured at commit
//! `da48b68` (PR 17, the parent of the PR that introduced the exact FM
//! cut-off, hash-free contraction and the per-ordering workspace) by copying
//! this file, with every constant set to 0, into a clone of that commit and
//! reading the digests out of the failure messages of
//! `cargo test -p ordering --test pinned` — once in debug and once in
//! `--release`, which agreed. The digest is FNV-1a/64 over the little-endian
//! bytes of `n`, then `tree.perm.old_order()`, then the node count, then
//! every node's `(cols.start, cols.end, level, parent + 1 or 0)` in tree
//! order.
//!
//! A PR that *means* to change the ordering (a different matching, balance
//! tolerance, tie-break, or RNG draw) renegotiates every golden named above
//! along with these constants, and must say so; a PR that does not mean to
//! must leave this file alone.

use ordering::{nested_dissection, Graph, NdOptions};
use sparsemat::matgen::{grid2d_5pt, grid2d_random_deletions, grid3d_7pt, kkt_3d};
use sparsemat::testmats::Geometry;

fn fnv(h: &mut u64, x: usize) {
    for b in (x as u64).to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(g: &Graph, leaf_size: usize, seed: Option<u64>) -> u64 {
    let mut opts = NdOptions {
        leaf_size,
        geometry: Geometry::General,
        ..Default::default()
    };
    if let Some(seed) = seed {
        opts.seed = seed;
    }
    let tree = nested_dissection(g, opts);
    tree.validate().expect("valid separator tree");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, tree.n());
    for &old in tree.perm.old_order() {
        fnv(&mut h, old);
    }
    fnv(&mut h, tree.nodes.len());
    for node in &tree.nodes {
        fnv(&mut h, node.cols.start);
        fnv(&mut h, node.cols.end);
        fnv(&mut h, node.level);
        fnv(&mut h, node.parent.map_or(0, |p| p + 1));
    }
    h
}

/// Disjoint union of graphs, vertex ids shifted block by block.
fn disjoint_union(parts: &[Graph]) -> Graph {
    let mut xadj = vec![0usize];
    let mut adj = Vec::new();
    let mut base = 0;
    for p in parts {
        for v in 0..p.n() {
            adj.extend(p.neighbors(v).iter().map(|&u| u + base));
            xadj.push(adj.len());
        }
        base += p.n();
    }
    Graph::from_adjacency(xadj, adj)
}

/// Several components of different shapes, two single edges and four
/// isolated vertices: exercises the disconnected branch of graph growing
/// and the empty-separator path of the driver.
fn components_graph() -> Graph {
    let single_edge = || Graph::from_adjacency(vec![0, 1, 2], vec![1, 0]);
    let isolated = || Graph::from_adjacency(vec![0, 0], vec![]);
    disjoint_union(&[
        Graph::from_matrix(&grid2d_5pt(14, 9, 0.0, 0)),
        isolated(),
        Graph::from_matrix(&grid3d_7pt(5, 4, 6, 0.0, 0)),
        single_edge(),
        isolated(),
        Graph::from_matrix(&grid2d_random_deletions(17, 17, 0.35, 5)),
        isolated(),
        single_edge(),
        Graph::from_matrix(&kkt_3d(3, 3, 2, 1e-2, 0)),
        isolated(),
    ])
}

#[track_caller]
fn check(case: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{case}: the ordering is no longer the function pinned at the parent \
         (digest {got:#018x}, pinned {want:#018x}); see the header of this file"
    );
}

#[test]
fn mtx_general_seed_1() {
    let g = Graph::from_matrix(&grid2d_random_deletions(200, 200, 0.15, 1));
    check(
        "mtx_general seed 1",
        digest(&g, 32, None),
        0xdafe_204c_2de8_c183,
    );
}

#[test]
fn mtx_general_seed_2() {
    let g = Graph::from_matrix(&grid2d_random_deletions(200, 200, 0.15, 2));
    check(
        "mtx_general seed 2",
        digest(&g, 32, None),
        0x3af0_74e5_b6aa_557d,
    );
}

#[test]
fn mtx_general_seed_3() {
    let g = Graph::from_matrix(&grid2d_random_deletions(200, 200, 0.15, 3));
    check(
        "mtx_general seed 3",
        digest(&g, 32, None),
        0x21b9_1859_bfb3_458d,
    );
}

#[test]
fn kkt_scale_matrix() {
    let g = Graph::from_matrix(&kkt_3d(12, 12, 12, 1e-2, 3));
    check(
        "kkt_3d 12^3 leaf 16",
        digest(&g, 16, None),
        0xa4d0_ccf3_84c3_2ef3,
    );
}

#[test]
fn grid3d_20_general() {
    let g = Graph::from_matrix(&grid3d_7pt(20, 20, 20, 0.1, 3));
    check(
        "grid3d_7pt 20^3 leaf 32",
        digest(&g, 32, None),
        0x957f_d39d_4fae_904b,
    );
}

#[test]
fn small_kkt() {
    let g = Graph::from_matrix(&kkt_3d(6, 5, 4, 1e-2, 3));
    check(
        "kkt_3d 6x5x4 leaf 8",
        digest(&g, 8, None),
        0x9a39_a0f9_76a4_8328,
    );
}

#[test]
fn several_components() {
    let g = components_graph();
    assert!(g.components().1 >= 10);
    check(
        "ten components, leaf 8",
        digest(&g, 8, None),
        0x014b_225c_71e3_cc85,
    );
}

#[test]
fn non_default_seed() {
    let g = Graph::from_matrix(&grid2d_5pt(48, 48, 0.0, 0));
    check(
        "grid2d_5pt 48^2 leaf 16 seed 0xfeed",
        digest(&g, 16, Some(0xfeed)),
        0x4223_d803_9e51_9485,
    );
}
