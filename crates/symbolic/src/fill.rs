//! Block-level symbolic LU factorization on the supernode quotient graph.
//!
//! Works entirely at supernode granularity: the input pattern is reduced to
//! block form (block `(I, J)` present iff any entry of `A` falls in it), and
//! the classic symbolic-Cholesky recurrence runs on blocks:
//!
//! ```text
//! struct(s) = blocks of A below s  ∪  ⋃ { struct(c) \ {s} : parent(c) = s }
//! parent(s) = min struct(s)
//! ```
//!
//! Because the input pattern is symmetric (SuperLU_DIST factors the
//! symmetrized pattern under static pivoting), `L` and `U` have transposed
//! block structures: `struct(s)` lists both the `L(I, s)` blocks (column
//! panel) and the `U(s, I)` blocks (row panel). The same pass records which
//! rows of `I` each `L(I, s)` keeps (the columns of `U(s, I)`), the
//! compressed storage of SuperLU_DIST.

use crate::rowset::RowSet;
use crate::supernode::SnPartition;
use sparsemat::Csr;

/// The block fill pattern and the supernodal elimination tree.
#[derive(Clone, Debug)]
pub struct BlockFill {
    /// For each supernode `s`, the ascending list of supernodes `I > s`
    /// such that block `L(I, s)` (equivalently `U(s, I)`) is structurally
    /// nonzero.
    pub struct_of: Vec<Vec<usize>>,
    /// Supernodal elimination-tree parent: the first block row below the
    /// diagonal block. `None` for roots (supernodes with empty struct).
    pub parent: Vec<Option<usize>>,
    /// Derived from `parent` by [`BlockFill::new`]; see [`BlockFill::children`].
    children: Vec<Vec<usize>>,
    /// Derived from `struct_of` by [`BlockFill::new`]; see
    /// [`BlockFill::blocks_into`].
    blocks_into: Vec<Vec<usize>>,
    /// The kept rows of every off-diagonal block, `row_words` words each:
    /// those of `L(struct_of[k][p], k)` are `row_bits[k][row_words * p..]`.
    /// See [`BlockFill::kept`].
    row_words: usize,
    row_bits: Vec<Vec<u64>>,
}

/// One step of [`BlockFill::lookahead_order`], by position in its node list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookaheadStep {
    /// Factor and broadcast the panel of the node at this position.
    Panel(usize),
    /// Apply the Schur update of the node at this position. Its panel step
    /// comes earlier provided every child of every listed node is `done` on
    /// entry or listed itself.
    Schur(usize),
}

impl LookaheadStep {
    /// The position in the node list of the node this step works on.
    pub fn pos(self) -> usize {
        match self {
            LookaheadStep::Panel(j) | LookaheadStep::Schur(j) => j,
        }
    }
}

impl BlockFill {
    /// Assemble a fill pattern, deriving the two rank-invariant indexes every
    /// rank of a distributed factorization or solve reads — once here instead
    /// of once per rank. `row_bits[k]` holds the kept rows of the blocks of
    /// `struct_of[k]`, in order, `row_words` words each
    /// ([`BlockFill::kept`]).
    /// `struct_of` and `parent` must not be modified afterwards.
    pub fn new(
        struct_of: Vec<Vec<usize>>,
        parent: Vec<Option<usize>>,
        row_words: usize,
        row_bits: Vec<Vec<u64>>,
    ) -> BlockFill {
        let mut children = vec![Vec::new(); parent.len()];
        for (s, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(s);
            }
        }
        let mut blocks_into = vec![Vec::new(); struct_of.len()];
        for (j, st) in struct_of.iter().enumerate() {
            for &i in st {
                blocks_into[i].push(j);
            }
        }
        assert!(
            struct_of
                .iter()
                .zip(&row_bits)
                .all(|(st, bits)| bits.len() == row_words * st.len()),
            "one row set per block"
        );
        BlockFill {
            struct_of,
            parent,
            children,
            blocks_into,
            row_words,
            row_bits,
        }
    }

    /// The rows of supernode `struct_of[k][p]` that block `L(struct_of[k][p],
    /// k)` keeps — those structurally nonzero in `k`'s columns — and, the
    /// pattern being symmetric, the columns `U(k, struct_of[k][p])` keeps.
    pub fn kept(&self, k: usize, p: usize) -> RowSet<'_> {
        let at = self.row_words * p;
        RowSet::new(&self.row_bits[k][at..at + self.row_words])
    }

    /// [`BlockFill::kept`] by supernode: the rows of `i` that `L(i, k)`
    /// keeps, or `None` when `i` is not in `struct_of[k]`.
    pub fn kept_rows(&self, i: usize, k: usize) -> Option<RowSet<'_>> {
        let p = self.struct_of.get(k)?.binary_search(&i).ok()?;
        Some(self.kept(k, p))
    }

    /// Number of structurally nonzero off-diagonal blocks in `L` (equal to
    /// the count in `U` by symmetry).
    pub fn num_lblocks(&self) -> usize {
        self.struct_of.iter().map(|s| s.len()).sum()
    }

    /// Children lists of the supernodal elimination tree, ascending.
    pub fn children(&self) -> &[Vec<usize>] {
        &self.children
    }

    /// The transposed block structure: `blocks_into()[k]` lists, ascending,
    /// the supernodes `j < k` with `k` in `struct_of[j]` — the `U(j, k)`
    /// blocks of column `k` (equivalently the `L(k, j)` blocks of row `k`).
    pub fn blocks_into(&self) -> &[Vec<usize>] {
        &self.blocks_into
    }

    /// The elimination-tree lookahead order of §II-F over the node list
    /// `nodes` (ascending) with window `lookahead`: before the Schur update
    /// of `nodes[idx]`, the panel phase of every node in positions
    /// `idx..=idx + lookahead` that has not run yet and whose children are
    /// all complete — `done` on entry, or updated earlier in this list.
    /// Steps carry positions in `nodes`. A pure function of symbolic state,
    /// derived once per machine into `lu3d`'s factorization program, which
    /// the factorization executes and the communication plan flattens.
    ///
    /// Every child of a listed node must be `done` or listed itself (a
    /// child on another grid is done: its update arrives by ancestor
    /// reduction); a violation panics naming the node and the child.
    pub fn lookahead_order(
        &self,
        nodes: &[usize],
        done: &[bool],
        lookahead: usize,
    ) -> Vec<LookaheadStep> {
        let mut pending = Vec::with_capacity(nodes.len());
        for &k in nodes {
            let waiting = self.children[k].iter().filter(|&&c| !done[c]);
            for &c in waiting.clone() {
                if nodes.binary_search(&c).is_err() {
                    panic!(
                        "lookahead_order: done[] contract violated by caller — supernode {k} \
                         depends on elimination-tree child {c}, which is neither marked done \
                         nor listed (out-of-grid children must be pre-marked done; their \
                         updates arrive via ancestor reduction)"
                    );
                }
            }
            pending.push(waiting.count());
        }
        let mut paneled = vec![false; nodes.len()];
        let mut order = Vec::with_capacity(2 * nodes.len());
        for idx in 0..nodes.len() {
            let w_end = (idx + 1).saturating_add(lookahead).min(nodes.len());
            for j in idx..w_end {
                if !paneled[j] && pending[j] == 0 {
                    order.push(LookaheadStep::Panel(j));
                    paneled[j] = true;
                }
            }
            order.push(LookaheadStep::Schur(idx));
            // The update completes `nodes[idx]`: one child fewer for its
            // parent to wait on, if the parent is in this list.
            if let Some(p) = self.parent[nodes[idx]] {
                if let Ok(pos) = nodes.binary_search(&p) {
                    pending[pos] -= 1;
                }
            }
        }
        order
    }

    /// The dependency waves of a triangular solve over the node list `nodes`
    /// (ascending): the wave of each listed node, by position, where
    /// `wave(i) = 1 + max wave(j)` over the listed `j` with `i` in
    /// `struct_of[j]` and a node nothing listed feeds is in wave 0. Forward
    /// substitution may solve a wave's nodes together once every earlier wave
    /// is done, back substitution the same waves in reverse. A pure function
    /// of symbolic state, like [`BlockFill::lookahead_order`]: every rank of a
    /// layer derives the same waves.
    pub fn solve_waves(&self, nodes: &[usize]) -> Vec<usize> {
        let mut wave = vec![0usize; nodes.len()];
        for (pos, &j) in nodes.iter().enumerate() {
            let next = wave[pos] + 1;
            // `struct_of[j]` holds only nodes above `j`: later positions.
            let mut from = pos + 1;
            for &i in &self.struct_of[j] {
                from += nodes[from..].partition_point(|&s| s < i);
                if nodes.get(from) == Some(&i) {
                    wave[from] = wave[from].max(next);
                }
            }
        }
        wave
    }

    /// The rosters of every supernode's panel step on a `pr x pc`
    /// block-cyclic grid (owner of block `(i, j)`: process row `i % pr`,
    /// column `j % pc`). A pure function of symbolic state, derived once per
    /// machine: the factorization broadcasts over these rosters and the
    /// communication plan expands the same ones.
    pub fn panel_rosters(&self, pr: usize, pc: usize) -> PanelRosters {
        PanelRosters {
            rows: Roster::deal(&self.struct_of, pr),
            cols: Roster::deal(&self.struct_of, pc),
        }
    }

    /// The same deal over the transposed structure ([`BlockFill::blocks_into`]):
    /// `rows(k)` holds the process rows with a `U(j, k)` block of column `k`
    /// and `cols(k)` the process columns with an `L(k, j)` block of row `k`,
    /// each with the diagonal owner's row or column added as the root. With
    /// [`BlockFill::panel_rosters`], who takes part in supernode `k`'s four
    /// triangular-solve collectives.
    pub fn transposed_rosters(&self, pr: usize, pc: usize) -> PanelRosters {
        PanelRosters {
            rows: Roster::deal(&self.blocks_into, pr),
            cols: Roster::deal(&self.blocks_into, pc),
        }
    }
}

/// Who takes part in supernode `k`'s panel step (§II-E), by process row and
/// column: [`PanelRosters::rows`] holds the rows with an `L(I, k)` block — the
/// ranks whose L panel solves read the diagonal, and whose Schur updates read
/// the U pieces — and [`PanelRosters::cols`] the columns with a `U(k, J)`
/// block, each with the diagonal owner's row or column added as the root. A
/// rank outside `rows(k) × cols(k)` reads nothing of `k`'s panel step.
/// [`BlockFill::transposed_rosters`] deals the transposed structure the same
/// way: there `rows(k)` are the rows with a `U(j, k)` block and `cols(k)` the
/// columns with an `L(k, j)` block.
#[derive(Clone, Debug)]
pub struct PanelRosters {
    rows: Roster,
    cols: Roster,
}

impl PanelRosters {
    /// The ascending process rows holding an `L(I, k)` block, plus `k % pr`.
    pub fn rows(&self, k: usize) -> &[usize] {
        self.rows.of(k)
    }

    /// The ascending process columns holding a `U(k, J)` block, plus
    /// `k % pc`.
    pub fn cols(&self, k: usize) -> &[usize] {
        self.cols.of(k)
    }

    /// Does process row `r` hold an `L(I, k)` block (so it sends or receives
    /// an L panel piece)? Only the diagonal owner's row can be on the roster
    /// without one.
    pub fn row_holds_l(&self, k: usize, r: usize) -> bool {
        self.rows.holds(k, r)
    }

    /// Does process column `c` hold a `U(k, J)` block?
    pub fn col_holds_u(&self, k: usize, c: usize) -> bool {
        self.cols.holds(k, c)
    }
}

/// One axis of [`PanelRosters`]: per supernode, the ascending process
/// coordinates `i % p` over `struct_of[k]`, with `k % p` added.
#[derive(Clone, Debug)]
struct Roster {
    p: usize,
    /// Supernode `k`'s roster is `members[ptr[k]..ptr[k + 1]]`.
    ptr: Vec<usize>,
    members: Vec<usize>,
    /// Whether `k % p` is there for a block of its own, not only as the root.
    root_holds: Vec<bool>,
}

impl Roster {
    fn deal(struct_of: &[Vec<usize>], p: usize) -> Roster {
        let mut ptr = Vec::with_capacity(struct_of.len() + 1);
        let mut members = Vec::new();
        let mut root_holds = Vec::with_capacity(struct_of.len());
        let mut seen = vec![usize::MAX; p];
        ptr.push(0);
        for (k, st) in struct_of.iter().enumerate() {
            let start = members.len();
            for &i in st {
                if seen[i % p] != k {
                    seen[i % p] = k;
                    members.push(i % p);
                }
            }
            let holds = seen[k % p] == k;
            root_holds.push(holds);
            if !holds {
                members.push(k % p);
            }
            members[start..].sort_unstable();
            ptr.push(members.len());
        }
        Roster {
            p,
            ptr,
            members,
            root_holds,
        }
    }

    fn of(&self, k: usize) -> &[usize] {
        &self.members[self.ptr[k]..self.ptr[k + 1]]
    }

    fn holds(&self, k: usize, x: usize) -> bool {
        if x == k % self.p {
            self.root_holds[k]
        } else {
            self.of(k).binary_search(&x).is_ok()
        }
    }
}

/// Run the block symbolic factorization, with the kept rows of every block.
/// `a` must be pattern-symmetric and already in elimination
/// (nested-dissection) order.
///
/// The rows recur like the blocks: `L(I, s)` keeps the rows of `I` that
/// `A` has in `s`'s columns, plus the rows `L(I, c)` keeps for each child
/// `c`. That is the union of the column structures over `s`'s columns —
/// a superset of every numerically nonzero row — and it nests: for `J` in
/// `struct(s)` below `I`, the rows of `L(I, s)` are among those of `L(I, J)`,
/// so every Schur target keeps the rows its update writes.
pub fn block_symbolic(a: &Csr, part: &SnPartition) -> BlockFill {
    let nsup = part.nsup();
    let words = part.max_width().div_ceil(64).max(1);
    let mut struct_of: Vec<Vec<usize>> = vec![Vec::new(); nsup];
    let mut parent: Vec<Option<usize>> = vec![None; nsup];
    let mut pending_children: Vec<Vec<usize>> = vec![Vec::new(); nsup];
    let mut row_bits: Vec<Vec<u64>> = vec![Vec::new(); nsup];
    // Each block's position in the current supernode's list (valid for
    // that list only).
    let mut pos_of = vec![0usize; nsup];
    // `(I, row of I)` for the entries of A below the diagonal block in the
    // current supernode's columns (pattern symmetric: read off its rows).
    let mut a_rows: Vec<(usize, usize)> = Vec::new();

    // Ascending supernode order (elimination order): children contribute
    // their structs and row sets to their etree parent.
    for s in 0..nsup {
        a_rows.clear();
        for j in part.ranges[s].clone() {
            for &i in a.row_cols(j) {
                let si = part.sn_of_col[i];
                if si > s {
                    a_rows.push((si, i - part.ranges[si].start));
                }
            }
        }
        let mut merged: Vec<usize> = a_rows.iter().map(|&(si, _)| si).collect();
        for &c in &pending_children[s] {
            merged.extend(struct_of[c].iter().copied().filter(|&i| i > s));
        }
        merged.sort_unstable();
        merged.dedup();

        let mut bits = vec![0u64; words * merged.len()];
        for (p, &i) in merged.iter().enumerate() {
            pos_of[i] = words * p;
        }
        for &(si, r) in &a_rows {
            bits[pos_of[si] + r / 64] |= 1 << (r % 64);
        }
        for &c in &pending_children[s] {
            let child = struct_of[c].iter().zip(row_bits[c].chunks_exact(words));
            for (&i, from) in child.filter(|&(&i, _)| i > s) {
                for (into, from) in bits[pos_of[i]..pos_of[i] + words].iter_mut().zip(from) {
                    *into |= from;
                }
            }
        }
        if let Some(&p) = merged.first() {
            parent[s] = Some(p);
            pending_children[p].push(s);
        }
        struct_of[s] = merged;
        row_bits[s] = bits;
    }

    BlockFill::new(struct_of, parent, words, row_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ordering::{nested_dissection, Graph, NdOptions};
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt};
    use sparsemat::testmats::Geometry;
    use sparsemat::{Coo, Perm};

    fn analyze(
        a: &sparsemat::Csr,
        geom: Geometry,
        leaf: usize,
        maxsup: usize,
    ) -> (BlockFill, SnPartition, Perm) {
        let g = Graph::from_matrix(a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: leaf,
                geometry: geom,
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let part = SnPartition::from_septree(&tree, maxsup);
        let fill = block_symbolic(&pa, &part);
        (fill, part, tree.perm)
    }

    #[test]
    fn arrow_matrix_has_no_extra_fill() {
        // Arrow pointing down-right: dense last row/col, diagonal else.
        // With natural order this has NO fill; block symbolic on scalar
        // supernodes must reproduce that.
        let n = 8;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i + 1 < n {
                coo.push(i, n - 1, 1.0);
                coo.push(n - 1, i, 1.0);
            }
        }
        let a = coo.to_csr();
        // Build a trivial septree: all scalar leaves under a root? Simplest:
        // use a single-node "tree" via identity ND on general geometry with
        // leaf_size 1 won't give the natural order. Instead drive
        // block_symbolic directly with a hand-made partition.
        let part = SnPartition {
            ranges: (0..n).map(|i| i..i + 1).collect(),
            sn_of_col: (0..n).collect(),
            node_of_sn: vec![0; n],
            sns_of_node: vec![(0..n).collect()],
        };
        let fill = block_symbolic(&a, &part);
        // Column i (i < n-1) has exactly one block: row n-1.
        for s in 0..n - 1 {
            assert_eq!(fill.struct_of[s], vec![n - 1], "col {s}");
            assert_eq!(fill.parent[s], Some(n - 1));
        }
        assert!(fill.struct_of[n - 1].is_empty());
        assert_eq!(fill.parent[n - 1], None);
    }

    #[test]
    fn tridiagonal_fill_is_bidiagonal() {
        let n = 10;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        let a = coo.to_csr();
        let part = SnPartition {
            ranges: (0..n).map(|i| i..i + 1).collect(),
            sn_of_col: (0..n).collect(),
            node_of_sn: vec![0; n],
            sns_of_node: vec![(0..n).collect()],
        };
        let fill = block_symbolic(&a, &part);
        for s in 0..n - 1 {
            assert_eq!(fill.struct_of[s], vec![s + 1]);
        }
        // A chain solves one supernode per wave; listed without their
        // neighbours, its supernodes do not wait for each other at all.
        let all: Vec<usize> = (0..n).collect();
        assert_eq!(fill.solve_waves(&all), all);
        let even: Vec<usize> = (0..n).step_by(2).collect();
        assert_eq!(fill.solve_waves(&even), vec![0; even.len()]);
        assert_eq!(fill.solve_waves(&[2, 3, 4, 7, 8]), vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn fill_closure_property() {
        // The invariant the numerical phase relies on: if I and J are both
        // in struct(s) with J < I, then I is in struct(J) — every Schur
        // update target block exists in the allocated pattern.
        let a = grid2d_5pt(12, 12, 0.0, 0);
        let (fill, _, _) = analyze(&a, Geometry::Grid2d { nx: 12, ny: 12 }, 8, 4);
        for s in 0..fill.struct_of.len() {
            let st = &fill.struct_of[s];
            for (xi, &j) in st.iter().enumerate() {
                for &i in &st[xi + 1..] {
                    assert!(
                        fill.struct_of[j].binary_search(&i).is_ok(),
                        "update target ({i},{j}) from {s} missing"
                    );
                }
            }
        }
    }

    #[test]
    fn fill_closure_property_3d_multilevel() {
        let a = grid3d_7pt(5, 5, 5, 0.0, 0);
        let (fill, _, _) = analyze(&a, Geometry::General, 10, 6);
        for s in 0..fill.struct_of.len() {
            let st = &fill.struct_of[s];
            for (xi, &j) in st.iter().enumerate() {
                for &i in &st[xi + 1..] {
                    assert!(fill.struct_of[j].binary_search(&i).is_ok());
                }
            }
        }
    }

    #[test]
    fn parents_are_first_struct_entry_and_acyclic() {
        let a = grid2d_5pt(10, 10, 0.0, 0);
        let (fill, _, _) = analyze(&a, Geometry::Grid2d { nx: 10, ny: 10 }, 6, 4);
        let nsup = fill.parent.len();
        for s in 0..nsup {
            match fill.parent[s] {
                Some(p) => {
                    assert!(p > s);
                    assert_eq!(fill.struct_of[s][0], p);
                }
                None => assert!(fill.struct_of[s].is_empty()),
            }
        }
        // The last supernode is always a root.
        assert_eq!(fill.parent[nsup - 1], None);
    }

    /// Every numerically nonzero entry of the factors lies in a kept row of
    /// its `L` block or a kept column of its `U` block: a dense LU of the
    /// reordered matrix (no pivoting, tiny pivots lifted as static pivoting
    /// does) against the row sets, on a 3D grid, a KKT system and a
    /// random-deletion grid. And the sets nest along every Schur update.
    #[test]
    fn kept_rows_cover_every_nonzero_of_the_factors() {
        use sparsemat::matgen::{grid2d_random_deletions, kkt_3d};
        for (name, a, leaf, maxsup) in [
            ("grid3d", grid3d_7pt(6, 6, 6, 0.1, 1), 8, 8),
            ("kkt", kkt_3d(3, 3, 3, 1e-2, 2), 8, 6),
            ("deletions", grid2d_random_deletions(15, 15, 0.15, 3), 12, 5),
        ] {
            let (fill, part, perm) = analyze(&a, Geometry::General, leaf, maxsup);
            let pa = a.permute_sym(&perm).symmetrize_pattern();
            let n = pa.nrows;
            let mut lu = vec![0.0f64; n * n];
            for i in 0..n {
                for (&j, &v) in pa.row_cols(i).iter().zip(pa.row_vals(i)) {
                    lu[i * n + j] = v;
                }
            }
            for k in 0..n {
                if lu[k * n + k].abs() < 1e-10 {
                    lu[k * n + k] = 1e-10;
                }
                for i in k + 1..n {
                    let l = lu[i * n + k] / lu[k * n + k];
                    lu[i * n + k] = l;
                    if l != 0.0 {
                        for j in k + 1..n {
                            lu[i * n + j] -= l * lu[k * n + j];
                        }
                    }
                }
            }
            let mut nonzeros = 0;
            for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                let (si, sj) = (part.sn_of_col[i], part.sn_of_col[j]);
                if lu[i * n + j] == 0.0 || si == sj {
                    continue;
                }
                nonzeros += 1;
                // L(si, sj) keeps row i of si; U(si, sj) keeps column j of sj.
                let (hi, lo, r) = if si > sj {
                    (si, sj, i - part.ranges[si].start)
                } else {
                    (sj, si, j - part.ranges[sj].start)
                };
                let kept = fill.kept_rows(hi, lo);
                assert!(
                    kept.is_some_and(|rows| rows.contains(r)),
                    "{name}: factor entry ({i},{j}) outside the kept rows of ({si},{sj})"
                );
            }
            assert!(nonzeros > n, "{name}: the fixture has off-diagonal fill");
            for k in 0..fill.struct_of.len() {
                let st = &fill.struct_of[k];
                for (p, &i) in st.iter().enumerate() {
                    for &j in &st[..p] {
                        let mut at = Vec::new();
                        let target = fill.kept_rows(i, j).expect("fill closure");
                        assert!(
                            fill.kept(k, p).extend_positions_in(target, &mut at),
                            "{name}: rows of L({i},{k}) not kept by L({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn struct_contains_original_blocks() {
        // Fill only adds blocks, never removes: every A-block below the
        // diagonal must appear in the struct.
        let a = grid2d_5pt(8, 8, 0.0, 0);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 4,
                geometry: Geometry::Grid2d { nx: 8, ny: 8 },
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let part = SnPartition::from_septree(&tree, 4);
        let fill = block_symbolic(&pa, &part);
        for i in 0..pa.nrows {
            for &j in pa.row_cols(i) {
                let (si, sj) = (part.sn_of_col[i], part.sn_of_col[j]);
                if si > sj {
                    assert!(
                        fill.struct_of[sj].binary_search(&si).is_ok(),
                        "A-block ({si},{sj}) missing from fill"
                    );
                }
            }
        }
    }

    /// What the window may and may not do: every node gets one panel and
    /// one Schur step, Schur steps stay in list order, a panel runs after
    /// the Schur update of each of its children and at most `lookahead`
    /// positions ahead of the next update; a zero window alternates.
    #[test]
    fn lookahead_order_respects_children_and_window() {
        use LookaheadStep::{Panel, Schur};
        let a = grid2d_5pt(10, 10, 0.0, 0);
        let (fill, _, _) = analyze(&a, Geometry::Grid2d { nx: 10, ny: 10 }, 6, 4);
        let nodes: Vec<usize> = (0..fill.parent.len()).collect();
        let done = vec![false; nodes.len()];
        let alternating: Vec<_> = (0..nodes.len())
            .flat_map(|i| [Panel(i), Schur(i)])
            .collect();
        assert_eq!(fill.lookahead_order(&nodes, &done, 0), alternating);
        let mut ran_ahead = false;
        for lookahead in [1, 3, nodes.len()] {
            let order = fill.lookahead_order(&nodes, &done, lookahead);
            let at = |step| order.iter().position(|&s| s == step).expect("step present");
            assert_eq!(order.len(), 2 * nodes.len());
            for j in 0..nodes.len() {
                let updates_before = order[..at(Panel(j))]
                    .iter()
                    .filter(|s| matches!(s, Schur(_)))
                    .count();
                assert!(updates_before <= j && j <= updates_before + lookahead);
                ran_ahead |= updates_before < j;
                assert!(at(Panel(j)) < at(Schur(j)));
                assert!(j == 0 || at(Schur(j - 1)) < at(Schur(j)));
                for &c in &fill.children()[j] {
                    assert!(at(Schur(c)) < at(Panel(j)), "panel {j} before child {c}");
                }
            }
        }
        assert!(
            ran_ahead,
            "no panel ever ran ahead: the window was never used"
        );
    }

    /// A window of `usize::MAX` (`salu --lookahead 18446744073709551615`)
    /// saturates to the whole list instead of wrapping to an empty window.
    #[test]
    fn lookahead_window_saturates_at_usize_max() {
        let a = grid2d_5pt(10, 10, 0.0, 0);
        let (fill, _, _) = analyze(&a, Geometry::Grid2d { nx: 10, ny: 10 }, 6, 4);
        let nodes: Vec<usize> = (0..fill.parent.len()).collect();
        let done = vec![false; nodes.len()];
        assert_eq!(
            fill.lookahead_order(&nodes, &done, usize::MAX),
            fill.lookahead_order(&nodes, &done, nodes.len())
        );
    }

    /// A node list with a child neither done nor listed is rejected naming
    /// the supernode and the child — not with a bare "must be panel-ready"
    /// panic from deep inside the factorization that executes the order.
    #[test]
    fn done_contract_violation_names_node_and_child() {
        let a = grid2d_5pt(8, 8, 0.1, 0);
        let (fill, _, _) = analyze(&a, Geometry::Grid2d { nx: 8, ny: 8 }, 8, 8);
        let root_sn = fill.parent.len() - 1;
        let child = *fill.children()[root_sn]
            .first()
            .expect("root supernode must have a child in this fixture");
        // Only the root is listed and nothing is done: contract violated.
        let done = vec![false; fill.parent.len()];
        let err = std::panic::catch_unwind(|| fill.lookahead_order(&[root_sn], &done, 8))
            .expect_err("violating the done[] contract must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload must be a string");
        assert!(msg.contains("done[] contract violated"), "{msg}");
        assert!(msg.contains(&format!("supernode {root_sn}")), "{msg}");
        assert!(msg.contains(&format!("child {child}")), "{msg}");
    }
}
