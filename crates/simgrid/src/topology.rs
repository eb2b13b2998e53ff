//! Process-grid topologies: the 2D grids of SuperLU_DIST and the 3D grid of
//! the paper's algorithm.
//!
//! Conventions (matching the paper's notation):
//! - a 2D grid has `pr x pc` processes; block `(I, J)` of the matrix is
//!   owned by process `(I mod pr, J mod pc)` (block-cyclic layout, §II-E);
//! - a 3D grid is `Pz` stacked 2D grids; world rank
//!   `= z * (pr * pc) + r * pc + c`.

use crate::comm::Comm;
use crate::rank::Rank;

/// A 2D process grid of shape `pr x pc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid2d {
    pub pr: usize,
    pub pc: usize,
}

impl Grid2d {
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr > 0 && pc > 0);
        Grid2d { pr, pc }
    }

    /// The near-square `pr x pc` split of `p` processes: the largest
    /// `pr <= sqrt(p)` dividing `p`, so `pc >= pr` (SuperLU convention) —
    /// the layer shape every harness and the CLI's 2D baseline use. Panics
    /// if `p == 0`.
    pub fn near_square(p: usize) -> Self {
        let mut pr = ((p as f64).sqrt() as usize).max(1);
        while !p.is_multiple_of(pr) {
            pr -= 1;
        }
        Grid2d::new(pr, p / pr)
    }

    /// Total process count.
    pub fn size(&self) -> usize {
        self.pr * self.pc
    }

    /// Local rank of grid coordinate `(r, c)`.
    #[inline]
    pub fn rank_of(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.pr && c < self.pc);
        r * self.pc + c
    }

    /// Grid coordinate of local rank `rank`.
    #[inline]
    pub fn coords_of(&self, rank: usize) -> (usize, usize) {
        (rank / self.pc, rank % self.pc)
    }

    /// Owner coordinates of block `(i, j)` under the block-cyclic layout.
    #[inline]
    pub fn owner(&self, i: usize, j: usize) -> (usize, usize) {
        (i % self.pr, j % self.pc)
    }
}

/// A 3D process grid: `pz` stacked `pr x pc` grids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid3d {
    pub grid2d: Grid2d,
    pub pz: usize,
}

impl Grid3d {
    /// `pr` and `pc` must be positive and `pz` a power of two (Algorithm 1
    /// halves the active grid set each level); the error names the shape.
    pub fn try_new(pr: usize, pc: usize, pz: usize) -> Result<Self, String> {
        if pr == 0 || pc == 0 || !pz.is_power_of_two() {
            return Err(format!(
                "invalid process grid {pr}x{pc}x{pz}: pr and pc must be positive and Pz must \
                 be a power of two"
            ));
        }
        Ok(Grid3d {
            grid2d: Grid2d { pr, pc },
            pz,
        })
    }

    /// [`Grid3d::try_new`] for shapes known to be valid; panics otherwise.
    pub fn new(pr: usize, pc: usize, pz: usize) -> Self {
        Self::try_new(pr, pc, pz).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Total process count `pr * pc * pz`.
    pub fn size(&self) -> usize {
        self.grid2d.size() * self.pz
    }

    /// Processes per 2D layer.
    pub fn layer_size(&self) -> usize {
        self.grid2d.size()
    }

    /// World rank of `(r, c, z)`.
    #[inline]
    pub fn rank_of(&self, r: usize, c: usize, z: usize) -> usize {
        z * self.layer_size() + self.grid2d.rank_of(r, c)
    }

    /// `(r, c, z)` coordinates of a world rank.
    #[inline]
    pub fn coords_of(&self, world: usize) -> (usize, usize, usize) {
        let z = world / self.layer_size();
        let (r, c) = self.grid2d.coords_of(world % self.layer_size());
        (r, c, z)
    }

    /// Number of levels in Algorithm 1's reduction ladder: `log2 pz`.
    pub fn levels(&self) -> usize {
        self.pz.trailing_zeros() as usize
    }

    /// How many communicators `family` has on this grid, and which of them
    /// passes through `(r, c, z)`.
    fn family_slot(&self, family: CommFamily, (r, c, z): (usize, usize, usize)) -> (usize, usize) {
        let Grid2d { pr, pc } = self.grid2d;
        match family {
            CommFamily::Layer => (self.pz, z),
            CommFamily::Row => (self.pz * pr, z * pr + r),
            CommFamily::Col => (self.pz * pc, z * pc + c),
            CommFamily::Zline => (pr * pc, r * pc + c),
        }
    }

    /// Context id of the `family` communicator through `(r, c, z)` on a
    /// rank whose first communicator creation was [`build_grid_comms`]: ids
    /// run from 1 (0 is the world) through the families in creation order,
    /// as if every rank had created every communicator of each. Coordinates
    /// a family does not distinguish (a row's `c`) are ignored.
    pub fn ctx_id(&self, family: CommFamily, coords: (usize, usize, usize)) -> u64 {
        let before: usize = CommFamily::CREATION_ORDER
            .iter()
            .take_while(|&&f| f != family)
            .map(|&f| self.family_slot(f, coords).0)
            .sum();
        (1 + before + self.family_slot(family, coords).1) as u64
    }
}

/// The four families of disjoint communicators of a 3D grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommFamily {
    /// One per `z`: a whole 2D layer.
    Layer,
    /// One per `(z, r)`: a process row of a layer.
    Row,
    /// One per `(z, c)`: a process column of a layer.
    Col,
    /// One per `(r, c)`: the z-line through a grid position.
    Zline,
}

impl CommFamily {
    /// The order [`build_grid_comms`] creates the families in.
    const CREATION_ORDER: [CommFamily; 4] = [
        CommFamily::Layer,
        CommFamily::Row,
        CommFamily::Col,
        CommFamily::Zline,
    ];
}

/// The communicators a rank needs to run the 3D algorithm, built once at
/// startup (collectively, in a deterministic order).
pub struct GridComms {
    /// This rank's 3D coordinates `(r, c, z)`.
    pub coords: (usize, usize, usize),
    /// All ranks in my 2D layer (my `z`), ordered row-major.
    pub layer: Comm,
    /// My process row within my layer (fixed `r`, varying `c`).
    pub row: Comm,
    /// My process column within my layer (fixed `c`, varying `r`).
    pub col: Comm,
    /// The z-line through my `(r, c)` position: one rank per layer. This is
    /// the path of the ancestor-reduction step.
    pub zline: Comm,
}

/// Collectively build the per-rank communicator set for a 3D grid. Every
/// rank must call this exactly once, immediately, before any other
/// communicator creation (SPMD discipline).
pub fn build_grid_comms(rank: &mut Rank, g: &Grid3d) -> GridComms {
    assert_eq!(rank.size(), g.size(), "machine size != grid size");
    rank.register_grid(*g);
    let (my_r, my_c, my_z) = g.coords_of(rank.id());
    let g2 = g.grid2d;

    // One communicator of each family, in creation order, with context ids
    // as if every rank had created every communicator of each family
    // ([`Grid3d::ctx_id`] states the ids; `commplan` reads them there). A
    // rank builds only the one of each family it belongs to.
    let coords = (my_r, my_c, my_z);
    let mut create = |family, members: Vec<usize>| {
        let (count, index) = g.family_slot(family, coords);
        rank.subset_in_family(count, index, members)
    };
    let layer = (0..g2.size()).map(|l| my_z * g2.size() + l).collect();
    let row = (0..g2.pc).map(|c| g.rank_of(my_r, c, my_z)).collect();
    let col = (0..g2.pr).map(|r| g.rank_of(r, my_c, my_z)).collect();
    let zline = (0..g.pz).map(|z| g.rank_of(my_r, my_c, z)).collect();
    GridComms {
        coords,
        layer: create(CommFamily::Layer, layer),
        row: create(CommFamily::Row, row),
        col: create(CommFamily::Col, col),
        zline: create(CommFamily::Zline, zline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::payload::Payload;
    use crate::timemodel::TimeModel;

    #[test]
    fn grid2d_rank_coords_roundtrip() {
        let g = Grid2d::new(3, 4);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(g.coords_of(g.rank_of(r, c)), (r, c));
            }
        }
        assert_eq!(g.owner(7, 9), (7 % 3, 9 % 4));
    }

    #[test]
    fn near_square_layers_factor_evenly() {
        for p in [1usize, 2, 4, 6, 8, 12, 16, 24, 48, 96] {
            let g = Grid2d::near_square(p);
            assert_eq!(g.size(), p, "p={p}");
            assert!(g.pr <= g.pc);
        }
        assert_eq!(Grid2d::near_square(96), Grid2d::new(8, 12));
        assert_eq!(Grid2d::near_square(7), Grid2d::new(1, 7));
    }

    #[test]
    fn grid3d_rank_coords_roundtrip() {
        let g = Grid3d::new(2, 3, 4);
        assert_eq!(g.size(), 24);
        assert_eq!(g.levels(), 2);
        for z in 0..4 {
            for r in 0..2 {
                for c in 0..3 {
                    assert_eq!(g.coords_of(g.rank_of(r, c, z)), (r, c, z));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn grid3d_rejects_non_power_of_two_pz() {
        let _ = Grid3d::new(2, 2, 3);
    }

    /// The arithmetic context ids — the ones [`Grid3d::ctx_id`] states and
    /// `build_grid_comms` hands out — equal those of the definition: every
    /// rank calling `subset` once per layer, row, column and z-line, in
    /// that order.
    #[test]
    fn context_ids_match_one_subset_call_per_communicator() {
        for (pr, pc, pz) in [(2, 3, 4), (3, 1, 2), (1, 1, 1), (4, 4, 1)] {
            let g = Grid3d::new(pr, pc, pz);
            let by_definition = move |rank: &mut Rank| {
                let g2 = g.grid2d;
                let mut mine = Vec::new();
                let mut create = |members: Vec<usize>| mine.extend(rank.subset(&members));
                for z in 0..g.pz {
                    create((0..g2.size()).map(|l| z * g2.size() + l).collect());
                }
                for z in 0..g.pz {
                    for r in 0..g2.pr {
                        create((0..g2.pc).map(|c| g.rank_of(r, c, z)).collect());
                    }
                }
                for z in 0..g.pz {
                    for c in 0..g2.pc {
                        create((0..g2.pr).map(|r| g.rank_of(r, c, z)).collect());
                    }
                }
                for r in 0..g2.pr {
                    for c in 0..g2.pc {
                        create((0..g.pz).map(|z| g.rank_of(r, c, z)).collect());
                    }
                }
                mine
            };
            let describe = |c: &Comm| (c.ctx, c.members().to_vec(), c.local_rank());
            let m = Machine::new(g.size(), TimeModel::zero());
            let out = m.run(move |rank| {
                let want: Vec<_> = by_definition(rank).iter().map(describe).collect();
                let next_by_definition = rank.subset(&[rank.id()]).expect("member").ctx;
                (want, next_by_definition)
            });
            let got = m.run(move |rank| {
                let c = build_grid_comms(rank, &g);
                let comms = [&c.layer, &c.row, &c.col, &c.zline];
                let stated = CommFamily::CREATION_ORDER.map(|f| g.ctx_id(f, c.coords));
                assert_eq!(comms.map(|c| c.ctx), stated, "Grid3d::ctx_id");
                let got = comms.map(describe).to_vec();
                (got, rank.subset(&[rank.id()]).expect("member").ctx)
            });
            assert_eq!(out.results, got.results, "{pr}x{pc}x{pz}");
        }
    }

    #[test]
    fn comms_route_correctly() {
        let g = Grid3d::new(2, 2, 2);
        let m = Machine::new(g.size(), TimeModel::zero());
        let out = m.run(move |rank| {
            let comms = build_grid_comms(rank, &g);
            let (r, c, z) = comms.coords;
            // Row-allreduce of column ids, col-allreduce of row ids, and a
            // z-line exchange.
            let row_sum = rank.allreduce_sum(&comms.row, vec![c as f64], 1)[0];
            let col_sum = rank.allreduce_sum(&comms.col, vec![r as f64], 2)[0];
            let peer = 1 - comms.zline.local_rank();
            rank.send(&comms.zline, peer, 3, Payload::Idx(vec![z]));
            let peer_z = rank.recv(&comms.zline, peer, 3).into_idx()[0];
            (row_sum, col_sum, peer_z)
        });
        for (world, &(rs, cs, pz)) in out.results.iter().enumerate() {
            let (_, _, z) = g.coords_of(world);
            assert_eq!(rs, 1.0); // 0 + 1 over the row
            assert_eq!(cs, 1.0);
            assert_eq!(pz, 1 - z);
        }
    }
}
