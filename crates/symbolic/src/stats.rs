//! Predicted storage and flop costs per supernode.
//!
//! These are the quantities the rest of the stack schedules against:
//!
//! - `factor_words(s)`: words of LU-factor storage supernode `s` owns if
//!   its L and U panels were dense (diagonal block + whole panels), the
//!   dense-separator-block model; the store holds only the kept rows
//!   ([`crate::Symbolic::stored_words`]);
//! - `flops(s)`: flops to factor supernode `s` (diagonal LU + two panel
//!   TRSMs + the full Schur-complement GEMM fan-out) — the paper's cost
//!   function `T(v)` for the inter-grid load-balance heuristic (§III-C).

use crate::fill::BlockFill;
use crate::supernode::SnPartition;

/// Per-supernode predicted costs.
#[derive(Clone, Debug)]
pub struct SnCost {
    /// Words of factor storage owned by each supernode.
    pub factor_words: Vec<u64>,
    /// Flops to factor each supernode (including its Schur fan-out).
    pub flops: Vec<u64>,
    /// Total padded row width of each supernode's below-diagonal panel.
    pub panel_rows: Vec<u64>,
}

impl SnCost {
    /// Compute costs from the partition and fill pattern.
    pub fn compute(part: &SnPartition, fill: &BlockFill) -> SnCost {
        let nsup = part.nsup();
        let mut factor_words = Vec::with_capacity(nsup);
        let mut flops = Vec::with_capacity(nsup);
        let mut panel_rows = Vec::with_capacity(nsup);
        for s in 0..nsup {
            let ns = part.width(s) as u64;
            let m: u64 = fill.struct_of[s]
                .iter()
                .map(|&i| part.width(i) as u64)
                .sum();
            // Storage: diagonal ns^2, L panel m*ns, U panel ns*m.
            factor_words.push(ns * ns + 2 * m * ns);
            // Flops: getrf (2/3 ns^3) + two trsms (ns^2 m each) + Schur
            // update GEMMs: for every target pair (I,J) in struct(s),
            // 2 * w(I) * w(J) * ns, summing over all pairs = 2 ns m^2.
            flops.push(2 * ns * ns * ns / 3 + 2 * ns * ns * m + 2 * ns * m * m);
            panel_rows.push(m);
        }
        SnCost {
            factor_words,
            flops,
            panel_rows,
        }
    }
}

/// Whole-factorization summary.
#[derive(Clone, Copy, Debug, Default)]
pub struct FillStats {
    /// Total words of LU-factor storage.
    pub factor_words: u64,
    /// Total predicted flops.
    pub total_flops: u64,
    /// Number of supernodes.
    pub nsup: usize,
    /// Largest padded panel row count.
    pub max_panel_rows: u64,
}

impl FillStats {
    pub fn from_cost(cost: &SnCost) -> FillStats {
        FillStats {
            factor_words: cost.factor_words.iter().sum(),
            total_flops: cost.flops.iter().sum(),
            nsup: cost.flops.len(),
            max_panel_rows: cost.panel_rows.iter().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ordering::{nested_dissection, Graph, NdOptions};
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt};
    use sparsemat::testmats::Geometry;

    fn costs_for(a: &sparsemat::Csr, geom: Geometry) -> (SnCost, FillStats) {
        let g = Graph::from_matrix(a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 16,
                geometry: geom,
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let part = crate::supernode::SnPartition::from_septree(&tree, 16);
        let fill = crate::fill::block_symbolic(&pa, &part);
        let cost = SnCost::compute(&part, &fill);
        let stats = FillStats::from_cost(&cost);
        (cost, stats)
    }

    #[test]
    fn fill_grows_superlinearly_with_n_planar() {
        // Planar LU factors are Theta(n log n); quadrupling n should grow
        // factor words by clearly more than 4x but far less than 16x.
        let (_, s1) = costs_for(
            &grid2d_5pt(16, 16, 0.0, 0),
            Geometry::Grid2d { nx: 16, ny: 16 },
        );
        let (_, s2) = costs_for(
            &grid2d_5pt(32, 32, 0.0, 0),
            Geometry::Grid2d { nx: 32, ny: 32 },
        );
        let ratio = s2.factor_words as f64 / s1.factor_words as f64;
        assert!(ratio > 3.5 && ratio < 12.0, "ratio {ratio}");
    }

    #[test]
    fn flops_dominated_by_top_separators_in_3d() {
        // The paper's §V-B observation: for strongly 3D problems the top
        // few etree levels hold most of the computation.
        let a = grid3d_7pt(8, 8, 8, 0.0, 0);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 16,
                geometry: Geometry::Grid3d {
                    nx: 8,
                    ny: 8,
                    nz: 8,
                },
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let part = crate::supernode::SnPartition::from_septree(&tree, 16);
        let fill = crate::fill::block_symbolic(&pa, &part);
        let cost = SnCost::compute(&part, &fill);
        let total: u64 = cost.flops.iter().sum();
        // Top three levels of tree nodes (the 8^3 test grid is shallow;
        // the share concentrates further as n grows):
        let top: u64 = (0..part.nsup())
            .filter(|&s| tree.nodes[part.node_of_sn[s]].level <= 2)
            .map(|s| cost.flops[s])
            .sum();
        assert!(
            top as f64 > 0.3 * total as f64,
            "top levels hold {top} of {total}"
        );
    }
}
