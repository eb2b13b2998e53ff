//! Planar-graph (2D-geometry) cost model: §IV-B of the paper.
//!
//! For a planar graph with `n` vertices, nested dissection gives separators
//! of size `sqrt(n / 2^i)` at level `i` and `~log2 n` levels. The paper
//! derives (equation numbers from §IV-B):
//!
//! - (4)  `M_2D = (n/P) log n`
//! - (5)  `M_3D = (1/P)(2 n Pz + n log(n/Pz))`
//! - (6)  `W_2D = n log n / sqrt(P)`
//! - (7)  `W_3D^{xy} = (n/sqrt(P)) (2 sqrt(Pz) + log n / sqrt(Pz))`
//! - (8)  optimal `Pz = (1/2) log n`
//! - (10) `W_3D^{z} = n Pz log Pz / P`
//! - (12) `L_3D = n/Pz + sqrt(n)`, versus `L_2D = n` (3)

use crate::{lg, Alg, CostPrediction};

/// Cost model for a planar model problem of dimension `n` on `P` processes.
#[derive(Clone, Copy, Debug)]
pub struct PlanarModel {
    pub n: f64,
    pub p: f64,
}

impl PlanarModel {
    pub fn new(n: f64, p: f64) -> Self {
        assert!(n > 1.0 && p >= 1.0);
        PlanarModel { n, p }
    }

    /// Per-process memory in words (equations (4) and (5)).
    pub fn memory(&self, alg: Alg, pz: f64) -> f64 {
        let (n, p) = (self.n, self.p);
        match alg {
            Alg::TwoD => n / p * lg(n),
            Alg::ThreeD => (2.0 * n * pz + n * lg(n / pz)) / p,
        }
    }

    /// Per-process communication volume on the critical path, in words
    /// (equations (6), (7) + (10)).
    pub fn comm(&self, alg: Alg, pz: f64) -> f64 {
        match alg {
            Alg::TwoD => self.n * lg(self.n) / self.p.sqrt(),
            Alg::ThreeD => self.comm_xy(pz) + self.comm_z(pz),
        }
    }

    /// The xy-plane (2D factorization) term of the 3D volume alone:
    /// equation (7), `W_3D^{xy}`.
    fn comm_xy(&self, pz: f64) -> f64 {
        let (n, p) = (self.n, self.p);
        n / p.sqrt() * (2.0 * pz.sqrt() + lg(n) / pz.sqrt())
    }

    /// The z-axis ancestor-reduction term alone: equation (10),
    /// `W_3D^{z}`. Note `lg` floors at 1.0, so this term stays positive
    /// even at `pz = 1` — kept as-is so `comm()` is exactly the historic
    /// sum; conformance skips the z-share check at `pz = 1`.
    pub fn comm_z(&self, pz: f64) -> f64 {
        let (n, p) = (self.n, self.p);
        n * pz * lg(pz).max(0.0) / p
    }

    /// Messages on the critical path (equations (3) and (12)). Expressed in
    /// units of supernode steps: the 2D algorithm touches every one of the
    /// `O(n)` supernodes on every process; the 3D algorithm only the local
    /// tree (`n / Pz`) plus the replicated ancestors (`sqrt(n)`).
    pub fn latency(&self, alg: Alg, pz: f64) -> f64 {
        let n = self.n;
        match alg {
            Alg::TwoD => n,
            Alg::ThreeD => n / pz + n.sqrt(),
        }
    }

    /// Full prediction triple. `pz` is ignored for [`Alg::TwoD`].
    pub fn predict(&self, alg: Alg, pz: f64) -> CostPrediction {
        CostPrediction {
            memory_words: self.memory(alg, pz),
            comm_words: self.comm(alg, pz),
            latency_msgs: self.latency(alg, pz),
        }
    }
}

/// Equation (8): the communication-minimizing `Pz` for planar problems,
/// `Pz* = (1/2) log2 n`, rounded to the nearest integer (the implementation
/// additionally rounds to a power of two when configuring real grids).
pub fn optimal_pz_planar(n: f64) -> usize {
    (0.5 * lg(n)).round().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w3d_has_interior_minimum_in_pz() {
        // Equation (7): W^xy is minimized near Pz = log(n)/2; the full W
        // (with the reduction term) still has an interior minimum.
        let m = PlanarModel::new(2f64.powi(22), 4096.0);
        let w: Vec<f64> = (0..8)
            .map(|l| m.comm(Alg::ThreeD, (1u32 << l) as f64))
            .collect();
        let min_idx = w
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(min_idx > 0 && min_idx < 7, "minimum at boundary: {w:?}");
    }

    #[test]
    fn memory_overhead_is_mild_for_planar() {
        // Paper Fig. 11: ~30% overhead at Pz=16 for K2D5pt.
        let m = PlanarModel::new(16.8e6, 96.0);
        let m2 = m.memory(Alg::TwoD, 1.0);
        let m3 = m.memory(Alg::ThreeD, 16.0);
        let overhead = m3 / m2 - 1.0;
        assert!(overhead > 0.0 && overhead < 1.5, "overhead {overhead}");
    }

    #[test]
    fn comm_2d_scaling_in_p() {
        let a = PlanarModel::new(1e6, 64.0).comm(Alg::TwoD, 1.0);
        let b = PlanarModel::new(1e6, 256.0).comm(Alg::TwoD, 1.0);
        assert!((a / b - 2.0).abs() < 1e-9); // ~ 1/sqrt(P)
    }
}
