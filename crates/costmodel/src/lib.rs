#![forbid(unsafe_code)]

//! Analytical cost models from the paper's Section IV (Table II).
//!
//! These closed-form expressions predict per-process memory (`M`),
//! per-process communication volume on the critical path (`W`), and latency
//! (`L`, messages on the critical path) for the 2D baseline and the 3D
//! algorithm, on planar (2D-geometry) and non-planar (3D-geometry) model
//! problems. The experiment harness prints them side by side with measured
//! counters (`salu-campaign figures`, Table II), and [`optimal_pz_planar`]
//! implements Equation (8): `Pz* = (1/2) log2 n`.
//!
//! All functions work in *words* (8-byte units) and *message counts*; they
//! are exact up to the constant factors the paper keeps explicit.

//! ```
//! use costmodel::{optimal_pz_planar, Alg, PlanarModel};
//!
//! let model = PlanarModel::new((1u64 << 22) as f64, 4096.0);
//! let w2d = model.comm(Alg::TwoD, 1.0);
//! let pz = optimal_pz_planar((1u64 << 22) as f64) as f64;
//! let w3d = model.comm(Alg::ThreeD, pz);
//! assert!(w3d < w2d); // the 3D algorithm communicates less at Pz*
//! ```

pub mod conformance;
pub mod nonplanar;
pub mod planar;

pub use conformance::{check_conformance, ConformanceCheck, ConformanceInput, ConformanceReport};
pub use nonplanar::NonPlanarModel;
pub use planar::{optimal_pz_planar, PlanarModel};

/// Which algorithm a prediction refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Alg {
    /// Baseline `dSparseLU2D` on a `sqrt(P) x sqrt(P)`-ish grid.
    TwoD,
    /// The paper's `dSparseLU3D` with a given `Pz`.
    ThreeD,
}

/// A prediction triple: memory, communication volume, latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostPrediction {
    /// Per-process memory, in words.
    pub memory_words: f64,
    /// Per-process communication volume on the critical path, in words.
    pub comm_words: f64,
    /// Messages on the critical path.
    pub latency_msgs: f64,
}

/// log2 with a floor of 1 to keep the asymptotic formulas meaningful for
/// tiny `n` used in tests.
pub(crate) fn lg(x: f64) -> f64 {
    x.log2().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planar_3d_beats_2d_in_comm_at_scale() {
        // For a large planar problem the 3D algorithm at the optimal Pz
        // reduces W by ~ sqrt(log n) (paper abstract).
        let n = 1 << 24;
        let p = 4096;
        let pz = optimal_pz_planar(n as f64).max(2) as f64;
        let m2 = PlanarModel::new(n as f64, p as f64);
        let w2 = m2.predict(Alg::TwoD, 1.0).comm_words;
        let w3 = m2.predict(Alg::ThreeD, pz).comm_words;
        assert!(w3 < w2, "w3={w3} w2={w2}");
        let gain = w2 / w3;
        let expected = (lg(n as f64)).sqrt();
        // Within a factor ~3 of the asymptotic prediction.
        assert!(gain > expected / 3.0, "gain={gain} expected~{expected}");
    }

    #[test]
    fn planar_3d_latency_factor() {
        let n = 1u64 << 20;
        let p = 1024u64;
        let pz = 8.0;
        let m = PlanarModel::new(n as f64, p as f64);
        let l2 = m.predict(Alg::TwoD, 1.0).latency_msgs;
        let l3 = m.predict(Alg::ThreeD, pz).latency_msgs;
        // L3D = n/Pz + sqrt(n) << L2D = n
        assert!(l3 < l2 / (pz / 2.0));
    }

    #[test]
    fn optimal_pz_matches_eq8() {
        assert_eq!(optimal_pz_planar(2f64.powi(16)), 8); // 16/2
        assert_eq!(optimal_pz_planar(2f64.powi(24)), 12);
    }

    #[test]
    fn nonplanar_memory_grows_with_pz() {
        // Non-planar separators are large: replicating them is expensive
        // (paper: 200% overhead at Pz=16 for nlpkkt80).
        let m = NonPlanarModel::new(1e6, 1024.0);
        let m1 = m.predict(Alg::ThreeD, 1.0).memory_words;
        let m16 = m.predict(Alg::ThreeD, 16.0).memory_words;
        assert!(m16 > 1.5 * m1);
    }

    #[test]
    fn nonplanar_comm_gain_saturates_near_3x() {
        // Paper §IV-C: best-case per-process communication reduction for
        // non-planar problems is a constant ~2.89x.
        let m = NonPlanarModel::new(1e7, 4096.0);
        let w2 = m.predict(Alg::TwoD, 1.0).comm_words;
        let best = (1..=7)
            .map(|l| {
                let pz = (1 << l) as f64;
                w2 / m.predict(Alg::ThreeD, pz).comm_words
            })
            .fold(0.0f64, f64::max);
        assert!(best > 1.5 && best < 4.0, "best gain {best}");
    }
}
