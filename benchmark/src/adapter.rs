//! The adapter: the one file that names the solver's configuration knobs
//! and the entry points of the matrix-in -> solution-out path.
//!
//! The benchmark measures defaults. The only `SolverConfig` fields named
//! here are the process grid (`pr`/`pc`/`pz`), `refine_steps` (one
//! workload), `backend` (one workload, plus the other-backend probe) and
//! `tracing` (one probe). A later change that removes one of these knobs is
//! preceded by a benchmark change that stops naming it here.

use crate::spans::Spans;
use salu::ordering::{nested_dissection, Graph, NdOptions};
use salu::prelude::*;
use salu::sparsemat::{io, matgen};
use salu::symbolic::Symbolic;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Problem sizes: `Full` is what the driver measures, `Smoke` a seconds-long
/// miniature of the same four shapes for the package's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// The value of `--scale`.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn parse(text: &str) -> Option<Scale> {
        [Scale::Full, Scale::Smoke]
            .into_iter()
            .find(|s| s.as_str() == text)
    }
}

/// Where a workload's matrix comes from.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// `grid2d_5pt` k x k with geometric nested dissection.
    Planar(usize),
    /// `grid3d_7pt` k^3 with geometric nested dissection.
    NonPlanar(usize),
    /// `kkt_3d` k^3 with multilevel nested dissection.
    Kkt(usize),
    /// `grid2d_random_deletions` k x k, written to a Matrix Market file and
    /// read back as a general matrix: the `salu --mtx` user path.
    MtxFile(usize),
}

/// Value asymmetry of the stencil generators, as in the campaign runner.
const UNSYM: f64 = 0.1;
/// Edge-deletion probability of the circuit proxy.
const DELETION_PROB: f64 = 0.15;
/// Regularization of the KKT (2,2) block, as in `salu --gen kkt:K`.
const KKT_REG: f64 = 1e-2;

/// One benchmark workload: a matrix source and the solver shape it runs on.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    source: Source,
    leaf: usize,
    maxsup: usize,
    /// Process grid `pr x pc x pz`.
    pub grid: (usize, usize, usize),
    pub refine_steps: usize,
    /// Run on the event backend (the only way to hold P = 1024 on one core).
    event: bool,
}

/// Workload names, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 4] = [
    "planar_refine",
    "nonplanar_schur",
    "kkt_scale",
    "mtx_general",
];

/// Look a workload up by name.
pub fn workload(name: &str, scale: Scale) -> Option<Workload> {
    let full = scale == Scale::Full;
    let pick = |f: usize, s: usize| if full { f } else { s };
    let w = match name {
        "planar_refine" => Workload {
            name: "planar_refine",
            source: Source::Planar(pick(256, 48)),
            leaf: 32,
            maxsup: 32,
            grid: (2, 2, 4),
            refine_steps: 2,
            event: false,
        },
        "nonplanar_schur" => Workload {
            name: "nonplanar_schur",
            source: Source::NonPlanar(pick(24, 8)),
            leaf: 32,
            maxsup: 32,
            grid: (1, 1, 1),
            refine_steps: 0,
            event: false,
        },
        "kkt_scale" => Workload {
            name: "kkt_scale",
            source: Source::Kkt(pick(12, 4)),
            leaf: 16,
            maxsup: 24,
            grid: if full { (16, 16, 4) } else { (4, 4, 4) },
            refine_steps: 0,
            event: true,
        },
        "mtx_general" => Workload {
            name: "mtx_general",
            source: Source::MtxFile(pick(200, 40)),
            leaf: 32,
            maxsup: 32,
            grid: (1, 2, 2),
            refine_steps: 0,
            event: false,
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// Number of simulated processes.
    pub fn nranks(&self) -> usize {
        self.grid.0 * self.grid.1 * self.grid.2
    }

    /// True for the workload whose matrix arrives as a file.
    pub fn reads_file(&self) -> bool {
        matches!(self.source, Source::MtxFile(_))
    }

    fn generate(&self, seed: u64) -> Csr {
        match self.source {
            Source::Planar(k) => matgen::grid2d_5pt(k, k, UNSYM, seed),
            Source::NonPlanar(k) => matgen::grid3d_7pt(k, k, k, UNSYM, seed),
            Source::Kkt(k) => matgen::kkt_3d(k, k, k, KKT_REG, seed),
            Source::MtxFile(k) => matgen::grid2d_random_deletions(k, k, DELETION_PROB, seed),
        }
    }

    fn geometry(&self) -> Geometry {
        match self.source {
            Source::Planar(k) => Geometry::Grid2d { nx: k, ny: k },
            Source::NonPlanar(k) => Geometry::Grid3d {
                nx: k,
                ny: k,
                nz: k,
            },
            Source::Kkt(_) | Source::MtxFile(_) => Geometry::General,
        }
    }
}

/// SplitMix64: the benchmark's own generator for the true solution, so the
/// right-hand side depends on `--seed` and on nothing in the solver.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything one run's operations consume, made from the seed before any
/// timer starts.
pub struct Inputs {
    seed: u64,
    /// The generated matrix: the reference the output checks use.
    pub a: Csr,
    /// Right-hand side `A * x_true`, `x_true` uniform in [-1, 1).
    pub b: Vec<f64>,
    norm_a: f64,
    norm_b: f64,
    mtx: Option<PathBuf>,
}

impl Inputs {
    /// Generate the matrix and right-hand side; for the file workload also
    /// write the Matrix Market file under `tmp`.
    pub fn generate(w: &Workload, seed: u64, tmp: &Path) -> std::io::Result<Inputs> {
        let a = w.generate(seed);
        let mut state = seed;
        let x_true: Vec<f64> = (0..a.nrows)
            .map(|_| (splitmix64(&mut state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
            .collect();
        let b = a.matvec(&x_true);
        let norm_a = (0..a.nrows)
            .map(|i| a.row_vals(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max);
        let norm_b = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mut inputs = Inputs {
            seed,
            a,
            b,
            norm_a,
            norm_b,
            mtx: None,
        };
        if w.reads_file() {
            inputs.write_mtx(w, tmp)?;
        }
        Ok(inputs)
    }

    /// Write the matrix as a Matrix Market file (once) and return its size
    /// in bytes.
    pub fn write_mtx(&mut self, w: &Workload, tmp: &Path) -> std::io::Result<u64> {
        let path = match &self.mtx {
            Some(p) => p.clone(),
            None => {
                std::fs::create_dir_all(tmp)?;
                let path = tmp.join(format!(
                    "{}-{}-{}.mtx",
                    w.name,
                    self.seed,
                    std::process::id()
                ));
                let mut out = BufWriter::new(std::fs::File::create(&path)?);
                io::write_matrix_market(&mut out, &self.a)?;
                out.flush()?;
                self.mtx = Some(path.clone());
                path
            }
        };
        Ok(std::fs::metadata(path)?.len())
    }

    /// FNV-1a over the right-hand side's bit patterns.
    pub fn rhs_digest(&self) -> u64 {
        self.b.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Normwise backward error `|b - A x| / (|A| |x| + |b|)` in the
    /// infinity norm, against the generated matrix.
    pub fn backward_error(&self, x: &[f64]) -> f64 {
        let norm_x = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        self.a.residual_inf(x, &self.b) / (self.norm_a * norm_x + self.norm_b)
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        if let Some(path) = &self.mtx {
            // Best effort: the file sits in the build directory either way.
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Parse the Matrix Market file written by [`Inputs::write_mtx`].
pub fn parse_mtx(inputs: &Inputs) -> Csr {
    let path = inputs.mtx.as_ref().expect("write_mtx ran first");
    io::read_matrix_market_file(path).expect("the file this run wrote parses")
}

/// Run the generator alone (the input stage of the generated workloads).
pub fn generate_matrix(w: &Workload, inputs: &Inputs) -> Csr {
    w.generate(inputs.seed)
}

/// Matrix input: parse the Matrix Market file, or generate from the seed.
fn read_matrix(w: &Workload, inputs: &Inputs) -> Csr {
    if w.reads_file() {
        parse_mtx(inputs)
    } else {
        generate_matrix(w, inputs)
    }
}

/// Set-up as a user gets it: matrix input through `Prepared::new` (graph,
/// nested dissection, permutation, symbolic analysis).
pub fn setup(w: &Workload, inputs: &Inputs) -> Prepared {
    Prepared::new(read_matrix(w, inputs), w.geometry(), w.leaf, w.maxsup)
}

/// The same set-up taken apart stage by stage, a span around each call.
/// Mirrors `Prepared::new`; the traced/untraced difference the benchmark
/// reports would show the two drifting apart.
pub fn staged_setup(w: &Workload, inputs: &Inputs, spans: &mut Spans) -> Prepared {
    let input_span = if w.reads_file() {
        "sparsemat.mtx_read"
    } else {
        "sparsemat.gen"
    };
    let a = spans.scope(input_span, |_| read_matrix(w, inputs));
    let g = spans.scope("ordering.graph", |_| Graph::from_matrix(&a));
    let tree = spans.scope("ordering.nd", |_| {
        nested_dissection(
            &g,
            NdOptions {
                leaf_size: w.leaf,
                geometry: w.geometry(),
                ..Default::default()
            },
        )
    });
    let pa = spans.scope("sparsemat.permute", |_| {
        a.permute_sym(&tree.perm).symmetrize_pattern()
    });
    let sym = spans.scope("symbolic.analyze", |_| {
        Symbolic::analyze(&pa, &tree, w.maxsup)
    });
    Prepared {
        a: Arc::new(a),
        pa: Arc::new(pa),
        tree: Arc::new(tree),
        sym: Arc::new(sym),
    }
}

/// The solver shapes the benchmark runs: the workload's own, and the
/// variations the per-layer probes compare it with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The workload as defined.
    Default,
    /// Same process count on one near-square layer (`pz = 1`): the 2D
    /// baseline of the paper's headline ratios.
    Flat2d,
    /// One process: what the always-on instruments cost a single rank.
    SingleRank,
    /// The opt-in span/activity recorder switched on.
    Traced,
    /// The execution backend the workload does not use.
    OtherBackend,
}

/// Near-square `pr x pc` factorization of `p`.
fn near_square(p: usize) -> (usize, usize) {
    let mut pr = (p as f64).sqrt() as usize;
    while !p.is_multiple_of(pr) {
        pr -= 1;
    }
    (pr, p / pr)
}

/// Process grid of one variant.
pub fn grid_of(w: &Workload, variant: Variant) -> (usize, usize, usize) {
    match variant {
        Variant::Flat2d => {
            let (pr, pc) = near_square(w.nranks());
            (pr, pc, 1)
        }
        Variant::SingleRank => (1, 1, 1),
        _ => w.grid,
    }
}

fn config(w: &Workload, variant: Variant) -> SolverConfig {
    let (pr, pc, pz) = grid_of(w, variant);
    let event = w.event != (variant == Variant::OtherBackend);
    SolverConfig {
        pr,
        pc,
        pz,
        refine_steps: w.refine_steps,
        backend: if event {
            Backend::Event
        } else {
            Backend::Threaded
        },
        tracing: variant == Variant::Traced,
        ..Default::default()
    }
}

/// The execution backends, by the suffix their probe metrics carry.
pub const BACKENDS: [(&str, Backend); 2] =
    [("threaded", Backend::Threaded), ("event", Backend::Event)];

/// A bare simulated machine for the `simgrid` probes.
pub fn machine(nranks: usize, backend: Backend) -> Machine {
    Machine::new(nranks, TimeModel::edison_like()).with_backend(backend)
}

/// Lookahead window the solver runs with (the plan builder must match it).
pub fn lookahead(w: &Workload) -> usize {
    config(w, Variant::Default).lookahead
}

/// Pivot threshold the solver runs with (the sequential baseline matches it).
pub fn pivot_threshold(w: &Workload) -> f64 {
    config(w, Variant::Default).pivot_threshold
}

/// One operation's second half: forest, store build, factor, solve, refine.
pub fn factor_solve(
    w: &Workload,
    variant: Variant,
    prep: &Prepared,
    inputs: &Inputs,
) -> Result<Output3d, SolverError> {
    try_factor_and_solve(prep, &config(w, variant), Some(inputs.b.clone()))
}

/// Factorization alone: the quantity the paper's figures report.
pub fn factor_only(
    w: &Workload,
    variant: Variant,
    prep: &Prepared,
) -> Result<Output3d, SolverError> {
    try_factor_only(prep, &config(w, variant))
}

/// The simulated machine's deterministic outputs: equal between two runs of
/// one commit on one seed, or the run is counted as failed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimCounts {
    pub makespan_s: f64,
    pub words_max_rank: u64,
    pub msgs_max_rank: u64,
    pub peak_bytes_max_rank: u64,
    pub factor_digest: u64,
}

impl SimCounts {
    pub fn of(out: &Output3d) -> SimCounts {
        SimCounts {
            makespan_s: out.makespan(),
            words_max_rank: out.max_rank_sent_words(),
            msgs_max_rank: out
                .reports
                .iter()
                .map(|r| r.commvol.sent_msgs())
                .max()
                .unwrap_or(0),
            peak_bytes_max_rank: out.max_peak_bytes(),
            factor_digest: out.factor_digest,
        }
    }

    /// Bitwise equality (the makespan compared by its bit pattern).
    pub fn same_as(&self, other: &SimCounts) -> bool {
        self.makespan_s.to_bits() == other.makespan_s.to_bits()
            && self.words_max_rank == other.words_max_rank
            && self.msgs_max_rank == other.msgs_max_rank
            && self.peak_bytes_max_rank == other.peak_bytes_max_rank
            && self.factor_digest == other.factor_digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_square_layers() {
        assert_eq!(near_square(1), (1, 1));
        assert_eq!(near_square(4), (2, 2));
        assert_eq!(near_square(16), (4, 4));
        assert_eq!(near_square(64), (8, 8));
        assert_eq!(near_square(1024), (32, 32));
        assert_eq!(near_square(8), (2, 4));
    }

    #[test]
    fn every_listed_workload_exists_at_both_scales() {
        for name in WORKLOADS {
            for scale in [Scale::Full, Scale::Smoke] {
                let w = workload(name, scale).expect("listed workload");
                assert_eq!(w.name, name);
                assert!(w.grid.2.is_power_of_two());
            }
        }
        assert!(workload("nope", Scale::Full).is_none());
    }

    #[test]
    fn seed_drives_the_right_hand_side() {
        let w = workload("kkt_scale", Scale::Smoke).unwrap();
        let tmp = std::env::temp_dir();
        let one = Inputs::generate(&w, 1, &tmp).unwrap();
        let again = Inputs::generate(&w, 1, &tmp).unwrap();
        let two = Inputs::generate(&w, 2, &tmp).unwrap();
        assert_eq!(one.rhs_digest(), again.rhs_digest());
        assert_ne!(one.rhs_digest(), two.rhs_digest());
    }
}
