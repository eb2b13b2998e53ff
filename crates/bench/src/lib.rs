#![forbid(unsafe_code)]

//! Shared infrastructure for the experiment harness: scale selection, grid
//! configuration sweeps, and table formatting used by the per-figure
//! binaries.
//!
//! Every binary prints the rows/series of one table or figure from the
//! paper's evaluation section. Absolute numbers differ from the paper (the
//! substrate is a simulated machine, the matrices are scaled-down
//! structural proxies), but the *shapes* — who wins, by what factor, where
//! crossovers fall — are the reproduction targets recorded in
//! EXPERIMENTS.md.

use lu3d::solver::{factor_only, Output3d, SolverConfig};
use simgrid::{Grid2d, TimeModel};
use slu2d::driver::Prepared;
use sparsemat::testmats::{test_matrix, Scale, TestMatrix};

/// Scale selected via the `SALU_SCALE` environment variable
/// (`tiny` | `small` | `bench`; default `small`, which keeps every harness
/// under a few minutes).
pub fn scale_from_env() -> Scale {
    match std::env::var("SALU_SCALE").as_deref() {
        Ok("tiny") => Scale::Tiny,
        Ok("bench") => Scale::Bench,
        _ => Scale::Small,
    }
}

/// The per-figure matrix list: every Table III proxy.
pub fn suite(scale: Scale) -> Vec<TestMatrix> {
    sparsemat::testmats::test_suite(scale)
}

/// One named matrix at the harness scale.
pub fn matrix(name: &str) -> TestMatrix {
    test_matrix(name, scale_from_env())
}

/// Preprocess one test matrix with the harness defaults.
pub fn prepare(tm: &TestMatrix) -> Prepared {
    Prepared::new(tm.matrix.clone(), tm.geometry, 32, 32)
}

/// The `Pz` sweep used by Figs. 9-11: `1, 2, 4, 8, 16` (clamped so every
/// layer keeps at least one rank).
pub const PZ_SWEEP: &[usize] = &[1, 2, 4, 8, 16];

/// Build the grid config for `p` total ranks and a given `pz`.
pub fn config(p: usize, pz: usize, model: TimeModel) -> Option<SolverConfig> {
    if !p.is_multiple_of(pz) {
        return None;
    }
    let pxy = p / pz;
    if pxy == 0 {
        return None;
    }
    let layer = Grid2d::near_square(pxy);
    Some(SolverConfig {
        pr: layer.pr,
        pc: layer.pc,
        pz,
        model,
        ..Default::default()
    })
}

/// Run a factorization for one `(P, Pz)` point.
pub fn run_config(prep: &Prepared, p: usize, pz: usize) -> Option<Output3d> {
    let cfg = config(p, pz, TimeModel::edison_like())?;
    Some(factor_only(prep, &cfg))
}

/// Like [`run_config`] but with span tracing on, so the output supports
/// [`Output3d::critical_path`] / [`Output3d::chrome_trace`].
pub fn run_config_traced(prep: &Prepared, p: usize, pz: usize) -> Option<Output3d> {
    let mut cfg = config(p, pz, TimeModel::edison_like())?;
    cfg.tracing = true;
    Some(factor_only(prep, &cfg))
}

/// Critical-path `(T_scu, T_comm)` decomposition — the stacked components
/// of Fig. 9. For a traced run this walks the send→recv dependency graph
/// ([`simgrid::CriticalPath`]): `T_scu` is the compute time on the actual
/// critical path, `T_comm` everything else (transfers, waits, idle). For
/// untraced runs it falls back to the clock-maximal rank's totals.
pub fn critical_path_split(out: &Output3d) -> (f64, f64) {
    if let Some(cp) = out.critical_path() {
        let comp = cp.kind_attribution().get("comp").copied().unwrap_or(0.0);
        return (comp, cp.makespan - comp);
    }
    let crit = out
        .reports
        .iter()
        .max_by(|a, b| a.clock.partial_cmp(&b.clock).unwrap())
        .expect("at least one rank");
    (crit.t_comp, crit.t_comm)
}

/// Render a simple aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", line(headers.iter().map(|s| s.to_string()).collect()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_rejects_indivisible() {
        assert!(config(16, 3, TimeModel::zero()).is_none());
        assert!(config(16, 32, TimeModel::zero()).is_none());
        let c = config(16, 4, TimeModel::zero()).unwrap();
        assert_eq!(c.pr * c.pc * c.pz, 16);
    }
}
