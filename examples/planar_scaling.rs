//! Planar scaling study: sweep `Pz` on a fixed total process count for the
//! paper's planar model problem and watch communication and simulated time
//! fall — a miniature of the paper's Fig. 9/10 planar columns.
//!
//! ```sh
//! cargo run --release --example planar_scaling
//! ```

use salu::prelude::*;

fn main() {
    let nx = 96;
    let a = salu::sparsemat::matgen::grid2d_5pt(nx, nx, 0.1, 7);
    let n = a.nrows;
    println!("planar problem: n = {n}, nnz = {}", a.nnz());
    let prep = Prepared::new(a, Geometry::Grid2d { nx, ny: nx }, 32, 32);

    // Fixed P = 16 ranks; trade layer size for z-depth.
    let configs: &[(usize, usize, usize)] =
        &[(4, 4, 1), (2, 4, 2), (2, 2, 4), (1, 2, 8), (1, 1, 16)];
    println!(
        "\n{:>10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "grid", "T_sim (s)", "T_scu (s)", "T_comm (s)", "W_fact+red", "mem/rank"
    );
    let mut base_t = None;
    let mut best_t = f64::INFINITY;
    for &(pr, pc, pz) in configs {
        let cfg = SolverConfig {
            pr,
            pc,
            pz,
            model: TimeModel::edison_like(),
            ..Default::default()
        };
        let out = factor_only(&prep, &cfg);
        // Critical-path rank decomposition.
        let crit = out
            .reports
            .iter()
            .max_by(|a, b| a.clock.partial_cmp(&b.clock).unwrap())
            .unwrap();
        let t = out.makespan();
        base_t.get_or_insert(t);
        best_t = best_t.min(t);
        println!(
            "{:>4}x{}x{:<3} {:>12.4} {:>12.4} {:>12.4} {:>12} {:>9.2}M",
            pr,
            pc,
            pz,
            t,
            crit.t_comp,
            crit.t_comm,
            out.w_fact() + out.w_red(),
            out.max_peak_bytes() as f64 / 8e6,
        );
    }
    println!(
        "\nbest speedup over the 2D baseline: {:.2}x",
        base_t.unwrap() / best_t
    );
    println!("(the paper reports 2-11.6x for planar matrices on 16 nodes, Fig. 9)");

    // Refresh the pinned observability artifacts (see `salu::sample`): the
    // Chrome trace and the run document of a small deterministic traced
    // run. The `observability` test asserts the committed copies match.
    let (trace, run) = salu::sample::sample_artifacts();
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/sample_trace.json", trace).expect("write trace");
    std::fs::write("results/sample_run.json", run).expect("write run document");
    println!("\nwrote results/sample_trace.json and results/sample_run.json");
}
