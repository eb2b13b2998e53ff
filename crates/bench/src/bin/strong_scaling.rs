//! Strong-scaling study (paper §V-F and §I): for a fixed problem, sweep the
//! total process count and compare the best 2D configuration against the
//! best 3D configuration at each P. The paper's claim: the 3D algorithm
//! "can use up to 16x more processors for the same problem size with
//! continued time reduction".
//!
//! ```sh
//! cargo run --release -p bench --bin strong_scaling
//! ```

use bench::{matrix, prepare, print_table};
use lu3d::solver::{factor_only, SolverConfig};
use simgrid::TimeModel;

const P_SWEEP: &[usize] = &[4, 8, 16, 32, 64, 128];

fn layer(pxy: usize) -> (usize, usize) {
    let mut pr = (pxy as f64).sqrt() as usize;
    while pr > 1 && !pxy.is_multiple_of(pr) {
        pr -= 1;
    }
    (pr.max(1), pxy / pr.max(1))
}

fn main() {
    println!("Strong scaling — best 2D vs best 3D configuration per P\n");
    for name in ["k2d5pt", "serena3d"] {
        let tm = matrix(name);
        let prep = prepare(&tm);
        println!(
            "--- {name} ({}, {:?}) n = {} ---",
            tm.paper_name, tm.class, tm.matrix.nrows
        );
        let mut rows = Vec::new();
        let mut best2d_overall = f64::INFINITY;
        let mut best3d_overall = f64::INFINITY;
        let mut p_min_2d = 0usize;
        let mut p_min_3d = 0usize;
        for &p in P_SWEEP {
            let (pr, pc) = layer(p);
            let t2 = factor_only(
                &prep,
                &SolverConfig {
                    pr,
                    pc,
                    pz: 1,
                    model: TimeModel::edison_like(),
                    ..Default::default()
                },
            )
            .makespan();
            // Best 3D over the power-of-two Pz dividing P.
            let mut t3 = f64::INFINITY;
            let mut best_pz = 1;
            let mut pz = 2usize;
            while pz <= p {
                if p % pz == 0 {
                    let (pr, pc) = layer(p / pz);
                    let t = factor_only(
                        &prep,
                        &SolverConfig {
                            pr,
                            pc,
                            pz,
                            model: TimeModel::edison_like(),
                            ..Default::default()
                        },
                    )
                    .makespan();
                    if t < t3 {
                        t3 = t;
                        best_pz = pz;
                    }
                }
                pz *= 2;
            }
            if t2 < best2d_overall {
                best2d_overall = t2;
                p_min_2d = p;
            }
            if t3 < best3d_overall {
                best3d_overall = t3;
                p_min_3d = p;
            }
            rows.push(vec![
                p.to_string(),
                format!("{t2:.5}"),
                format!("{t3:.5}"),
                format!("Pz={best_pz}"),
                format!("{:.2}x", t2 / t3),
            ]);
        }
        print_table(
            &["P", "T_2D (s)", "T_3D best (s)", "best Pz", "3D speedup"],
            &rows,
        );
        println!(
            "2D is fastest at P = {p_min_2d}, 3D at P = {p_min_3d} \
             ({:.2}x the processes 2D can use)\n",
            p_min_3d as f64 / p_min_2d.max(1) as f64
        );
    }
    println!(
        "Paper §V-F / §I: the 3D algorithm keeps reducing time up to 16x\n\
         more processes than 2D on the same problem."
    );
}
