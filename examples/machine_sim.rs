//! Simulated-machine demo: use `simgrid` directly — SPMD ranks, tree
//! collectives, traffic phases, and the α-β clock — independent of the LU
//! stack. Useful as a template for building other distributed algorithms on
//! the same substrate.
//!
//! ```sh
//! cargo run --release --example machine_sim
//! ```

use salu::simgrid::topology::build_grid_comms;
use salu::simgrid::{Grid3d, Machine, Payload, TimeModel};

fn main() {
    let grid = Grid3d::new(2, 2, 2); // 8 ranks as 2 stacked 2x2 grids
    let machine = Machine::new(grid.size(), TimeModel::edison_like());

    let out = machine.run(move |rank| {
        let comms = build_grid_comms(rank, &grid);
        let (r, c, z) = comms.coords;

        // Phase 1: "fact" traffic — a row broadcast and a column reduce,
        // the communication shapes of the 2D panel kernels.
        rank.set_phase("fact");
        let row_data = if comms.row.local_rank() == 0 {
            Some(Payload::F64s(vec![rank.id() as f64; 1000]))
        } else {
            None
        };
        let panel = rank.bcast(&comms.row, 0, row_data, 1).into_f64s();
        let colsum = rank.reduce_sum(&comms.col, 0, vec![panel[0]; 500], 2);

        // Phase 2: "reduce" traffic — the z-axis point-to-point exchange of
        // the ancestor-reduction step.
        rank.set_phase("reduce");
        if z == 1 {
            rank.send(&comms.zline, 0, 3, Payload::F64s(vec![1.0; 2000]));
        } else {
            let _ = rank.recv(&comms.zline, 1, 3);
        }

        // Simulate some local compute: 50 Mflop.
        rank.advance_compute(50_000_000);
        (r, c, z, colsum.is_some())
    });

    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "rank", "(r,c,z)", "clock", "t_comp", "t_comm", "words"
    );
    for (i, rep) in out.reports.iter().enumerate() {
        let (r, c, z, _) = out.results[i];
        println!(
            "{:>6} {:>8} {:>10.6} {:>10.6} {:>10.6} {:>10}",
            i,
            format!("({r},{c},{z})"),
            rep.clock,
            rep.t_comp,
            rep.t_comm,
            rep.commvol.sent_words()
        );
    }
    let s = out.summary();
    println!(
        "\nmakespan = {:.6}s; max per-rank sent = {} words ({} in 'fact', {} in 'reduce')",
        s.makespan,
        s.max_sent_words,
        salu::simgrid::TrafficSummary::max_sent_in(&out.reports, "fact").1,
        salu::simgrid::TrafficSummary::max_sent_in(&out.reports, "reduce").1,
    );
}
