//! Fig. 10: per-process communication volume by grid configuration, split
//! into `W_fact` (xy-plane words during 2D factorization) and `W_red`
//! (z-axis words during ancestor reduction), for a planar matrix (K2D5pt)
//! and a non-planar one (nlpkkt), at two machine sizes.
//!
//! The volumes are read from the wire ledger (`obs::commvol`); every row
//! checks the delivery invariant `total_recv_words == total_sent_words`.
//! The class columns break the machine-wide volume into L-panel, U-panel,
//! and z-reduction traffic, and `waste` is the fraction of shipped words
//! that were dense-tile zero-padding (see docs/commvol.md).
//!
//! ```sh
//! cargo run --release -p bench --bin fig10_comm_volume
//! ```

use bench::{matrix, prepare, print_table, run_config, PZ_SWEEP};
use simgrid::CommClass;

fn main() {
    println!("Fig. 10 reproduction — per-process communication volume (bytes)\n");
    for name in ["k2d5pt", "nlpkkt"] {
        let tm = matrix(name);
        let prep = prepare(&tm);
        for p in [16usize, 64] {
            println!("--- {name} ({}), P = {p} ---", tm.paper_name);
            let mut rows = Vec::new();
            let mut w_prev: Option<u64> = None;
            for &pz in PZ_SWEEP {
                let Some(out) = run_config(&prep, p, pz) else {
                    continue;
                };
                let max_phase = |phase: &str| {
                    out.reports
                        .iter()
                        .map(|r| r.commvol.phase_words(phase))
                        .max()
                        .unwrap_or(0)
                };
                let wf = max_phase("fact") * 8;
                let wr = max_phase("reduce") * 8;
                let total = wf + wr;
                let s = out.summary();
                // Delivery invariant: every sent word was consumed.
                assert_eq!(s.total_recv_words, s.total_sent_words);
                let trend = match w_prev {
                    Some(prev) if total > prev => "up".to_string(),
                    Some(_) => "down".to_string(),
                    None => "-".to_string(),
                };
                w_prev = Some(total);
                // Machine-wide class split and padding waste over the
                // packed-panel classes.
                let lw = out.class_words(CommClass::LPanel) * 8;
                let uw = out.class_words(CommClass::UPanel) * 8;
                let zw = out.class_words(CommClass::ZReduction) * 8;
                let (mut words, mut sw) = (0u64, 0u64);
                for r in &out.reports {
                    for c in [CommClass::LPanel, CommClass::UPanel, CommClass::ZReduction] {
                        let cc = r.commvol.class_cell(c);
                        words += cc.words;
                        sw += cc.struct_words;
                    }
                }
                let waste = if words == 0 {
                    0.0
                } else {
                    100.0 * (words - sw) as f64 / words as f64
                };
                rows.push(vec![
                    format!("{}x{}", p / pz, pz),
                    format!("{wf}"),
                    format!("{wr}"),
                    format!("{total}"),
                    format!("{}", s.max_recv_words * 8),
                    format!("{lw}"),
                    format!("{uw}"),
                    format!("{zw}"),
                    format!("{waste:.1}%"),
                    trend,
                ]);
            }
            print_table(
                &[
                    "Pxy x Pz",
                    "W_fact (B)",
                    "W_red (B)",
                    "W_total (B)",
                    "W_recv (B)",
                    "L-panel (B)",
                    "U-panel (B)",
                    "Z-red (B)",
                    "waste",
                    "trend",
                ],
                &rows,
            );
            println!();
        }
    }
    println!(
        "Paper shapes to verify (§V-D): W_fact falls as Pz grows; W_red grows\n\
         ~linearly with Pz and stays negligible for the planar matrix (small\n\
         separators) but becomes significant for nlpkkt, whose W_total\n\
         re-increases at large Pz (crossover at Pz=8->16 on 16 nodes).\n\
         Reported reductions: planar 3-4.7x, non-planar 2.5-3.7x."
    );
}
