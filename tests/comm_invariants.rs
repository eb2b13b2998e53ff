//! Communication and memory invariants: the measured counters of the
//! simulated machine must reproduce the paper's qualitative claims. Runs
//! come from `contracts::table::suite`, one per (matrix, P, Pz) per binary.

mod contracts;

use contracts::table::suite;
use contracts::{check, Contract::*};
use salu::prelude::*;

/// The threaded factor-only run of a suite matrix on `p` ranks in `pz`
/// layers.
fn run(name: &'static str, scale: Scale, p: usize, pz: usize) -> &'static Output3d {
    let shape = suite(name, scale, p, pz);
    &contracts::run(&shape, shape.run(Backend::Threaded)).out
}

#[test]
fn pz1_has_no_reduction_traffic() {
    let out = run("k2d5pt", Scale::Tiny, 8, 1);
    assert_eq!(out.w_red(), 0);
    assert!(out.w_fact() > 0);
}

#[test]
fn w_fact_decreases_monotonically_with_pz_planar() {
    // The core claim behind Fig. 10's planar panel.
    let w: Vec<u64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&pz| run("k2d5pt", Scale::Small, 16, pz).w_fact())
        .collect();
    for pair in w.windows(2) {
        assert!(pair[1] < pair[0], "W_fact must fall with Pz: {w:?}");
    }
}

#[test]
fn w_red_grows_with_pz() {
    let w: Vec<u64> = [2usize, 4, 8]
        .iter()
        .map(|&pz| run("nlpkkt", Scale::Tiny, 16, pz).w_red())
        .collect();
    assert!(w[2] > w[0], "W_red must grow with Pz: {w:?}");
}

#[test]
fn nonplanar_pays_more_memory_overhead_than_planar() {
    // Fig. 11's key contrast.
    let overhead = |name| -> f64 {
        let base = run(name, Scale::Small, 16, 1).total_store_words as f64;
        let rep = run(name, Scale::Small, 16, 8).total_store_words as f64;
        rep / base - 1.0
    };
    let po = overhead("k2d5pt");
    let no = overhead("serena3d");
    assert!(no > po, "non-planar overhead {no:.2} <= planar {po:.2}");
    assert!(po >= 0.0, "replication cannot shrink memory");
}

#[test]
fn simulated_time_improves_with_pz_for_planar() {
    // Fig. 9's planar shape at the communication-bound scale.
    let t1 = run("k2d5pt", Scale::Small, 16, 1).makespan();
    let t4 = run("k2d5pt", Scale::Small, 16, 4).makespan();
    assert!(t4 < t1, "3D (Pz=4) must beat 2D on planar: {t4} vs {t1}");
}

#[test]
fn latency_messages_fall_with_pz() {
    // The paper's latency claim: the number of messages on the critical
    // path shrinks roughly like Pz for the subtree levels.
    let m1 = run("k2d5pt", Scale::Small, 16, 1).summary().max_sent_msgs;
    let m8 = run("k2d5pt", Scale::Small, 16, 8).summary().max_sent_msgs;
    let fell = (m8 as f64) < 0.7 * m1 as f64;
    assert!(fell, "messages must fall: {m8} vs {m1}");
}

#[test]
fn total_flops_are_grid_invariant() {
    // The same factorization arithmetic happens regardless of distribution.
    let f1 = run("s2d9pt", Scale::Tiny, 8, 1).summary().total_flops;
    let f2 = run("s2d9pt", Scale::Tiny, 8, 2).summary().total_flops;
    let f3 = run("s2d9pt", Scale::Tiny, 16, 4).summary().total_flops;
    assert_eq!(f1, f2);
    assert_eq!(f1, f3);
}

/// Senders and receivers book the wire ledger independently; the two sides
/// agree edge by edge. `contracts::own_ledgers` checks it of every run the
/// harness makes; this is the shape it was first pinned on.
#[test]
fn wire_ledger_conserves_words_per_edge() {
    let shape = suite("k2d5pt", Scale::Tiny, 8, 2);
    let run = shape.run(Backend::Threaded);
    contracts::own_ledgers(&shape, run, &contracts::run(&shape, run).out);
}

#[test]
fn measured_per_rank_volume_falls_with_pz_planar() {
    // The acceptance claim behind the replication audit: on a planar
    // matrix, growing Pz at fixed P must cut the measured per-rank wire
    // volume, not just the modeled one.
    let w1 = run("k2d5pt", Scale::Small, 16, 1).max_rank_sent_words();
    let w4 = run("k2d5pt", Scale::Small, 16, 4).max_rank_sent_words();
    assert!(w4 < w1, "per-rank wire volume must fall: {w4} vs {w1}");
}

#[test]
fn wire_classes_and_axes_cover_the_algorithm() {
    let words = |out: &Output3d, path: &[&str]| {
        let wire = out.account();
        wire.at(&["sim", "commvol"]).unwrap().num_at(path).unwrap()
    };
    let out = run("k2d5pt", Scale::Tiny, 8, 2);
    // A 3D factorization ships L panels, U panels, and z reductions.
    for class in ["LPanel", "UPanel", "ZReduction"] {
        let sent = words(out, &["by_class", class, "words"]);
        assert!(sent > 0.0, "no {class} traffic charged");
    }
    assert!(words(out, &["by_axis", "z"]) > 0.0, "no z words at Pz=2");
    // Pure 2D runs have neither z-axis edges nor reduction payloads.
    let flat = run("k2d5pt", Scale::Tiny, 8, 1);
    assert_eq!(words(flat, &["by_class", "ZReduction", "words"]), 0.0);
    assert_eq!(words(flat, &["by_axis", "z"]), 0.0);
}

/// A rerun repeats every counter, ledger and the digest bitwise, and the
/// store words with them.
#[test]
fn deterministic_counters_across_runs() {
    let shape = suite("g3circuit", Scale::Tiny, 8, 2);
    check(&[shape], &[Rerun(Backend::Threaded)]);
    let a = run("g3circuit", Scale::Tiny, 8, 2);
    let b = &contracts::run(&shape, shape.run(Backend::Threaded).nth(1)).out;
    assert_eq!(a.w_fact(), b.w_fact());
    assert_eq!(a.w_red(), b.w_red());
    assert_eq!(a.total_store_words, b.total_store_words);
    assert_eq!(a.summary().max_sent_msgs, b.summary().max_sent_msgs);
}

/// Algorithm 1 traced: every rank's span store is ordered, nested and
/// non-overlapping, on both backends.
#[test]
fn traced_3d_run_has_consistent_timelines() {
    check(
        &[suite("k2d5pt", Scale::Tiny, 4, 2).traced(true)],
        &[TraceValid],
    );
}

#[test]
fn memory_accounting_matches_symbolic_prediction_in_2d() {
    // In pure 2D, the sum of all ranks' stores equals the symbolic
    // prediction of the compressed blocks exactly (no replication).
    let shape = suite("ecology", Scale::Tiny, 4, 1).zero_time(true);
    let out = &contracts::run(&shape, shape.run(Backend::Threaded)).out;
    let predicted = contracts::prep(&shape).sym.stored_words();
    assert_eq!(out.total_store_words, predicted);
}
