//! Communication and memory invariants: the measured counters of the
//! simulated machine must reproduce the paper's qualitative claims.

use salu::prelude::*;

fn run(tm: &salu::sparsemat::TestMatrix, p: usize, pz: usize) -> Output3d {
    let prep = Prepared::new(tm.matrix.clone(), tm.geometry, 16, 16);
    let pxy = p / pz;
    let (pr, pc) = if pxy >= 4 { (2, pxy / 2) } else { (1, pxy) };
    factor_only(
        &prep,
        &SolverConfig {
            pr,
            pc,
            pz,
            model: TimeModel::edison_like(),
            ..Default::default()
        },
    )
}

#[test]
fn pz1_has_no_reduction_traffic() {
    let tm = test_matrix("k2d5pt", Scale::Tiny);
    let out = run(&tm, 8, 1);
    assert_eq!(out.w_red(), 0);
    assert!(out.w_fact() > 0);
}

#[test]
fn w_fact_decreases_monotonically_with_pz_planar() {
    // The core claim behind Fig. 10's planar panel.
    let tm = test_matrix("k2d5pt", Scale::Small);
    let w: Vec<u64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&pz| run(&tm, 16, pz).w_fact())
        .collect();
    for pair in w.windows(2) {
        assert!(pair[1] < pair[0], "W_fact must fall with Pz: {w:?}");
    }
}

#[test]
fn w_red_grows_with_pz() {
    let tm = test_matrix("nlpkkt", Scale::Tiny);
    let w: Vec<u64> = [2usize, 4, 8]
        .iter()
        .map(|&pz| run(&tm, 16, pz).w_red())
        .collect();
    assert!(w[2] > w[0], "W_red must grow with Pz: {w:?}");
}

#[test]
fn nonplanar_pays_more_memory_overhead_than_planar() {
    // Fig. 11's key contrast.
    let planar = test_matrix("k2d5pt", Scale::Small);
    let nonplanar = test_matrix("serena3d", Scale::Small);
    let overhead = |tm: &salu::sparsemat::TestMatrix| -> f64 {
        let base = run(tm, 16, 1).total_store_words as f64;
        let rep = run(tm, 16, 8).total_store_words as f64;
        rep / base - 1.0
    };
    let po = overhead(&planar);
    let no = overhead(&nonplanar);
    assert!(
        no > po,
        "non-planar overhead {no:.2} must exceed planar {po:.2}"
    );
    assert!(po >= 0.0, "replication cannot shrink memory");
}

#[test]
fn simulated_time_improves_with_pz_for_planar() {
    // Fig. 9's planar shape at the communication-bound scale.
    let tm = test_matrix("k2d5pt", Scale::Small);
    let t1 = run(&tm, 16, 1).makespan();
    let t4 = run(&tm, 16, 4).makespan();
    assert!(t4 < t1, "3D (Pz=4) must beat 2D on planar: {t4} vs {t1}");
}

#[test]
fn latency_messages_fall_with_pz() {
    // The paper's latency claim: the number of messages on the critical
    // path shrinks roughly like Pz for the subtree levels.
    let tm = test_matrix("k2d5pt", Scale::Small);
    let m1 = run(&tm, 16, 1).summary().max_sent_msgs;
    let m8 = run(&tm, 16, 8).summary().max_sent_msgs;
    assert!(
        (m8 as f64) < 0.7 * m1 as f64,
        "messages must fall: {m8} vs {m1}"
    );
}

#[test]
fn total_flops_are_grid_invariant() {
    // The same factorization arithmetic happens regardless of distribution.
    let tm = test_matrix("s2d9pt", Scale::Tiny);
    let f1 = run(&tm, 8, 1).summary().total_flops;
    let f2 = run(&tm, 8, 2).summary().total_flops;
    let f3 = run(&tm, 16, 4).summary().total_flops;
    assert_eq!(f1, f2);
    assert_eq!(f1, f3);
}

#[test]
fn wire_ledger_conserves_words_per_edge() {
    // Senders and receivers book the wire ledger independently; the two
    // sides must agree edge by edge (every word rank a charged toward b
    // was booked by b from a).
    use std::collections::BTreeMap;
    let tm = test_matrix("k2d5pt", Scale::Tiny);
    let out = run(&tm, 8, 2);
    let mut sent: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
    let mut recv: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
    for (me, r) in out.reports.iter().enumerate() {
        for e in &r.commvol.sent_to {
            let s = sent.entry((me, e.peer)).or_default();
            s.0 += e.msgs;
            s.1 += e.words;
        }
        for e in &r.commvol.recv_from {
            let s = recv.entry((e.peer, me)).or_default();
            s.0 += e.msgs;
            s.1 += e.words;
        }
    }
    assert_eq!(sent, recv, "per-edge (msgs, words) sent/received disagree");
}

#[test]
fn measured_per_rank_volume_falls_with_pz_planar() {
    // The acceptance claim behind the replication audit: on a planar
    // matrix, growing Pz at fixed P must cut the measured per-rank wire
    // volume, not just the modeled one.
    let tm = test_matrix("k2d5pt", Scale::Small);
    let w1 = run(&tm, 16, 1).max_rank_sent_words();
    let w4 = run(&tm, 16, 4).max_rank_sent_words();
    assert!(
        w4 < w1,
        "replication must cut per-rank wire volume: {w4} vs {w1}"
    );
}

#[test]
fn wire_classes_and_axes_cover_the_algorithm() {
    use salu::simgrid::{CommClass, GridAxis};
    let tm = test_matrix("k2d5pt", Scale::Tiny);
    let out = run(&tm, 8, 2);
    // A 3D factorization ships L panels, U panels, and z reductions.
    for class in [CommClass::LPanel, CommClass::UPanel, CommClass::ZReduction] {
        assert!(out.class_words(class) > 0, "no {class:?} traffic charged");
    }
    assert!(out.axis_words(GridAxis::Z) > 0, "no z-axis words at Pz=2");
    // Pure 2D runs have neither z-axis edges nor reduction payloads.
    let flat = run(&tm, 8, 1);
    assert_eq!(flat.class_words(CommClass::ZReduction), 0);
    assert_eq!(flat.axis_words(GridAxis::Z), 0);
}

#[test]
fn deterministic_counters_across_runs() {
    let tm = test_matrix("g3circuit", Scale::Tiny);
    let a = run(&tm, 8, 2);
    let b = run(&tm, 8, 2);
    assert_eq!(a.w_fact(), b.w_fact());
    assert_eq!(a.w_red(), b.w_red());
    assert_eq!(a.total_store_words, b.total_store_words);
    assert_eq!(a.summary().max_sent_msgs, b.summary().max_sent_msgs);
}

#[test]
fn traced_3d_run_has_consistent_timelines() {
    // Run Algorithm 1 with event tracing and validate every rank's trace:
    // ordered, non-overlapping, and summing to the reported t_comp/t_comm.
    use salu::lu3d::{factor_3d, EtreeForest, FactorProgram};
    use salu::simgrid::topology::build_grid_comms;
    use salu::simgrid::{Grid3d, Machine};
    use salu::slu2d::store::BlockStore;
    use std::sync::Arc;

    let tm = test_matrix("k2d5pt", Scale::Tiny);
    let prep = Prepared::new(tm.matrix.clone(), tm.geometry, 16, 16);
    let grid3 = Grid3d::new(1, 2, 2);
    let machine = Machine::new(grid3.size(), TimeModel::edison_like()).with_tracing();
    let forest = EtreeForest::build(&prep.tree, &prep.sym, 2);
    let program = Arc::new(FactorProgram::new(&prep.sym, &forest, 8));
    let pa = Arc::clone(&prep.pa);
    let sym = Arc::clone(&prep.sym);
    let out = machine.run_tasks(async move |rank| {
        let comms = build_grid_comms(rank, &grid3);
        let (my_r, my_c, my_z) = comms.coords;
        let mut store = BlockStore::build_with_value_pred(
            &pa,
            &sym,
            &grid3.grid2d,
            my_r,
            my_c,
            &|s| program.keeps(s, my_z),
            &|i, j| program.initializes(i, j, my_z),
        );
        factor_3d(
            rank,
            &grid3,
            &comms,
            &mut store,
            &sym,
            &program,
            salu::slu2d::factor2d::FactorOpts::default(),
        )
        .await
        .expect("fault-free factorization succeeds");
    });
    for rep in &out.reports {
        salu::simgrid::trace::validate_trace(rep).unwrap();
        assert!(rep.trace.as_ref().unwrap().activities.len() > 1);
    }
}

#[test]
fn memory_accounting_matches_symbolic_prediction_in_2d() {
    // In pure 2D, the sum of all ranks' stores equals the symbolic
    // prediction of the compressed blocks exactly (no replication).
    let tm = test_matrix("ecology", Scale::Tiny);
    let prep = Prepared::new(tm.matrix.clone(), tm.geometry, 16, 16);
    let out = factor_only(
        &prep,
        &SolverConfig {
            pr: 2,
            pc: 2,
            pz: 1,
            model: TimeModel::zero(),
            ..Default::default()
        },
    );
    assert_eq!(out.total_store_words, prep.sym.stored_words());
}
