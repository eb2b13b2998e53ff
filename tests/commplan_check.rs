//! Plan == ledger: the static communication plan must reproduce the
//! measured wire-volume ledger of a factor-only run *exactly* — per
//! (phase, class, level, axis) cell and per peer edge — on both backends,
//! across the `PLAN_*` shapes of `contracts::table`, under fault recovery,
//! and for property-sampled configs. Fault-free shapes run traced, and each
//! rank's point-to-point program order must equal its planned event list
//! event for event (`Contract::PlanLedger`). Mutation tests prove the
//! comparator actually catches planted extra and missing sends with a
//! named edge.

mod contracts;

use commplan::{check_plan, check_planar_volume, compare_with_measured, Dir, OpKind, PlanEvent};
use contracts::table::*;
use contracts::{check, plan, run, Contract::*, Gen, Shape};
use proptest::prelude::*;
use salu::prelude::*;
use simgrid::coll::bcast_tree;
use simgrid::Grid3d;

/// What every traced fault-free plan shape is also held to: the two
/// backends' runs agree bitwise and their traces validate.
const TRACED: [contracts::Contract; 3] = [PlanLedger, Backends, TraceValid];

#[test]
fn plan_matches_ledger_small_3d() {
    check(&[PLAN_SMALL_3D], &TRACED);
}

/// The conformance configuration (grid2d:64, 2x2x4) — the same shape the
/// `salu --plan-check` gate of `tests/cli.rs` runs — plus the planar volume
/// bound. (Its trace is the largest of the suite: it is held to the plan's
/// event order, and left to the smaller shapes to validate.)
#[test]
fn plan_matches_ledger_conformance_grid() {
    check(&[PLAN_CONFORMANCE], &[PlanLedger]);
    match check_planar_volume(&plan(&PLAN_CONFORMANCE), 64 * 64) {
        Ok(line) => eprintln!("{line}"),
        Err(line) => panic!("planar volume bound violated: {line}"),
    }
}

/// Degenerate grids: no Z replication (pure 2D path, no reduce phase), a
/// Z-only line (no row/col fan-out beyond self) and one wide process row.
#[test]
fn plan_matches_ledger_degenerate_grids() {
    check(&PLAN_DEGENERATE, &TRACED);
}

/// Zero lookahead changes the local compute schedule, not the wire
/// program: the same plan must hold.
#[test]
fn plan_matches_ledger_zero_lookahead() {
    check(&[PLAN_ZERO_LOOKAHEAD], &TRACED);
}

/// Non-planar generators: 3D Poisson and a KKT saddle-point system.
#[test]
fn plan_matches_ledger_other_generators() {
    check(&PLAN_OTHER, &TRACED);
}

/// A recovered chaos run (drops, duplicates, delays + retry) must match the
/// plan bit-for-bit: retransmissions are segregated into the `fault.*`
/// counters and never leak into the per-class ledger the plan predicts.
#[test]
fn plan_matches_ledger_under_fault_recovery() {
    check(&[PLAN_FAULTS], &[PlanLedger, Backends, Recovered]);
}

/// The factor-only run the planted defects below are compared with.
fn build_small_plan() -> (commplan::CommPlan, Vec<obs::CommReport>) {
    let shape = Shape::new("grid2d:12 2x2x2", Gen::Grid2d(12, 1), [2, 2, 2]);
    let out = &run(&shape, shape.run(Backend::Threaded)).out;
    let ledgers = out.reports.iter().map(|r| r.commvol.clone()).collect();
    (plan(&shape), ledgers)
}

/// The small plan with one send of the first sending rank planted or
/// removed: the static matching check must flag the now-unbalanced channel,
/// and the ledger comparison must fail. Returns the rank, its peer and the
/// mismatches.
fn planted(plant: impl FnOnce(&mut Vec<PlanEvent>, usize)) -> (usize, usize, Vec<String>) {
    let (mut plan, ledgers) = build_small_plan();
    let sends = |evs: &Vec<PlanEvent>| evs.iter().position(|e| e.dir == Dir::Send);
    let rank = plan.events.iter().position(|evs| sends(evs).is_some());
    let rank = rank.expect("some rank sends");
    let idx = sends(&plan.events[rank]).unwrap();
    let peer = plan.events[rank][idx].peer;
    plant(&mut plan.events[rank], idx);
    let findings = check_plan(&plan).findings;
    let unmatched = findings.iter().any(|f| f.starts_with("unmatched channel"));
    assert!(unmatched, "static check missed the defect: {findings:?}");
    let err = compare_with_measured(&plan, &ledgers).expect_err("mutated plan must mismatch");
    (rank, peer, err)
}

/// Mutation: delete one planned send; the mismatch names the mutated
/// rank's edge.
#[test]
fn plan_check_catches_missing_send() {
    let (rank, peer, err) = planted(|evs, idx| {
        evs.remove(idx);
    });
    let named = |m: &String| m.contains(&format!("rank {rank}")) || m.contains(&format!("{peer}"));
    let all = err.join("\n");
    assert!(
        err.iter().any(named),
        "{rank} -> {peer} is not named:\n{all}"
    );
}

/// Mutation: plant one extra send (a duplicate of a real one). Same story:
/// named channel in the static audit, named edge in the comparison.
#[test]
fn plan_check_catches_extra_send() {
    let (rank, peer, err) = planted(|evs, idx| evs.push(evs[idx].clone()));
    let named = |m: &String| m.contains(&format!("rank {rank}")) && m.contains("planned");
    let all = err.join("\n");
    assert!(
        err.iter().any(named),
        "{rank} -> {peer} is not named:\n{all}"
    );
}

/// Mutation: one panel broadcast whose roster its members believe one rank
/// wider than it is. The members expand the widened tree; the extra rank
/// never learns it is on the roster and posts nothing. The static check must
/// name a channel into that rank as unmatched.
#[test]
fn plan_check_catches_a_widened_roster() {
    let grid = Grid3d::new(4, 4, 2);
    let mut plan = plan(&PLAN_OTHER[2]);
    assert!(check_plan(&plan).ok());

    // A broadcast along a process row that leaves a column of it out.
    let (op, members, root, extra) = plan
        .ops
        .iter()
        .enumerate()
        .find_map(|(op, meta)| {
            let OpKind::Bcast { members, root } = &meta.kind else {
                return None;
            };
            let (r, _, z) = grid.coords_of(members[0]);
            let row = (0..grid.grid2d.pc).map(|c| grid.rank_of(r, c, z));
            let along_row = members.iter().all(|&m| grid.coords_of(m).0 == r);
            let extra = row.clone().find(|w| !members.contains(w))?;
            along_row.then(|| (op as u32, members.clone(), members[*root], extra))
        })
        .expect("some row broadcast is pruned on 4x4x2");
    let mut widened = members.clone();
    widened.push(extra);
    widened.sort_unstable();
    let root_at = widened.iter().position(|&w| w == root).unwrap();
    for &world in &members {
        let evs = &mut plan.events[world];
        let at = evs.iter().position(|e| e.op == op).unwrap();
        let template = evs[at].clone();
        let n = evs[at..].iter().take_while(|e| e.op == op).count();
        let local = widened.iter().position(|&w| w == world).unwrap();
        let (parent, children) = bcast_tree(widened.len(), root_at, local);
        let edge = |dir, peer: usize| PlanEvent {
            dir,
            peer: widened[peer],
            ..template.clone()
        };
        let new: Vec<_> = parent
            .map(|q| edge(Dir::Recv, q))
            .into_iter()
            .chain(children.map(|q| edge(Dir::Send, q)))
            .collect();
        evs.splice(at..at + n, new);
    }

    let audit = check_plan(&plan);
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.starts_with("unmatched channel") && f.contains(&format!("->{extra} "))),
        "the widened roster's extra rank {extra} is not named: {:?}",
        audit.findings
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case runs a full symbolic analysis + factorization
        .. ProptestConfig::default()
    })]

    /// For random (generator, grid shape, schedule, fault plan) draws the
    /// plan and the measured ledger agree exactly on every cell and edge.
    #[test]
    fn plan_matches_ledger_random_configs(
        k in 10usize..20,
        gen3d in 0u8..2,
        pr in 1usize..3,
        pc in 1usize..3,
        lpz in 0usize..3,
        lookahead in 0usize..3,
        faulty in 0u8..2,
    ) {
        let matrix = if gen3d == 1 { Gen::Grid3d(4 + k / 4, 1) } else { Gen::Grid2d(k, 1) };
        let shape = Shape::new("proptest config", matrix, [pr, pc, 1 << lpz]).lookahead(lookahead * 4);
        let shape = if faulty == 1 { shape.faults(Some("drop:p=0.03;dup:p=0.02")) } else { shape.traced(true) };
        check(&[shape], &[PlanLedger]);
    }
}
