//! Plan == ledger: the static communication plan must reproduce the
//! measured wire-volume ledger of a factor-only run *exactly* — per
//! (phase, class, level, axis) cell and per peer edge — across a matrix of
//! configurations, under fault recovery, and for property-sampled configs.
//! Fault-free cases also run traced, and each rank's point-to-point program
//! order must equal its planned event list event for event. Mutation tests
//! prove the comparator actually catches planted extra and missing sends
//! with a named edge.

use commplan::{
    build_plan, check_plan, check_planar_volume, compare_with_measured, Dir, OpKind, PlanEvent,
};
use lu3d::solver::{factor_only, SolverConfig};
use lu3d::EtreeForest;
use obs::ActivityKind;
use proptest::prelude::*;
use simgrid::coll::bcast_tree;
use simgrid::Grid3d;
use slu2d::driver::Prepared;
use sparsemat::matgen;
use sparsemat::testmats::Geometry;
use sparsemat::Csr;

struct Case {
    label: &'static str,
    a: Csr,
    geometry: Geometry,
    grid: (usize, usize, usize),
    lookahead: usize,
    fault_spec: Option<&'static str>,
}

fn check_case(case: Case) -> commplan::CommPlan {
    let Case {
        label,
        a,
        geometry,
        grid: (pr, pc, pz),
        lookahead,
        fault_spec,
    } = case;
    let prep = Prepared::new(a, geometry, 16, 24);
    let cfg = SolverConfig {
        pr,
        pc,
        pz,
        lookahead,
        fault_plan: fault_spec.map(|s| simgrid::FaultPlan::parse(s, 7).expect("fault spec")),
        recover: fault_spec.is_some(),
        // Retransmissions would show in a trace; the plan has none.
        tracing: fault_spec.is_none(),
        ..Default::default()
    };
    let grid = Grid3d::new(pr, pc, pz);
    let forest = EtreeForest::build(&prep.tree, &prep.sym, pz);
    let plan = build_plan(&prep.sym, &forest, grid, lookahead);

    let audit = check_plan(&plan);
    assert!(
        audit.ok(),
        "{label}: static plan checks failed:\n{}",
        audit.findings.join("\n")
    );
    assert!(audit.msgs > 0, "{label}: plan is empty");

    let out = factor_only(&prep, &cfg);
    let ledgers: Vec<_> = out.reports.iter().map(|r| r.commvol.clone()).collect();
    match compare_with_measured(&plan, &ledgers) {
        Ok(stats) => {
            assert_eq!(stats.ranks, pr * pc * pz, "{label}");
            assert!(stats.msgs > 0, "{label}: no planned traffic compared");
        }
        Err(mismatches) => panic!("{label}: plan != ledger:\n{}", mismatches.join("\n")),
    }

    // Totals cannot see order: pin the plan's panel order, broadcast edges
    // and context ids to what each rank did, message by message.
    for (rank, ran) in out.rank_obs().iter().flatten().enumerate() {
        let ran: Vec<_> = ran
            .activities
            .iter()
            .filter_map(|a| {
                let dir = match a.kind {
                    ActivityKind::Send => Dir::Send,
                    ActivityKind::Recv => Dir::Recv,
                    ActivityKind::Compute | ActivityKind::Wait => return None,
                };
                let msg = a.msg.expect("a fault-free message has an identity");
                let peer = a.peer.expect("a message has a peer");
                Some((dir, peer, msg.ctx, msg.tag, a.words))
            })
            .collect();
        let planned: Vec<_> = plan.events[rank]
            .iter()
            .map(|e| (e.dir, e.peer, e.ctx, e.tag, e.words))
            .collect();
        if let Some(at) = (0..ran.len().max(planned.len())).find(|&i| ran.get(i) != planned.get(i))
        {
            panic!(
                "{label}: rank {rank} leaves its planned program at event {at} of {}: ran \
                 {:?}, planned {:?} (dir, peer, ctx, tag, words)",
                planned.len(),
                ran.get(at),
                planned.get(at)
            );
        }
    }
    plan
}

#[test]
fn plan_matches_ledger_small_3d() {
    check_case(Case {
        label: "grid2d:16 2x2x2",
        a: matgen::grid2d_5pt(16, 16, 0.1, 1),
        geometry: Geometry::Grid2d { nx: 16, ny: 16 },
        grid: (2, 2, 2),
        lookahead: 8,
        fault_spec: None,
    });
}

/// The CI conformance configuration (grid2d:64, 2x2x4) — the same shape the
/// `salu --plan-check` gate runs — plus the planar volume bound.
#[test]
fn plan_matches_ledger_conformance_grid() {
    let n = 64usize;
    let plan = check_case(Case {
        label: "grid2d:64 2x2x4",
        a: matgen::grid2d_5pt(n, n, 0.1, 1),
        geometry: Geometry::Grid2d { nx: n, ny: n },
        grid: (2, 2, 4),
        lookahead: 8,
        fault_spec: None,
    });
    match check_planar_volume(&plan, n * n) {
        Ok(line) => eprintln!("{line}"),
        Err(line) => panic!("planar volume bound violated: {line}"),
    }
}

/// Degenerate grids: no Z replication (pure 2D path, no reduce phase) and a
/// Z-only line (no row/col fan-out beyond self).
#[test]
fn plan_matches_ledger_degenerate_grids() {
    check_case(Case {
        label: "grid2d:16 2x2x1",
        a: matgen::grid2d_5pt(16, 16, 0.1, 1),
        geometry: Geometry::Grid2d { nx: 16, ny: 16 },
        grid: (2, 2, 1),
        lookahead: 8,
        fault_spec: None,
    });
    check_case(Case {
        label: "grid2d:16 1x1x2",
        a: matgen::grid2d_5pt(16, 16, 0.1, 1),
        geometry: Geometry::Grid2d { nx: 16, ny: 16 },
        grid: (1, 1, 2),
        lookahead: 8,
        fault_spec: None,
    });
    // One wide process row: every panel broadcast runs along it, to the
    // columns of its roster only.
    check_case(Case {
        label: "grid2d:24 1x16x1",
        a: matgen::grid2d_5pt(24, 24, 0.1, 1),
        geometry: Geometry::Grid2d { nx: 24, ny: 24 },
        grid: (1, 16, 1),
        lookahead: 8,
        fault_spec: None,
    });
}

/// Zero lookahead changes the local compute schedule, not the wire
/// program: the same plan must hold.
#[test]
fn plan_matches_ledger_zero_lookahead() {
    check_case(Case {
        label: "grid2d:16 2x1x2 lookahead=0",
        a: matgen::grid2d_5pt(16, 16, 0.1, 1),
        geometry: Geometry::Grid2d { nx: 16, ny: 16 },
        grid: (2, 1, 2),
        lookahead: 0,
        fault_spec: None,
    });
}

/// Non-planar generators: 3D Poisson and a KKT saddle-point system.
#[test]
fn plan_matches_ledger_other_generators() {
    check_case(Case {
        label: "grid3d:6 2x2x2",
        a: matgen::grid3d_7pt(6, 6, 6, 0.1, 1),
        geometry: Geometry::Grid3d {
            nx: 6,
            ny: 6,
            nz: 6,
        },
        grid: (2, 2, 2),
        lookahead: 8,
        fault_spec: None,
    });
    check_case(Case {
        label: "kkt:4 2x2x2",
        a: matgen::kkt_3d(4, 4, 4, 1e-2, 1),
        geometry: Geometry::General,
        grid: (2, 2, 2),
        lookahead: 4,
        fault_spec: None,
    });
    // A square 4x4 layer, where most panels reach a part of each row and
    // column.
    check_case(Case {
        label: "kkt:6 4x4x2",
        a: matgen::kkt_3d(6, 6, 6, 1e-2, 1),
        geometry: Geometry::General,
        grid: (4, 4, 2),
        lookahead: 8,
        fault_spec: None,
    });
}

/// A recovered chaos run (drops, duplicates, delays + retry) must match the
/// plan bit-for-bit: retransmissions are segregated into the `fault.*`
/// counters and never leak into the per-class ledger the plan predicts.
#[test]
fn plan_matches_ledger_under_fault_recovery() {
    check_case(Case {
        label: "grid2d:24 2x2x4 chaos",
        a: matgen::grid2d_5pt(24, 24, 0.1, 1),
        geometry: Geometry::Grid2d { nx: 24, ny: 24 },
        grid: (2, 2, 4),
        lookahead: 8,
        fault_spec: Some("drop:p=0.05;dup:p=0.02;delay:p=0.1,secs=2e-3"),
    });
}

fn build_small_plan() -> (commplan::CommPlan, Vec<obs::CommReport>) {
    let a = matgen::grid2d_5pt(12, 12, 0.1, 1);
    let prep = Prepared::new(a, Geometry::Grid2d { nx: 12, ny: 12 }, 16, 24);
    let cfg = SolverConfig {
        pr: 2,
        pc: 2,
        pz: 2,
        ..Default::default()
    };
    let forest = EtreeForest::build(&prep.tree, &prep.sym, cfg.pz);
    let plan = build_plan(&prep.sym, &forest, Grid3d::new(2, 2, 2), cfg.lookahead);
    let out = factor_only(&prep, &cfg);
    let ledgers = out.reports.iter().map(|r| r.commvol.clone()).collect();
    (plan, ledgers)
}

/// Mutation: delete one planned send. The static matching check must flag
/// the now-unbalanced channel, and the ledger comparison must fail naming
/// the mutated rank's edge.
#[test]
fn plan_check_catches_missing_send() {
    let (mut plan, ledgers) = build_small_plan();
    let rank = plan
        .events
        .iter()
        .position(|evs| evs.iter().any(|e| e.dir == Dir::Send))
        .expect("some rank sends");
    let idx = plan.events[rank]
        .iter()
        .position(|e| e.dir == Dir::Send)
        .unwrap();
    let removed = plan.events[rank].remove(idx);

    let audit = check_plan(&plan);
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.starts_with("unmatched channel")),
        "static check missed the deleted send: {:?}",
        audit.findings
    );

    let err = compare_with_measured(&plan, &ledgers).expect_err("mutated plan must mismatch");
    assert!(
        err.iter().any(
            |m| m.contains(&format!("rank {rank}")) || m.contains(&format!("{}", removed.peer))
        ),
        "mismatch does not name the mutated edge (rank {rank} -> {}):\n{}",
        removed.peer,
        err.join("\n")
    );
}

/// Mutation: plant one extra send (a duplicate of a real one). Same story:
/// named channel in the static audit, named edge in the comparison.
#[test]
fn plan_check_catches_extra_send() {
    let (mut plan, ledgers) = build_small_plan();
    let rank = plan
        .events
        .iter()
        .position(|evs| evs.iter().any(|e| e.dir == Dir::Send))
        .expect("some rank sends");
    let idx = plan.events[rank]
        .iter()
        .position(|e| e.dir == Dir::Send)
        .unwrap();
    let extra = plan.events[rank][idx].clone();
    let peer = extra.peer;
    plan.events[rank].push(extra);

    let audit = check_plan(&plan);
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.starts_with("unmatched channel")),
        "static check missed the planted send: {:?}",
        audit.findings
    );

    let err = compare_with_measured(&plan, &ledgers).expect_err("mutated plan must mismatch");
    assert!(
        err.iter()
            .any(|m| m.contains(&format!("rank {rank}")) && m.contains("planned")),
        "mismatch does not name the mutated edge (rank {rank} -> {peer}):\n{}",
        err.join("\n")
    );
}

/// Mutation: one panel broadcast whose roster its members believe one rank
/// wider than it is. The members expand the widened tree; the extra rank
/// never learns it is on the roster and posts nothing. The static check must
/// name a channel into that rank as unmatched.
#[test]
fn plan_check_catches_a_widened_roster() {
    let prep = Prepared::new(matgen::kkt_3d(6, 6, 6, 1e-2, 1), Geometry::General, 16, 24);
    let grid = Grid3d::new(4, 4, 2);
    let forest = EtreeForest::build(&prep.tree, &prep.sym, grid.pz);
    let mut plan = build_plan(&prep.sym, &forest, grid, 8);
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
        let (a, geometry) = if gen3d == 1 {
            let k3 = 4 + k / 4;
            (
                matgen::grid3d_7pt(k3, k3, k3, 0.1, 1),
                Geometry::Grid3d { nx: k3, ny: k3, nz: k3 },
            )
        } else {
            (
                matgen::grid2d_5pt(k, k, 0.1, 1),
                Geometry::Grid2d { nx: k, ny: k },
            )
        };
        check_case(Case {
            label: "proptest config",
            a,
            geometry,
            grid: (pr, pc, 1 << lpz),
            lookahead: lookahead * 4,
            fault_spec: (faulty == 1).then_some("drop:p=0.03;dup:p=0.02"),
        });
    }
}
