//! Panels go only where they are read: what each rank receives during the
//! factorization is exactly the diagonal, L and U blocks its panel solves and
//! Schur updates read — counted from `struct_of` and `Grid2d::owner` alone —
//! and the panel step never sends more messages than the whole-row and
//! whole-column broadcasts it replaced. Both backends, several grid shapes,
//! and no event-backend rank ever waits in a cycle.

use salu::prelude::*;
use salu::simgrid::{Grid2d, Grid3d};
use salu::sparsemat::matgen;

fn matrices() -> Vec<(&'static str, Prepared)> {
    vec![
        (
            "grid2d:24",
            Prepared::new(
                matgen::grid2d_5pt(24, 24, 0.1, 1),
                Geometry::Grid2d { nx: 24, ny: 24 },
                8,
                8,
            ),
        ),
        (
            "grid3d:10",
            Prepared::new(
                matgen::grid3d_7pt(10, 10, 10, 0.1, 2),
                Geometry::Grid3d {
                    nx: 10,
                    ny: 10,
                    nz: 10,
                },
                8,
                8,
            ),
        ),
        (
            "kkt:6",
            Prepared::new(matgen::kkt_3d(6, 6, 6, 1e-2, 3), Geometry::General, 8, 8),
        ),
    ]
}

const GRIDS: [(usize, usize, usize); 5] = [(3, 5, 2), (4, 4, 2), (1, 3, 2), (16, 1, 1), (1, 16, 1)];

/// What the panel steps of one factorization move: per rank, the words it
/// must receive to read every block its panel solves and Schur updates use,
/// and in total the messages of whole-row and whole-column broadcasts.
struct Expected {
    recv_words: Vec<u64>,
    full_row_col_msgs: u64,
}

fn expected(prep: &Prepared, grid: Grid3d) -> Expected {
    let Grid3d { grid2d, pz } = grid;
    let Grid2d { pr, pc } = grid2d;
    let (sym, part) = (&prep.sym, &prep.sym.part);
    let forest = EtreeForest::build(&prep.tree, &prep.sym, pz);
    let l = forest.l;
    let mut recv_words = vec![0u64; grid.size()];
    let mut full_row_col_msgs = 0u64;
    for z in 0..pz {
        for lvl in (0..=l).filter(|lvl| z % (1 << (l - lvl)) == 0) {
            for k in forest.supernodes_of(lvl, z >> (l - lvl), part) {
                let struct_k = &sym.fill.struct_of[k];
                if struct_k.is_empty() {
                    continue;
                }
                let (kr, kc) = grid2d.owner(k, k);
                let wk = part.width(k) as u64;
                // The packed piece of the L blocks in row `r` / U blocks in
                // column `c`: (id, rows, cols) per block plus the data — the
                // kept rows of `i` by `k`'s width — and 0 when there is no
                // block.
                let piece = |mine: &dyn Fn(usize) -> bool| -> u64 {
                    let blocks = struct_k.iter().enumerate().filter(|&(_, &i)| mine(i));
                    let kept = |p: usize| sym.fill.kept(k, p).len() as u64;
                    let (n, data) = blocks.fold((0, 0), |(n, d), (p, _)| (n + 1, d + kept(p) * wk));
                    if n == 0 {
                        0
                    } else {
                        1 + 3 * n + data
                    }
                };
                let l_piece = |r: usize| piece(&|i| grid2d.owner(i, k).0 == r);
                let u_piece = |c: usize| piece(&|j| grid2d.owner(k, j).1 == c);
                let rows_with_l = (0..pr).filter(|&r| l_piece(r) > 0).count() as u64;
                let cols_with_u = (0..pc).filter(|&c| u_piece(c) > 0).count() as u64;
                full_row_col_msgs +=
                    (pc as u64 - 1) * (1 + rows_with_l) + (pr as u64 - 1) * (1 + cols_with_u);
                for (r, c) in (0..pr).flat_map(|r| (0..pc).map(move |c| (r, c))) {
                    let (has_l, has_u) = (l_piece(r) > 0, u_piece(c) > 0);
                    let words = &mut recv_words[grid.rank_of(r, c, z)];
                    // The diagonal: for my U solves on the owner's row, for
                    // my L solves on its column.
                    if (r == kr && c != kc && has_u) || (c == kc && r != kr && has_l) {
                        *words += wk * wk;
                    }
                    // The pieces my Schur update multiplies.
                    if has_l && has_u {
                        *words += if c != kc { l_piece(r) } else { 0 };
                        *words += if r != kr { u_piece(c) } else { 0 };
                    }
                }
            }
        }
    }
    Expected {
        recv_words,
        full_row_col_msgs,
    }
}

#[test]
fn every_rank_receives_exactly_the_panel_blocks_it_reads() {
    for (label, prep) in matrices() {
        for (pr, pc, pz) in GRIDS {
            let grid = Grid3d::new(pr, pc, pz);
            let want = expected(&prep, grid);
            let mut ledgers = Vec::new();
            for backend in [Backend::Threaded, Backend::Event] {
                let ctx = format!("{label} {pr}x{pc}x{pz} {backend}");
                let cfg = SolverConfig {
                    pr,
                    pc,
                    pz,
                    backend,
                    ..Default::default()
                };
                let out = try_factor_only(&prep, &cfg).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                if let Some(sched) = out.sched {
                    assert_eq!(sched.quiescence_resolutions, 0, "{ctx}: a rank waited");
                }
                let mut fact_msgs = 0;
                for (rank, report) in out.reports.iter().enumerate() {
                    let z = grid.coords_of(rank).2;
                    // Factor-only: what a rank hears from its own layer is
                    // the panel steps', the rest the z-line reduction's.
                    let fact_words: u64 = report
                        .commvol
                        .recv_from
                        .iter()
                        .filter(|e| grid.coords_of(e.peer).2 == z)
                        .map(|e| e.words)
                        .sum();
                    assert_eq!(
                        fact_words, want.recv_words[rank],
                        "{ctx}: rank {rank} fact words received"
                    );
                    let fact = report.commvol.entries.iter().filter(|e| e.phase == "fact");
                    fact_msgs += fact.map(|e| e.cell.msgs).sum::<u64>();
                }
                assert!(
                    fact_msgs <= want.full_row_col_msgs,
                    "{ctx}: {fact_msgs} fact messages, more than the {} of whole rows and columns",
                    want.full_row_col_msgs
                );
                if (pr, pc) == (4, 4) {
                    assert!(
                        fact_msgs < want.full_row_col_msgs,
                        "{ctx}: no roster pruned a broadcast"
                    );
                }
                ledgers.push(
                    out.reports
                        .iter()
                        .map(|r| r.commvol.clone())
                        .collect::<Vec<_>>(),
                );
            }
            assert_eq!(
                ledgers[0], ledgers[1],
                "{label} {pr}x{pc}x{pz}: the backends' ledgers differ"
            );
        }
    }
}
