//! Property-based tests across the stack: random matrices, random grid
//! shapes, and structural invariants that must hold for *every* input.

use proptest::prelude::*;
use salu::ordering::{nested_dissection, Graph, NdOptions};
use salu::prelude::*;
use salu::symbolic::Symbolic;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case factors a matrix on simulated ranks
        .. ProptestConfig::default()
    })]

    /// Any diagonally dominant banded matrix solves to a small residual on
    /// any modest 3D grid shape.
    #[test]
    fn random_band_matrices_solve(
        n in 24usize..90,
        bw in 1usize..6,
        fill in 0.2f64..0.9,
        seed in 0u64..1000,
        pc in 1usize..3,
        lpz in 0usize..3,
    ) {
        let a = salu::sparsemat::matgen::random_band(n, bw, fill, seed);
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let b = a.matvec(&x_true);
        let prep = Prepared::new(a, Geometry::General, 8, 8);
        let cfg = SolverConfig {
            pr: 1,
            pc,
            pz: 1 << lpz,
            model: TimeModel::zero(),
            ..Default::default()
        };
        let out = factor_and_solve(&prep, &cfg, Some(b.clone()));
        let x = out.x.expect("solution");
        let bmax = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let r = prep.a.residual_inf(&x, &b) / bmax;
        prop_assert!(r < 1e-7, "residual {r}");
    }

    /// Nested dissection always yields a valid permutation and a valid
    /// separator tree on random banded graphs.
    #[test]
    fn nd_is_always_valid(
        n in 10usize..200,
        bw in 1usize..8,
        fill in 0.1f64..1.0,
        seed in 0u64..1000,
        leaf in 4usize..40,
    ) {
        let a = salu::sparsemat::matgen::random_band(n, bw, fill, seed);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: leaf,
                geometry: Geometry::General,
                seed,
            },
        );
        prop_assert!(tree.validate().is_ok(), "{:?}", tree.validate());
        prop_assert_eq!(tree.n(), n);
        // The permutation must be a bijection (Perm enforces it) and the
        // leaf bound respected.
        for node in &tree.nodes {
            if node.is_leaf {
                prop_assert!(node.width() <= leaf);
            }
        }
    }

    /// The block-fill closure property (every Schur target exists) holds
    /// for arbitrary matrices — the numerical phase depends on it.
    #[test]
    fn fill_closure_always_holds(
        n in 16usize..120,
        bw in 1usize..6,
        fill in 0.2f64..1.0,
        seed in 0u64..1000,
        maxsup in 2usize..12,
    ) {
        let a = salu::sparsemat::matgen::random_band(n, bw, fill, seed);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry: Geometry::General,
                seed,
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = Symbolic::analyze(&pa, &tree, maxsup);
        for s in 0..sym.nsup() {
            let st = &sym.fill.struct_of[s];
            for (xi, &j) in st.iter().enumerate() {
                for &i in &st[xi + 1..] {
                    prop_assert!(
                        sym.fill.struct_of[j].binary_search(&i).is_ok(),
                        "missing target ({i},{j}) from {s}"
                    );
                }
            }
        }
    }

    /// The indexes symbolic analysis caches for every rank to borrow — the
    /// etree children lists and the transposed block structure — equal what
    /// each rank used to derive for itself from `parent` and `struct_of`.
    #[test]
    fn cached_symbolic_indexes_match_fresh_derivations(
        n in 16usize..160,
        bw in 1usize..8,
        fill in 0.1f64..1.0,
        seed in 0u64..1000,
        maxsup in 1usize..12,
    ) {
        let a = salu::sparsemat::matgen::random_band(n, bw, fill, seed);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry: Geometry::General,
                seed,
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = Symbolic::analyze(&pa, &tree, maxsup);
        let nsup = sym.nsup();
        let mut children = vec![Vec::new(); nsup];
        for (s, p) in sym.fill.parent.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push(s);
            }
        }
        prop_assert_eq!(sym.fill.children(), &children[..]);
        let mut blocks_into = vec![Vec::new(); nsup];
        for j in 0..nsup {
            for &i in &sym.fill.struct_of[j] {
                blocks_into[i].push(j);
            }
        }
        prop_assert_eq!(sym.fill.blocks_into(), &blocks_into[..]);
    }

    /// The dependency waves of the triangular solve, over any sub-list of
    /// any matrix's supernodes: a node sits one wave above the highest listed
    /// node feeding it (so strictly above all of them, and no higher than it
    /// must), and the batched sweep plan deals every listed node into exactly
    /// one batch — of its wave, on its diagonal owner, roots ascending.
    #[test]
    fn solve_waves_respect_every_dependency_and_partition_the_list(
        n in 16usize..160,
        bw in 1usize..8,
        fill in 0.1f64..1.0,
        seed in 0u64..1000,
        maxsup in 1usize..12,
        keep in 1u64..8,
        pr in 1usize..4,
        pc in 1usize..4,
    ) {
        use salu::simgrid::Grid2d;
        use salu::slu2d::solve2d::SweepPlan;
        let a = salu::sparsemat::matgen::random_band(n, bw, fill, seed);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry: Geometry::General,
                seed,
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = Symbolic::analyze(&pa, &tree, maxsup);
        // Roughly `keep` eighths of the supernodes, scattered.
        let nodes: Vec<usize> = (0..sym.nsup())
            .filter(|&s| (s as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed) >> 61 < keep)
            .collect();
        let wave = sym.fill.solve_waves(&nodes);
        prop_assert_eq!(wave.len(), nodes.len());
        let wave_of = |s: usize| nodes.binary_search(&s).ok().map(|pos| wave[pos]);
        for (&i, &w) in nodes.iter().zip(&wave) {
            let feeders = sym.fill.blocks_into()[i].iter().filter_map(|&j| wave_of(j));
            let needed = feeders.map(|wj| wj + 1).max().unwrap_or(0);
            prop_assert!(w == needed, "node {}: wave {}, needs {}", i, w, needed);
        }

        let grid = Grid2d::new(pr, pc);
        let plan = SweepPlan::new(&sym, &grid, nodes.clone());
        prop_assert_eq!(plan.nodes(), &nodes[..]);
        let mut dealt = Vec::new();
        for (w, batches) in plan.waves().enumerate() {
            prop_assert!(!batches.is_empty(), "wave {} is empty", w);
            prop_assert!(batches.windows(2).all(|b| b[0].root < b[1].root));
            for batch in batches {
                let members = plan.nodes_of(batch);
                prop_assert!(members.windows(2).all(|m| m[0] < m[1]));
                for &k in members {
                    prop_assert_eq!(wave_of(k), Some(w));
                    prop_assert_eq!(grid.owner(k, k), batch.root);
                }
                let words: usize = members.iter().map(|&k| sym.part.width(k)).sum();
                prop_assert_eq!(batch.words, words);
                dealt.extend_from_slice(members);
            }
        }
        dealt.sort_unstable();
        prop_assert_eq!(dealt, nodes);
    }

    /// Tree-forest partitions cover every node exactly once with nested
    /// replication ranges, for every Pz.
    #[test]
    fn forest_partition_invariants(
        n in 40usize..160,
        seed in 0u64..500,
        lpz in 0usize..4,
    ) {
        let a = salu::sparsemat::matgen::random_band(n, 3, 0.7, seed);
        let g = Graph::from_matrix(&a);
        let tree = nested_dissection(
            &g,
            NdOptions {
                leaf_size: 8,
                geometry: Geometry::General,
                seed,
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        let sym = Symbolic::analyze(&pa, &tree, 8);
        let forest = EtreeForest::build(&tree, &sym, 1 << lpz);
        prop_assert!(forest.validate(&tree).is_ok(), "{:?}", forest.validate(&tree));
        // Every supernode appears in exactly one part.
        let mut seen = vec![false; sym.nsup()];
        for lvl in 0..=forest.l {
            for q in 0..(1usize << lvl) {
                for s in forest.supernodes_of(lvl, q, &sym.part) {
                    prop_assert!(!seen[s]);
                    seen[s] = true;
                }
            }
        }
        prop_assert!(seen.iter().all(|&x| x));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // every case spins up several simulated machines
        .. ProptestConfig::default()
    })]

    /// For any matrix and grid shape, the distributed 3D solve agrees with
    /// its own `Pz = 1` case — the 2D solve, which has no z-axis traffic at
    /// all — up to reduction rounding, and solves the system.
    #[test]
    fn solve_strategies_and_grids_agree(
        n in 30usize..80,
        seed in 0u64..500,
        pc in 1usize..3,
        lpz in 1usize..3,
    ) {
        let a = salu::sparsemat::matgen::random_band(n, 4, 0.6, seed);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 23) as f64) - 11.0).collect();
        let prep = Prepared::new(a, Geometry::General, 8, 8);
        let run = |pz: usize| -> Vec<f64> {
            factor_and_solve(
                &prep,
                &SolverConfig {
                    pr: 1,
                    pc,
                    pz,
                    model: TimeModel::zero(),
                    ..Default::default()
                },
                Some(b.clone()),
            )
            .x
            .unwrap()
        };
        let x3 = run(1 << lpz);
        let x2 = run(1);
        let scale = x2.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (u, w) in x3.iter().zip(&x2) {
            prop_assert!((u - w).abs() / scale < 1e-7, "2D/3D divergence");
        }
        let bmax = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        prop_assert!(prep.a.residual_inf(&x3, &b) / bmax < 1e-7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// Matrix Market writer/reader round-trips arbitrary banded matrices.
    #[test]
    fn matrix_market_roundtrip(
        n in 1usize..60,
        bw in 0usize..5,
        fill in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let a = salu::sparsemat::matgen::random_band(n, bw, fill, seed);
        let mut buf = Vec::new();
        salu::sparsemat::io::write_matrix_market(&mut buf, &a).unwrap();
        let b = salu::sparsemat::io::read_matrix_market(&buf[..]).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Symmetric permutation preserves every entry: `B[p(i),p(j)] == A[i,j]`.
    #[test]
    fn permutation_preserves_entries(
        n in 2usize..50,
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let a = salu::sparsemat::matgen::random_band(n, 3, 0.6, seed);
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let p = Perm::from_old_order(order);
        let b = a.permute_sym(&p);
        for i in 0..n {
            for (j, v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                prop_assert_eq!(b.get(p.new_of(i), p.new_of(*j)), *v);
            }
        }
    }

    /// The dense LU + substitution inverts matvec for any well-conditioned
    /// matrix (cross-checks densela against sparsemat-independent math).
    #[test]
    fn dense_lu_roundtrip(n in 1usize..40, seed in 0u64..1000) {
        use salu::densela::{getrf, lu_solve_inplace, Mat, PivotPolicy};
        let mut s = seed.wrapping_mul(2654435761).max(1);
        let mut a = Mat::from_fn(n, n, |_, _| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 2000) as f64 / 1000.0) - 1.0
        });
        for i in 0..n {
            *a.at_mut(i, i) += n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 2.5).collect();
        let mut b = a.matvec(&x_true);
        let mut lu = a.clone();
        getrf(&mut lu, PivotPolicy::Static { threshold: 1e-12 });
        lu_solve_inplace(&lu, &mut b);
        for i in 0..n {
            prop_assert!((b[i] - x_true[i]).abs() < 1e-7, "i={i}: {} vs {}", b[i], x_true[i]);
        }
    }
}
