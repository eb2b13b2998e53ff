//! Generators for the structural proxies of the paper's test matrices.
//!
//! The paper evaluates on SuiteSparse matrices (Table III) that are not
//! available offline and are far larger than a single machine can factor
//! quickly. Each generator below reproduces the *separator structure* of one
//! matrix class at a configurable scale, which is the property the paper's
//! analysis (§IV) and experiments actually depend on:
//!
//! - planar / 2D-geometry: [`grid2d_5pt`], [`grid2d_9pt`], [`grid2d_random_deletions`]
//! - non-planar / 3D-geometry: [`grid3d_7pt`], [`grid3d_27pt`]
//! - nearly planar ("large door"): [`slab3d`]
//! - KKT saddle-point (nlpkkt proxy): [`kkt_3d`]
//!
//! All generators produce pattern-symmetric matrices. When `unsym > 0` the
//! values (not the pattern) are perturbed asymmetrically so the factorization
//! is a genuine LU rather than a disguised Cholesky.
//!
//! ```
//! use sparsemat::matgen::{grid2d_5pt, kkt_3d};
//!
//! let a = grid2d_5pt(32, 32, 0.1, 42);
//! assert_eq!(a.nrows, 1024);
//! assert!(a.is_pattern_symmetric());
//!
//! let k = kkt_3d(4, 4, 4, 1e-2, 0); // saddle point: 2n x 2n
//! assert_eq!(k.nrows, 128);
//! ```

use crate::coo::Coo;
use crate::csr::Csr;
use crate::testmats::Geometry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Map a 2D grid point to its vertex index (x fastest).
#[inline]
pub fn idx2d(nx: usize, x: usize, y: usize) -> usize {
    y * nx + x
}

/// Map a 3D grid point to its vertex index (x fastest, then y).
#[inline]
pub fn idx3d(nx: usize, ny: usize, x: usize, y: usize, z: usize) -> usize {
    (z * ny + y) * nx + x
}

fn unsym_val(rng: &mut StdRng, base: f64, unsym: f64) -> f64 {
    if unsym == 0.0 {
        base
    } else {
        base * (1.0 + unsym * (rng.gen::<f64>() - 0.5))
    }
}

/// 2D 5-point Laplacian on an `nx x ny` grid — the `K2D5pt` planar model
/// problem. Diagonal `4 + shift`, off-diagonals `-1` (perturbed by `unsym`).
pub fn grid2d_5pt(nx: usize, ny: usize, unsym: f64, seed: u64) -> Csr {
    let n = nx * ny;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    coo.reserve(5 * n);
    for y in 0..ny {
        for x in 0..nx {
            let v = idx2d(nx, x, y);
            coo.push(v, v, 4.0 + 0.01);
            let mut link = |u: usize, rng: &mut StdRng| {
                coo.push(v, u, unsym_val(rng, -1.0, unsym));
            };
            if x > 0 {
                link(idx2d(nx, x - 1, y), &mut rng);
            }
            if x + 1 < nx {
                link(idx2d(nx, x + 1, y), &mut rng);
            }
            if y > 0 {
                link(idx2d(nx, x, y - 1), &mut rng);
            }
            if y + 1 < ny {
                link(idx2d(nx, x, y + 1), &mut rng);
            }
        }
    }
    coo.to_csr()
}

/// 2D 9-point Laplacian on an `nx x ny` grid — the `S2D9pt` planar model
/// problem (adds diagonal neighbours to the 5-point stencil).
pub fn grid2d_9pt(nx: usize, ny: usize, unsym: f64, seed: u64) -> Csr {
    let n = nx * ny;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    coo.reserve(9 * n);
    for y in 0..ny {
        for x in 0..nx {
            let v = idx2d(nx, x, y);
            coo.push(v, v, 8.0 + 0.01);
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let (ux, uy) = (x as i64 + dx, y as i64 + dy);
                    if ux < 0 || uy < 0 || ux >= nx as i64 || uy >= ny as i64 {
                        continue;
                    }
                    let u = idx2d(nx, ux as usize, uy as usize);
                    coo.push(v, u, unsym_val(&mut rng, -1.0, unsym));
                }
            }
        }
    }
    coo.to_csr()
}

/// A planar circuit-like graph: a 2D 5-point grid with a fraction
/// `deletion_prob` of its edges removed (symmetrically) — the `G3_circuit` /
/// `ecology1` proxy. The diagonal keeps the full degree so the matrix stays
/// diagonally dominant.
pub fn grid2d_random_deletions(nx: usize, ny: usize, deletion_prob: f64, seed: u64) -> Csr {
    let n = nx * ny;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    for y in 0..ny {
        for x in 0..nx {
            let v = idx2d(nx, x, y);
            coo.push(v, v, 4.2);
            // Only emit "forward" edges and mirror them so deletion is
            // symmetric.
            let fwd = |u: usize, rng: &mut StdRng, coo: &mut Coo| {
                if rng.gen::<f64>() >= deletion_prob {
                    coo.push(v, u, -1.0);
                    coo.push(u, v, -1.0);
                }
            };
            if x + 1 < nx {
                fwd(idx2d(nx, x + 1, y), &mut rng, &mut coo);
            }
            if y + 1 < ny {
                fwd(idx2d(nx, x, y + 1), &mut rng, &mut coo);
            }
        }
    }
    coo.to_csr()
}

/// 3D 7-point Laplacian on an `nx x ny x nz` grid — the strongly non-planar
/// model problem (`Serena` / 3D-PDE proxy).
pub fn grid3d_7pt(nx: usize, ny: usize, nz: usize, unsym: f64, seed: u64) -> Csr {
    let n = nx * ny * nz;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    coo.reserve(7 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let v = idx3d(nx, ny, x, y, z);
                coo.push(v, v, 6.0 + 0.01);
                let mut link = |u: usize, rng: &mut StdRng| {
                    coo.push(v, u, unsym_val(rng, -1.0, unsym));
                };
                if x > 0 {
                    link(idx3d(nx, ny, x - 1, y, z), &mut rng);
                }
                if x + 1 < nx {
                    link(idx3d(nx, ny, x + 1, y, z), &mut rng);
                }
                if y > 0 {
                    link(idx3d(nx, ny, x, y - 1, z), &mut rng);
                }
                if y + 1 < ny {
                    link(idx3d(nx, ny, x, y + 1, z), &mut rng);
                }
                if z > 0 {
                    link(idx3d(nx, ny, x, y, z - 1), &mut rng);
                }
                if z + 1 < nz {
                    link(idx3d(nx, ny, x, y, z + 1), &mut rng);
                }
            }
        }
    }
    coo.to_csr()
}

/// 3D 27-point Laplacian — a denser non-planar stencil approximating
/// high-order FEM discretizations (`audikw_1` / `dielFilter` proxy: large
/// `nnz/n` like the paper's structural matrices).
pub fn grid3d_27pt(nx: usize, ny: usize, nz: usize, unsym: f64, seed: u64) -> Csr {
    let n = nx * ny * nz;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    coo.reserve(27 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let v = idx3d(nx, ny, x, y, z);
                coo.push(v, v, 26.0 + 0.01);
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            if dx == 0 && dy == 0 && dz == 0 {
                                continue;
                            }
                            let (ux, uy, uz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                            if ux < 0
                                || uy < 0
                                || uz < 0
                                || ux >= nx as i64
                                || uy >= ny as i64
                                || uz >= nz as i64
                            {
                                continue;
                            }
                            let u = idx3d(nx, ny, ux as usize, uy as usize, uz as usize);
                            coo.push(v, u, unsym_val(&mut rng, -1.0, unsym));
                        }
                    }
                }
            }
        }
    }
    coo.to_csr()
}

/// A thin 3D slab (`nx x ny x nz` with `nz << nx, ny`): the `ldoor` proxy.
/// The paper observes that a "large door" is a nearly planar 3D object that
/// partitions like a 2D one — this generator reproduces that geometry.
pub fn slab3d(nx: usize, ny: usize, nz: usize, unsym: f64, seed: u64) -> Csr {
    assert!(nz <= nx && nz <= ny, "slab must be thin in z");
    grid3d_7pt(nx, ny, nz, unsym, seed)
}

/// A KKT saddle-point system on a 3D grid: the `nlpkkt80` proxy.
///
/// Builds the 2n x 2n matrix
/// ```text
///   [ H   J^T ]
///   [ J  -d I ]
/// ```
/// where `H` is a 3D 7-point Laplacian (the Hessian block) and `J` couples
/// each constraint to a small neighbourhood of primal variables (the Jacobian
/// block). `d` is a small regularization so static pivoting stays stable —
/// the true nlpkkt zero block is handled by SuperLU's perturbation, which we
/// avoid relying on for the *benchmark* matrices. Pattern is symmetric.
pub fn kkt_3d(nx: usize, ny: usize, nz: usize, reg: f64, seed: u64) -> Csr {
    let n = nx * ny * nz;
    let h = grid3d_7pt(nx, ny, nz, 0.0, seed);
    let mut coo = Coo::new(2 * n, 2 * n);
    coo.reserve(2 * h.nnz() + 8 * n);
    // H block.
    for i in 0..n {
        for (c, v) in h.row_cols(i).iter().zip(h.row_vals(i)) {
            coo.push(i, *c, *v);
        }
    }
    // J: constraint i couples primal i and its +x / +y / +z neighbours
    // (a discrete divergence-like operator).
    let push_j = |ci: usize, pj: usize, v: f64, coo: &mut Coo| {
        coo.push(n + ci, pj, v); // J
        coo.push(pj, n + ci, v); // J^T
    };
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx3d(nx, ny, x, y, z);
                push_j(i, i, 1.0, &mut coo);
                if x + 1 < nx {
                    push_j(i, idx3d(nx, ny, x + 1, y, z), -0.5, &mut coo);
                }
                if y + 1 < ny {
                    push_j(i, idx3d(nx, ny, x, y + 1, z), -0.5, &mut coo);
                }
                if z + 1 < nz {
                    push_j(i, idx3d(nx, ny, x, y, z + 1), -0.5, &mut coo);
                }
            }
        }
    }
    // Regularized (2,2) block.
    for i in 0..n {
        coo.push(n + i, n + i, -reg);
    }
    coo.to_csr()
}

/// A 5-point Laplacian on an L-shaped domain: a `k x k` grid with the
/// upper-right quadrant removed. The top-level separator splits it into a
/// full half and a half-sized half, producing the *unbalanced* elimination
/// tree that motivates the paper's greedy inter-grid load-balance heuristic
/// (Fig. 8). Returns the matrix; the geometry is irregular, so use the
/// multilevel orderer (`Geometry::General`).
pub fn grid2d_lshape(k: usize, unsym: f64, seed: u64) -> Csr {
    assert!(k >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let half = k / 2;
    let inside = |x: usize, y: usize| -> bool { !(x >= half && y >= half) };
    // Compact vertex numbering over the L.
    let mut id = vec![usize::MAX; k * k];
    let mut n = 0;
    for y in 0..k {
        for x in 0..k {
            if inside(x, y) {
                id[idx2d(k, x, y)] = n;
                n += 1;
            }
        }
    }
    let mut coo = Coo::new(n, n);
    for y in 0..k {
        for x in 0..k {
            if !inside(x, y) {
                continue;
            }
            let v = id[idx2d(k, x, y)];
            coo.push(v, v, 4.0 + 0.01);
            let link = |ux: i64, uy: i64, rng: &mut StdRng, coo: &mut Coo| {
                if ux < 0 || uy < 0 || ux >= k as i64 || uy >= k as i64 {
                    return;
                }
                let (ux, uy) = (ux as usize, uy as usize);
                if inside(ux, uy) {
                    coo.push(v, id[idx2d(k, ux, uy)], unsym_val(rng, -1.0, unsym));
                }
            };
            link(x as i64 - 1, y as i64, &mut rng, &mut coo);
            link(x as i64 + 1, y as i64, &mut rng, &mut coo);
            link(x as i64, y as i64 - 1, &mut rng, &mut coo);
            link(x as i64, y as i64 + 1, &mut rng, &mut coo);
        }
    }
    coo.to_csr()
}

/// Shifted (Helmholtz-like) 2D operator: the 5-point Laplacian minus
/// `shift * I`. For shifts inside the spectrum the matrix is symmetric
/// *indefinite* — small or negative pivots appear under static pivoting,
/// exercising the perturbation + iterative-refinement path the paper
/// relies on (§VI).
pub fn grid2d_helmholtz(nx: usize, ny: usize, shift: f64, seed: u64) -> Csr {
    let base = grid2d_5pt(nx, ny, 0.0, seed);
    let mut coo = Coo::new(base.nrows, base.ncols);
    for i in 0..base.nrows {
        for (j, v) in base.row_cols(i).iter().zip(base.row_vals(i)) {
            let val = if i == *j { v - shift } else { *v };
            coo.push(i, *j, val);
        }
    }
    coo.to_csr()
}

/// Two 5-point grids of *different sizes* joined through a thin interface:
/// the canonical unbalanced-elimination-tree input (paper Fig. 8). Nested
/// dissection cuts the small interface first, leaving one large and one
/// small subtree — the naive subtree-per-grid mapping then idles half the
/// machine, while the greedy heuristic re-balances by descending into the
/// large subtree.
pub fn two_domains(k_big: usize, k_small: usize, unsym: f64, seed: u64) -> Csr {
    assert!(k_big >= k_small && k_small >= 2);
    let (na, nb) = (k_big * k_big, k_small * k_small);
    let a = grid2d_5pt(k_big, k_big, unsym, seed);
    let b = grid2d_5pt(k_small, k_small, unsym, seed ^ 0xabcd);
    let mut coo = Coo::new(na + nb, na + nb);
    for i in 0..na {
        for (c, v) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            coo.push(i, *c, *v);
        }
    }
    for i in 0..nb {
        for (c, v) in b.row_cols(i).iter().zip(b.row_vals(i)) {
            coo.push(na + i, na + *c, *v);
        }
    }
    // Couple the right edge of the big grid to the left edge of the small
    // one through k_small interface edges.
    for y in 0..k_small {
        let u = idx2d(k_big, k_big - 1, y); // in A
        let v = na + idx2d(k_small, 0, y); // in B
        coo.push(u, v, -0.5);
        coo.push(v, u, -0.5);
    }
    coo.to_csr()
}

/// A random banded diagonally dominant matrix; used by property tests as an
/// "arbitrary sparse matrix" source with guaranteed nonsingularity.
pub fn random_band(n: usize, bandwidth: usize, fill_prob: f64, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        let mut rowsum = 0.0;
        let lo = i.saturating_sub(bandwidth);
        let hi = (i + bandwidth + 1).min(n);
        for j in lo..hi {
            if j != i && rng.gen::<f64>() < fill_prob {
                let v: f64 = rng.gen::<f64>() * 2.0 - 1.0;
                coo.push(i, j, v);
                rowsum += v.abs();
            }
        }
        coo.push(i, i, rowsum + 1.0 + rng.gen::<f64>());
    }
    // Symmetrize the pattern so ordering/symbolic can assume it.
    coo.to_csr().symmetrize_pattern()
}

/// Build a model problem from the `KIND:SIZE` grammar of `salu --gen` and of
/// a campaign's `gen` matrix source, with the geometry hint its ordering
/// uses: `grid2d:K` / `grid2d9:K` (5- and 9-point Laplacians on a `K x K`
/// grid), `grid3d:K` / `grid3d27:K` (7- and 27-point on `K^3`), `kkt:K` (the
/// saddle-point system on `K^3`, regularization `1e-2`). The seed is pinned
/// to 1 so one spec always names one matrix; `unsym` is the value asymmetry
/// of the grid kinds (`kkt` ignores it).
pub fn from_spec(spec: &str, unsym: f64) -> Result<(Csr, Geometry), String> {
    let (k, build) = parse_spec(spec)?;
    Ok(build(k, unsym))
}

/// The grammar of [`from_spec`] without the build (kind, size, no size 0),
/// so a spec stored for later is checked where it is read.
pub fn check_spec(spec: &str) -> Result<(), String> {
    parse_spec(spec).map(drop)
}

/// The size of a spec and the builder its kind names.
type Build = fn(usize, f64) -> (Csr, Geometry);

fn parse_spec(spec: &str) -> Result<(usize, Build), String> {
    let (kind, size) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad generator spec '{spec}', expected KIND:SIZE"))?;
    let k: usize = size
        .parse()
        .map_err(|_| format!("bad size in generator spec '{spec}'"))?;
    if k == 0 {
        return Err(format!(
            "size 0 in generator spec '{spec}': the matrix would be empty"
        ));
    }
    fn planar(k: usize) -> Geometry {
        Geometry::Grid2d { nx: k, ny: k }
    }
    fn cube(k: usize) -> Geometry {
        Geometry::Grid3d {
            nx: k,
            ny: k,
            nz: k,
        }
    }
    let build: Build = match kind {
        "grid2d" => |k, unsym| (grid2d_5pt(k, k, unsym, 1), planar(k)),
        "grid2d9" => |k, unsym| (grid2d_9pt(k, k, unsym, 1), planar(k)),
        "grid3d" => |k, unsym| (grid3d_7pt(k, k, k, unsym, 1), cube(k)),
        "grid3d27" => |k, unsym| (grid3d_27pt(k, k, k, unsym, 1), cube(k)),
        "kkt" => |k, _| (kkt_3d(k, k, k, 1e-2, 1), Geometry::General),
        other => return Err(format!("unknown generator kind '{other}'")),
    };
    Ok((k, build))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2d_5pt_structure() {
        let a = grid2d_5pt(4, 3, 0.0, 0);
        assert_eq!(a.nrows, 12);
        // Interior vertex has 5 entries, corner has 3.
        assert_eq!(a.row_cols(idx2d(4, 1, 1)).len(), 5);
        assert_eq!(a.row_cols(idx2d(4, 0, 0)).len(), 3);
        assert!(a.is_pattern_symmetric());
        // nnz = 5n - 2*(boundary deficits) = n*5 - 2*(nx + ny)*... just check count:
        // edges = (nx-1)*ny + nx*(ny-1) = 3*3 + 4*2 = 17, nnz = n + 2*edges = 12+34
        assert_eq!(a.nnz(), 46);
    }

    #[test]
    fn grid3d_7pt_structure() {
        let a = grid3d_7pt(3, 3, 3, 0.0, 0);
        assert_eq!(a.nrows, 27);
        assert_eq!(a.row_cols(idx3d(3, 3, 1, 1, 1)).len(), 7);
        assert!(a.is_pattern_symmetric());
    }

    #[test]
    fn grid9pt_interior_degree() {
        let a = grid2d_9pt(5, 5, 0.0, 0);
        assert_eq!(a.row_cols(idx2d(5, 2, 2)).len(), 9);
        assert!(a.is_pattern_symmetric());
    }

    #[test]
    fn unsym_changes_values_not_pattern() {
        let a = grid2d_5pt(6, 6, 0.0, 1);
        let b = grid2d_5pt(6, 6, 0.3, 1);
        assert_eq!(a.col_idx, b.col_idx);
        assert_eq!(a.row_ptr, b.row_ptr);
        assert!(a.values != b.values);
        assert!(b.is_pattern_symmetric());
    }

    #[test]
    fn deletions_reduce_nnz_symmetrically() {
        let full = grid2d_random_deletions(10, 10, 0.0, 7);
        let cut = grid2d_random_deletions(10, 10, 0.4, 7);
        assert!(cut.nnz() < full.nnz());
        assert!(cut.is_pattern_symmetric());
    }

    #[test]
    fn kkt_is_pattern_symmetric_and_2n() {
        let a = kkt_3d(3, 3, 2, 1e-2, 0);
        assert_eq!(a.nrows, 36);
        assert!(a.is_pattern_symmetric());
        // Lower-right block diagonal is the regularization.
        assert_eq!(a.get(20, 20), -1e-2);
    }

    #[test]
    fn helmholtz_shift_moves_diagonal_only() {
        let base = grid2d_5pt(5, 5, 0.0, 0);
        let h = grid2d_helmholtz(5, 5, 3.0, 0);
        assert_eq!(base.col_idx, h.col_idx);
        for i in 0..25 {
            assert!((h.get(i, i) - (base.get(i, i) - 3.0)).abs() < 1e-12);
            // off-diagonals untouched
            for &j in base.row_cols(i) {
                if j != i {
                    assert_eq!(h.get(i, j), base.get(i, j));
                }
            }
        }
    }

    #[test]
    fn two_domains_is_connected_and_symmetric() {
        let a = two_domains(8, 4, 0.0, 0);
        assert_eq!(a.nrows, 64 + 16);
        assert!(a.is_pattern_symmetric());
        // The interface couples the two blocks.
        assert!(a.get(idx2d(8, 7, 0), 64) != 0.0);
    }

    #[test]
    fn lshape_has_three_quadrants() {
        let k = 8;
        let a = grid2d_lshape(k, 0.0, 0);
        assert_eq!(a.nrows, k * k - (k / 2) * (k / 2));
        assert!(a.is_pattern_symmetric());
        // Interior vertex of the surviving part keeps degree 4.
        // Vertex (1,1) is interior.
        let v = 8 + 1; // vertex (1,1); compact numbering equals full numbering in row 0..half
        assert_eq!(a.row_cols(v).len(), 5);
    }

    #[test]
    fn random_band_is_dominant() {
        let a = random_band(50, 4, 0.6, 3);
        assert!(a.is_pattern_symmetric());
        for i in 0..50 {
            let diag = a.get(i, i).abs();
            let off: f64 = a
                .row_cols(i)
                .iter()
                .zip(a.row_vals(i))
                .filter(|(c, _)| **c != i)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(diag > off, "row {i} not dominant");
        }
    }

    #[test]
    fn from_spec_names_the_five_kinds_and_rejects_the_rest() {
        let cube = |k| Geometry::Grid3d {
            nx: k,
            ny: k,
            nz: k,
        };
        for (spec, n, geometry) in [
            ("grid2d:4", 16, Geometry::Grid2d { nx: 4, ny: 4 }),
            ("grid2d9:4", 16, Geometry::Grid2d { nx: 4, ny: 4 }),
            ("grid3d:3", 27, cube(3)),
            ("grid3d27:3", 27, cube(3)),
            ("kkt:2", 16, Geometry::General),
        ] {
            let (a, g) = from_spec(spec, 0.1).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!((a.nrows, g), (n, geometry), "{spec}");
        }
        assert_eq!(
            from_spec("grid2d:4", 0.1).unwrap().0,
            grid2d_5pt(4, 4, 0.1, 1)
        );
        for (spec, needle) in [
            ("nope:4", "unknown generator kind 'nope'"),
            ("grid2d", "expected KIND:SIZE"),
            ("grid2d:x", "bad size"),
            ("grid2d:0", "size 0"),
            ("kkt:0", "size 0"),
        ] {
            let err = from_spec(spec, 0.1).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }
}
