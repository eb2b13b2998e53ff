//! Geometric nested dissection for regular grids.
//!
//! When the matrix comes from a stencil on an `nx x ny (x nz)` grid, the
//! optimal separators are coordinate planes: cutting the longest axis at its
//! midpoint with a width-1 plane disconnects the two halves for any
//! reach-1 stencil (5/9-point in 2D, 7/27-point in 3D). This produces
//! exactly the separator cascade the paper's planar analysis assumes
//! (`|sep at level i| = sqrt(n / 2^i)`) and the `n^(2/3)` top separator for
//! 3D geometry.

use sparsemat::testmats::Geometry;

/// Per-vertex integer coordinates derived from a grid geometry.
#[derive(Clone, Debug)]
pub struct Coords {
    pub xyz: Vec<[u32; 3]>,
}

impl Coords {
    /// Coordinates for every vertex of a grid geometry. Panics for
    /// [`Geometry::General`] (no coordinates exist).
    pub fn from_geometry(geom: &Geometry) -> Coords {
        match *geom {
            Geometry::Grid2d { nx, ny } => {
                let mut xyz = Vec::with_capacity(nx * ny);
                for y in 0..ny {
                    for x in 0..nx {
                        xyz.push([x as u32, y as u32, 0]);
                    }
                }
                Coords { xyz }
            }
            Geometry::Grid3d { nx, ny, nz } => {
                let mut xyz = Vec::with_capacity(nx * ny * nz);
                for z in 0..nz {
                    for y in 0..ny {
                        for x in 0..nx {
                            xyz.push([x as u32, y as u32, z as u32]);
                        }
                    }
                }
                Coords { xyz }
            }
            Geometry::General => panic!("no coordinates for general geometry"),
        }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.xyz.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.xyz.is_empty()
    }
}

/// Split `vertices` by a coordinate plane: choose the axis with the largest
/// bounding-box extent and cut at the median plane. Returns
/// `(low side, high side, separator)` in original vertex ids.
///
/// The separator is the set of vertices with the median coordinate — a
/// width-1 plane, valid for any reach-1 stencil.
pub fn plane_bisect(coords: &Coords, vertices: &[usize]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    assert!(!vertices.is_empty());
    // Bounding box.
    let mut lo = [u32::MAX; 3];
    let mut hi = [0u32; 3];
    for &v in vertices {
        for d in 0..3 {
            lo[d] = lo[d].min(coords.xyz[v][d]);
            hi[d] = hi[d].max(coords.xyz[v][d]);
        }
    }
    // Longest axis.
    let axis = (0..3)
        .max_by_key(|&d| hi[d] - lo[d])
        .expect("three axes exist");
    if hi[axis] == lo[axis] {
        // Degenerate: a single point per axis; cannot bisect.
        return (vertices.to_vec(), Vec::new(), Vec::new());
    }
    let mid = lo[axis] + (hi[axis] - lo[axis]) / 2;
    let mut low = Vec::new();
    let mut high = Vec::new();
    let mut sep = Vec::new();
    for &v in vertices {
        let c = coords.xyz[v][axis];
        if c < mid {
            low.push(v);
        } else if c > mid {
            high.push(v);
        } else {
            sep.push(v);
        }
    }
    (low, high, sep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use sparsemat::matgen::{grid2d_5pt, grid2d_9pt, grid3d_7pt};

    #[test]
    fn coords_match_generator_indexing() {
        let c = Coords::from_geometry(&Geometry::Grid3d {
            nx: 3,
            ny: 4,
            nz: 2,
        });
        assert_eq!(c.len(), 24);
        // idx3d(nx=3, ny=4, x=2, y=1, z=1) = (1*4+1)*3+2 = 17
        assert_eq!(c.xyz[17], [2, 1, 1]);
    }

    #[test]
    fn plane_separator_disconnects_5pt() {
        let nx = 9;
        let a = grid2d_5pt(nx, 7, 0.0, 0);
        let g = Graph::from_matrix(&a);
        let c = Coords::from_geometry(&Geometry::Grid2d { nx, ny: 7 });
        let all: Vec<usize> = (0..g.n()).collect();
        let (lo, hi, sep) = plane_bisect(&c, &all);
        assert_eq!(sep.len(), 7); // a full column of the grid
        assert_eq!(lo.len() + hi.len() + sep.len(), g.n());
        // No edge from lo to hi.
        for &v in &lo {
            for &u in g.neighbors(v) {
                assert!(!hi.contains(&u), "edge {v}-{u} crosses separator");
            }
        }
    }

    #[test]
    fn plane_separator_disconnects_9pt_and_7pt() {
        // Reach-1 diagonal stencils must also be cut by a width-1 plane.
        for (a, geom) in [
            (grid2d_9pt(8, 8, 0.0, 0), Geometry::Grid2d { nx: 8, ny: 8 }),
            (
                grid3d_7pt(5, 5, 5, 0.0, 0),
                Geometry::Grid3d {
                    nx: 5,
                    ny: 5,
                    nz: 5,
                },
            ),
        ] {
            let g = Graph::from_matrix(&a);
            let c = Coords::from_geometry(&geom);
            let all: Vec<usize> = (0..g.n()).collect();
            let (lo, hi, sep) = plane_bisect(&c, &all);
            assert!(!sep.is_empty());
            for &v in &lo {
                for &u in g.neighbors(v) {
                    assert!(!hi.contains(&u));
                }
            }
        }
    }

    #[test]
    fn degenerate_point_returns_all_low() {
        let c = Coords::from_geometry(&Geometry::Grid2d { nx: 1, ny: 1 });
        let (lo, hi, sep) = plane_bisect(&c, &[0]);
        assert_eq!(lo, vec![0]);
        assert!(hi.is_empty() && sep.is_empty());
    }
}
