//! Microbenchmark: the packed register-blocked kernel vs the per-block
//! axpy kernel, on the panel shapes the batched Schur update produces
//! (tall-skinny times short-wide, small inner dimension), then the tiled
//! kernel on the target blocks that update writes.
//!
//! ```sh
//! cargo run --release -p densela --example microbench
//! ```

use densela::{BlockMap, Mat};
use std::time::Instant;

fn fill(m: &mut Mat, seed: u64) {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    for c in 0..m.cols() {
        for r in 0..m.rows() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let v = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            *m.at_mut(r, c) = v;
        }
    }
}

fn time_it(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// `gemm_blocked_tiled` at the batched Schur update's typical shape
/// (m = n = 800, k = 32) onto C cut into 25 x 25 target blocks, each
/// mapped through the identity, or with every third row stripe scattered
/// over a taller target (every other target row skipped): the
/// staging-panel path the batched update takes.
fn tiled_rows() {
    let (m, n, k, h) = (800usize, 800usize, 32usize, 25usize);
    let mut a = Mat::zeros(m, k);
    let mut b = Mat::zeros(k, n);
    fill(&mut a, 1);
    fill(&mut b, 2);
    let off: Vec<usize> = (0..=m / h).map(|s| s * h).collect();
    let run: Vec<u32> = (0..h as u32).collect();
    let every_other: Vec<u32> = (0..h as u32).map(|r| 2 * r).collect();
    let reps = (1 << 26) / (m * n) + 1;
    for (scatter_every, scattered) in [(0usize, "none"), (3, "1/3")] {
        let (mut blocks, mut maps) = (Vec::new(), Vec::new());
        for bi in 0..off.len() - 1 {
            let rows = if scatter_every > 0 && bi % scatter_every == 0 {
                &every_other
            } else {
                &run
            };
            for bj in 0..off.len() - 1 {
                let mut blk = Mat::zeros(*rows.last().unwrap() as usize + 1, h);
                fill(&mut blk, 3 + (bi * off.len() + bj) as u64);
                blocks.push(blk);
                maps.push(BlockMap { rows, cols: &run });
            }
        }
        let t = time_it(reps, || {
            densela::gemm_blocked_tiled(-1.0, &a, &b, &off, &off, &mut blocks, &maps)
        });
        println!(
            "tiled m={m:4} k={k:2} n={n:4} stripes={h} scattered rows={scattered:4}  {:6.2} GF/s",
            2.0 * (m * n * k) as f64 / t / 1e9,
        );
    }
}

fn main() {
    for &(m, k, n, bs, bzero, rowzero) in &[
        (256usize, 32usize, 256usize, 32usize, 0.0f64, false),
        (512, 32, 512, 32, 0.0, false),
        (768, 64, 768, 64, 0.0, false),
        (1024, 32, 1024, 32, 0.0, false),
        (512, 32, 512, 32, 0.3, false),
        (512, 32, 512, 32, 0.7, false),
        // Structural sparsity: whole zero rows of B, the shape gathered U
        // panels actually have (a supernode column with no nonzeros in a
        // block row zeroes that entire row of the panel).
        (512, 32, 512, 32, 0.4, true),
        (768, 64, 768, 64, 0.4, true),
    ] {
        let mut a = Mat::zeros(m, k);
        let mut b = Mat::zeros(k, n);
        let mut c = Mat::zeros(m, n);
        fill(&mut a, 1);
        fill(&mut b, 2);
        fill(&mut c, 3);
        if bzero > 0.0 {
            // Sprinkle exact zeros into B — per-row for the structural
            // variant, per-element otherwise: the zero-skip path the
            // gathered U panels exercise.
            let mut s = 12345u64;
            for i in 0..k {
                if rowzero {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    if (s >> 11) as f64 / (1u64 << 53) as f64 / 2.0 + 0.5 < bzero {
                        for j in 0..n {
                            *b.at_mut(i, j) = 0.0;
                        }
                    }
                } else {
                    for j in 0..n {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        if (s >> 11) as f64 / (1u64 << 53) as f64 / 2.0 + 0.5 < bzero {
                            *b.at_mut(i, j) = 0.0;
                        }
                    }
                }
            }
        }
        let reps = (1 << 26) / (m * n) + 1;

        let mut c1 = c.clone();
        let t_axpy = time_it(reps, || densela::gemm(-1.0, &a, &b, 1.0, &mut c1));
        let mut c2 = c.clone();
        let t_blocked = time_it(reps, || densela::gemm_blocked(-1.0, &a, &b, 1.0, &mut c2));
        // Per-block flavor: the same multiply cut into bs x bs tiles, one
        // gemm call per (I, J) pair — what factor_step_schur does.
        let ablocks: Vec<Mat> = (0..m / bs)
            .map(|bi| {
                let mut t = Mat::zeros(bs, k);
                for c in 0..k {
                    for r in 0..bs {
                        *t.at_mut(r, c) = a.at(bi * bs + r, c);
                    }
                }
                t
            })
            .collect();
        let bblocks: Vec<Mat> = (0..n / bs)
            .map(|bj| {
                let mut t = Mat::zeros(k, bs);
                for c in 0..bs {
                    for r in 0..k {
                        *t.at_mut(r, c) = b.at(r, bj * bs + c);
                    }
                }
                t
            })
            .collect();
        let mut cblocks: Vec<Mat> = (0..(m / bs) * (n / bs))
            .map(|_| Mat::zeros(bs, bs))
            .collect();
        let t_perblock = time_it(reps, || {
            for bj in 0..n / bs {
                for bi in 0..m / bs {
                    let t = &mut cblocks[bj * (m / bs) + bi];
                    densela::gemm(-1.0, &ablocks[bi], &bblocks[bj], 1.0, t);
                }
            }
        });
        let gf = |t: f64| 2.0 * (m * n * k) as f64 / t / 1e9;
        println!(
            "m={m:4} k={k:2} n={n:4} bs={bs:2} bzero={bzero:.1}  axpy {:6.2} GF/s  blocked {:6.2} GF/s  per-block({bs}) {:6.2} GF/s  blocked/per-block {:4.2}x",
            gf(t_axpy),
            gf(t_blocked),
            gf(t_perblock),
            t_perblock / t_blocked,
        );
    }
    tiled_rows();
}
