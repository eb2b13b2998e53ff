//! Per-layer probes: timed calls into one layer's public functions, from
//! outside. The `densela` and `simgrid` probes are the same on every
//! workload (they characterize the host and the engine); the others run on
//! the workload's own matrix.

use crate::adapter::{self, Inputs, Scale, Workload};
use crate::spans::Spans;
use crate::stats::fastest;
use salu::densela::{self, flops, Mat, PivotPolicy};
use salu::prelude::*;
use salu::simgrid::{Grid2d, Grid3d, Payload};
use salu::slu2d::store::InitValues;
use salu::slu2d::{seq_factor, seq_solve, BlockStore};
use std::hint::black_box;
use std::time::Instant;

/// Named values, in reporting order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }
}

/// How large the host and engine probes are.
struct Sizes {
    /// GEMM probe: `C (mn x mn) -= A (mn x k) * B (k x mn)`.
    gemm_mn: usize,
    /// Inner dimension, panel width and GETRF order: the supernode width.
    k: usize,
    /// Cap on one streaming array, in bytes.
    stream_cap_bytes: usize,
    pingpong_trips: usize,
    bcast_ranks: usize,
    bcast_words: usize,
    bcast_rounds: usize,
    spawn_ranks: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                gemm_mn: 768,
                k: 32,
                stream_cap_bytes: 256 << 20,
                pingpong_trips: 20_000,
                bcast_ranks: 256,
                bcast_words: 4096,
                bcast_rounds: 8,
                spawn_ranks: 1024,
            },
            Scale::Smoke => Sizes {
                gemm_mn: 96,
                k: 32,
                stream_cap_bytes: 4 << 20,
                pingpong_trips: 200,
                bcast_ranks: 16,
                bcast_words: 256,
                bcast_rounds: 2,
                spawn_ranks: 32,
            },
        }
    }
}

const BATCHES: usize = 5;

/// Gflop/s of `op` applied once to each element of a pool, the pool restored
/// from `pristine` outside the timer before every batch (so repeated
/// in-place kernels never drift into denormals or overflow).
fn pooled_gflops<T: Clone>(pristine: &[T], flops_each: u64, mut op: impl FnMut(&mut T)) -> f64 {
    let mut secs = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut pool = pristine.to_vec();
        let t = Instant::now();
        for item in &mut pool {
            op(item);
        }
        secs.push(t.elapsed().as_secs_f64());
        black_box(&pool);
    }
    flops_each as f64 * pristine.len() as f64 / fastest(&secs) / 1e9
}

/// A dense matrix with no zero entry (the axpy GEMM skips zero scale
/// factors) and a dominant diagonal when square.
fn dense(rows: usize, cols: usize) -> Mat {
    Mat::from_fn(rows, cols, |i, j| {
        let v = ((i * 7 + j * 13) % 11) as f64 / 11.0 + 0.05;
        if i == j {
            v + rows as f64
        } else {
            v
        }
    })
}

/// Largest cache level of cpu0 in bytes, from sysfs (`None` if unreadable).
fn last_level_cache_bytes() -> Option<usize> {
    (0..8)
        .filter_map(|i| {
            let text = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let text = text.trim();
            let (digits, unit) = text.split_at(text.find(|c: char| !c.is_ascii_digit())?);
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                "G" => 1 << 30,
                _ => return None,
            };
            Some(digits.parse::<usize>().ok()? * scale)
        })
        .max()
}

/// Multiply-add rate on values held in registers: 64 independent chains of
/// one multiply and one add (rustc does not contract them into FMAs).
fn peak_gflops() -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 2_000_000;
    let mut secs = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut acc = black_box([1.0f64; LANES]);
        let (mul, add) = (black_box(0.999_999_9f64), black_box(1e-7f64));
        let t = Instant::now();
        for _ in 0..ITERS {
            for x in &mut acc {
                *x = *x * mul + add;
            }
        }
        secs.push(t.elapsed().as_secs_f64());
        black_box(acc);
    }
    (2 * LANES * ITERS) as f64 / fastest(&secs) / 1e9
}

/// Sustained memory bandwidth of `dst[i] = s * src[i]`, counting the read
/// and the write (16 bytes per element, the STREAM convention).
fn stream_gbps(array_bytes: usize) -> f64 {
    let n = array_bytes / 8;
    let src = vec![1.0f64; n];
    let mut dst = vec![0.0f64; n];
    let s = black_box(1.000_000_1f64);
    let mut secs = Vec::with_capacity(3);
    for _ in 0..3 {
        let t = Instant::now();
        for (d, v) in dst.iter_mut().zip(&src) {
            *d = s * *v;
        }
        secs.push(t.elapsed().as_secs_f64());
        black_box(&dst);
    }
    16.0 * n as f64 / fastest(&secs) / 1e9
}

/// `densela`: kernel rates at the shapes the supernodal factorization
/// calls them with, against a roofline measured in the same run.
fn densela_probes(scale: Scale, m: &mut Metrics) {
    let sz = Sizes::of(scale);
    let (mn, k) = (sz.gemm_mn, sz.k);
    let (a, b) = (dense(mn, k), dense(k, mn));
    let c = vec![Mat::zeros(mn, mn); 4];
    let gemm_flops = flops::gemm_flops(mn, mn, k);
    let gemm = pooled_gflops(&c, gemm_flops, |c| densela::gemm(-1.0, &a, &b, 1.0, c));
    let blocked = pooled_gflops(&c, gemm_flops, |c| {
        densela::gemm_blocked(-1.0, &a, &b, 1.0, c)
    });
    let policy = PivotPolicy::Static { threshold: 1e-10 };
    let diag = vec![dense(k, k); 512];
    let getrf = pooled_gflops(&diag, flops::getrf_flops(k, k), |d| {
        black_box(densela::getrf(d, policy));
    });
    let mut lu = dense(k, k);
    densela::getrf(&mut lu, policy);
    let panels = vec![dense(mn, k); 32];
    let trsm = pooled_gflops(&panels, flops::trsm_flops(k, mn), |p| {
        densela::trsm_right_upper(&lu, p)
    });

    let peak = peak_gflops();
    let llc = last_level_cache_bytes().unwrap_or(32 << 20);
    let array_bytes = (4 * llc).min(sz.stream_cap_bytes);
    let stream = stream_gbps(array_bytes);
    // Computed, not measured: compulsory traffic of one GEMM call (read A
    // and B, read and write C) ignores cache misses.
    let gemm_bytes = 8.0 * (2 * mn * k + 2 * mn * mn) as f64;
    let roof = peak.min(stream * gemm_flops as f64 / gemm_bytes);

    m.put("densela.gemm_gflops", gemm);
    m.put("densela.gemm_blocked_gflops", blocked);
    m.put("densela.getrf_gflops", getrf);
    m.put("densela.trsm_gflops", trsm);
    m.put("densela.probe_peak_gflops", peak);
    m.put("densela.probe_stream_gbps", stream);
    m.put(
        "densela.probe_stream_array_mb",
        array_bytes as f64 / 1048576.0,
    );
    m.put("densela.probe_llc_mb", llc as f64 / 1048576.0);
    m.put("densela.gemm_blocked_roofline_frac", blocked / roof);
}

/// `simgrid`: host cost of the engine's three primitives — a message, a
/// broadcast tree with a real payload, a rank spawn — on each backend.
fn simgrid_probes(scale: Scale, m: &mut Metrics) {
    let sz = Sizes::of(scale);
    for (suffix, backend) in adapter::BACKENDS {
        let trips = sz.pingpong_trips;
        let out = adapter::machine(2, backend).run(move |rank| {
            let world = rank.world();
            let peer = 1 - rank.id();
            let t = Instant::now();
            for _ in 0..trips {
                if rank.id() == 0 {
                    rank.send(&world, peer, 1, Payload::F64s(vec![0.0; 8]));
                    black_box(rank.recv(&world, peer, 1));
                } else {
                    let got = rank.recv(&world, peer, 1);
                    rank.send(&world, peer, 1, got);
                }
            }
            t.elapsed().as_secs_f64()
        });
        let ns = out.results[0] / (2 * trips) as f64 * 1e9;
        m.put(&format!("simgrid.pingpong_ns_per_msg.{suffix}"), ns);

        let (ranks, words, rounds) = (sz.bcast_ranks, sz.bcast_words, sz.bcast_rounds);
        let out = adapter::machine(ranks, backend).run(move |rank| {
            let world = rank.world();
            // Every rank exists once the barrier releases: spawn cost stays
            // out of the timed part.
            rank.barrier(&world, 1);
            let start = Instant::now();
            for round in 0..rounds {
                let data = (rank.id() == 0).then(|| Payload::F64s(vec![1.0; words]));
                black_box(rank.bcast(&world, 0, data, 2 + round as u64));
            }
            (start, Instant::now())
        });
        let first = out.results.iter().map(|r| r.0).min().expect("ranks ran");
        let last = out.results.iter().map(|r| r.1).max().expect("ranks ran");
        let msgs = (rounds * (ranks - 1)) as f64;
        let ns = last.duration_since(first).as_secs_f64() / msgs * 1e9;
        m.put(&format!("simgrid.bcast_ns_per_msg_p256.{suffix}"), ns);

        let t = Instant::now();
        adapter::machine(sz.spawn_ranks, backend).run(|_| ());
        let us = t.elapsed().as_secs_f64() / sz.spawn_ranks as f64 * 1e6;
        m.put(&format!("simgrid.spawn_us_per_rank_p1024.{suffix}"), us);
    }
}

/// Host and engine probes: independent of the workload.
pub fn host_probes(scale: Scale, spans: &mut Spans, m: &mut Metrics) {
    spans.scope("densela.probes", |_| densela_probes(scale, m));
    spans.scope("simgrid.probes", |_| simgrid_probes(scale, m));
}

/// `slu2d` + `densela` on the benchmark's own thread, no machine: one
/// rank's store build, then the plain sequential factor and solve with the
/// flop ledger read around the factorization. Returns the baseline's
/// backward error.
pub fn sequential_probes(
    w: &Workload,
    inputs: &Inputs,
    prep: &Prepared,
    spans: &mut Spans,
    m: &mut Metrics,
) -> f64 {
    let keep_all = |_: usize| true;
    let layer = Grid2d::new(w.grid.0, w.grid.1);
    spans.repeat("slu2d.store_build", |_| {
        black_box(BlockStore::build(
            &prep.pa,
            &prep.sym,
            &layer,
            0,
            0,
            &keep_all,
            InitValues::FromMatrix,
        ));
    });
    // Every repeat factors a fresh store; the flop ledger is read around
    // the factorization alone.
    let rhs = prep.permute_rhs(&inputs.b);
    let (x, performed, skipped) = spans.repeat("slu2d.seq_baseline", |s| {
        let mut store = BlockStore::build(
            &prep.pa,
            &prep.sym,
            &Grid2d::new(1, 1),
            0,
            0,
            &keep_all,
            InitValues::FromMatrix,
        );
        flops::reset();
        flops::reset_skipped();
        s.scope("slu2d.seq_factor", |_| {
            seq_factor(&mut store, &prep.sym, adapter::pivot_threshold(w));
        });
        let counted = (flops::get(), flops::skipped());
        let x = s.scope("slu2d.seq_solve", |_| seq_solve(&store, &prep.sym, &rhs));
        (x, counted.0, counted.1)
    });
    m.put("slu2d.store_build_s", spans.fastest("slu2d.store_build"));
    m.put("slu2d.seq_factor_s", spans.fastest("slu2d.seq_factor"));
    m.put("slu2d.seq_solve_s", spans.fastest("slu2d.seq_solve"));
    m.put("densela.flops_performed", performed as f64);
    m.put(
        "densela.flops_skipped_share",
        skipped as f64 / (performed + skipped).max(1) as f64,
    );
    inputs.backward_error(&prep.unpermute_solution(&x))
}

/// `commplan`: build and check the static communication plan, then compare
/// it with the wire ledger a factor-only run measured. Returns whether the
/// plan passed its static checks and equals the ledger.
pub fn commplan_probes(
    w: &Workload,
    prep: &Prepared,
    forest: &EtreeForest,
    factor_only: &Output3d,
    spans: &mut Spans,
    m: &mut Metrics,
) -> bool {
    let (pr, pc, pz) = w.grid;
    let plan = spans.repeat("commplan.build", |_| {
        salu::commplan::build_plan(
            &prep.sym,
            forest,
            Grid3d::new(pr, pc, pz),
            adapter::lookahead(w),
        )
    });
    let audit = spans.repeat("commplan.check", |_| salu::commplan::check_plan(&plan));
    let ledgers: Vec<_> = factor_only
        .reports
        .iter()
        .map(|r| r.commvol.clone())
        .collect();
    let equal = match salu::commplan::compare_with_measured(&plan, &ledgers) {
        Ok(_) => true,
        Err(mismatches) => {
            for line in mismatches.iter().take(4) {
                eprintln!("plan != ledger: {line}");
            }
            false
        }
    };
    for finding in audit.findings.iter().take(4) {
        eprintln!("plan check: {finding}");
    }
    let ok = equal && audit.ok();
    m.put("commplan.build_s", spans.fastest("commplan.build"));
    m.put("commplan.check_s", spans.fastest("commplan.check"));
    m.put("commplan.planned_msgs", audit.msgs as f64);
    m.put("commplan.plan_equals_ledger", f64::from(u8::from(ok)));
    ok
}
