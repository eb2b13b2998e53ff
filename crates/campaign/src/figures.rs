//! The paper's tables and figures, rendered from a finished campaign.
//!
//! `campaigns/paper.toml` measures every configuration §V's evaluation
//! reads; [`render`] turns its output directory into Tables II–III,
//! Figs. 9–12, the strong-scaling sweep, the latency study and ablations 1
//! and 3. It reads the two documents a campaign writes — the
//! `BENCH_<label>.json` snapshot and each job's `jobs/<slug>/run.json` —
//! plus the names, classes and `nnz/n` of the `testmats` proxies. Every
//! value is simulated or ledger-derived, so one run renders the same text
//! on every host. A figure that needs a point the snapshot lacks fails,
//! naming the point's slug.

use crate::snapshot::{BenchPoint, PointKey, Snapshot, DEFAULT_PIN};
use costmodel::{optimal_pz_planar, Alg, CostPrediction, NonPlanarModel, PlanarModel};
use simgrid::Json;
use sparsemat::testmats::{test_matrix, Scale, TestMatrix, ALL_NAMES};
use std::path::{Path, PathBuf};

/// The `Pz` sweep of Figs. 9–11 and the latency study.
const PZ_SWEEP: [u64; 5] = [1, 2, 4, 8, 16];
const PZ_HEADERS: &str = "Pz=1|Pz=2|Pz=4|Pz=8|Pz=16";

type Rows = Vec<Vec<String>>;

/// Render every table and figure of the campaign in `dir`.
pub fn render(dir: &Path) -> Result<String, String> {
    let f = Figures::load(dir)?;
    let sections = [
        Figures::table2,
        Figures::table3,
        Figures::fig9,
        Figures::fig10,
        Figures::fig11,
        Figures::fig12,
        Figures::strong_scaling,
        Figures::latency,
        Figures::ablation1,
        Figures::ablation3,
    ];
    Ok(each(sections, |section| section(&f))?.join("\n"))
}

/// A loaded campaign output directory.
struct Figures {
    dir: PathBuf,
    file: String,
    snap: Snapshot,
}

/// The fault-free, threaded point of `matrix` at `(p, pz)` with the
/// default lookahead window and pins; `n` is not matched.
fn want(matrix: &str, p: u64, pz: u64) -> PointKey {
    let (matrix, pin) = (matrix.into(), Some(DEFAULT_PIN));
    PointKey {
        matrix,
        p,
        pz,
        leaf: pin,
        maxsup: pin,
        ..Default::default()
    }
}

impl Figures {
    /// Load the one `BENCH_*.json` snapshot in `dir`.
    fn load(dir: &Path) -> Result<Figures, String> {
        let found: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.starts_with("BENCH_") && name.ends_with(".json")
            })
            .collect();
        let [path] = &found[..] else {
            return Err(format!(
                "{} holds {} BENCH_*.json files; figures reads exactly one",
                dir.display(),
                found.len()
            ));
        };
        let (dir, file) = (dir.into(), path.display().to_string());
        let snap = Snapshot::load(&file)?;
        Ok(Figures { dir, file, snap })
    }

    /// The snapshot point a figure needs.
    fn point(&self, want: &PointKey) -> Result<&BenchPoint, String> {
        let n_free = |pt: &&BenchPoint| {
            let want = PointKey {
                n: pt.key.n,
                ..want.clone()
            };
            pt.key.matches(&want)
        };
        let missing = || format!("{} has no point {}", self.file, want.slug());
        self.snap.points.iter().find(n_free).ok_or_else(missing)
    }

    /// One snapshot column of the point a figure needs.
    fn col(&self, want: &PointKey, column: &str) -> Result<f64, String> {
        let missing = || format!("point {} has no column {column}", want.slug());
        self.point(want)?.metric(column).ok_or_else(missing)
    }

    fn makespan(&self, want: &PointKey) -> Result<f64, String> {
        self.col(want, "makespan_secs")
    }

    /// The wire ledger (`sim.commvol`) in the run document of the point a
    /// figure needs.
    fn commvol(&self, want: &PointKey) -> Result<Json, String> {
        let slug = self.point(want)?.key.slug();
        let path = self.dir.join("jobs").join(slug).join("run.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let commvol = doc.at(&["sim", "commvol"]).cloned();
        commvol.ok_or_else(|| format!("{}: no sim.commvol", path.display()))
    }

    /// The proxy behind a matrix label, at the scale its points ran at.
    fn proxy(&self, matrix: &str) -> Result<TestMatrix, String> {
        let scale = &self.point(&want(matrix, 16, 1))?.scale;
        let scale = Scale::from_name(scale).ok_or_else(|| format!("{matrix}: scale {scale}"))?;
        Ok(test_matrix(matrix, scale))
    }

    /// The scale of the campaign's points, as `Scale` prints it.
    fn scale(&self) -> String {
        let s = self.snap.points.first().map_or("", |p| p.scale.as_str());
        Scale::from_name(s).map_or(s.to_string(), |s| format!("{s:?}"))
    }

    /// One row per suite matrix: its name, its class, then `cells`.
    fn suite_rows(
        &self,
        cells: impl Fn(&str) -> Result<Vec<String>, String>,
    ) -> Result<Rows, String> {
        each(ALL_NAMES, |name| {
            let class = format!("{:?}", self.proxy(name)?.class);
            Ok([vec![name.to_string(), class], cells(name)?].concat())
        })
    }

    fn table2(&self) -> Result<String, String> {
        let ratios = |predict: &dyn Fn(Alg, f64) -> CostPrediction| {
            let p2 = predict(Alg::TwoD, 1.0);
            let rows = PZ_SWEEP.map(|pz| {
                let p3 = predict(Alg::ThreeD, pz as f64);
                let m = p3.memory_words / p2.memory_words;
                let (w, l) = (
                    p2.comm_words / p3.comm_words,
                    p2.latency_msgs / p3.latency_msgs,
                );
                vec![pz.to_string(), f2(m), f2(w), f2(l)]
            });
            table("Pz|M3D/M2D|W2D/W3D|L2D/L3D", &rows)
        };
        let n_planar = (1u64 << 22) as f64;
        let pm = PlanarModel::new(n_planar, 4096.0);
        let nm = NonPlanarModel::new(1e7, 1e4);
        let gain = |pz: u64| nm.comm(Alg::TwoD, 1.0) / nm.comm(Alg::ThreeD, pz as f64);
        // Model vs measured for the planar proxy.
        let words = |pz| {
            let k = want("k2d5pt", 16, pz);
            Ok::<_, String>(self.col(&k, "w_fact_words")? + self.col(&k, "w_red_words")?)
        };
        let w2 = words(1)?;
        let small = PlanarModel::new(self.point(&want("k2d5pt", 16, 1))?.key.n as f64, 16.0);
        let measured = each([1, 2, 4, 8], |pz| {
            let w3 = words(pz)?;
            let model = small.comm(Alg::TwoD, 1.0) / small.comm(Alg::ThreeD, pz as f64);
            Ok(vec![
                pz.to_string(),
                w3.to_string(),
                f2(w2 / w3.max(1.0)),
                f2(model),
            ])
        })?;
        Ok(format!(
            "Table II reproduction — model predictions\n\n\
             Planar model (n = 2^22, P = 4096), ratios vs 2D:\n{}\
             eq. (8) optimal Pz = (1/2) log2 n = {}\n\n\
             Non-planar model (n = 1e7, P = 10000), ratios vs 2D:\n{}\
             paper §IV-C: best-case W reduction for non-planar is ~2.89x; \
             best here = {:.2}x at Pz = {}\n\n\
             Model vs measured (k2d5pt proxy, P = 16):\n{}",
            ratios(&|alg, pz| pm.predict(alg, pz)),
            optimal_pz_planar(n_planar),
            ratios(&|alg, pz| nm.predict(alg, pz)),
            (1..=64).map(gain).fold(0.0f64, f64::max),
            nm.best_pz_for_comm(64),
            table("Pz|W_meas (words)|gain_meas|gain_model", &measured),
        ))
    }

    fn table3(&self) -> Result<String, String> {
        let rows = each(ALL_NAMES, |name| {
            let (tm, k) = (self.proxy(name)?, want(name, 16, 1));
            Ok(vec![
                name.to_string(),
                tm.paper_name.to_string(),
                format!("{:?}", tm.class),
                format!("{:.1e}", tm.matrix.nrows as f64),
                format!("{:.1}", tm.nnz_per_row()),
                format!("{:.2e}", self.col(&k, "flops")?),
                format!("{:.3}", self.makespan(&k)?),
            ])
        })?;
        let header = "name|paper matrix|class|n|nnz/n|#Flop|T_fact (sim s)";
        Ok(format!(
            "Table III reproduction — test matrices at {} scale\n\
             (#Flop and T_fact measured on the baseline 2D configuration, P = 16)\n\n{}",
            self.scale(),
            table(header, &rows),
        ))
    }

    /// Normalized factorization time split into `T_scu` (compute on the
    /// critical path) and `T_comm` (the rest of it).
    fn fig9(&self) -> Result<String, String> {
        let scale = self.scale();
        let mut out =
            format!("Fig. 9 reproduction — normalized factorization time at {scale} scale\n");
        for p in [16, 64] {
            let rows = self.suite_rows(|name| {
                // The paper normalizes both plots by the 2D time at P = 16.
                let base = self.makespan(&want(name, 16, 1))?;
                let ts = each(PZ_SWEEP, |pz| {
                    let k = want(name, p, pz);
                    Ok((self.makespan(&k)?, self.col(&k, "crit_comp_secs")?))
                })?;
                let best = ts.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
                let cell = |&(t, scu): &(f64, f64)| {
                    let (t, scu, comm) = (t / base, scu / base, (t - scu) / base);
                    format!("{t:.2} ({scu:.2}+{comm:.2})")
                };
                let best_vs_2d = format!("{:.2}x", ts[0].0 / best);
                Ok(ts.iter().map(cell).chain([best_vs_2d]).collect())
            })?;
            let header = format!("matrix|class|{PZ_HEADERS}|best vs 2D");
            let ranks = p * 6;
            out +=
                &format!("\n=== {p} simulated ranks (paper: {p} nodes / {ranks} MPI ranks) ===\n");
            out += &table(&header, &rows);
        }
        Ok(out + "\nEach cell: T/T_base2D(16) as total (T_scu + T_comm).\n")
    }

    /// Per-process communication volume: `W_fact` and `W_red` from the
    /// snapshot, received words and the machine-wide class split from the
    /// run document's wire ledger.
    fn fig10(&self) -> Result<String, String> {
        let mut out =
            "Fig. 10 reproduction — per-process communication volume (bytes)\n\n".to_string();
        let header = "Pxy x Pz|W_fact (B)|W_red (B)|W_total (B)|W_recv (B)|\
                      L-panel (B)|U-panel (B)|Z-red (B)|waste|trend";
        let packed = ["LPanel", "UPanel", "ZReduction"];
        for name in ["k2d5pt", "nlpkkt"] {
            let paper_name = self.proxy(name)?.paper_name;
            for p in [16, 64] {
                let mut prev = None;
                let rows = each(PZ_SWEEP, |pz| {
                    let k = want(name, p, pz);
                    let wf = self.col(&k, "w_fact_words")? * 8.0;
                    let wr = self.col(&k, "w_red_words")? * 8.0;
                    let trend = match prev.replace(wf + wr) {
                        None => "-",
                        Some(w) if wf + wr > w => "up",
                        Some(_) => "down",
                    };
                    let cv = self.commvol(&k)?;
                    let class = |field: &str| -> Result<Vec<u64>, String> {
                        let at = |c: &str| cv.num_at(&["by_class", c, field]).map(|w| w as u64);
                        packed.iter().map(|c| at(c)).collect()
                    };
                    let (class_words, class_structs) = (class("words")?, class("struct_words")?);
                    let words: u64 = class_words.iter().sum();
                    let padding = words - class_structs.iter().sum::<u64>();
                    let waste = 100.0 * padding as f64 / words.max(1) as f64;
                    let mut cells = vec![format!("{}x{pz}", p / pz)];
                    cells.extend([wf, wr, wf + wr].map(|w| w.to_string()));
                    cells.push((max_rank(&cv, "recv_words")? * 8).to_string());
                    cells.extend(class_words.iter().map(|w| (w * 8).to_string()));
                    cells.extend([format!("{waste:.1}%"), trend.into()]);
                    Ok(cells)
                })?;
                out += &format!(
                    "--- {name} ({paper_name}), P = {p} ---\n{}\n",
                    table(header, &rows)
                );
            }
        }
        Ok(out)
    }

    /// Relative memory overhead of 3D over 2D: allocation-ledger peaks
    /// summed over ranks.
    fn fig11(&self) -> Result<String, String> {
        let rows = self.suite_rows(|name| {
            let peak = |pz| self.col(&want(name, 16, pz), "total_peak_bytes");
            let base = peak(1)?;
            each(PZ_SWEEP, |pz| {
                Ok(format!("{:+.0}%", 100.0 * (peak(pz)? / base - 1.0)))
            })
        })?;
        Ok(format!(
            "Fig. 11 reproduction — relative memory overhead of 3D over 2D (%)\n\
             (measured allocation-ledger peak summed across all ranks, P = 16)\n\n{}",
            table(&format!("matrix|class|{PZ_HEADERS}"), &rows)
        ))
    }

    /// Performance over `P_xy x Pz`: the flops the 2D baseline performs
    /// (Table III's `#Flop`) over each configuration's simulated time.
    fn fig12(&self) -> Result<String, String> {
        let mut out =
            "Fig. 12 reproduction — performance heatmap (GFLOP/s, simulated)\n\n".to_string();
        for name in ["k2d5pt", "nlpkkt"] {
            let flops = self.col(&want(name, 16, 1), "flops")?;
            let (mut best, mut best2d) = ((0.0, 0, 0), 0.0f64);
            let rows = each(PZ_SWEEP.into_iter().rev(), |pz| {
                let gflops = each(PZ_SWEEP, |pxy| {
                    let gflops = flops / self.makespan(&want(name, pxy * pz, pz))? / 1e9;
                    if gflops > best.0 {
                        best = (gflops, pxy, pz);
                    }
                    Ok(gflops)
                })?;
                if pz == 1 {
                    best2d = gflops.iter().copied().fold(best2d, f64::max);
                }
                Ok([format!("Pz={pz}")]
                    .into_iter()
                    .chain(gflops.iter().map(|g| format!("{g:.1}")))
                    .collect())
            })?;
            let (g, pxy, pz) = best;
            out += &format!(
                "--- {name} ({}) ---\n{}best: {g:.1} GF/s at Pxy={pxy} Pz={pz}  |  best 2D (Pz=1): \
                 {best2d:.1} GF/s  |  best-case speedup {:.1}x\n\n",
                self.proxy(name)?.paper_name,
                table("|Pxy=1|Pxy=2|Pxy=4|Pxy=8|Pxy=16", &rows),
                g / best2d.max(1e-9)
            );
        }
        Ok(out)
    }

    /// Best 2D against best 3D configuration at each `P` (§V-F, §I).
    fn strong_scaling(&self) -> Result<String, String> {
        let mut out = "Strong scaling — best 2D vs best 3D configuration per P\n\n".to_string();
        for name in ["k2d5pt", "serena3d"] {
            let tm = self.proxy(name)?;
            // The fastest (time, P) of the 2D and of the 3D column; the
            // first of equal times wins, as for the best Pz at one P.
            let (mut best2d, mut best3d) = ((f64::INFINITY, 0), (f64::INFINITY, 0));
            let faster = |best: &mut (f64, u64), t: (f64, u64)| {
                if t.0 < best.0 {
                    *best = t;
                }
            };
            let rows = each([4u64, 8, 16, 32, 64, 128], |p| {
                let t2 = self.makespan(&want(name, p, 1))?;
                let mut t3 = (f64::INFINITY, 1);
                for pz in (1..=p.ilog2()).map(|k| 1u64 << k) {
                    faster(&mut t3, (self.makespan(&want(name, p, pz))?, pz));
                }
                faster(&mut best2d, (t2, p));
                faster(&mut best3d, (t3.0, p));
                let (t3, pz) = t3;
                let cells = [format!("{t2:.5}"), format!("{t3:.5}"), format!("Pz={pz}")];
                let speedup = format!("{:.2}x", t2 / t3);
                Ok([p.to_string()]
                    .into_iter()
                    .chain(cells)
                    .chain([speedup])
                    .collect())
            })?;
            let (p2, p3) = (best2d.1, best3d.1);
            out += &format!(
                "--- {name} ({}, {:?}) n = {} ---\n{}\
                 2D is fastest at P = {p2}, 3D at P = {p3} ({:.2}x the processes 2D can use)\n\n",
                tm.paper_name,
                tm.class,
                tm.matrix.nrows,
                table("P|T_2D (s)|T_3D best (s)|best Pz|3D speedup", &rows),
                p3 as f64 / p2.max(1) as f64
            );
        }
        Ok(out)
    }

    /// The largest per-rank message count: Table II's `L` column,
    /// measured.
    fn latency(&self) -> Result<String, String> {
        let rows = self.suite_rows(|name| {
            let msgs = each(PZ_SWEEP, |pz| {
                max_rank(&self.commvol(&want(name, 16, pz))?, "sent_msgs")
            })?;
            let gain = |m: &u64| format!("{m} ({:.1}x)", msgs[0] as f64 / (*m).max(1) as f64);
            Ok(msgs.iter().map(gain).collect())
        })?;
        Ok(format!(
            "Latency study — max per-rank messages on the critical path (P = 16)\n\n{}",
            table(&format!("matrix|class|{PZ_HEADERS}"), &rows)
        ))
    }

    /// The lookahead window (§II-F): panel pipelining on and off.
    fn ablation1(&self) -> Result<String, String> {
        let rows = each([0, 2, 8, 16], |w| {
            let k = PointKey {
                lookahead: Some(w),
                ..want("k2d5pt", 16, 4)
            };
            let (t, hits) = (self.makespan(&k)?, self.col(&k, "lookahead_hits")?);
            Ok(vec![w.to_string(), format!("{t:.4}"), hits.to_string()])
        })?;
        let table = table("window|T_sim (s)|early panels", &rows);
        Ok(format!(
            "Ablation 1: lookahead window (k2d5pt, 2x2x4 grid)\n\n{table}"
        ))
    }

    /// The supernode width (`leaf = maxsup`). Ablation 2 runs no solver: it
    /// is a `lu3d::forest` test.
    fn ablation3(&self) -> Result<String, String> {
        let rows = each([8, 16, 32, 64], |w| {
            let k = PointKey {
                leaf: Some(w),
                maxsup: Some(w),
                ..want("k2d5pt", 8, 2)
            };
            let cv = self.commvol(&k)?;
            Ok(vec![
                w.to_string(),
                self.col(&k, "supernodes")?.to_string(),
                format!("{:.4}", self.makespan(&k)?),
                max_rank(&cv, "sent_msgs")?.to_string(),
                max_rank(&cv, "sent_words")?.to_string(),
                format!("{:.2}M", self.col(&k, "store_words")? / 1e6),
            ])
        })?;
        let table = table(
            "maxsup|#supernodes|T_sim (s)|max msgs|max words|mem total",
            &rows,
        );
        Ok(format!(
            "Ablation 2 (greedy vs naive forest partition, the paper's Fig. 8) is\n\
             the test lu3d::forest::tests::greedy_partition_never_loses_to_naive_nd.\n\n\
             Ablation 3: supernode width maxsup (k2d5pt, 2x2x2 grid)\n\n{table}"
        ))
    }
}

/// `f` over `items`, stopping at the first error.
fn each<T, U>(
    items: impl IntoIterator<Item = T>,
    f: impl FnMut(T) -> Result<U, String>,
) -> Result<Vec<U>, String> {
    items.into_iter().map(f).collect()
}

fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// The largest rank's value of one field of a wire ledger
/// (`max_rank_<field>`).
fn max_rank(commvol: &Json, field: &str) -> Result<u64, String> {
    Ok(commvol.num_at(&[&format!("max_rank_{field}")])? as u64)
}

/// A right-aligned text table under a dashed rule; `headers` are
/// `|`-separated.
fn table(headers: &str, rows: &[Vec<String>]) -> String {
    let headers: Vec<String> = headers.split('|').map(str::to_string).collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &Vec<String>| {
        let cells: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        cells.join("  ") + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
    let body: String = rows.iter().map(line).collect();
    format!("{}{rule}\n{body}", line(&headers))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A campaign directory holding ablation 1's points at `windows`.
    fn ablation1_dir(tag: &str, windows: &[u64]) -> PathBuf {
        let point = |&w: &u64| BenchPoint {
            key: PointKey {
                n: 4096,
                lookahead: Some(w),
                ..want("k2d5pt", 16, 4)
            },
            scale: "small".into(),
            metrics: vec![
                ("makespan_secs".into(), 1.2e-3),
                ("lookahead_hits".into(), 504.0),
            ],
        };
        let points = windows.iter().map(point).collect();
        let snap = Snapshot {
            label: "synthetic".into(),
            points,
        };
        let dir = std::env::temp_dir().join(format!("figures-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_synthetic.json"), snap.to_json().pretty()).unwrap();
        dir
    }

    #[test]
    fn a_table_renders_from_its_points() {
        let dir = ablation1_dir("ok", &[0, 2, 8, 16]);
        let text = Figures::load(&dir).unwrap().ablation1().unwrap();
        let lines: Vec<&str> = text.lines().skip(2).collect();
        assert_eq!(lines[0], "window  T_sim (s)  early panels", "{text}");
        assert_eq!(lines[1], "-".repeat(31));
        assert_eq!(lines[2], "     0     0.0012           504");
        assert_eq!(lines[5], "    16     0.0012           504");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_point_fails_naming_it() {
        let dir = ablation1_dir("missing", &[0, 2, 8]);
        let e = Figures::load(&dir).unwrap().ablation1().unwrap_err();
        assert!(e.ends_with("has no point k2d5pt-p16-pz4-la16"), "{e}");
        // the whole render stops at the first figure short of a point
        let e = render(&dir).unwrap_err();
        assert!(e.ends_with("has no point k2d5pt-p16-pz1"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
