//! `salu` — command-line front end: factor and solve a sparse system on a
//! simulated 3D process grid and report the paper's statistics.
//!
//! ```sh
//! # a generated model problem
//! salu --gen grid2d:128 --grid 2x2x4
//! salu --gen grid3d:16 --grid 2x2x2 --refine 1
//! salu --gen kkt:10 --grid 1x2x8
//!
//! # a Matrix Market file (e.g. a real SuiteSparse matrix)
//! salu --mtx path/to/matrix.mtx --grid 4x4x2 --maxsup 64
//! ```

use salu::lu3d::{baseline_text, RunText};
use salu::prelude::*;
use salu::simgrid::Json;
use std::process::exit;

struct Args {
    gen_spec: Option<String>,
    mtx: Option<String>,
    grid: (usize, usize, usize),
    maxsup: usize,
    leaf: usize,
    lookahead: usize,
    refine: usize,
    compare_2d: bool,
    condest: bool,
    report: bool,
    trace_out: Option<String>,
    run_out: Option<String>,
    plan_check: bool,
    conformance: Option<String>,
    backend: Backend,
    fault_plan: Option<FaultPlan>,
    fault_seed: u64,
    no_recover: bool,
    recv_deadline: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: salu (--gen KIND:SIZE | --mtx FILE) [options]\n\
         \n\
         matrix sources:\n\
         \x20 --gen grid2d:K     2D 5-point Laplacian on a K x K grid\n\
         \x20 --gen grid2d9:K    2D 9-point Laplacian\n\
         \x20 --gen grid3d:K     3D 7-point Laplacian on a K^3 grid\n\
         \x20 --gen grid3d27:K   3D 27-point Laplacian\n\
         \x20 --gen kkt:K        KKT saddle-point system on a K^3 grid\n\
         \x20 --mtx FILE         Matrix Market coordinate file\n\
         \n\
         options:\n\
         \x20 --grid RxCxZ       process grid (default 2x2x2; Z must be a power of 2)\n\
         \x20 --maxsup N         max supernode width (default 32)\n\
         \x20 --leaf N           nested-dissection leaf size (default 32)\n\
         \x20 --lookahead N      panel lookahead window (default 8)\n\
         \x20 --refine N         iterative-refinement sweeps (default 1)\n\
         \x20 --no-compare       skip the 2D-baseline comparison run\n\
         \x20 --report           print the unified single-run digest: makespan\n\
         \x20                    with critical-path attribution, peak memory by\n\
         \x20                    class, wire volume by class and grid axis, the\n\
         \x20                    Schur dispatch split (batched vs per-block), and\n\
         \x20                    the host-time phase breakdown (enables tracing\n\
         \x20                    and host profiling for this run)\n\
         \x20 --condest          estimate the 1-norm condition number (sequential)\n\
         \x20 --trace-out FILE   write a Chrome trace-event JSON of the run\n\
         \x20                    (open in ui.perfetto.dev) and print the\n\
         \x20                    critical-path attribution\n\
         \x20 --run-out FILE     write the run document (salu-run/4) as JSON;\n\
         \x20                    '-' = stdout: sim.{{run, metrics, memprof,\n\
         \x20                    commvol}} — the run's clocks and counts, the\n\
         \x20                    merged counters, the memory and wire ledgers'\n\
         \x20                    aggregates, bitwise the same on every\n\
         \x20                    host and backend — and host.{{sched,\n\
         \x20                    hostprof}} — the event scheduler's counters\n\
         \x20                    (null under 'threaded' on P > 1) and the host-time\n\
         \x20                    profile, which this flag turns on; with\n\
         \x20                    --plan-check also the static plan, as 'plan'\n\
         \x20                    (see docs/observability.md)\n\
         \x20 --plan-check       derive the static communication plan from\n\
         \x20                    symbolic analysis alone (per-rank, per-phase\n\
         \x20                    message counts and exact word volumes, keyed\n\
         \x20                    like the wire ledger), run the plan-time\n\
         \x20                    checks, then run a factor-only pass and\n\
         \x20                    assert its measured wire ledger matches the\n\
         \x20                    plan EXACTLY, per (phase, class, level, axis)\n\
         \x20                    cell and per peer edge — recovered fault runs\n\
         \x20                    included. Exit 1 on a finding or naming the\n\
         \x20                    first mismatch (see docs/commplan.md).\n\
         \x20 --conformance FILE check measured memory/communication against\n\
         \x20                    the Section IV cost models (runs a 2D baseline)\n\
         \x20                    and write the pass/fail report as JSON;\n\
         \x20                    '-' = stdout. Exit 1 on failure.\n\
         \x20 --backend B        execution backend: 'threaded' (default; one\n\
         \x20                    OS thread per rank, every rank may run at\n\
         \x20                    once) or 'event' (every rank a task polled on\n\
         \x20                    one thread, one at a time — runs paper-scale\n\
         \x20                    grids like 64x64x1 = 4096 ranks in one\n\
         \x20                    process). Factor digests, makespans, and all\n\
         \x20                    ledgers are bitwise identical either way (see\n\
         \x20                    docs/backends.md)\n\
         \n\
         fault injection (see docs/faultlab.md):\n\
         \x20 --faults SPEC      inject deterministic faults into the simulated\n\
         \x20                    network, e.g. 'drop:p=0.05;delay:p=0.1,secs=2e-3'.\n\
         \x20                    With recovery on (the default) the run also\n\
         \x20                    factors fault-free and asserts the factors are\n\
         \x20                    bitwise identical (exit 1 if not).\n\
         \x20 --fault-seed N     seed for the fault plan's RNG (default 1)\n\
         \x20 --no-recover       disable ack/retransmit recovery: dropped\n\
         \x20                    messages stay lost and the run fails\n\
         \x20                    structurally (a deadlock naming the edge; see\n\
         \x20                    docs/commcheck.md)\n\
         \x20 --recv-deadline S  simulated-time receive deadline in seconds;\n\
         \x20                    a later-arriving message fails the rank with\n\
         \x20                    a structured phase/supernode error"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        gen_spec: None,
        mtx: None,
        grid: (2, 2, 2),
        maxsup: 32,
        leaf: 32,
        lookahead: 8,
        refine: 1,
        compare_2d: true,
        condest: false,
        report: false,
        trace_out: None,
        run_out: None,
        plan_check: false,
        conformance: None,
        backend: Backend::Threaded,
        fault_plan: None,
        fault_seed: 1,
        no_recover: false,
        recv_deadline: None,
    };
    let mut faults = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--gen" => args.gen_spec = Some(val("--gen")),
            "--mtx" => args.mtx = Some(val("--mtx")),
            "--grid" => {
                let v = val("--grid");
                let parts: Vec<usize> = v.split('x').filter_map(|t| t.parse().ok()).collect();
                if parts.len() != 3 {
                    eprintln!("bad --grid '{v}', expected RxCxZ");
                    usage();
                }
                args.grid = (parts[0], parts[1], parts[2]);
            }
            "--maxsup" => args.maxsup = val("--maxsup").parse().unwrap_or_else(|_| usage()),
            "--leaf" => args.leaf = val("--leaf").parse().unwrap_or_else(|_| usage()),
            "--lookahead" => {
                args.lookahead = val("--lookahead").parse().unwrap_or_else(|_| usage())
            }
            "--refine" => args.refine = val("--refine").parse().unwrap_or_else(|_| usage()),
            "--no-compare" => args.compare_2d = false,
            "--report" => args.report = true,
            "--trace-out" => args.trace_out = Some(val("--trace-out")),
            "--run-out" => args.run_out = Some(val("--run-out")),
            "--plan-check" => args.plan_check = true,
            "--conformance" => args.conformance = Some(val("--conformance")),
            "--backend" => {
                let v = val("--backend");
                args.backend = v.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--faults" => faults = Some(val("--faults")),
            "--fault-seed" => {
                args.fault_seed = val("--fault-seed").parse().unwrap_or_else(|_| usage())
            }
            "--no-recover" => args.no_recover = true,
            "--recv-deadline" => {
                args.recv_deadline =
                    Some(val("--recv-deadline").parse().unwrap_or_else(|_| usage()))
            }
            "--condest" => args.condest = true,
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage();
            }
        }
    }
    if args.gen_spec.is_none() && args.mtx.is_none() {
        usage();
    }
    args.fault_plan = faults.map(|spec| {
        FaultPlan::parse(&spec, args.fault_seed).unwrap_or_else(|e| {
            eprintln!("bad --faults '{spec}': {e}");
            exit(2)
        })
    });
    if args.maxsup == 0 {
        eprintln!("bad --maxsup 0: a supernode holds at least one column");
        usage();
    }
    let (pr, pc, pz) = args.grid;
    if pr == 0 || pc == 0 || pz == 0 || !pz.is_power_of_two() {
        eprintln!("bad --grid {pr}x{pc}x{pz}: dimensions must be positive and Z a power of two");
        usage();
    }
    args
}

fn build_matrix(args: &Args) -> (Csr, Geometry, String) {
    if let Some(path) = &args.mtx {
        let a = salu::sparsemat::io::read_matrix_market_file(path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            exit(1)
        });
        if a.nrows == 0 || a.nrows != a.ncols {
            eprintln!(
                "cannot factor {path}: the matrix is {} x {}, need a non-empty square one",
                a.nrows, a.ncols
            );
            exit(1)
        }
        return (a, Geometry::General, path.clone());
    }
    let spec = args.gen_spec.as_ref().unwrap();
    let (a, geometry) = salu::sparsemat::matgen::from_spec(spec, 0.1).unwrap_or_else(|e| {
        eprintln!("bad --gen: {e}");
        usage()
    });
    (a, geometry, spec.clone())
}

fn main() {
    let args = parse_args();
    let (a, geometry, label) = build_matrix(&args);
    let planar = matches!(geometry, Geometry::Grid2d { .. });
    let (pr, pc, pz) = args.grid;
    println!("matrix : {label}  (n = {}, nnz = {})", a.nrows, a.nnz());
    println!(
        "grid   : {pr} x {pc} x {pz}  ({} simulated ranks)",
        pr * pc * pz
    );

    let x_true: Vec<f64> = (0..a.nrows).map(|i| ((i % 21) as f64) - 10.0).collect();
    let b = a.matvec(&x_true);

    // det-lint: allow(wall-clock): CLI progress timing only
    let t0 = std::time::Instant::now();
    let prep = Prepared::new(a, geometry, args.leaf, args.maxsup);
    println!(
        "analyze: {} supernodes, {:.2} Mwords LU, {:.1} Mflop predicted  [{:.2}s wall]",
        prep.sym.nsup(),
        prep.sym.stats().factor_words as f64 / 1e6,
        prep.sym.stats().total_flops as f64 / 1e6,
        t0.elapsed().as_secs_f64()
    );

    let cfg = SolverConfig {
        pr,
        pc,
        pz,
        lookahead: args.lookahead,
        refine_steps: args.refine,
        tracing: args.trace_out.is_some() || args.report,
        host_profiling: args.run_out.is_some() || args.report,
        backend: args.backend,
        fault_plan: args.fault_plan.clone(),
        recover: args.fault_plan.is_some() && !args.no_recover,
        recv_deadline: args.recv_deadline,
        ..Default::default()
    };
    // Static communication plan: derived from symbolic analysis alone,
    // before (and independent of) any numeric execution.
    let plan = args.plan_check.then(|| {
        let forest = salu::lu3d::EtreeForest::build(&prep.tree, &prep.sym, pz);
        let grid3 = salu::simgrid::Grid3d::new(pr, pc, pz);
        let plan = salu::commplan::build_plan(&prep.sym, &forest, grid3, args.lookahead);
        let audit = salu::commplan::check_plan(&plan);
        println!(
            "\ncomm plan: {} ops, {} msgs, {} words planned; static checks {}",
            audit.ops,
            audit.msgs,
            audit.words,
            if audit.ok() { "passed" } else { "FAILED" }
        );
        if !audit.ok() {
            for f in &audit.findings {
                eprintln!("  {f}");
            }
            exit(1);
        }
        if planar {
            match salu::commplan::check_planar_volume(&plan, prep.a.nrows) {
                Ok(line) => println!("  {line}"),
                Err(line) => {
                    eprintln!("  planar volume FAILED: {line}");
                    exit(1);
                }
            }
        }
        (plan, audit)
    });

    // det-lint: allow(wall-clock): CLI progress timing only
    let t0 = std::time::Instant::now();
    let out = try_factor_and_solve(&prep, &cfg, Some(b.clone())).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    let wall = t0.elapsed().as_secs_f64();
    let x = out.x.as_ref().expect("solution");
    let bmax = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    println!("\nfactor+solve  [{wall:.2}s wall]");
    println!(
        "  residual |Ax-b|/|b|   = {:.2e}",
        prep.a.residual_inf(x, &b) / bmax
    );
    let account = out.account();
    let text = RunText::of(&account).expect("an account renders");
    print!("{}", text.summary);
    // Analyzed once; printed in the digest, or after the trace without one.
    let critical_path = out.critical_path();
    if args.report {
        print!("{}", text.digest_clock);
        if let Some(cp) = &critical_path {
            println!("{}", cp.render());
        }
        print!("{}", text.digest_ledgers);
    }

    if args.fault_plan.is_some() {
        println!("\nfault injection (seed {}):", args.fault_seed);
        let counters = account.at(&["sim", "metrics"]);
        for (k, v) in counters.and_then(Json::as_obj).unwrap_or(&[]) {
            if k.starts_with("fault.") {
                println!("  {k:<30} = {}", v.as_f64().unwrap_or(0.0) as u64);
            }
        }
        if !args.no_recover {
            // The recovery guarantee: faults with recovery shift clocks but
            // never values. Factor fault-free and compare digests.
            let ref_cfg = SolverConfig {
                fault_plan: None,
                recover: false,
                recv_deadline: None,
                tracing: false,
                ..cfg.clone()
            };
            let reference = factor_only(&prep, &ref_cfg);
            if reference.factor_digest == out.factor_digest {
                println!(
                    "  recovery check: factors bitwise identical to fault-free run \
                     (digest {:#018x})",
                    out.factor_digest
                );
            } else {
                eprintln!(
                    "  recovery check FAILED: digest {:#018x} != fault-free {:#018x}",
                    out.factor_digest, reference.factor_digest
                );
                exit(1);
            }
        }
    }

    if let Some(path) = &args.trace_out {
        let doc = out.chrome_trace().expect("tracing was enabled");
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("failed to write {path}: {e}");
            exit(1);
        }
        println!("\ntrace written to {path} (open in ui.perfetto.dev)");
        if let Some(cp) = critical_path.as_ref().filter(|_| !args.report) {
            println!("{}", cp.render());
        }
    }
    if let Some(path) = &args.run_out {
        let mut doc = account.clone();
        if let (Json::Obj(sections), Some((plan, audit))) = (&mut doc, &plan) {
            sections.push(("plan".into(), salu::commplan::plan_json(plan, audit)));
        }
        emit_json(path, &doc, "run document");
    }

    if let Some((plan, _)) = &plan {
        // The main run's ledger includes solve/refine traffic; the plan
        // covers the factorization, so measure a factor-only pass under the
        // same config — fault plan included: a recovered run must still
        // match bit-for-bit (retransmissions live in fault.* counters, not
        // the ledger).
        let fonly = factor_only(&prep, &cfg);
        let ledgers: Vec<_> = fonly.reports.iter().map(|r| r.commvol.clone()).collect();
        match salu::commplan::compare_with_measured(plan, &ledgers) {
            Ok(stats) => println!(
                "\nplan check: measured ledger matches the plan exactly \
                 ({} ranks, {} cells, {} edges, {} msgs / {} words)",
                stats.ranks, stats.entries, stats.edges, stats.msgs, stats.words
            ),
            Err(mismatches) => {
                eprintln!("\nplan check FAILED: measured ledger deviates from the plan:");
                for m in &mismatches {
                    eprintln!("  {m}");
                }
                exit(1);
            }
        }
    }

    if args.condest {
        use salu::slu2d::store::{BlockStore, InitValues};
        use salu::slu2d::{condest_1, seq_factor};
        let grid = salu::simgrid::Grid2d::new(1, 1);
        let mut store = BlockStore::build(
            &prep.pa,
            &prep.sym,
            &grid,
            0,
            0,
            &|_| true,
            InitValues::FromMatrix,
        );
        seq_factor(&mut store, &prep.sym, 1e-10);
        println!(
            "  est. condition (1-norm)= {:.3e}",
            condest_1(&prep.pa, &store, &prep.sym)
        );
    }

    // One 2D baseline serves both the comparison printout and the
    // conformance gate (which needs it even under --no-compare).
    let baseline = if (args.compare_2d || args.conformance.is_some()) && pz > 1 {
        let salu::simgrid::Grid2d { pr: br, pc: bc } =
            salu::simgrid::Grid2d::near_square(pr * pc * pz);
        let base = SolverConfig {
            pr: br,
            pc: bc,
            pz: 1,
            lookahead: args.lookahead,
            ..Default::default()
        };
        Some((br, bc, factor_only(&prep, &base).account()))
    } else {
        None
    };

    if args.compare_2d && pz > 1 {
        let (br, bc, base) = baseline.as_ref().unwrap();
        println!("\n2D baseline ({br} x {bc} x 1):");
        print!(
            "{}",
            baseline_text(&account, base).expect("accounts render")
        );
    }

    if let Some(path) = &args.conformance {
        use salu::costmodel::{check_conformance, ConformanceInput};
        // Pz = 1: the 3D run *is* the 2D baseline, so the ratios are 1
        // on both sides and the report trivially passes.
        let at = |doc: &Json, path: &[&str]| doc.num_at(path).expect("an account field");
        let mem = |doc: &Json| at(doc, &["sim", "memprof", "max_peak_bytes"]) / 8.0;
        let words = |doc: &Json, phase| at(doc, &["sim", "run", phase, "words"]);
        let (mem3d_words, wz_words) = (mem(&account), words(&account, "reduce"));
        let w3d_words = words(&account, "fact") + wz_words;
        let (mem2d_words, w2d_words) = match &baseline {
            Some((_, _, base)) => (mem(base), words(base, "fact")),
            None => (mem3d_words, w3d_words),
        };
        let rep = check_conformance(ConformanceInput {
            n: prep.a.nrows as f64,
            p: (pr * pc * pz) as f64,
            pz: pz as f64,
            planar,
            mem3d_words,
            mem2d_words,
            w3d_words,
            w2d_words,
            wz_words,
        });
        println!("\ncost-model conformance:");
        print!("{}", rep.render());
        emit_json(path, &rep.to_json(), "conformance report");
        if !rep.passed {
            exit(1);
        }
    }
}

/// Write a JSON document to `path`, or to stdout when `path` is `-`.
fn emit_json(path: &str, doc: &Json, what: &str) {
    if path == "-" {
        println!("{}", doc.pretty());
    } else {
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("failed to write {path}: {e}");
            exit(1);
        }
        println!("{what} written to {path}");
    }
}
