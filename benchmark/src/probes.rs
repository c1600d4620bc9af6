//! Layer probes: timed direct calls into each layer's public API.
//!
//! Every probe names the end-to-end metric it should move (see the
//! README's layer table). Probes of the workload's own scripts
//! ([`script_set`]) differ per workload; the rest run at fixed shapes
//! so that their numbers compare across workloads and commits.

use crate::host;
use crate::jobs::{engine_options, run_request, Counts, Limit, ServeFacts};
use crate::metrics::Metrics;
use crate::serve::Serve;
use crate::spans::{Recorder, SpanId};
use crate::stats::{geomean, median, percentile_or_clamped, sorted};
use crate::workloads::{Kernel, Script, BLOCK_COLD, BLOCK_HOT, PROBE_RANKS};
use otter_analysis::{infer, resolve_program, ssa_rename, InferOptions};
use otter_codegen::{emit_c, fuse, insert_frees, lower, peephole};
use otter_core::{compile, run, EngineOptions};
use otter_frontend::{parse, MapProvider, Program};
use otter_machine::meiko_cs2;
use otter_mpi::{run_spmd_with, Comm, CommError, ReduceOp, SpmdOptions};
use otter_rt::{kernels, Dense, DistMatrix};
use otter_trace::MemorySink;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per client of the fixed-length serve probe: 100 whole
/// blocks, so the cold share is exactly 0.15.
const MINI_MIX_PER_CLIENT: usize = 50 * (BLOCK_HOT + BLOCK_COLD);

/// Call `f` until `budget` has passed and at least `min` calls were
/// made; per-call seconds.
fn sample(budget: Duration, min: usize, mut f: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || started.elapsed() < budget {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

fn timed<T>(
    rec: &Recorder,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    rec.span(name, parent, 0, |_| {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64())
    })
}

/// The passes timed one by one, with the metric each feeds. `lint.us`
/// sums the two otter-lint stages of a compile.
const PASS_METRICS: [&str; 9] = [
    "frontend.parse_us",
    "analysis.resolve_us",
    "analysis.ssa_infer_us",
    "codegen.lower_us",
    "codegen.peephole_us",
    "lint.us",
    "codegen.frees_us",
    "codegen.fusion_us",
    "codegen.emit_c_us",
];
const LINT: usize = 5;

/// Seconds per entry of [`PASS_METRICS`].
type PassSeconds = [f64; PASS_METRICS.len()];

/// Compile one script by calling the layers' functions in
/// `PassManager::standard()` order (the audit-only `guards` pass lives
/// inside otter-core and changes nothing); per-pass seconds and the C.
fn compile_by_passes(
    src: &str,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> Result<(PassSeconds, String), String> {
    let mut t = PassSeconds::default();
    let (file, dt) = timed(rec, "frontend.parse", parent, || parse(src));
    t[0] = dt;
    let file = file.map_err(|e| e.to_string())?;
    let program = Program {
        script: file.script,
        functions: file.functions,
    };
    let provider = MapProvider::new();
    let (resolved, dt) = timed(rec, "analysis.resolve", parent, || {
        resolve_program(program, &provider)
    });
    t[1] = dt;
    let mut program = resolved.map_err(|e| e.to_string())?.program;
    let (inference, dt) = timed(rec, "analysis.ssa_infer", parent, || {
        program.script = ssa_rename(&program.script, &[]).block;
        for f in &mut program.functions {
            f.body = ssa_rename(&f.body, &f.params).block;
        }
        infer(&program, InferOptions { data_dir: None })
    });
    t[2] = dt;
    let inference = inference.map_err(|e| e.to_string())?;
    let (ir, dt) = timed(rec, "codegen.lower", parent, || lower(&program, &inference));
    t[3] = dt;
    let mut ir = ir.map_err(|e| e.to_string())?;
    t[4] = timed(rec, "codegen.peephole", parent, || peephole(&mut ir)).1;
    t[LINT] = timed(rec, "lint.lint_program", parent, || {
        black_box(otter_lint::lint_program(&ir));
    })
    .1;
    t[6] = timed(rec, "codegen.frees", parent, || insert_frees(&mut ir)).1;
    t[7] = timed(rec, "codegen.fusion", parent, || fuse(&mut ir)).1;
    t[LINT] += timed(rec, "lint.analyze", parent, || {
        otter_lint::shape::annotate_in_place(&mut ir);
        black_box(otter_lint::oracle::predict(&ir));
    })
    .1;
    let (c_source, dt) = timed(rec, "codegen.emit_c", parent, || emit_c(&ir));
    t[8] = dt;
    Ok((t, c_source))
}

/// Probes of the workload's own scripts: the compile pipeline pass by
/// pass, direct runs, the interpreter, and the computed kernel share.
/// Returns the exact counts of one direct run of every script.
pub fn script_set(
    scripts: &[Script],
    workers: usize,
    slice: Duration,
    rec: &Recorder,
    m: &mut Metrics,
) -> Result<Counts, String> {
    let opts = engine_options(workers);
    let us = 1e6;

    // The traced compile must produce what `compile()` produces.
    let mut artifacts = Vec::new();
    for s in scripts {
        let artifact = compile(&s.app.script, &opts).map_err(|e| e.to_string())?;
        let (_, c_source) = rec.span("compile", None, 0, |span| {
            compile_by_passes(&s.app.script, rec, span)
        })?;
        if c_source != artifact.compiled().c_source {
            return Err(format!(
                "{}: C text from the pass-by-pass compile differs from compile()",
                s.app.id
            ));
        }
        artifacts.push(artifact);
    }

    // Pass times: one sample = the whole script set.
    let off = Recorder::new(false);
    let mut reps: Vec<PassSeconds> = Vec::new();
    sample(slice, 20, || {
        let mut total = PassSeconds::default();
        for s in scripts {
            let (t, _) = compile_by_passes(&s.app.script, &off, None).expect("compiled above");
            for (sum, dt) in total.iter_mut().zip(t) {
                *sum += dt;
            }
        }
        reps.push(total);
    });
    for (i, name) in PASS_METRICS.iter().enumerate() {
        m.put(
            name,
            median(&reps.iter().map(|t| t[i]).collect::<Vec<_>>()) * us,
        );
    }
    let passes = median(&reps.iter().map(|t| t.iter().sum()).collect::<Vec<f64>>());
    let whole = median(&sample(slice, 20, || {
        for s in scripts {
            black_box(compile(&s.app.script, &opts).expect("compiled above"));
        }
    }));
    m.put("core.compile_self_us", (whole - passes) * us);

    let mut tokens = 0usize;
    let lex = median(&sample(slice / 4, 20, || {
        tokens = scripts
            .iter()
            .map(|s| {
                otter_frontend::lexer::tokenize(&s.app.script)
                    .expect("parsed above")
                    .len()
            })
            .sum();
    }));
    m.put("frontend.tokens_per_s", tokens as f64 / lex);

    let compiled = |f: fn(&otter_core::Compiled) -> usize| -> f64 {
        artifacts.iter().map(|a| f(a.compiled())).sum::<usize>() as f64
    };
    m.put("codegen.ir_instrs", compiled(|c| c.ir.instr_count()));
    m.put("codegen.fused_ops", compiled(|c| c.fusion_stats.fused()));
    m.put(
        "codegen.temps_eliminated",
        compiled(|c| c.fusion_stats.temps_eliminated),
    );
    m.put("codegen.c_bytes", compiled(|c| c.c_source.len()));

    // Direct runs at the script's rank count vs the interpreter; two
    // slices each for the whole set, however many scripts it has.
    let per_script = slice * 2 / scripts.len() as u32;
    let mut counts = Counts::default();
    let (mut matvec_bytes, mut matmul_flops) = (0.0, 0.0);
    let (mut otter_s, mut p1_s, mut interp_s, mut speedups) = (0.0, 0.0, 0.0, Vec::new());
    for (s, artifact) in scripts.iter().zip(&artifacts) {
        let request = run_request(s.ranks, workers);
        let mut report = None;
        let otter = median(&sample(per_script, 5, || {
            report = Some(run(artifact, &request));
        }));
        let report = report
            .expect("sampled at least once")
            .map_err(|e| format!("{}: {e}", s.app.id))?;
        counts.add(&report);
        let executed = |prefix: &str| -> f64 {
            report
                .op_counts
                .iter()
                .filter(|(op, _)| op.starts_with(prefix))
                .map(|(_, n)| *n as f64)
                .sum()
        };
        match s.kernel {
            Kernel::Matvec(n) => matvec_bytes += executed("matvec") * 8.0 * (n * n + 2 * n) as f64,
            Kernel::Matmul(n) => matmul_flops += executed("matmul") * 2.0 * (n * n * n) as f64,
            Kernel::None => {}
        }
        let interp = median(&sample(per_script, 3, || {
            black_box(otter_interp::run_script(&s.app.script, None).is_ok());
        }));
        p1_s += if s.ranks == 1 {
            otter
        } else {
            let request = run_request(1, workers);
            median(&sample(per_script, 3, || {
                black_box(run(artifact, &request).is_ok());
            }))
        };
        otter_s += otter;
        interp_s += interp;
        speedups.push(interp / otter);
    }
    m.put("core.spmd_wall_ratio", otter_s / p1_s);
    m.put("interp.run_ms_p50", interp_s * 1e3);
    m.put("interp.speedup_geomean", geomean(&speedups));
    m.put("core.ops_total", counts.ops as f64);
    m.put("mpi.messages", counts.messages as f64);
    m.put("mpi.bytes", counts.bytes as f64);
    m.put("machine.modeled_s", counts.modeled_seconds());

    // Computed, not measured: executed kernel ops ÷ the fixed-shape
    // probe rates ([`rt_kernels`] ran first) ÷ the direct-run wall.
    let rate = |name: &str| m.get(name).expect("rt_kernels ran first") * 1e9;
    let kernel_s = matvec_bytes / rate("rt.matvec_gbps") + matmul_flops / rate("rt.matmul_gflops");
    m.put("rt.kernel_share", kernel_s / otter_s);
    Ok(counts)
}

/// `rt.matmul_gflops`, `rt.matvec_gbps` (+ the host roofline measured
/// in the same run, with the same thread count).
pub fn rt_kernels(workers: usize, slice: Duration, m: &mut Metrics) {
    // As the engine configures a p=1 rank: the whole worker budget.
    kernels::configure(kernels::DEFAULT_TILE, workers);
    let n = 512;
    let a: Vec<f64> = (0..n * n).map(|i| (i % 13) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 * 0.5).collect();
    let mut c = vec![0.0; n * n];
    let t = median(&sample(slice, 5, || {
        kernels::matmul_accumulate(&mut c, n, n, n, &a, n, 0, &b);
        black_box(&mut c);
    }));
    let matmul_gflops = 2.0 * (n * n * n) as f64 / t / 1e9;

    let n = 2048;
    let a: Vec<f64> = (0..n * n).map(|i| (i % 11) as f64 * 0.125).collect();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut y = vec![0.0; n];
    let t = median(&sample(slice, 5, || {
        kernels::matvec_into(&mut y, &a, n, &x);
        black_box(&mut y);
    }));
    let matvec_gbps = 8.0 * (n * n + 2 * n) as f64 / t / 1e9;
    kernels::configure(kernels::DEFAULT_TILE, 1);

    let triad = host_triad_gbps(workers, slice);
    let fma = host_fma_gflops(workers, slice);
    m.put("rt.matmul_gflops", matmul_gflops);
    m.put("rt.matvec_gbps", matvec_gbps);
    m.put("host.triad_gbps", triad);
    m.put("host.fma_gflops", fma);
    m.put("rt.matvec_roofline_share", matvec_gbps / triad);
    m.put("rt.matmul_roofline_share", matmul_gflops / fma);
}

/// Elements per triad array: 3 × 32 MiB. Stated with the LLC size on
/// stderr; when the LLC is larger the number is a cache bandwidth.
const TRIAD_N: usize = 4 << 20;

/// STREAM triad `a = b + s·c` over `threads` threads, counted at 24
/// bytes per element.
fn host_triad_gbps(threads: usize, slice: Duration) -> f64 {
    let mut a = vec![0.0f64; TRIAD_N];
    let b = vec![1.5f64; TRIAD_N];
    let c = vec![0.25f64; TRIAD_N];
    let footprint = 3 * 8 * TRIAD_N as u64;
    match host::llc_bytes() {
        Some(llc) if llc >= footprint => eprintln!(
            "note: host.triad_gbps footprint {} MiB fits the {} MiB LLC: cache-resident, not DRAM",
            footprint >> 20,
            llc >> 20
        ),
        llc => eprintln!(
            "note: host.triad_gbps footprint {} MiB, LLC {:?} bytes",
            footprint >> 20,
            llc
        ),
    }
    let chunk = TRIAD_N.div_ceil(threads);
    let s = black_box(3.0);
    let t = median(&sample(slice, 5, || {
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + s * c;
                    }
                });
            }
        });
        black_box(&mut a);
    }));
    footprint as f64 / t / 1e9
}

/// Peak multiply–add rate a plain Rust loop reaches on `threads`
/// threads: 64 independent register-resident chains per thread (fused
/// when FMA was compiled in, separate mul and add otherwise).
fn host_fma_gflops(threads: usize, slice: Duration) -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 100_000;
    fn chains(a: f64, b: f64) -> f64 {
        let mut acc = [1.0f64; LANES];
        for _ in 0..ITERS {
            for x in acc.iter_mut() {
                *x = if cfg!(target_feature = "fma") {
                    x.mul_add(a, b)
                } else {
                    *x * a + b
                };
            }
        }
        acc.iter().sum()
    }
    let (a, b) = (black_box(0.999_999), black_box(1e-9));
    let t = median(&sample(slice, 5, || {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(move || black_box(chains(a, b)));
            }
        });
    }));
    (2 * LANES * ITERS * threads) as f64 / t / 1e9
}

/// Eight elementwise ops; `y` stays bounded so values never overflow.
const EW_OPS: usize = 8;
const EW_CHAIN: &str = "(y + x) .* 0.5 - (y - x) .* 0.25 + x .* y .* 0.125";

fn ew_chain_dense(x: &Dense, y: &Dense) -> Dense {
    let p = y.zip(x, |y, x| y + x).map(|v| v * 0.5);
    let q = y.zip(x, |y, x| y - x).map(|v| v * 0.25);
    let r = x.zip(y, |x, y| x * y).map(|v| v * 0.125);
    p.zip(&q, |p, q| p - q).zip(&r, |s, r| s + r)
}

/// The remaining `otter-rt` probes: local elementwise and reductions,
/// and the distributed ops at large-scale shapes, p=4.
fn rt_rest(workers: usize, slice: Duration, m: &mut Metrics) -> Result<(), String> {
    for (label, n) in [
        ("rt.ew_ns_per_elem.5k", 5000usize),
        ("rt.ew_ns_per_elem.1m", 1 << 20),
    ] {
        let x = Dense::col_vector(&(1..=n).map(|i| i as f64 / n as f64).collect::<Vec<_>>());
        let mut y = x.clone();
        let t = median(&sample(slice, 5, || y = ew_chain_dense(&x, &y)));
        black_box(&y);
        m.put(label, t * 1e9 / (n * EW_OPS) as f64);
    }
    let n = 1 << 20;
    let x = Dense::col_vector(&(0..n).map(|i| (i % 17) as f64).collect::<Vec<_>>());
    let y = Dense::col_vector(&(0..n).map(|i| (i % 19) as f64).collect::<Vec<_>>());
    let t = median(&sample(slice, 5, || {
        black_box(x.dot(&y) + x.sum_all());
    }));
    m.put("rt.reduce_gbps", (3 * 8 * n) as f64 / t / 1e9);

    let a = Dense::from_vec(512, 512, (0..512 * 512).map(|i| (i % 9) as f64).collect());
    let v = Dense::col_vector(&(0..512).map(|i| 1.0 + (i % 3) as f64).collect::<Vec<_>>());
    let b = Dense::from_vec(192, 192, (0..192 * 192).map(|i| (i % 5) as f64).collect());
    type DistOp = fn(&mut Comm, &DistMatrix, &DistMatrix) -> Result<(), CommError>;
    let ops: [(&str, &Dense, &Dense, usize, f64, DistOp); 4] = [
        ("rt.dist_matvec_us.p4", &a, &v, 200, 1e6, |c, a, x| {
            a.matvec(c, x).map(|y| drop(black_box(y)))
        }),
        ("rt.dist_matmul_ms.p4", &b, &b, 20, 1e3, |c, a, b| {
            a.matmul(c, b).map(|y| drop(black_box(y)))
        }),
        ("rt.transpose_us.p4", &a, &v, 50, 1e6, |c, a, _| {
            a.transpose(c).map(|y| drop(black_box(y)))
        }),
        ("rt.gather_all_us.p4", &a, &v, 50, 1e6, |c, a, _| {
            a.gather_all(c).map(|y| drop(black_box(y)))
        }),
    ];
    for (name, lhs, rhs, reps, scale, op) in ops {
        let t = spmd_probe(4, workers, slice, move |comm| {
            let lhs = DistMatrix::from_replicated(comm, lhs);
            let rhs = DistMatrix::from_replicated(comm, rhs);
            comm.barrier()?;
            let t = Instant::now();
            for _ in 0..reps {
                op(comm, &lhs, &rhs)?;
            }
            comm.barrier()?;
            Ok(t.elapsed().as_secs_f64() / reps as f64)
        })?;
        m.put(name, t * scale);
    }
    Ok(())
}

fn spmd_options(workers: usize) -> SpmdOptions {
    SpmdOptions {
        workers: Some(workers),
        ..SpmdOptions::default()
    }
}

/// Median over repeated SPMD launches of the slowest rank's return
/// value (a stream of collectives ends when its last rank is done).
fn spmd_probe(
    ranks: usize,
    workers: usize,
    slice: Duration,
    body: impl Fn(&mut Comm) -> Result<f64, CommError> + Sync,
) -> Result<f64, String> {
    let mut values = Vec::new();
    let mut failure = None;
    sample(slice, 3, || {
        match run_spmd_with(&meiko_cs2(), ranks, spmd_options(workers), &body) {
            Ok(results) => values.push(results.iter().map(|r| r.value).fold(0.0, f64::max)),
            Err(f) => failure = Some(f.report.to_string()),
        }
    });
    match failure {
        Some(f) => Err(f),
        None => Ok(median(&values)),
    }
}

/// The substrate's real α/β, rank spawn, and collectives at p=4.
fn mpi_layer(workers: usize, slice: Duration, m: &mut Metrics) -> Result<(), String> {
    let launch = |ranks: usize| -> Result<f64, String> {
        let mut failed = None;
        let t = median(&sample(slice, 5, || {
            if let Err(f) = run_spmd_with(&meiko_cs2(), ranks, spmd_options(workers), |_| Ok(())) {
                failed = Some(f.report.to_string());
            }
        }));
        failed.map_or(Ok(t), Err)
    };
    m.put(
        "mpi.spawn_us_per_rank",
        (launch(64)? - launch(4)?) / 60.0 * 1e6,
    );

    let pingpong = |words: usize, trips: usize| {
        spmd_probe(2, workers, slice, move |comm| {
            let data = vec![1.0; words];
            comm.barrier()?;
            let t = Instant::now();
            for _ in 0..trips {
                if comm.rank() == 0 {
                    comm.send(1, &data)?;
                    black_box(comm.recv(1)?);
                } else {
                    let got = comm.recv(0)?;
                    comm.send(0, &got)?;
                }
            }
            Ok(t.elapsed().as_secs_f64() / (2 * trips) as f64)
        })
    };
    m.put("mpi.pingpong_us", pingpong(1, 1000)? * 1e6);
    let mib = 1 << 20;
    m.put(
        "mpi.bandwidth_gbps",
        mib as f64 / pingpong(mib / 8, 40)? / 1e9,
    );

    type Collective = fn(&mut Comm) -> Result<(), CommError>;
    let collectives: [(&str, Collective); 3] = [
        ("mpi.allreduce_us.p4", |c| {
            c.allreduce(&[c.rank() as f64], ReduceOp::Sum).map(drop)
        }),
        ("mpi.bcast_us.p4", |c| c.broadcast(0, &[1.0]).map(drop)),
        ("mpi.barrier_us.p4", |c| c.barrier()),
    ];
    for (name, op) in collectives {
        let reps = 300;
        let t = spmd_probe(4, workers, slice, move |comm| {
            comm.barrier()?;
            let t = Instant::now();
            for _ in 0..reps {
                op(comm)?;
            }
            Ok(t.elapsed().as_secs_f64() / reps as f64)
        })?;
        m.put(name, t * 1e6);
    }
    Ok(())
}

/// Median wall of `run` of `src` at `ranks`, and the ops it executed.
fn run_wall(
    src: &str,
    opts: &EngineOptions,
    ranks: usize,
    workers: usize,
    slice: Duration,
    min: usize,
) -> Result<(f64, u64), String> {
    let artifact = compile(src, opts).map_err(|e| e.to_string())?;
    let request = run_request(ranks, workers);
    let mut ops = Err("never ran".to_string());
    let t = median(&sample(slice, min, || {
        ops = run(&artifact, &request)
            .map(|r| r.total_ops())
            .map_err(|e| e.to_string());
    }));
    Ok((t, ops?))
}

/// `otter-core` at fixed scripts: the per-run floor, per-instruction
/// dispatch, and per-element cost of an elementwise chain.
fn core_layer(workers: usize, slice: Duration, m: &mut Metrics) -> Result<(), String> {
    let opts = engine_options(workers);
    for (name, ranks) in [("core.run_floor_us.p1", 1), ("core.run_floor_us.p4", 4)] {
        let (t, _) = run_wall("x = 1;\n", &opts, ranks, workers, slice, 20)?;
        m.put(name, t * 1e6);
    }
    let trips = 200_000;
    let scalar_loop = format!("s = 0;\nfor i = 1:{trips}\n  s = s + i * 0.5;\nend\n");
    let (t, ops) = run_wall(&scalar_loop, &opts, 1, workers, slice, 3)?;
    m.put("core.dispatch_ns_per_op", t * 1e9 / ops as f64);

    let (n, trips) = (5000, 250);
    let chain = format!(
        "n = {n};\nx = (1:n)' / n;\ny = x;\nfor k = 1:{trips}\n  y = {EW_CHAIN};\nend\nchk = sum(y);\n"
    );
    let (t, _) = run_wall(&chain, &opts, 1, workers, slice, 3)?;
    m.put("core.ew_ns_per_elem", t * 1e9 / (n * trips * EW_OPS) as f64);
    Ok(())
}

/// ROADMAP 3's "cheap enough to leave on" as numbers: a dispatch-heavy
/// job (paper-scale nbody) with a retaining trace sink, and with
/// per-rank metric registries, against the same job with both off.
fn obs_layer(workers: usize, slice: Duration, m: &mut Metrics) -> Result<(), String> {
    let src = otter_apps::nbody::n_body(otter_apps::nbody::Params::paper()).script;
    let plain = compile(&src, &engine_options(workers)).map_err(|e| e.to_string())?;
    let metered = compile(
        &src,
        &EngineOptions::builder()
            .workers(workers)
            .metrics(true)
            .build(),
    )
    .map_err(|e| e.to_string())?;
    let request = run_request(1, workers);
    // Interleaved so drift hits all three variants alike.
    let (mut off, mut traced, mut metrics) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = false;
    sample(slice * 6, 5, || {
        let mut wall = |into: &mut Vec<f64>, f: &dyn Fn() -> bool| {
            let t = Instant::now();
            failed |= !f();
            into.push(t.elapsed().as_secs_f64());
        };
        wall(&mut off, &|| run(&plain, &request).is_ok());
        wall(&mut traced, &|| {
            let sink = Arc::new(MemorySink::new());
            run(&plain, &request.clone().with_trace(sink)).is_ok()
        });
        wall(&mut metrics, &|| run(&metered, &request).is_ok());
    });
    if failed {
        return Err("obs probe: a run failed".to_string());
    }
    let base = median(&off);
    m.put("obs.trace_overhead_share", (median(&traced) - base) / base);
    m.put(
        "obs.metrics_overhead_share",
        (median(&metrics) - base) / base,
    );
    Ok(())
}

/// `otter-serve` at a fixed-length mix: protocol floor, warm and cold
/// jobs, run time by rank count, and the cache's hit ratio and
/// evictions over exactly [`MINI_MIX_PER_CLIENT`] requests per client.
fn serve_layer(
    hot: &[Script],
    workers: usize,
    seed: u64,
    slice: Duration,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut serve = Serve::setup(hot, workers, seed, PROBE_RANKS)?;
    let mut failed = None;
    let ping = median(&sample(slice, 50, || {
        if let Err(e) = serve.clients[0].ping() {
            failed = Some(e);
        }
    }));
    if let Some(e) = failed {
        return Err(format!("ping: {e}"));
    }
    m.put("serve.ping_us_p50", ping * 1e6);

    let before = serve.clients[0].cache_stats()?;
    let (collected, serve) = serve.measure(
        Limit::Count(MINI_MIX_PER_CLIENT),
        Arc::new(Recorder::new(false)),
    );
    let mut serve = serve.ok_or("serve probe: a request hung")?;
    if let Some(o) = collected.outcomes.iter().find(|o| o.error.is_some()) {
        return Err(format!("serve probe: {}", o.error.as_deref().unwrap_or("")));
    }
    let after = serve.clients[0].cache_stats()?;
    serve.teardown()?;

    let facts: Vec<(f64, ServeFacts)> = collected
        .outcomes
        .iter()
        .filter_map(|o| Some((o.wall_ms, o.serve?)))
        .collect();
    let med_of = |pick: &dyn Fn(&(f64, ServeFacts)) -> Option<f64>| {
        median(&facts.iter().filter_map(pick).collect::<Vec<_>>())
    };
    m.put(
        "serve.warm_job_ms_p50",
        med_of(&|(wall, f)| (!f.cold).then_some(*wall)),
    );
    m.put(
        "serve.cold_job_ms_p50",
        med_of(&|(wall, f)| f.cold.then_some(*wall)),
    );
    m.put(
        "serve.overhead_us_p50",
        med_of(&|(wall, f)| (!f.cold).then_some(wall * 1e3 - (f.compile_s + f.run_s) * 1e6)),
    );
    for (name, ranks) in [
        ("serve.run_ms_p50.r1", 1),
        ("serve.run_ms_p50.r2", 2),
        ("serve.run_ms_p50.r4", 4),
    ] {
        m.put(
            name,
            med_of(&|(_, f)| (!f.cold && f.ranks == ranks).then_some(f.run_s * 1e3)),
        );
    }
    m.put(
        "serve.job_ms_p99",
        percentile_or_clamped(&sorted(&collected.walls_ms()), 0.99, "serve.job_ms_p99"),
    );
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    m.put("serve.cache_hit_ratio", hits / (hits + misses));
    m.put("serve.evictions", after.2 - before.2);
    Ok(())
}

/// Every fixed-shape probe. `hot` is the serve hot set of this seed.
pub fn fixed(
    hot: &[Script],
    workers: usize,
    seed: u64,
    slice: Duration,
    m: &mut Metrics,
) -> Result<(), String> {
    core_layer(workers, slice, m)?;
    rt_rest(workers, slice, m)?;
    let ratio = m
        .get("core.ew_ns_per_elem")
        .zip(m.get("rt.ew_ns_per_elem.5k"));
    let (core_ew, rt_ew) = ratio.expect("both probes ran");
    m.put("core.ew_overhead_ratio", core_ew / rt_ew);
    mpi_layer(workers, slice, m)?;
    obs_layer(workers, slice, m)?;
    serve_layer(hot, workers, seed, slice, m)
}
