//! `otterc` — the Otter compiler as a command-line tool, mirroring how
//! the paper's users would have driven it:
//!
//! ```text
//! otterc script.m                      # emit SPMD C to script.c
//! otterc script.m -o out.c            # choose the output path
//! otterc script.m --emit ir           # print the SPMD IR instead
//! otterc script.m --emit ast          # print the resolved/SSA'd AST
//!                                      # (to the `-o` path, if given)
//! otterc script.m --run               # compile AND execute (1 CPU)
//! otterc script.m --run -p 16 --machine meiko
//! otterc script.m --run -p 4096 --workers 8
//!                                      # thousands of virtual ranks on a
//!                                      # fixed worker pool
//! otterc script.m --run --trace       # per-rank timeline + critical path
//! otterc script.m --no-peephole ...   # disable pass 6
//! otterc script.m --no-fusion ...     # disable the loop-fusion pass
//! otterc script.m --timing            # per-pass wall time + sizes
//! otterc script.m --dump-after=rewrite  # print the IR after pass 4
//! otterc script.m --lint              # print SPMD lint warnings
//! otterc script.m --lint=deny         # ...and fail the build on any
//! otterc script.m --analyze           # static comm-volume oracle table
//! otterc script.m --analyze -p 8      # ...evaluated at 8 ranks
//! ```
//!
//! M-file functions are resolved from the script's directory, like the
//! MATLAB path; `load` reads sample data files from the same place.

use otter_core::engines::EngineOptionsBuilder;
use otter_core::{
    compile_with, run, DumpRequest, EngineOptions, EngineReport, PassStats, RunRequest,
};
use otter_frontend::DirProvider;
use otter_ir::IrProgram;
use otter_lint::oracle::Execs;
use otter_machine::{enterprise_smp, meiko_cs2, sparc20_cluster, workstation, Machine};
use otter_trace::MemorySink;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;

struct Args {
    input: PathBuf,
    output: Option<PathBuf>,
    emit: Emit,
    run: bool,
    p: usize,
    workers: Option<usize>,
    machine: Machine,
    timing: bool,
    dump_after: Option<String>,
    lint: bool,
    analyze: bool,
    /// What the flags ask of the compiler (`main` adds the data dir).
    opts: EngineOptionsBuilder,
}

#[derive(PartialEq)]
enum Emit {
    C,
    Ir,
    Ast,
}

fn usage() -> ! {
    eprintln!(
        "usage: otterc <script.m> [-o out] [--emit c|ir|ast] [--run] \
         [-p N] [--workers W] [--machine meiko|cluster|smp|workstation] \
         [--no-peephole] [--no-fusion] [--timing] [--trace] [--dump-after=<pass>|all] \
         [--lint[=deny]] [--analyze]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut input = None;
    let mut output = None;
    let mut emit = Emit::C;
    let mut run = false;
    let mut p = 1usize;
    let mut workers = None;
    let mut machine = meiko_cs2();
    let mut timing = false;
    let mut dump_after = None;
    let mut lint = false;
    let mut analyze = false;
    let mut opts = EngineOptions::builder();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" => output = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--emit" => {
                emit = match it.next().as_deref() {
                    Some("c") => Emit::C,
                    Some("ir") => Emit::Ir,
                    Some("ast") => Emit::Ast,
                    _ => usage(),
                }
            }
            "--run" => run = true,
            "-p" => {
                p = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--workers" => {
                workers = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--machine" => {
                machine = match it.next().as_deref() {
                    Some("meiko") => meiko_cs2(),
                    Some("cluster") => sparc20_cluster(),
                    Some("smp") => enterprise_smp(),
                    Some("workstation") => workstation(),
                    _ => usage(),
                }
            }
            "--no-peephole" => opts = opts.disable_pass("peephole"),
            "--no-fusion" => opts = opts.disable_pass("fusion"),
            "--timing" => timing = true,
            "--trace" => opts = opts.trace(Arc::new(MemorySink::new())),
            "--lint" => lint = true,
            "--analyze" => analyze = true,
            "--lint=deny" => {
                lint = true;
                opts = opts.deny_lints();
            }
            "--dump-after" => dump_after = Some(it.next().unwrap_or_else(|| usage())),
            other if other.starts_with("--dump-after=") => {
                dump_after = Some(other["--dump-after=".len()..].to_string());
            }
            "-h" | "--help" => usage(),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(PathBuf::from(other));
            }
            _ => usage(),
        }
    }
    Args {
        input: input.unwrap_or_else(|| usage()),
        output,
        emit,
        run,
        p,
        workers,
        machine,
        timing,
        dump_after,
        lint,
        analyze,
        opts,
    }
}

/// Per-rank timeline + critical-path summary behind `--trace`.
fn print_trace_summary(r: &EngineReport) {
    eprintln!(
        "{:>4} {:>12} {:>12} {:>12} {:>12}",
        "rank", "compute (s)", "comm (s)", "idle (s)", "clock (s)"
    );
    for c in &r.per_rank {
        eprintln!(
            "{:>4} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            c.rank, c.compute_seconds, c.comm_seconds, c.idle_seconds, c.clock
        );
    }
    if let Some(cp) = &r.critical_path {
        eprintln!(
            "critical path: {:.6} s ({:.6} s compute + {:.6} s comm, \
             {} cross-rank hops, {:.1}% comm)",
            cp.total,
            cp.compute,
            cp.comm,
            cp.hops,
            cp.comm_share() * 100.0,
        );
    }
}

fn print_timing(passes: &[PassStats]) {
    eprintln!(
        "{:<10} {:>12} {:>8} {:>8} {:>9} {:>9} {:>7} {:>7}",
        "pass", "wall (µs)", "stmts", "Δstmts", "IR", "ΔIR", "rtcall", "Δrt"
    );
    for s in passes {
        eprintln!(
            "{:<10} {:>12.1} {:>8} {:>+8} {:>9} {:>+9} {:>7} {:>+7}",
            s.name,
            s.wall.as_secs_f64() * 1e6,
            s.stmts_after,
            s.stmts_after as i64 - s.stmts_before as i64,
            s.ir_instrs_after,
            s.ir_instrs_after as i64 - s.ir_instrs_before as i64,
            s.runtime_calls_after,
            s.runtime_calls_after as i64 - s.runtime_calls_before as i64,
        );
    }
}

/// The `--analyze` report: one line per leaf site — static trip
/// count, symbolic messages/bytes formulas, and the model evaluated at
/// the requested rank count — then the in-place legality sets. The
/// oracle runs on a copy of the compiled IR; the artifact is untouched.
fn print_analysis(ir: &IrProgram, p: usize) {
    let mut ir = ir.clone();
    otter_lint::shape::annotate_in_place(&mut ir);
    let analysis = otter_lint::oracle::predict(&ir);
    eprintln!(
        "{:>4} {:<8} {:<15} {:>5} {:>6} {:>24} {:>10} {:>24} {:>12}",
        "site", "scope", "opcode", "depth", "execs", "messages(p)", "@p", "bytes(p)", "@p"
    );
    for pred in &analysis {
        let cost = pred.model.per_exec(p);
        let execs = match pred.execs {
            Execs::Static(n) => n.to_string(),
            Execs::Dynamic => "dyn".to_string(),
        };
        eprintln!(
            "{:>4} {:<8} {:<15} {:>5} {:>6} {:>24} {:>10} {:>24} {:>12}",
            pred.site,
            pred.func.as_deref().unwrap_or("main"),
            pred.opcode,
            pred.loop_depth,
            execs,
            pred.model.messages_formula(),
            cost.map_or("?".to_string(), |c| c.messages.to_string()),
            pred.model.bytes_formula(),
            cost.map_or("?".to_string(), |c| c.bytes.to_string()),
        );
    }
    let free = analysis.iter().filter(|s| s.model.is_free()).count();
    eprintln!(
        "otterc: analyze: {} site(s), {} communication-free, evaluated at p={p}",
        analysis.len(),
        free,
    );
    for f in ir.frames() {
        let vars = f.vars.by_name();
        let in_place: Vec<&str> = vars
            .iter()
            .filter(|(_, v)| v.in_place)
            .map(|(_, v)| v.name.as_str())
            .collect();
        if !in_place.is_empty() {
            eprintln!(
                "otterc: analyze: in-place updatable ({}): {}",
                f.func().unwrap_or("main"),
                in_place.join(", ")
            );
        }
    }
}

fn main() {
    let args = parse_args();
    let src = match std::fs::read_to_string(&args.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("otterc: cannot read {}: {e}", args.input.display());
            exit(1);
        }
    };
    let dir = args
        .input
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
        .to_path_buf();
    let provider = DirProvider::new(&dir);
    let opts = args.opts.data_dir(dir).build();
    let wanted = match &args.dump_after {
        None => DumpRequest::None,
        Some(name) => DumpRequest::parse(name).unwrap_or_else(|e| {
            eprintln!("otterc: {e}");
            exit(2);
        }),
    };
    // `--emit ast` prints the program after resolution + SSA: the
    // `ssa-infer` dump.
    let dump = if args.emit == Emit::Ast {
        DumpRequest::All
    } else {
        wanted
    };
    let (artifact, dumps) = match compile_with(&src, &provider, &opts, dump) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("otterc: {}: {e}", args.input.display());
            exit(1);
        }
    };
    if args.timing {
        print_timing(artifact.pass_stats());
    }
    for dump in dumps.iter().filter(|d| wanted.wants(d.pass)) {
        println!("=== after pass `{}` ===", dump.pass);
        print!("{}", dump.text);
        if !dump.text.ends_with('\n') {
            println!();
        }
    }
    let compiled = artifact.compiled();
    if args.lint {
        for w in &compiled.lint.warnings {
            eprintln!("{}", w.clone().in_file(args.input.display().to_string()));
        }
        eprintln!(
            "otterc: lint: {} warning(s), {} collective site(s), {} point-to-point site(s){}",
            compiled.lint.warnings.len(),
            compiled.lint.collective_sites,
            compiled.lint.p2p_sites,
            if compiled.lint.divergence_free {
                ", divergence-free"
            } else {
                ""
            },
        );
    }

    if args.analyze {
        print_analysis(&compiled.ir, args.p);
    }

    // C goes to a file, next to the script unless `-o` says where; the
    // IR and the AST go to stdout unless `-o` says where.
    let (text, out_path) = match args.emit {
        Emit::C => (
            compiled.c_source.clone(),
            Some(
                args.output
                    .clone()
                    .unwrap_or_else(|| args.input.with_extension("c")),
            ),
        ),
        Emit::Ir => (compiled.ir_text(), args.output.clone()),
        Emit::Ast => {
            let ast = dumps.iter().find(|d| d.pass == "ssa-infer");
            (
                ast.map_or_else(String::new, |d| d.text.clone()),
                args.output.clone(),
            )
        }
    };
    match out_path {
        None => print!("{text}"),
        Some(out_path) => {
            if let Err(e) = std::fs::write(&out_path, text) {
                eprintln!("otterc: cannot write {}: {e}", out_path.display());
                exit(1);
            }
            if args.emit == Emit::C {
                eprintln!(
                    "otterc: wrote {} ({} IR instructions, peephole {:?})",
                    out_path.display(),
                    compiled.ir.instr_count(),
                    compiled.peephole_stats
                );
            }
        }
    }

    if args.run {
        let mut req = RunRequest::on(args.machine.clone(), args.p);
        if let Some(w) = args.workers {
            req = req.with_workers(w);
        }
        match run(&artifact, &req) {
            Ok(r) => {
                print!("{}", r.output);
                eprintln!(
                    "otterc: ran on {} x{}: modeled {:.6} s, {} messages, {} bytes, \
                     {} ops, peak {} B/rank",
                    args.machine.name,
                    args.p,
                    r.modeled_seconds,
                    r.messages,
                    r.bytes,
                    r.total_ops(),
                    r.peak_temp_bytes,
                );
                if opts.trace.is_some() {
                    print_trace_summary(&r);
                }
            }
            Err(e) => {
                eprintln!("otterc: execution failed: {e}");
                exit(1);
            }
        }
    }
}
