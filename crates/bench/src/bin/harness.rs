//! The experiment harness: regenerates every table and figure of the
//! paper, and fronts the `otterd` load generator.
//!
//! ```text
//! harness table1                 # Table 1 (survey)
//! harness fig2   [--paper]      # single-CPU relative performance
//! harness fig3   [--paper]      # CG speedup on 3 machines
//! harness fig4   [--paper]      # ocean engineering
//! harness fig5   [--paper]      # n-body
//! harness fig6   [--paper]      # transitive closure
//! harness excerpts              # the §3 generated-C excerpts
//! harness ablation               # peephole + typing + grain studies
//! harness memory [--paper]      # §7's larger-problems memory claim
//! harness trace <app> [--ranks N] [--machine M] [--chrome out.json]
//!                                # per-rank timeline + critical path
//! harness lint <app|all> [--deny]
//!                                # SPMD lint report (deny: exit 1 on warnings)
//! harness faults [--scenario crash|drop|delay|seeded|none] [--seed S]
//!                [--ranks N] [--app A] [--postmortem-dir D]
//!                                # fault-injection smoke: run one app under a
//!                                # deterministic fault plan, print the typed
//!                                # per-rank failure report (key=value lines)
//!                                # plus the postmortem bundle path,
//!                                # exit 1 when the job failed
//! harness postmortem <bundle.json>
//!                                # pretty-print an otter-postmortem/v1 bundle
//!                                # and re-run the deadlock-cycle diagnosis
//!                                # offline, from the bundle alone
//! harness bench <app|all> [--ranks N[,N...]] [--workers W]
//!               [--scale test|large|paper] [--json out.json]
//!               [--check baseline.json] [--tolerance PCT]
//!                                # modeled outputs, one run per combination,
//!                                # + regression gate; ranks may go far past
//!                                # the paper's 16 CPUs on a fixed pool
//! harness load   [--clients N] [--scripts M] [--requests R] [--ranks P]
//!                [--workers W] [--machine M] [--socket PATH]
//!                [--json out.json]
//!                                # serve-mode traffic generator: completed
//!                                # jobs, cache hits and misses, job ids
//! harness all    [--paper]      # every table and figure above
//! ```
//!
//! `--paper` runs paper-scale problems (n = 2048 CG, 5 000-particle
//! n-body, 512² transitive closure) — use a release build. The default
//! test scale finishes in seconds. `--csv` prints figures as CSV for
//! external plotting.
//!
//! Every subcommand shares one option parser: `--ranks`/`-p` and
//! `--workers` are accepted (and validated) identically everywhere,
//! and an unrecognized flag is a typed [`ArgError`] with exit code 2 —
//! never silently ignored.

use otter_bench::figures::{all_speedup_figures, fig2, Scale};
use otter_bench::render::*;
use otter_bench::{
    collectives_ablation, grain_sweep, peephole_ablation, typeinfer_ablation, TABLE1,
};
use otter_machine::{enterprise_smp, meiko_cs2, sparc20_cluster};

/// What a subcommand accepts beyond the shared flags.
struct ArgSpec {
    /// The subcommand name (for error prefixes).
    cmd: &'static str,
    /// Usage line printed with every argument error.
    usage: &'static str,
    /// Extra flags taking a value.
    value_flags: &'static [&'static str],
    /// Extra boolean switches.
    switches: &'static [&'static str],
    /// Maximum positional arguments (the `<app>` slot).
    positionals: usize,
}

/// Flags every subcommand accepts: `--ranks N[,N...]` (alias `-p`) and
/// `--workers W`, plus the `--paper` / `--csv` switches.
const SHARED_VALUE_FLAGS: &[&str] = &["--ranks", "--workers"];
const SHARED_SWITCHES: &[&str] = &["--paper", "--csv"];

/// A typed argument error — what the shared parser rejects with.
#[derive(Debug, Clone, PartialEq)]
enum ArgError {
    UnknownFlag(String),
    MissingValue(String),
    BadValue {
        flag: String,
        value: String,
        expected: &'static str,
    },
    ExtraPositional(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ArgError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "bad value `{value}` for `{flag}` (expected {expected})"),
            ArgError::ExtraPositional(arg) => write!(f, "unexpected argument `{arg}`"),
        }
    }
}

/// The parsed command line of one subcommand.
struct ParsedArgs {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

/// Parse `args` against `spec` plus the shared flags. `-p` is
/// normalized to `--ranks` so every consumer sees one spelling.
fn parse_args(args: &[String], spec: &ArgSpec) -> Result<ParsedArgs, ArgError> {
    let mut out = ParsedArgs {
        values: Vec::new(),
        switches: Vec::new(),
        positionals: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = if arg == "-p" { "--ranks" } else { arg.as_str() };
        if SHARED_VALUE_FLAGS.contains(&name) || spec.value_flags.contains(&name) {
            let value = it
                .next()
                .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
            out.values.push((name.to_string(), value.clone()));
        } else if SHARED_SWITCHES.contains(&name) || spec.switches.contains(&name) {
            out.switches.push(name.to_string());
        } else if name.starts_with('-') {
            return Err(ArgError::UnknownFlag(name.to_string()));
        } else if out.positionals.len() < spec.positionals {
            out.positionals.push(arg.clone());
        } else {
            return Err(ArgError::ExtraPositional(arg.clone()));
        }
    }
    Ok(out)
}

impl ParsedArgs {
    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn positional(&self) -> Option<&str> {
        self.positionals.first().map(String::as_str)
    }

    /// A positive integer flag.
    fn count(&self, flag: &str) -> Result<Option<usize>, ArgError> {
        self.parse_with(flag, "a positive integer", |v| {
            v.parse::<usize>().ok().filter(|&n| n >= 1)
        })
    }

    /// A positive u64 flag (seeds).
    fn seed(&self, flag: &str) -> Result<Option<u64>, ArgError> {
        self.parse_with(flag, "an unsigned integer", |v| v.parse::<u64>().ok())
    }

    /// A positive float flag (tolerances).
    fn rate(&self, flag: &str) -> Result<Option<f64>, ArgError> {
        self.parse_with(flag, "a positive number", |v| {
            v.parse::<f64>().ok().filter(|&x| x > 0.0)
        })
    }

    /// The shared `--ranks` list: `4` or `64,256,1024`.
    fn ranks_list(&self) -> Result<Option<Vec<usize>>, ArgError> {
        self.parse_with(
            "--ranks",
            "a comma-separated list of positive integers",
            |v| {
                let ranks: Vec<usize> = v
                    .split(',')
                    .map(|part| part.trim().parse::<usize>().ok().filter(|&p| p >= 1))
                    .collect::<Option<_>>()?;
                (!ranks.is_empty()).then_some(ranks)
            },
        )
    }

    /// The shared `--ranks` flag as a single count.
    fn ranks_single(&self, default: usize) -> Result<usize, ArgError> {
        Ok(self.count("--ranks")?.unwrap_or(default))
    }

    /// The shared `--workers` flag.
    fn workers(&self) -> Result<Option<usize>, ArgError> {
        self.count("--workers")
    }

    fn parse_with<T>(
        &self,
        flag: &str,
        expected: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, ArgError> {
        match self.get(flag) {
            None => Ok(None),
            Some(v) => parse(v).map(Some).ok_or_else(|| ArgError::BadValue {
                flag: flag.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }
}

/// Parse or die: argument errors print the typed message plus the
/// subcommand usage and exit 2.
fn parse_or_exit(args: &[String], spec: &ArgSpec) -> ParsedArgs {
    match parse_args(args, spec) {
        Ok(pa) => pa,
        Err(e) => {
            eprintln!("harness {}: {e}", spec.cmd);
            eprintln!("usage: {}", spec.usage);
            std::process::exit(2);
        }
    }
}

/// Resolve a value-level error (bad flag value) the same way.
fn flag_or_exit<T>(result: Result<T, ArgError>, spec: &ArgSpec) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("harness {}: {e}", spec.cmd);
            eprintln!("usage: {}", spec.usage);
            std::process::exit(2);
        }
    }
}

/// The spec for subcommands with no extra options (figures, tables,
/// ablations).
const fn plain_spec(cmd: &'static str, usage: &'static str) -> ArgSpec {
    ArgSpec {
        cmd,
        usage,
        value_flags: &[],
        switches: &[],
        positionals: 0,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let rest = if args.is_empty() {
        &args[..]
    } else {
        &args[1..]
    };

    match cmd {
        "table1" => {
            parse_or_exit(rest, &plain_spec("table1", "harness table1"));
            print!("{}", render_table1(TABLE1));
        }
        "fig2" => {
            let spec = plain_spec("fig2", "harness fig2 [--paper] [--csv]");
            let pa = parse_or_exit(rest, &spec);
            let scale = scale_of(&pa);
            eprintln!("[fig2: {}]", scale_note(scale));
            let rows = fig2(scale);
            if pa.has("--csv") {
                print!("{}", render_fig2_csv(&rows));
            } else {
                print!("{}", render_fig2(&rows));
            }
        }
        "fig3" | "fig4" | "fig5" | "fig6" => {
            let spec = plain_spec("fig", "harness fig3|fig4|fig5|fig6 [--paper] [--csv]");
            let pa = parse_or_exit(rest, &spec);
            let scale = scale_of(&pa);
            eprintln!("[{cmd}: {}]", scale_note(scale));
            let idx = cmd[3..].parse::<usize>().unwrap() - 3;
            let figs = all_speedup_figures(scale);
            if pa.has("--csv") {
                print!("{}", render_figure_csv(&figs[idx]));
            } else {
                print!("{}", render_figure(&figs[idx]));
            }
        }
        "excerpts" => {
            parse_or_exit(rest, &plain_spec("excerpts", "harness excerpts"));
            print_excerpts();
        }
        "trace" => run_trace(rest),
        "lint" => run_lint(rest),
        "faults" => run_faults(rest),
        "postmortem" => run_postmortem(rest),
        "bench" => run_bench_cmd(rest),
        "load" => run_load_cmd(rest),
        "ablation" => {
            let pa = parse_or_exit(rest, &plain_spec("ablation", "harness ablation [--paper]"));
            run_ablations(scale_of(&pa));
        }
        "memory" => {
            let pa = parse_or_exit(rest, &plain_spec("memory", "harness memory [--paper]"));
            run_memory(scale_of(&pa));
        }
        "all" => {
            let pa = parse_or_exit(rest, &plain_spec("all", "harness all [--paper]"));
            let scale = scale_of(&pa);
            print!("{}", render_table1(TABLE1));
            println!();
            eprintln!("[fig2: {}]", scale_note(scale));
            print!("{}", render_fig2(&fig2(scale)));
            println!();
            for fig in all_speedup_figures(scale) {
                print!("{}", render_figure(&fig));
                println!();
            }
            print_excerpts();
            println!();
            run_ablations(scale);
            println!();
            run_memory(scale);
        }
        other => {
            eprintln!(
                "unknown command `{other}`; expected table1|fig2|fig3|fig4|fig5|fig6|excerpts|trace|lint|faults|postmortem|bench|load|ablation|memory|all"
            );
            std::process::exit(2);
        }
    }
}

fn scale_of(pa: &ParsedArgs) -> Scale {
    if pa.has("--paper") {
        Scale::Paper
    } else {
        Scale::Test
    }
}

fn scale_note(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper-scale problems",
        Scale::Test => "test-scale problems (pass --paper for full size)",
        Scale::Large => "large-scale problems (kernel-bound)",
    }
}

fn find_app(scale: Scale, app_id: &str) -> otter_apps::App {
    scale
        .apps()
        .into_iter()
        .find(|a| a.id == app_id)
        .unwrap_or_else(|| {
            eprintln!("unknown app `{app_id}`; expected cg|ocean|nbody|tc");
            std::process::exit(2);
        })
}

/// `harness trace <app> [--ranks N] [--machine M] [--chrome out.json]`:
/// run one benchmark app with a retaining trace sink and report the
/// per-rank timeline plus the critical path; optionally dump the raw
/// events as Chrome `trace_event` JSON for chrome://tracing / Perfetto.
fn run_trace(args: &[String]) {
    use otter_core::{run_engine, Engine, EngineOptions};
    use otter_trace::{chrome_trace, MemorySink, TraceSink};
    use std::sync::Arc;

    let spec = ArgSpec {
        cmd: "trace",
        usage: "harness trace <cg|ocean|nbody|tc> [--ranks N] [--workers W] \
                [--machine meiko|cluster|smp] [--chrome out.json] [--paper]",
        value_flags: &["--machine", "--chrome"],
        switches: &[],
        positionals: 1,
    };
    let pa = parse_or_exit(args, &spec);
    let scale = scale_of(&pa);
    let ranks = flag_or_exit(pa.ranks_single(4), &spec);
    let workers = flag_or_exit(pa.workers(), &spec);
    let machine = flag_or_exit(
        pa.parse_with("--machine", "meiko|cluster|smp", |v| match v {
            "meiko" => Some(meiko_cs2()),
            "cluster" => Some(sparc20_cluster()),
            "smp" => Some(enterprise_smp()),
            _ => None,
        }),
        &spec,
    )
    .unwrap_or_else(meiko_cs2);
    let chrome = pa.get("--chrome").map(str::to_string);
    let Some(app_id) = pa.positional() else {
        eprintln!("harness trace: missing <app>");
        eprintln!("usage: {}", spec.usage);
        std::process::exit(2);
    };
    let app = find_app(scale, app_id);

    let sink = Arc::new(MemorySink::new());
    let mut opts = EngineOptions::builder().trace(Arc::clone(&sink)).build();
    opts.workers = workers;
    let report =
        run_engine(Engine::Otter, &app.script, &opts, &machine, ranks).unwrap_or_else(|e| {
            eprintln!("trace run failed: {e}");
            std::process::exit(1);
        });

    println!(
        "{} on {} x{}: modeled {:.6} s, {} messages, {} bytes",
        app.name, machine.name, ranks, report.modeled_seconds, report.messages, report.bytes
    );
    println!();
    println!(
        "{:>4} {:>14} {:>14} {:>14} {:>14}",
        "rank", "compute (s)", "comm (s)", "idle (s)", "clock (s)"
    );
    for c in &report.per_rank {
        println!(
            "{:>4} {:>14.6} {:>14.6} {:>14.6} {:>14.6}",
            c.rank, c.compute_seconds, c.comm_seconds, c.idle_seconds, c.clock
        );
    }
    if let Some(cp) = &report.critical_path {
        println!();
        println!(
            "critical path: {:.6} s = {:.6} s compute + {:.6} s comm \
             ({} cross-rank hops, {:.1}% comm)",
            cp.total,
            cp.compute,
            cp.comm,
            cp.hops,
            cp.comm_share() * 100.0,
        );
    }
    if let Some(path) = chrome {
        let events = sink.snapshot().unwrap_or_default();
        let json = chrome_trace(&events);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!();
        println!(
            "wrote {} trace events to {path} (load in chrome://tracing or Perfetto)",
            events.len()
        );
    }
}

/// `harness lint <app|all> [--deny]`: compile one (or every)
/// benchmark app and print the SPMD lint report — warnings, the
/// communication-site census, and the divergence verdict. With
/// `--deny` any warning exits non-zero, which is the CI smoke mode.
fn run_lint(args: &[String]) {
    use otter_core::compile_str;

    let spec = ArgSpec {
        cmd: "lint",
        usage: "harness lint <cg|ocean|nbody|tc|all> [--deny] [--paper]",
        value_flags: &[],
        switches: &["--deny"],
        positionals: 1,
    };
    let pa = parse_or_exit(args, &spec);
    let scale = scale_of(&pa);
    let deny = pa.has("--deny");
    let app_id = pa.positional().unwrap_or("all");
    let apps: Vec<_> = scale
        .apps()
        .into_iter()
        .filter(|a| app_id == "all" || a.id == app_id)
        .collect();
    if apps.is_empty() {
        eprintln!("unknown app `{app_id}`; expected cg|ocean|nbody|tc|all");
        std::process::exit(2);
    }

    let mut total_warnings = 0usize;
    for app in apps {
        let artifact = compile_str(&app.script).unwrap_or_else(|e| {
            eprintln!("{}: {e}", app.id);
            std::process::exit(1);
        });
        let r = &artifact.compiled().lint;
        println!(
            "{}: {} warning(s), {} collective site(s), {} point-to-point site(s), {}",
            app.id,
            r.warnings.len(),
            r.collective_sites,
            r.p2p_sites,
            if r.divergence_free && r.sendrecv_matched {
                "divergence-free, send/recv matched"
            } else {
                "NOT divergence-free"
            },
        );
        for w in &r.warnings {
            println!("  {w}");
        }
        total_warnings += r.warnings.len();
    }
    if deny && total_warnings > 0 {
        eprintln!("harness lint: {total_warnings} warning(s) with --deny");
        std::process::exit(1);
    }
}

/// `harness faults [--scenario crash|drop|delay|seeded|none] [--seed S]
/// [--ranks N] [--app A] [--postmortem-dir D]`: the fault-injection
/// smoke mode. Compile one benchmark app, run it under a deterministic
/// fault plan, and print the typed failure report as stable
/// `key=value` lines a CI step can parse. A failed job also writes its
/// `otter-postmortem/v1` bundle (default under the system temp dir)
/// and reports the path as `postmortem=...`. Exits 1 when the job
/// failed (the expected outcome for `crash`/`drop`), 0 when it
/// completed (`delay` perturbs timing but not delivery; `none` runs
/// the clean path).
fn run_faults(args: &[String]) {
    use otter_core::{
        build_postmortem, compile, try_run, write_postmortem, EngineOptions, RunRequest,
    };
    use otter_mpi::FaultPlan;

    let spec = ArgSpec {
        cmd: "faults",
        usage: "harness faults [--scenario crash|drop|delay|seeded|none] [--seed S] \
                [--ranks N] [--workers W] [--app cg|ocean|nbody|tc] \
                [--postmortem-dir D] [--paper]",
        value_flags: &["--scenario", "--seed", "--app", "--postmortem-dir"],
        switches: &[],
        positionals: 0,
    };
    let pa = parse_or_exit(args, &spec);
    let scale = scale_of(&pa);
    let scenario = pa.get("--scenario").unwrap_or("crash").to_string();
    let seed = flag_or_exit(pa.seed("--seed"), &spec).unwrap_or(1);
    let ranks = flag_or_exit(pa.ranks_single(8), &spec);
    let workers = flag_or_exit(pa.workers(), &spec);
    let app = find_app(scale, pa.get("--app").unwrap_or("cg"));
    let postmortem_dir = pa
        .get("--postmortem-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("otter-postmortem"));

    // Deterministic plans: the named scenarios pin the fault site so
    // the printed report is reproducible verbatim; `seeded` derives
    // the site from --seed exactly like a randomized CI run would.
    // `crash` picks its victim from the seed; `drop`/`delay` hit the
    // first message on the 1 → 0 edge, which every tree reduction
    // crosses (child to parent), so the fault always lands.
    let victim = (seed as usize) % ranks;
    let plan = match scenario.as_str() {
        "crash" => Some(FaultPlan::new().crash(victim, 1 + seed % 4)),
        "drop" => Some(FaultPlan::new().drop_message(1 % ranks, 0, 0)),
        "delay" => Some(FaultPlan::new().delay_message(1 % ranks, 0, 0, 0.5)),
        "seeded" => Some(FaultPlan::seeded(seed, ranks)),
        "none" => None,
        other => flag_or_exit(
            Err(ArgError::BadValue {
                flag: "--scenario".to_string(),
                value: other.to_string(),
                expected: "crash|drop|delay|seeded|none",
            }),
            &spec,
        ),
    };

    let mut opts = EngineOptions::builder().build();
    opts.faults = plan.clone();
    let artifact = compile(&app.script, &opts).unwrap_or_else(|e| {
        eprintln!("harness faults: {e}");
        std::process::exit(1);
    });
    let mut req = RunRequest::on(meiko_cs2(), ranks);
    if let Some(w) = workers {
        req = req.with_workers(w);
    }
    let outcome = match try_run(&artifact, &req) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("harness faults: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "fault-smoke app={} ranks={} scenario={} seed={} actions={}",
        app.id,
        ranks,
        scenario,
        seed,
        plan.as_ref().map_or(0, |pl| pl.actions.len()),
    );
    match outcome {
        Ok(report) => {
            println!(
                "result=ok modeled_seconds={:.6} messages={} bytes={}",
                report.modeled_seconds, report.messages, report.bytes
            );
        }
        Err(failure) => {
            // Persist the postmortem bundle first, so the key=value
            // report can point at it; a disk error degrades to a note
            // rather than masking the failure report.
            let bundle = build_postmortem(&artifact, &failure);
            let postmortem = match write_postmortem(&postmortem_dir, &bundle) {
                Ok(path) => path.display().to_string(),
                Err(e) => {
                    eprintln!("harness faults: cannot write postmortem bundle: {e}");
                    "-".to_string()
                }
            };
            let root = failure.report.root_cause();
            println!(
                "result=failed failed_ranks={} survivors={} root_cause_rank={} root_cause_code={} postmortem={}",
                failure.report.failures.len(),
                failure.survivors.len(),
                root.rank,
                root.error.code(),
                postmortem,
            );
            for f in &failure.report.failures {
                let blocked: Vec<String> = f.blocked_peers.iter().map(usize::to_string).collect();
                println!(
                    "failure rank={} code={} clock={:.6} blocked_peers={} error=\"{}\"",
                    f.rank,
                    f.error.code(),
                    f.clock,
                    if blocked.is_empty() {
                        "-".to_string()
                    } else {
                        blocked.join(",")
                    },
                    f.error,
                );
            }
            for s in &failure.survivors {
                println!(
                    "survivor rank={} clock={:.6} messages={} bytes={}",
                    s.rank, s.clock, s.messages, s.bytes
                );
            }
            std::process::exit(1);
        }
    }
}

/// `harness postmortem <bundle.json>`: decode an `otter-postmortem/v1`
/// bundle and reconstruct the failure story offline — the correlated
/// job id, the typed per-rank failure report, each involved rank's
/// final flight-recorder events, and the deadlock-cycle diagnosis
/// re-run from the serialized wait-for snapshot (independent of what
/// the live detector concluded). Everything comes from the bundle
/// alone: no source, no artifact, no daemon.
fn run_postmortem(args: &[String]) {
    use otter_core::parse_postmortem;

    let spec = ArgSpec {
        cmd: "postmortem",
        usage: "harness postmortem <bundle.json>",
        value_flags: &[],
        switches: &[],
        positionals: 1,
    };
    let pa = parse_or_exit(args, &spec);
    let Some(path) = pa.positional() else {
        eprintln!("harness postmortem: missing <bundle.json>");
        eprintln!("usage: {}", spec.usage);
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("harness postmortem: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let s = parse_postmortem(&text).unwrap_or_else(|e| {
        eprintln!("harness postmortem: {path}: {e}");
        std::process::exit(1);
    });

    let ranks = |list: &[usize]| {
        if list.is_empty() {
            "-".to_string()
        } else {
            list.iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",")
        }
    };
    println!(
        "postmortem job_id={} ranks={} source_hash={} options_fingerprint={}",
        s.job_id, s.size, s.source_hash, s.options_fingerprint
    );
    println!("summary: {}", s.summary);
    println!(
        "root_cause rank={} code={} error=\"{}\"",
        s.root_cause_rank, s.root_cause_code, s.root_cause_message
    );
    for (rank, code, message, blocked) in &s.failures {
        println!(
            "failure rank={rank} code={code} blocked_peers={} error=\"{message}\"",
            ranks(blocked),
        );
    }
    println!("survivors={}", ranks(&s.survivor_ranks));

    // The offline half of the deadlock diagnosis: re-derive the cycle
    // from the bundled wait-for edges.
    for e in &s.wait_for {
        println!("wait_for {e}");
    }
    match s.diagnose_cycle() {
        Some(cycle) => {
            let mut spine: Vec<String> = cycle.iter().map(|e| e.waiter.to_string()).collect();
            spine.push(cycle[0].waiter.to_string());
            println!("deadlock_cycle={}", spine.join("->"));
        }
        None => println!("deadlock_cycle=none"),
    }

    // Every involved rank's final flight-recorder events, oldest
    // first — what each rank saw in its last moments.
    for f in &s.flight {
        println!("flight rank={} events={}", f.rank, f.events.len());
        for ev in &f.events {
            println!(
                "  seq={} clock={:.6} level={} code={} a={} b={}",
                ev.seq,
                ev.clock,
                ev.level.as_str(),
                ev.code,
                ev.a,
                ev.b
            );
        }
    }
    println!(
        "metrics={}",
        if s.has_metrics { "bundled" } else { "absent" }
    );
}

/// `harness bench <app|all> [--ranks N] [--scale test|large|paper]
/// [--json out.json] [--check baseline.json] [--tolerance PCT]`:
/// run every engine once per app (the SPMD engine once per rank
/// count), print the modeled outputs, optionally export
/// `otter-bench/v2` JSON, and optionally gate against a baseline
/// report — exiting 1 on any regression. Wall time is measured by
/// `benchmark/`, not here.
fn run_bench_cmd(args: &[String]) {
    use otter_bench::bench::{check, run_bench, BenchReport, BenchSpec};
    use otter_metrics::Json;

    let argspec = ArgSpec {
        cmd: "bench",
        usage: "harness bench <cg|ocean|nbody|tc|all> [--ranks N[,N...]] [--workers W] \
                [--scale test|large|paper] [--json out.json] [--check baseline.json] \
                [--tolerance PCT] [--paper]",
        value_flags: &["--scale", "--json", "--check", "--tolerance"],
        switches: &[],
        positionals: 1,
    };
    let pa = parse_or_exit(args, &argspec);
    // `--scale` names the size directly; the shared `--paper` switch
    // stays as the back-compatible spelling of `--scale paper`.
    let scale = flag_or_exit(
        pa.parse_with("--scale", "test|large|paper", Scale::parse),
        &argspec,
    )
    .unwrap_or_else(|| scale_of(&pa));
    let mut spec = BenchSpec {
        scale,
        ..BenchSpec::default()
    };
    if let Some(ranks) = flag_or_exit(pa.ranks_list(), &argspec) {
        spec.ranks = ranks;
    }
    spec.workers = flag_or_exit(pa.workers(), &argspec);
    if let Some(id) = pa.positional() {
        spec.app_id = id.to_string();
    }
    let json_path = pa.get("--json").map(str::to_string);
    let check_path = pa.get("--check").map(str::to_string);
    let tolerance = flag_or_exit(pa.rate("--tolerance"), &argspec).unwrap_or(10.0);

    let report = run_bench(&spec).unwrap_or_else(|e| {
        eprintln!("harness bench: {e}");
        std::process::exit(1);
    });
    print!("{}", report.render());

    if let Some(path) = &json_path {
        let mut text = report.to_json().to_string();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!();
        println!(
            "wrote bench report ({}) to {path}",
            otter_bench::BENCH_SCHEMA
        );
    }

    if let Some(path) = &check_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        let baseline = Json::parse(&text)
            .and_then(|j| BenchReport::from_json(&j))
            .unwrap_or_else(|e| {
                eprintln!("cannot parse baseline {path}: {e}");
                std::process::exit(1);
            });
        if baseline.scale != report.scale {
            eprintln!(
                "harness bench: baseline is {} scale but this run is {} scale",
                baseline.scale, report.scale
            );
            std::process::exit(1);
        }
        let regressions = check(&baseline, &report, tolerance);
        println!();
        if regressions.is_empty() {
            println!(
                "regression check against {path}: OK ({} combination(s), tolerance {tolerance}%)",
                baseline.results.len()
            );
        } else {
            eprintln!("regression check against {path} FAILED (tolerance {tolerance}%):");
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}

/// `harness load [--clients N] [--scripts M] [--requests R] [--ranks P]
/// [--workers W] [--machine M] [--socket PATH] [--json out.json]`: the
/// serve-mode traffic generator. Spins up an in-process daemon (or
/// targets `--socket`), drives concurrent clients through distinct
/// scripts, and reports completed jobs, cache hits and misses, and the
/// served job ids.
fn run_load_cmd(args: &[String]) {
    use otter_bench::load::{run_load, LoadSpec, LOAD_SCHEMA};

    let argspec = ArgSpec {
        cmd: "load",
        usage: "harness load [--clients N] [--scripts M] [--requests R] [--ranks P] \
                [--workers W] [--machine meiko|cluster|smp|workstation] [--socket PATH] \
                [--json out.json] [--paper]",
        value_flags: &[
            "--clients",
            "--scripts",
            "--requests",
            "--machine",
            "--socket",
            "--json",
        ],
        switches: &[],
        positionals: 0,
    };
    let pa = parse_or_exit(args, &argspec);
    let mut spec = LoadSpec {
        scale: scale_of(&pa),
        ..LoadSpec::default()
    };
    if let Some(n) = flag_or_exit(pa.count("--clients"), &argspec) {
        spec.clients = n;
    }
    if let Some(m) = flag_or_exit(pa.count("--scripts"), &argspec) {
        spec.scripts = m;
    }
    if let Some(r) = flag_or_exit(pa.count("--requests"), &argspec) {
        spec.requests = r;
    }
    spec.ranks = flag_or_exit(pa.ranks_single(spec.ranks), &argspec);
    spec.workers = flag_or_exit(pa.workers(), &argspec);
    if let Some(m) = pa.get("--machine") {
        spec.machine = m.to_string();
    }
    if let Some(path) = pa.get("--socket") {
        spec.socket = Some(path.into());
    }
    let json_path = pa.get("--json").map(str::to_string);

    let report = run_load(&spec).unwrap_or_else(|e| {
        eprintln!("harness load: {e}");
        std::process::exit(1);
    });
    print!("{}", report.render());

    if let Some(path) = &json_path {
        let mut text = report.to_json().to_string();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!();
        println!("wrote load report ({LOAD_SCHEMA}) to {path}");
    }
}

/// Compile the paper's two §3 example statements and show the C.
fn print_excerpts() {
    println!("Paper §3 code excerpts, regenerated:");
    println!();
    let src1 = "n = 8;\nb = ones(n, n);\nc = ones(n, n);\nd = eye(n);\ni = 2;\nj = 3;\na = b * c + d(i, j);";
    let compiled = otter_core::compile_str(src1).expect("excerpt 1 compiles");
    println!("--- a = b * c + d(i,j); ---");
    for line in compiled.compiled().c_source.lines() {
        let t = line.trim();
        if t.contains("ML_matrix_multiply")
            || t.contains("ML_broadcast")
            || t.contains("realbase")
            || t.contains("for (ML_tmp")
        {
            println!("{line}");
        }
    }
    println!();
    let src2 =
        "n = 8;\na = ones(n, n);\nb = ones(n, n);\ni = 2;\nj = 3;\na(i, j) = a(i, j) / b(j, i);";
    let compiled = otter_core::compile_str(src2).expect("excerpt 2 compiles");
    println!("--- a(i,j) = a(i,j) / b(j,i); ---");
    for line in compiled.compiled().c_source.lines() {
        let t = line.trim();
        if t.contains("ML_broadcast") || t.contains("ML_owner") || t.contains("ML_realaddr2") {
            println!("{line}");
        }
    }
}

/// Paper §7: "larger problems can be solved ... a parallel computer
/// may have far more primary memory than an individual workstation."
/// Show the per-CPU memory high-water mark of the conjugate-gradient
/// problem across machine sizes.
fn run_memory(scale: Scale) {
    use otter_core::{compile, run, run_engine, Engine, EngineOptions, RunRequest};
    use otter_machine::workstation;
    let n = match scale {
        Scale::Paper => 2048,
        Scale::Test => 256,
        Scale::Large => 512,
    };
    let app = otter_apps::cg::conjugate_gradient(otter_apps::cg::Params {
        n,
        iters: 2,
        tol: 0.0,
    });
    let opts = EngineOptions::default();
    let interp = run_engine(Engine::Interpreter, &app.script, &opts, &workstation(), 1).unwrap();
    let artifact = compile(&app.script, &opts).unwrap();
    println!("Paper §7 memory claim: per-CPU peak memory, conjugate gradient n = {n}.");
    println!("{:<34} {:>16}", "configuration", "peak MB per CPU");
    println!("{}", "-".repeat(52));
    println!(
        "{:<34} {:>16.2}",
        "MATLAB interpreter (1 CPU)",
        interp.peak_rank_bytes as f64 / 1e6
    );
    let m = meiko_cs2();
    let mut p = 1;
    while p <= m.max_cpus {
        let run_report = run(&artifact, &RunRequest::on(m.clone(), p)).unwrap();
        println!(
            "{:<34} {:>16.2}",
            format!("Otter on {} CPU(s)", p),
            run_report.peak_rank_bytes as f64 / 1e6
        );
        p *= 2;
    }
    println!();
    println!("(The interpreter row counts named workspace variables; the Otter");
    println!("rows also include live compiler temporaries, so they are the");
    println!("more conservative measure.)");
    println!();
    println!("Each CPU holds only its row blocks: the same script that needs");
    println!("the whole matrix on a workstation needs ~1/p of it per node —");
    println!("\"a parallel computer may have far more primary memory than an");
    println!("individual workstation\" (paper §7).");
}

fn run_ablations(scale: Scale) {
    let apps = scale.apps();
    let rows: Vec<_> = apps.iter().map(|a| peephole_ablation(a, 8)).collect();
    print!("{}", render_peephole(&rows));
    println!();
    let ti: Vec<_> = apps.iter().map(|a| typeinfer_ablation(a, 8)).collect();
    print!("{}", render_typeinfer(&ti));
    println!();
    let mut coll = Vec::new();
    for m in [meiko_cs2(), sparc20_cluster(), enterprise_smp()] {
        coll.extend(collectives_ablation(&m, &[2, 4, 8, 16]));
    }
    print!("{}", render_collectives(&coll));
    println!();
    let sizes: &[usize] = match scale {
        Scale::Paper => &[128, 256, 512, 1024, 2048],
        Scale::Test => &[32, 64, 128, 256],
        Scale::Large => &[64, 128, 256, 512],
    };
    let pts = grain_sweep(&meiko_cs2(), 8, sizes);
    print!("{}", render_grain("Meiko CS-2", 8, &pts));
}
