//! The three execution engines the paper's evaluation compares, as
//! one [`Engine`] enum and one function: [`run_engine`] runs a MATLAB
//! script on a modeled machine and returns an [`EngineReport`] — the
//! one schema every figure, ablation, and future backend reports
//! through.
//!
//! * [`Engine::Interpreter`] — the MathWorks-interpreter stand-in (the
//!   baseline of every figure).
//! * [`Engine::Matcom`] — MATCOM-style sequential compiled code: same
//!   evaluator, compiled-code cost coefficients.
//! * [`Engine::Otter`] — the real pipeline: compile to SPMD IR, execute
//!   on `p` ranks over the machine model; modeled time = slowest
//!   rank's virtual clock.

use crate::artifact::{run, Fingerprint, RunRequest};
use crate::compile::compile;
use crate::error::Result;
use otter_interp::{assemble_program, Interp, Value};
use otter_lint::LintMode;
use otter_log::{FlightEvent, JobId};
use otter_machine::{ExecutionStyle, Machine};
use otter_metrics::{MetricsRegistry, MetricsSnapshot};
use otter_mpi::observe::{OPS_TOTAL, RANK_CLOCK_SECONDS, WORKSPACE_PEAK_BYTES};
use otter_mpi::{CommStats, FailureReport, FaultAction, FaultPlan, SpmdOptions};
use otter_rt::Dense;
use otter_trace::{CriticalPath, TraceSink};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Uniform per-rank communication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankCounters {
    pub rank: usize,
    /// Messages this rank sent.
    pub messages: u64,
    /// Bytes this rank sent.
    pub bytes: u64,
    /// The rank's final virtual clock (seconds).
    pub clock: f64,
    /// High-water mark of the rank's live matrix bytes (allocator
    /// view, temporaries included).
    pub peak_bytes: usize,
    /// Seconds of the clock spent in modeled computation.
    pub compute_seconds: f64,
    /// Seconds spent driving sends (sender-side transfer charges).
    pub comm_seconds: f64,
    /// Seconds spent blocked in `recv` waiting on a message.
    pub idle_seconds: f64,
}

impl RankCounters {
    /// The counters of a rank that was observed at `clock` with
    /// `stats` (see [`otter_mpi::Observations`]).
    pub(crate) fn observed(rank: usize, clock: f64, stats: &CommStats, peak: usize) -> Self {
        RankCounters {
            rank,
            messages: stats.messages_sent,
            bytes: stats.bytes_sent,
            clock,
            peak_bytes: peak,
            compute_seconds: stats.compute_time,
            comm_seconds: stats.send_time,
            idle_seconds: stats.wait_time,
        }
    }
}

/// What every engine reports: results plus uniform counters, so
/// Figure 2–6 comparisons and future backends share one schema.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Which engine produced this (`interpreter`, `matcom`, `otter`).
    pub engine: &'static str,
    /// Correlation key of the run that produced this report.
    /// [`crate::try_run`] mints one when the [`RunRequest`] does not
    /// carry one; sequential engines report `JobId(0)` (uncorrelated).
    pub job_id: JobId,
    /// Final workspace (fully gathered — machine-independent).
    pub workspace: HashMap<String, Value>,
    /// Captured display output.
    pub output: String,
    /// Modeled execution time in seconds.
    pub modeled_seconds: f64,
    /// Executed-operation counts. The Otter engine counts per IR
    /// opcode; the sequential engines count per scalar op class plus
    /// `statement`/`matmul`/`matvec`. Keys are stable lowercase names.
    pub op_counts: BTreeMap<String, u64>,
    /// Total messages sent across ranks (0 for sequential engines).
    pub messages: u64,
    /// Total bytes sent across ranks (0 for sequential engines).
    pub bytes: u64,
    /// Largest per-rank high-water mark of live *named* matrix memory
    /// (the paper's §7 claim: distributed blocks shrink per-CPU
    /// memory, so bigger problems fit).
    pub peak_rank_bytes: usize,
    /// Largest per-rank high-water mark counting *all* matrix
    /// allocations, compiler temporaries included (run-time allocator
    /// view; equals the workspace peak for sequential engines).
    pub peak_temp_bytes: usize,
    /// Per-rank breakdown (one entry, rank 0, for sequential engines).
    pub per_rank: Vec<RankCounters>,
    /// Longest send/recv dependency chain through the traced run.
    /// `Some` only when the engine ran with a retaining trace sink
    /// (see [`EngineOptions::builder`]).
    pub critical_path: Option<CriticalPath>,
    /// Job-level metric snapshot: every rank's registry merged
    /// (counters added, gauges maxed, histograms merged bucket-wise)
    /// plus job-wide series like `rank_clock_seconds`. `Some` only
    /// when the engine ran with [`EngineOptions::metrics`] on.
    pub metrics: Option<MetricsSnapshot>,
}

impl EngineReport {
    /// The report shape shared by single-CPU engines: one rank, no
    /// traffic, every second of the clock is compute, and the
    /// workspace peak doubles as the allocator peak.
    pub fn sequential(
        engine: &'static str,
        workspace: HashMap<String, Value>,
        output: String,
        modeled_seconds: f64,
        op_counts: BTreeMap<String, u64>,
        peak_bytes: usize,
    ) -> EngineReport {
        EngineReport {
            engine,
            job_id: JobId(0),
            workspace,
            output,
            modeled_seconds,
            op_counts,
            messages: 0,
            bytes: 0,
            peak_rank_bytes: peak_bytes,
            peak_temp_bytes: peak_bytes,
            per_rank: vec![RankCounters {
                clock: modeled_seconds,
                peak_bytes,
                compute_seconds: modeled_seconds,
                ..RankCounters::default()
            }],
            critical_path: None,
            metrics: None,
        }
    }

    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.workspace.get(name).and_then(|v| v.as_scalar())
    }

    pub fn matrix(&self, name: &str) -> Option<Dense> {
        self.workspace.get(name).and_then(|v| v.to_matrix())
    }

    /// Total executed operations over all opcodes.
    pub fn total_ops(&self) -> u64 {
        self.op_counts.values().sum()
    }
}

/// Common engine configuration.
///
/// Construct with [`EngineOptions::builder`] (or `Default`): the
/// struct is `#[non_exhaustive]` so future knobs — like the trace sink
/// added in this revision — stop being breaking struct-literal
/// changes.
#[derive(Clone, Default)]
#[non_exhaustive]
pub struct EngineOptions {
    /// Directory `load` resolves data files against.
    pub data_dir: Option<PathBuf>,
    /// M-file provider for user function files.
    pub m_files: Option<otter_frontend::MapProvider>,
    /// Optional passes the Otter engine skips (ablations). Checked
    /// against [`crate::pass::PASSES`] at the top of every compile —
    /// see [`EngineOptionsBuilder::disable_pass`].
    pub disabled_passes: Vec<String>,
    /// Event sink every engine layer records into; `None` disables
    /// tracing (the zero-cost default).
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Collect per-rank metric registries and merge them into
    /// [`EngineReport::metrics`]. Off by default: disabled runs never
    /// construct a registry, a key, or an observation.
    pub metrics: bool,
    /// Deterministic fault-injection schedule for the SPMD run; `None`
    /// (the default) perturbs nothing and the virtual-time results are
    /// byte-identical to a build without the fault subsystem.
    pub faults: Option<FaultPlan>,
    /// Worker-pool size for the SPMD scheduler: how many logical
    /// ranks may execute at once. `None` (the default) uses the host's
    /// parallelism; deterministic outputs are identical for any value.
    pub workers: Option<usize>,
    /// How the compile pipeline's lint pass treats its findings
    /// ([`LintMode::Warn`] collects, [`LintMode::Deny`] fails the
    /// compile on the first warning).
    pub lint: LintMode,
}

impl fmt::Debug for EngineOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineOptions")
            .field("data_dir", &self.data_dir)
            .field("m_files", &self.m_files)
            .field("disabled_passes", &self.disabled_passes)
            .field("trace", &self.trace.as_ref().map(|_| "<sink>"))
            .field("metrics", &self.metrics)
            .field("faults", &self.faults)
            .field("workers", &self.workers)
            .field("lint", &self.lint)
            .finish()
    }
}

impl EngineOptions {
    pub fn builder() -> EngineOptionsBuilder {
        EngineOptionsBuilder::default()
    }

    /// A stable 64-bit fingerprint of every option that can change
    /// what [`crate::compile()`] produces or what a run of the artifact
    /// deterministically reports: the data directory, the registered
    /// M-files, disabled passes, the lint mode, the metrics switch and
    /// the fault plan.
    ///
    /// **Excluded** as run-time-only: `workers` (the scheduler's pool
    /// size is invisible to every deterministic output) and the trace
    /// sink (observation, not behavior). The fingerprint is half of
    /// the artifact-cache key — see
    /// [`crate::CompiledArtifact::cache_key`] — so it is FNV-1a over
    /// explicitly serialized fields, stable across platforms and
    /// releases, never `std::hash`.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.tag(b'd');
        match &self.data_dir {
            Some(dir) => fp.str(&dir.display().to_string()),
            None => fp.tag(0),
        };
        fp.tag(b'm');
        if let Some(provider) = &self.m_files {
            for (name, src) in provider.entries() {
                fp.str(name).str(src);
            }
        }
        fp.tag(b'p');
        let mut disabled: Vec<&str> = self.disabled_passes.iter().map(String::as_str).collect();
        disabled.sort_unstable();
        disabled.dedup();
        for pass in disabled {
            fp.str(pass);
        }
        fp.tag(b'l').tag(match self.lint {
            LintMode::Warn => 0,
            LintMode::Deny => 1,
        });
        fp.tag(b's').tag(self.metrics as u8);
        fp.tag(b'f');
        if let Some(plan) = &self.faults {
            fp.u64(plan.seed.map_or(0, |s| s.wrapping_add(1)));
            for action in &plan.actions {
                match *action {
                    FaultAction::Drop { from, to, nth } => {
                        fp.tag(1).u64(from as u64).u64(to as u64).u64(nth);
                    }
                    FaultAction::Delay {
                        from,
                        to,
                        nth,
                        seconds,
                    } => {
                        fp.tag(2)
                            .u64(from as u64)
                            .u64(to as u64)
                            .u64(nth)
                            .u64(seconds.to_bits());
                    }
                    FaultAction::Crash { rank, at_op } => {
                        fp.tag(3).u64(rank as u64).u64(at_op);
                    }
                }
            }
        }
        fp.finish()
    }

    /// The SPMD launch options these engine options imply.
    pub(crate) fn spmd_options(&self) -> SpmdOptions {
        SpmdOptions {
            trace: self.trace.clone(),
            metrics: self.metrics,
            faults: self.faults.clone(),
            workers: self.workers,
            ..SpmdOptions::default()
        }
    }
}

/// Builder for [`EngineOptions`].
///
/// ```
/// use otter_core::engines::EngineOptions;
/// use otter_trace::MemorySink;
/// use std::sync::Arc;
///
/// let sink = Arc::new(MemorySink::new());
/// let opts = EngineOptions::builder()
///     .data_dir("data")
///     .trace(sink)
///     .build();
/// assert!(opts.trace.is_some());
/// ```
#[derive(Debug, Default)]
pub struct EngineOptionsBuilder {
    opts: EngineOptions,
}

impl EngineOptionsBuilder {
    /// Directory `load` resolves data files against.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.opts.data_dir = Some(dir.into());
        self
    }

    /// M-file provider for user function files.
    pub fn m_files(mut self, provider: otter_frontend::MapProvider) -> Self {
        self.opts.m_files = Some(provider);
        self
    }

    /// Skip an optional compiler pass (may be called repeatedly). Only
    /// the optional rows of [`crate::pass::PASSES`] may be named:
    /// `peephole`, `lint`, `fusion`. Any other name makes every compile
    /// under these options fail with a typed error — ``unknown pass
    /// `x` (registered: …)`` for a name not in the table, ``pass `x` is
    /// mandatory`` for one that is — before any stage runs.
    pub fn disable_pass(mut self, name: impl Into<String>) -> Self {
        self.opts.disabled_passes.push(name.into());
        self
    }

    /// Record trace events into `sink`. Pass an
    /// `Arc<otter_trace::MemorySink>` to retain events for analysis.
    pub fn trace(mut self, sink: Arc<impl TraceSink + 'static>) -> Self {
        self.opts.trace = Some(sink);
        self
    }

    /// Collect and merge per-rank metrics into the report.
    pub fn metrics(mut self, on: bool) -> Self {
        self.opts.metrics = on;
        self
    }

    /// Inject a deterministic fault schedule into the SPMD run (see
    /// [`otter_mpi::FaultPlan`]). Use [`crate::try_run`] to get the
    /// resulting failure report as data.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.opts.faults = Some(plan);
        self
    }

    /// Treat lint warnings as compile errors.
    pub fn deny_lints(mut self) -> Self {
        self.opts.lint = LintMode::Deny;
        self
    }

    /// Fix the SPMD worker-pool size instead of using the host's
    /// parallelism. Any value yields identical deterministic outputs;
    /// small pools let many more ranks than cores run.
    pub fn workers(mut self, n: usize) -> Self {
        self.opts.workers = Some(n);
        self
    }

    pub fn build(self) -> EngineOptions {
        self.opts
    }
}

/// One of the paper's three evaluation systems. Every engine runs
/// through [`run_engine`] and reports through [`EngineReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The MathWorks-interpreter baseline (one CPU).
    Interpreter,
    /// The MATCOM sequential-compiler baseline (one CPU).
    Matcom,
    /// The real pipeline: [`crate::compile()`] then [`crate::run`] on
    /// `p` ranks.
    Otter,
}

impl Engine {
    /// All three, in figure order.
    pub const ALL: [Engine; 3] = [Engine::Interpreter, Engine::Matcom, Engine::Otter];

    /// Stable engine name used in report rows (`interpreter`,
    /// `matcom`, `otter`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Interpreter => "interpreter",
            Engine::Matcom => "matcom",
            Engine::Otter => "otter",
        }
    }
}

/// Run `src` on `p` CPUs of `machine` under `engine`. The Otter arm is
/// exactly `run(&compile(src, opts)?, &RunRequest::on(machine, p))`;
/// the sequential engines model a single CPU and ignore `p`.
pub fn run_engine(
    engine: Engine,
    src: &str,
    opts: &EngineOptions,
    machine: &Machine,
    p: usize,
) -> Result<EngineReport> {
    let style = match engine {
        Engine::Interpreter => ExecutionStyle::Interpreter,
        Engine::Matcom => ExecutionStyle::Matcom,
        Engine::Otter => return run(&compile(src, opts)?, &RunRequest::on(machine.clone(), p)),
    };
    run_sequential(engine.name(), style, assemble(src, opts)?, machine, opts)
}

fn run_sequential(
    name: &'static str,
    style: ExecutionStyle,
    program: otter_frontend::Program,
    machine: &Machine,
    opts: &EngineOptions,
) -> Result<EngineReport> {
    let mut interp = Interp::with_style(program, style);
    interp.data_dir = opts.data_dir.clone();
    if let Some(sink) = &opts.trace {
        // Sequential engines emit per-statement spans (rank 0), scaled
        // from meter units to the machine's modeled seconds.
        interp.set_trace(Arc::clone(sink), machine.cpu.flop_time());
    }
    interp.run()?;
    let modeled = interp.meter.seconds_on(&machine.cpu);
    // The sequential peak: high-water mark of the named workspace on
    // one CPU (expression temporaries excluded on both sides' "named
    // values" views; the SPMD executor's compiler temporaries ARE
    // named, so its figure is the more conservative one).
    let peak: usize = interp.peak_workspace_bytes;
    let op_counts: BTreeMap<String, u64> = interp
        .meter
        .op_counts()
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    let mut report = EngineReport::sequential(
        name,
        interp.workspace(),
        interp.output.clone(),
        modeled,
        op_counts,
        peak,
    );
    if opts.metrics {
        let mut reg = MetricsRegistry::new();
        for (op, n) in &report.op_counts {
            reg.inc(OPS_TOTAL, &[("op", op)], *n);
        }
        reg.gauge_max(WORKSPACE_PEAK_BYTES, &[], peak as f64);
        reg.observe(RANK_CLOCK_SECONDS, &[], modeled);
        report.metrics = Some(reg.snapshot());
    }
    Ok(report)
}

fn assemble(src: &str, opts: &EngineOptions) -> Result<otter_frontend::Program> {
    let empty = otter_frontend::MapProvider::new();
    let provider = opts.m_files.as_ref().unwrap_or(&empty);
    Ok(assemble_program(src, provider)?)
}

/// A failed SPMD run as data: which ranks failed and why (with the
/// wait-for information behind each), plus the counters of the ranks
/// that completed the program.
#[derive(Debug, Clone)]
pub struct SpmdJobFailure {
    /// Correlation key of the failed run (same id its trace events,
    /// flight events, and metrics carry).
    pub job_id: JobId,
    /// The typed per-rank failure report.
    pub report: FailureReport,
    /// Counters of the surviving ranks, ordered by rank id.
    pub survivors: Vec<RankCounters>,
    /// Flight-recorder tails of every rank in the job — failed ranks
    /// and survivors alike — ordered by rank id. This is the event
    /// context a postmortem bundle serializes.
    pub flight: Vec<(usize, Vec<FlightEvent>)>,
    /// Every rank's metric registry merged (failed ranks' partial
    /// registries included); `None` when metrics were off.
    pub metrics: Option<MetricsSnapshot>,
}

impl fmt::Display for SpmdJobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.report.fmt(f)
    }
}

impl std::error::Error for SpmdJobFailure {}
