//! The compile/run API split: a [`CompiledArtifact`] produced by
//! [`compile`](crate::compile()) and executed — any number of times, on any machine
//! model, at any rank count — by [`run`]/[`try_run`].
//!
//! This is the surface every driver shares: `otterc`, the bench and
//! figure harness, and the `otterd` compile-and-run service all go
//! through the same two functions, so "compile once, run many" is the
//! default shape rather than a special case. An artifact is cheaply
//! cloneable (one `Arc` bump), carries the per-pass compile record,
//! and identifies itself by a **cache key**: the FNV-1a hash of the
//! exact source text plus [`EngineOptions::fingerprint`], the stable
//! hash of every option that can change what compilation produces.
//! Two compiles with equal cache keys are interchangeable; that
//! equivalence is what `otter-serve`'s artifact cache banks on when a
//! warm job skips passes 1–6 entirely.
//!
//! Run-time-only knobs — the worker-pool size, the machine model, the
//! rank count — live in [`RunRequest`] and never enter the key.
//!
//! ```
//! use otter_core::{compile, run, EngineOptions, RunRequest};
//! use otter_machine::meiko_cs2;
//!
//! let opts = EngineOptions::default();
//! let artifact = compile("a = [1, 2; 3, 4];\ns = sum(a(:, 1));", &opts).unwrap();
//! let report = run(&artifact, &RunRequest::on(meiko_cs2(), 4)).unwrap();
//! assert_eq!(report.scalar("s"), Some(4.0));
//! // Same source + same options → same cache key.
//! let again = compile("a = [1, 2; 3, 4];\ns = sum(a(:, 1));", &opts).unwrap();
//! assert_eq!(artifact.cache_key(), again.cache_key());
//! ```

use crate::compile::Compiled;
use crate::engines::{CommSiteReport, EngineOptions, EngineReport, RankCounters, SpmdJobFailure};
use crate::error::{OtterError, Result};
use crate::exec::{ExecError, ExecOptions, ExecOutcome, Executor, XVal};
use crate::pass::PassStats;
use otter_interp::Value;
use otter_log::JobId;
use otter_machine::Machine;
use otter_metrics::{MetricsRegistry, MetricsSnapshot};
use otter_mpi::observe::{LOAD_IMBALANCE_RATIO, RANK_CLOCK_SECONDS};
use otter_mpi::{run_spmd_with, Observations};
use std::collections::HashMap;
use std::sync::Arc;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an FNV-1a state. The hash is stable across
/// platforms and releases — it is a wire-visible cache key, not an
/// in-process table hash, so `std::hash` (explicitly unstable) is the
/// wrong tool.
pub(crate) fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The stable 64-bit content hash of a script's exact source text.
/// Any byte change — even whitespace or a comment — changes the hash:
/// the cache trades a few spurious misses for never having to reason
/// about which edits are semantic.
pub fn source_hash(src: &str) -> u64 {
    fnv1a(FNV_OFFSET, src.as_bytes())
}

/// Fingerprint accumulator: every field is folded with a one-byte
/// domain tag so `["ab"]` and `["a","b"]` cannot collide.
pub(crate) struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    pub fn tag(&mut self, t: u8) -> &mut Self {
        self.0 = fnv1a(self.0, &[t]);
        self
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.0 = fnv1a(self.0, &(b.len() as u64).to_le_bytes());
        self.0 = fnv1a(self.0, b);
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0 = fnv1a(self.0, &v.to_le_bytes());
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A fully compiled, immutable, cheaply cloneable program: the output
/// of [`compile`](crate::compile()) and the unit the serve-side artifact cache stores.
///
/// Cloning bumps one `Arc`; the IR, the emitted C, the inference
/// record, and the per-pass statistics are shared. The artifact also
/// snapshots the [`EngineOptions`] it was compiled under, so a bare
/// [`RunRequest`] (machine + ranks) is enough to execute it with the
/// collective schedule, fault plan, and metrics setting the compiler
/// saw.
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    inner: Arc<ArtifactInner>,
}

#[derive(Debug)]
struct ArtifactInner {
    compiled: Compiled,
    passes: Vec<PassStats>,
    opts: EngineOptions,
    source_hash: u64,
    options_fingerprint: u64,
}

impl CompiledArtifact {
    /// Wrap what [`crate::compile_with`] produced, keyed by the source
    /// and options it was produced from.
    pub(crate) fn new(
        compiled: Compiled,
        passes: Vec<PassStats>,
        src: &str,
        opts: &EngineOptions,
    ) -> Self {
        CompiledArtifact {
            inner: Arc::new(ArtifactInner {
                compiled,
                passes,
                source_hash: source_hash(src),
                options_fingerprint: opts.fingerprint(),
                opts: opts.clone(),
            }),
        }
    }

    /// The compiled program (IR, emitted C, inference, lint report).
    pub fn compiled(&self) -> &Compiled {
        &self.inner.compiled
    }

    /// Per-pass wall time and size statistics from the compile.
    pub fn pass_stats(&self) -> &[PassStats] {
        &self.inner.passes
    }

    /// The options snapshot this artifact was compiled under.
    pub fn options(&self) -> &EngineOptions {
        &self.inner.opts
    }

    /// FNV-1a hash of the exact source text.
    pub fn source_hash(&self) -> u64 {
        self.inner.source_hash
    }

    /// [`EngineOptions::fingerprint`] of the compile options.
    pub fn options_fingerprint(&self) -> u64 {
        self.inner.options_fingerprint
    }

    /// The artifact-cache key: `(source hash, option fingerprint)`.
    /// Artifacts with equal keys are interchangeable.
    pub fn cache_key(&self) -> (u64, u64) {
        (self.inner.source_hash, self.inner.options_fingerprint)
    }
}

/// Everything that may vary per execution of one artifact: the machine
/// model, the rank count, and the worker-pool size. None of it enters
/// the cache key — two runs of the same artifact at different ranks
/// share one compile.
#[derive(Clone)]
pub struct RunRequest {
    /// The machine model charged against the virtual clocks.
    pub machine: Machine,
    /// Logical SPMD ranks to execute.
    pub ranks: usize,
    /// Worker-pool override; `None` uses the artifact's compiled-in
    /// setting (itself defaulting to host parallelism). Run-time-only:
    /// deterministic outputs are identical for every value.
    pub workers: Option<usize>,
    /// Correlation key stamped on every observability artifact of this
    /// run (trace events, flight-recorder tails, failure reports,
    /// postmortem bundles). `None` mints a fresh process-unique id at
    /// run time; `otterd` passes its request-scoped id so client,
    /// server, and engine all agree on the key. Run-time-only: never
    /// part of the cache key, never affects modeled results.
    pub job_id: Option<JobId>,
    /// Trace-sink override for this run; `None` uses the artifact's
    /// compiled-in sink (usually none). `otterd` attaches a retaining
    /// sink here to serve `GET /trace/<job_id>` from cached artifacts
    /// that were compiled without one. Run-time-only: tracing observes
    /// the virtual clocks and never charges them.
    pub trace: Option<Arc<dyn otter_trace::TraceSink>>,
}

impl std::fmt::Debug for RunRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunRequest")
            .field("machine", &self.machine)
            .field("ranks", &self.ranks)
            .field("workers", &self.workers)
            .field("job_id", &self.job_id)
            .field("trace", &self.trace.as_ref().map(|_| "<sink>"))
            .finish()
    }
}

impl RunRequest {
    /// Execute on `ranks` CPUs of `machine`.
    pub fn on(machine: Machine, ranks: usize) -> Self {
        RunRequest {
            machine,
            ranks,
            workers: None,
            job_id: None,
            trace: None,
        }
    }

    /// Builder: fix the scheduler's worker-pool size for this run.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Builder: correlate this run under a caller-minted [`JobId`].
    pub fn with_job_id(mut self, job_id: JobId) -> Self {
        self.job_id = Some(job_id);
        self
    }

    /// Builder: record trace events into `sink` for this run only.
    pub fn with_trace(mut self, sink: Arc<impl otter_trace::TraceSink + 'static>) -> Self {
        self.trace = Some(sink);
        self
    }
}

impl Default for RunRequest {
    fn default() -> Self {
        RunRequest::on(otter_machine::meiko_cs2(), 1)
    }
}

/// What one rank hands back when its program ran to completion.
struct RankOutput {
    /// Fully gathered workspace on rank 0; empty on every other rank.
    workspace: HashMap<String, Value>,
    /// The executor's outcome, its distributed workspace drained.
    exec: ExecOutcome,
    /// Clock, stats and metrics when the program proper ended, before
    /// the reporting gathers.
    finished: Observations,
}

/// Merge the per-rank snapshots that exist; `None` when metrics were
/// off on every rank.
fn merged<'a>(parts: impl Iterator<Item = &'a Option<MetricsSnapshot>>) -> Option<MetricsSnapshot> {
    let mut parts = parts.flatten().peekable();
    parts.peek()?;
    Some(MetricsSnapshot::merged(parts))
}

/// Execute a compiled artifact; fold any SPMD failure into
/// [`OtterError`]. The run half of the API split — see [`try_run`]
/// for the variant that returns failures as structured data.
pub fn run(artifact: &CompiledArtifact, req: &RunRequest) -> Result<EngineReport> {
    match try_run(artifact, req)? {
        Ok(report) => Ok(report),
        Err(failure) => Err(failure.report.into()),
    }
}

/// Execute a compiled artifact on `req.ranks` modeled ranks of
/// `req.machine`. A communication failure (deadlock, dead rank,
/// injected fault) comes back as structured data — the typed
/// failure report plus the surviving ranks' counters — instead of a
/// formatted [`OtterError`]; program-level errors still use the `Err`
/// channel.
///
/// Only run work happens here: passes 1–6 ran once, inside
/// [`compile`](crate::compile()), and their host wall time stays on
/// [`CompiledArtifact::pass_stats`]. Every time a run reports is
/// modeled virtual time, never host time.
pub fn try_run(
    artifact: &CompiledArtifact,
    req: &RunRequest,
) -> Result<std::result::Result<EngineReport, SpmdJobFailure>> {
    let opts = artifact.options();
    let compiled = artifact.compiled();
    // Hybrid ranks × threads: split the worker budget across the
    // logical ranks, at least one kernel thread each.
    let budget = req.workers.or(opts.workers).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let exec_opts = ExecOptions {
        data_dir: opts.data_dir.clone(),
        analyze: opts.analyze,
        tile_size: opts.tile_size,
        threads: (budget / req.ranks.max(1)).max(1),
        ..Default::default()
    };
    let job_id = req.job_id.unwrap_or_else(JobId::mint);
    let mut spmd = opts.spmd_options();
    spmd.job_id = job_id;
    if req.workers.is_some() {
        spmd.workers = req.workers;
    }
    if req.trace.is_some() {
        spmd.trace = req.trace.clone();
    }
    let job = run_spmd_with(&req.machine, req.ranks, spmd, |comm| {
        let executor = Executor::new(&compiled.ir, comm, exec_opts.clone());
        match executor.run() {
            Ok(mut o) => {
                // The program is done: freeze the modeled time, the
                // traffic counters and the metrics now, before the
                // reporting gathers below (which are not part of the
                // benchmarked computation). Tracing stops at the same
                // point so event totals keep matching the stats.
                let finished = comm.freeze();
                // The workspace is each script variable's exit web,
                // under its source name; temporaries and superseded
                // webs stay behind. Gather every matrix to rank 0, the
                // only rank whose workspace the report reads: one copy
                // per matrix, on one rank. Iterate in name order:
                // gathers are collectives, so every rank must visit
                // variables in the same sequence.
                let mut webs = std::mem::take(&mut o.workspace);
                let root = comm.rank() == 0;
                let mut workspace: HashMap<String, Value> = HashMap::new();
                for (name, web) in &compiled.ir.exit_webs {
                    let Some(val) = webs.remove(web) else {
                        continue;
                    };
                    let val = match val {
                        XVal::S(v) => root.then_some(Value::Scalar(v)),
                        XVal::M(m) => m.gather_to(comm, 0)?.map(|d| Value::Matrix(d).normalized()),
                    };
                    if let Some(val) = val {
                        workspace.insert(name.clone(), val);
                    }
                }
                Ok(Ok(RankOutput {
                    workspace,
                    exec: o,
                    finished,
                }))
            }
            // Application errors are SPMD-replicated: every rank
            // raises the identical one, so they travel inside the
            // rank's value and the job itself still succeeds.
            Err(ExecError::App(e)) => Ok(Err(e.to_string())),
            // Communication failures abort the job; the runner
            // assembles the failure report.
            Err(ExecError::Comm(e)) => Err(e),
        }
    });
    let results = match job {
        Ok(results) => results,
        Err(failure) => {
            let survivors = failure
                .survivors
                .iter()
                .map(|r| {
                    let peak = r.value.as_ref().map_or(0, |o| o.exec.peak_temp_bytes);
                    RankCounters::observed(r.rank, r.clock, &r.stats, peak)
                })
                .collect();
            // Every rank's flight-recorder tail — failed and surviving
            // alike — keyed by rank, ordered by rank: the postmortem's
            // event context.
            let mut flight: Vec<(usize, Vec<otter_log::FlightEvent>)> = failure
                .report
                .failures
                .iter()
                .map(|f| (f.rank, f.flight.clone()))
                .chain(failure.survivors.iter().map(|r| (r.rank, r.flight.clone())))
                .collect();
            flight.sort_by_key(|&(rank, _)| rank);
            // Merge the partial registries of failed ranks with the
            // survivors' complete ones, mirroring the success path.
            let failed_metrics = failure.report.failures.iter().map(|f| &f.metrics);
            let survivor_metrics = failure.survivors.iter().map(|r| &r.metrics);
            let metrics = merged(failed_metrics.chain(survivor_metrics));
            return Ok(Err(SpmdJobFailure {
                job_id,
                report: failure.report,
                survivors,
                flight,
                metrics,
            }));
        }
    };
    // All ranks executed the same instruction sequence (SPMD); rank 0
    // holds the gathered workspace and its output and op counts stand
    // for the job, and the counters fold over every rank.
    let mut outputs = Vec::with_capacity(results.len());
    for r in results {
        outputs.push((r.rank, r.value.map_err(OtterError::execution)?));
    }
    let per_rank: Vec<RankCounters> = outputs
        .iter()
        .map(|(rank, out)| {
            let fin = &out.finished;
            RankCounters::observed(*rank, fin.clock, &fin.stats, out.exec.peak_temp_bytes)
        })
        .collect();
    let max_clock = per_rank.iter().map(|r| r.clock).fold(0.0, f64::max);
    let peak_rank_bytes = outputs.iter().map(|(_, o)| o.exec.peak_local_bytes).max();
    let peak_temp_bytes = per_rank.iter().map(|r| r.peak_bytes).max();
    let mut job_metrics = merged(outputs.iter().map(|(_, o)| &o.finished.metrics));
    let mut outputs = outputs.into_iter().map(|(_, out)| out);
    let first = outputs.next().expect("at least one rank");
    let (workspace, rank0) = (first.workspace, first.exec);
    // Per-site traffic is a job-wide total (sum over ranks);
    // execution counts are SPMD-replicated, so rank 0's stand.
    let mut site_comm = rank0.site_comm;
    for out in outputs {
        for (total, rs) in site_comm.iter_mut().zip(&out.exec.site_comm) {
            total.messages += rs.messages;
            total.bytes += rs.bytes;
        }
    }
    // Job-wide series the per-rank registries cannot see.
    if let Some(job) = job_metrics.as_mut() {
        let mut reg = MetricsRegistry::new();
        for rc in &per_rank {
            reg.observe(RANK_CLOCK_SECONDS, &[], rc.clock);
        }
        let min_clock = per_rank
            .iter()
            .map(|r| r.clock)
            .fold(f64::INFINITY, f64::min);
        if min_clock > 0.0 {
            reg.gauge_max(LOAD_IMBALANCE_RATIO, &[], max_clock / min_clock);
        }
        job.merge_from(&reg.snapshot());
    }
    // Rejoin the per-site totals with their site identities: the
    // executor indexed them by `leaf_sites` order over this same IR,
    // so a fresh enumeration lines up element-for-element.
    let comm_sites: Vec<CommSiteReport> = otter_ir::leaf_sites(&compiled.ir)
        .iter()
        .zip(&site_comm)
        .map(|(site, sc)| CommSiteReport {
            site: site.id,
            func: site.func.map(str::to_string),
            opcode: site.instr.opcode().to_string(),
            execs: sc.execs,
            messages: sc.messages,
            bytes: sc.bytes,
        })
        .collect();
    // With a retaining sink the critical path comes along for free.
    let critical_path = req
        .trace
        .as_ref()
        .or(opts.trace.as_ref())
        .and_then(|sink| sink.snapshot())
        .map(|events| otter_trace::critical_path(&events));
    Ok(Ok(EngineReport {
        engine: "otter",
        job_id,
        workspace,
        output: rank0.output,
        modeled_seconds: max_clock,
        op_counts: rank0
            .op_counts
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        messages: per_rank.iter().map(|r| r.messages).sum(),
        bytes: per_rank.iter().map(|r| r.bytes).sum(),
        peak_rank_bytes: peak_rank_bytes.unwrap_or(0),
        peak_temp_bytes: peak_temp_bytes.unwrap_or(0),
        per_rank,
        critical_path,
        metrics: job_metrics,
        comm_sites,
    }))
}
