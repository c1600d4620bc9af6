//! One run of one workload: set-up, the measured window, and — in a
//! traced run — the spans and the layer probes.

use crate::host;
use crate::host::out_dir;
use crate::jobs::{engine_options, Batch, Collected, Counts, Limit};
use crate::metrics::{Metrics, RunResult, END_TO_END, PER_LAYER};
use crate::probes;
use crate::serve::Serve;
use crate::spans::{self, Recorder};
use crate::stats::{block_median, median, percentile_or_clamped, sorted};
use crate::workloads::{build, Kind, Workload, STREAM_RANKS, WORKLOADS};
use otter_core::compile;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions of an untraced run (`setup_s` is their median):
/// at least MIN, then more while they have cost less than the budget.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;
/// Time blocks of the measured window.
const BLOCKS: usize = 5;
/// Windows of a traced run's job phase, alternately without and with
/// the span recorder.
const TRACE_WINDOWS: usize = 4;
/// Cold compiles of the script set behind `compile_ms_p50`, spread
/// evenly before the blocks.
const COMPILE_REPS: usize = 200;

#[derive(Debug, Clone)]
pub struct Cli {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A workload after set-up.
enum Ready {
    Batch(Batch),
    Serve(Serve),
}

impl Ready {
    fn setup(w: &Workload, workers: usize, seed: u64) -> Result<Ready, String> {
        Ok(match w.kind {
            Kind::Batch => Ready::Batch(Batch::setup(&w.scripts, workers)?),
            Kind::Serve => Ready::Serve(Serve::setup(&w.scripts, workers, seed, STREAM_RANKS)?),
        })
    }

    fn measure(self, limit: Limit, rec: Arc<Recorder>) -> (Collected, Option<Ready>) {
        match self {
            Ready::Batch(b) => {
                let (c, b) = b.measure(limit, rec);
                (c, b.map(Ready::Batch))
            }
            Ready::Serve(s) => {
                let (c, s) = s.measure(limit, rec);
                (c, s.map(Ready::Serve))
            }
        }
    }

    /// The exact counts every batch job reproduces.
    fn counts(&self) -> Option<Counts> {
        match self {
            Ready::Batch(b) => Some(b.counts()),
            Ready::Serve(_) => None,
        }
    }

    fn teardown(self) -> Result<(), String> {
        match self {
            Ready::Batch(_) => Ok(()),
            Ready::Serve(s) => s.teardown(),
        }
    }
}

fn report_failures(c: &Collected) {
    for o in c.outcomes.iter().filter_map(|o| o.error.as_ref()).take(5) {
        eprintln!("failed job: {o}");
    }
}

fn after(seconds: f64) -> Limit {
    Limit::Until(Instant::now() + Duration::from_secs_f64(seconds))
}

pub fn single(cli: &Cli, process_start: Instant) -> Result<RunResult, String> {
    let workload = build(&cli.workload, cli.seed).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!("unknown workload `{}` (one of {names:?})", cli.workload)
    })?;
    if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
        return Err(format!("--seconds {} is out of range", cli.seconds));
    }
    host::warn_if_not_native();
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    if cli.trace {
        traced(cli, &workload)
    } else {
        untraced(cli, &workload, process_start)
    }
}

/// Tracing off: the end-to-end metrics.
///
/// The host drifts by 5–10 % over tens of seconds and `otterd` moves
/// between a stall-prone and a stall-free phase (see the README), so
/// the window is cut into [`BLOCKS`] time blocks with a burst of cold
/// compiles before each, and latencies are reported as the median over
/// blocks of the per-block percentile.
fn untraced(cli: &Cli, w: &Workload, process_start: Instant) -> Result<RunResult, String> {
    let workers = host::workers();
    let mut m = Metrics::default();

    // setup_s: process start → ready for the first measured job. The
    // later repetitions rebuild everything (scripts, compiles,
    // references, daemon, warm-up) from scratch; cheap set-ups repeat
    // more often, so their median is as steady as the dear ones'.
    let mut setup_s = Vec::new();
    let mut spent = 0.0;
    let mut ready = None;
    while setup_s.len() < SETUP_REPS_MIN
        || (spent < SETUP_BUDGET_S && setup_s.len() < SETUP_REPS_MAX)
    {
        if let Some(previous) = ready.take() {
            Ready::teardown(previous)?;
        }
        let started = if setup_s.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let w = build(w.name, cli.seed).expect("built once already");
        ready = Some(Ready::setup(&w, workers, cli.seed)?);
        setup_s.push(started.elapsed().as_secs_f64());
        spent += setup_s[setup_s.len() - 1];
    }
    m.put("setup_s", median(&setup_s));

    let opts = engine_options(workers);
    let off = Arc::new(Recorder::new(false));
    let mut compile_ms = Vec::with_capacity(COMPILE_REPS);
    let mut all = Collected::default();
    for _ in 0..BLOCKS {
        // compile_ms_p50: cold compiles of the script set, between
        // blocks — never inside a job, never inside the job window.
        for _ in 0..COMPILE_REPS / BLOCKS {
            let t = Instant::now();
            for s in &w.scripts {
                black_box(compile(&s.app.script, &opts).map_err(|e| e.to_string())?);
            }
            compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        // `None` after a hung job: stop, report what was measured.
        let Some(current) = ready.take() else { break };
        let (block, back) = current.measure(after(cli.seconds / BLOCKS as f64), Arc::clone(&off));
        report_failures(&block);
        all.window_s += block.window_s;
        all.outcomes.extend(block.outcomes);
        ready = back;
    }
    if let Some(ready) = ready {
        ready.teardown()?;
    }
    m.put("compile_ms_p50", median(&compile_ms));
    let walls = all.walls_ms();
    if walls.is_empty() {
        return Err("no job finished in the measured window".to_string());
    }
    m.put("job_ms_p50", block_median(&walls, 20, median));
    m.put(
        "job_ms_p90",
        block_median(&walls, 100, |block| {
            percentile_or_clamped(&sorted(block), 0.9, "job_ms_p90")
        }),
    );
    m.put(
        "jobs_per_s",
        (all.attempted() - all.failed()) as f64 / all.window_s,
    );
    m.put("peak_rss_mb", host::peak_rss_mb()?);
    eprintln!(
        "{}: {} jobs in {:.2} s, set-up reps {:.3?} s",
        w.name,
        all.attempted(),
        all.window_s,
        setup_s
    );
    Ok(RunResult {
        correct: all.failed() == 0,
        attempted: all.attempted(),
        failed: all.failed(),
        metrics: m.finish(END_TO_END)?,
    })
}

/// Tracing on: a fifth of the run's jobs untraced, a fifth traced (the
/// difference is the recorder's overhead), then the layer probes. The
/// spans go to `benchmark/out/<workload>.trace.json`.
fn traced(cli: &Cli, w: &Workload) -> Result<RunResult, String> {
    let workers = host::workers();
    let mut m = Metrics::default();
    // Probes share 3/5 of the run; a slice is one probe's time budget.
    let slice = Duration::from_secs_f64(cli.seconds * 0.6 / 45.0);
    let rec = Arc::new(Recorder::new(true));
    let phase = Instant::now();

    // Alternating windows, so drift hits both sides alike.
    let mut ready = Ready::setup(w, workers, cli.seed)?;
    let job_counts = ready.counts();
    let (mut plain, mut with_spans) = (Collected::default(), Collected::default());
    for window in 0..TRACE_WINDOWS {
        let (into, recorder) = if window % 2 == 0 {
            (&mut plain, Arc::new(Recorder::new(false)))
        } else {
            (&mut with_spans, Arc::clone(&rec))
        };
        let limit = after(cli.seconds * 0.4 / TRACE_WINDOWS as f64);
        let (collected, back) = ready.measure(limit, recorder);
        report_failures(&collected);
        into.outcomes.extend(collected.outcomes);
        ready = back.ok_or("a job hung in a traced-run window")?;
    }
    ready.teardown()?;
    if plain.outcomes.is_empty() || with_spans.outcomes.is_empty() {
        return Err("no job finished in a traced-run window".to_string());
    }
    let (p50_plain, p50_spans) = (median(&plain.walls_ms()), median(&with_spans.walls_ms()));
    m.put(
        "bench.trace_overhead_share",
        (p50_spans - p50_plain) / p50_plain,
    );
    eprintln!("{}: jobs {:.1?}", w.name, phase.elapsed());

    let phase = Instant::now();
    probes::rt_kernels(workers, slice, &mut m);
    let probe_counts = probes::script_set(&w.scripts, workers, slice, &rec, &mut m)?;
    eprintln!("{}: script-set probes {:.1?}", w.name, phase.elapsed());
    let phase = Instant::now();
    let hot = build("serve-mix", cli.seed)
        .expect("serve-mix exists")
        .scripts;
    probes::fixed(&hot, workers, cli.seed, slice, &mut m)?;
    eprintln!("{}: fixed probes {:.1?}", w.name, phase.elapsed());

    // A batch job's exact counts must equal one direct run of its
    // scripts (the probe's), or determinism broke somewhere.
    let mut correct = plain.failed() + with_spans.failed() == 0;
    if job_counts.is_some_and(|c| c != probe_counts) {
        eprintln!("exact counts differ: job {job_counts:?} vs probe {probe_counts:?}");
        correct = false;
    }

    // Where a job's time went, by self time over the job spans (the
    // shares sum to 1 by construction).
    let all_spans = rec.take();
    let by_name = spans::self_by_name(&all_spans);
    let total: f64 = by_name.iter().map(|(_, us)| us).sum();
    let share = |names: &[&str]| -> f64 {
        by_name
            .iter()
            .filter(|(n, _)| names.contains(n))
            .map(|(_, us)| us)
            .sum::<f64>()
            / total
    };
    m.put("trace.run_share", share(&["core.run", "serve.request"]));
    m.put("trace.verify_share", share(&["oracle.verify"]));
    m.put("trace.glue_share", share(&["job"]));
    let path = out_dir().join(format!("{}.trace.json", w.name));
    let text = spans::to_json(w.name, cli.seed, &all_spans).to_string();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans -> {}",
        w.name,
        all_spans.len(),
        path.display()
    );

    Ok(RunResult {
        correct,
        attempted: plain.attempted() + with_spans.attempted(),
        failed: plain.failed() + with_spans.failed(),
        metrics: m.finish(PER_LAYER)?,
    })
}
