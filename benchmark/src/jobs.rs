//! The job loop shared by all workloads, the correctness oracle, and
//! the batch (direct `otter_core::run`) jobs.

use crate::spans::Recorder;
use crate::workloads::Script;
use otter_core::{compile, run, CompiledArtifact, EngineOptions, EngineReport, RunRequest};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A job that takes longer than this is a counted failure, and the run
/// stops instead of wedging.
pub const JOB_DEADLINE: Duration = Duration::from_secs(30);
/// Jobs run (and verified) in set-up, before anything is measured.
pub const WARMUP_JOBS: usize = 3;

/// Reference values of a script's result variables, computed once in
/// set-up by the independent interpreter — never by the engine under
/// test.
pub type Reference = Vec<(&'static str, f64)>;

pub fn reference(script: &Script) -> Result<Reference, String> {
    let app = &script.app;
    let out = otter_interp::run_script(&app.script, None)
        .map_err(|e| format!("{}: interpreter reference: {e}", app.id))?;
    app.result_vars
        .iter()
        .map(|&v| match out.scalar(v) {
            Some(x) if x.is_finite() => Ok((v, x)),
            other => Err(format!("{}: reference `{v}` is {other:?}", app.id)),
        })
        .collect()
}

/// Relative 1e-9 (absolute below 1): reductions reassociate across
/// ranks, nothing else may differ. NaN never passes.
pub fn close(reference: f64, got: f64) -> bool {
    (reference - got).abs() <= 1e-9 * (1.0 + reference.abs())
}

pub fn verify(
    id: &str,
    reference: &Reference,
    got: impl Fn(&str) -> Option<f64>,
) -> Result<(), String> {
    for &(var, want) in reference {
        match got(var) {
            Some(x) if close(want, x) => {}
            other => return Err(format!("{id}: `{var}` = {other:?}, reference {want}")),
        }
    }
    Ok(())
}

/// Deterministic outputs of a job; they must repeat bit-for-bit on
/// every job of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub messages: u64,
    pub bytes: u64,
    /// Bit pattern of the summed modeled seconds.
    pub modeled_bits: u64,
    pub ops: u64,
}

impl Counts {
    pub fn add(&mut self, report: &EngineReport) {
        self.messages += report.messages;
        self.bytes += report.bytes;
        self.modeled_bits = (f64::from_bits(self.modeled_bits) + report.modeled_seconds).to_bits();
        self.ops += report.total_ops();
    }

    pub fn modeled_seconds(&self) -> f64 {
        f64::from_bits(self.modeled_bits)
    }
}

/// Server-side facts of a `serve-mix` reply (absent on batch jobs).
#[derive(Debug, Clone, Copy)]
pub struct ServeFacts {
    pub cold: bool,
    pub ranks: usize,
    pub compile_s: f64,
    pub run_s: f64,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub wall_ms: f64,
    pub error: Option<String>,
    pub serve: Option<ServeFacts>,
}

/// When a job loop stops issuing.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Until(Instant),
    /// Jobs per thread.
    Count(usize),
}

#[derive(Debug, Default)]
pub struct Collected {
    pub outcomes: Vec<Outcome>,
    /// Loop start → last job seen.
    pub window_s: f64,
}

impl Collected {
    pub fn attempted(&self) -> u64 {
        self.outcomes.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.error.is_some()).count() as u64
    }

    pub fn walls_ms(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.wall_ms).collect()
    }
}

/// Job ids are unique within the process (0 is "not a measured job"),
/// so spans of different windows never share one.
static NEXT_JOB: AtomicU64 = AtomicU64::new(1);

/// Run one closed loop per element of `states`, each on its own
/// thread: `step(state, job_id)` until the limit. The calling thread
/// only collects outcomes, with [`JOB_DEADLINE`] on each wait, so a
/// hang becomes a failed job. Returns the states for reuse unless a
/// thread hung.
pub fn drive<S, F>(states: Vec<S>, limit: Limit, step: F) -> (Collected, Option<Vec<S>>)
where
    S: Send + 'static,
    F: Fn(&mut S, u64) -> Outcome + Send + Sync + 'static,
{
    let step = Arc::new(step);
    let (tx, rx) = mpsc::channel::<Outcome>();
    let started = Instant::now();
    let handles: Vec<JoinHandle<S>> = states
        .into_iter()
        .map(|mut state| {
            let (tx, step) = (tx.clone(), Arc::clone(&step));
            std::thread::spawn(move || {
                for seq in 1.. {
                    let done = match limit {
                        Limit::Until(deadline) => Instant::now() >= deadline,
                        Limit::Count(n) => seq > n,
                    };
                    let job = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
                    if done || tx.send(step(&mut state, job)).is_err() {
                        break;
                    }
                }
                state
            })
        })
        .collect();
    drop(tx);
    let mut collected = Collected::default();
    loop {
        match rx.recv_timeout(JOB_DEADLINE) {
            Ok(outcome) => {
                collected.window_s = started.elapsed().as_secs_f64();
                collected.outcomes.push(outcome);
            }
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                collected.window_s = started.elapsed().as_secs_f64();
                collected.outcomes.push(Outcome {
                    wall_ms: JOB_DEADLINE.as_secs_f64() * 1e3,
                    error: Some(format!("no job finished within {JOB_DEADLINE:?}")),
                    serve: None,
                });
                return (collected, None);
            }
        }
    }
    let states = handles
        .into_iter()
        .map(|h| h.join().expect("job thread panicked"))
        .collect();
    (collected, Some(states))
}

struct Prepared {
    id: &'static str,
    artifact: CompiledArtifact,
    request: RunRequest,
    reference: Reference,
}

/// A batch workload after set-up: compiled scripts, their references,
/// and the counts every job must reproduce.
pub struct Batch {
    scripts: Vec<Prepared>,
    expected: Option<Counts>,
}

pub fn engine_options(workers: usize) -> EngineOptions {
    EngineOptions::builder().workers(workers).build()
}

pub fn run_request(ranks: usize, workers: usize) -> RunRequest {
    RunRequest::on(otter_machine::meiko_cs2(), ranks).with_workers(workers)
}

impl Batch {
    /// Set-up: compile, interpreter references, verified warm-up jobs.
    pub fn setup(scripts: &[Script], workers: usize) -> Result<Batch, String> {
        let opts = engine_options(workers);
        let scripts = scripts
            .iter()
            .map(|s| {
                Ok(Prepared {
                    id: s.app.id,
                    artifact: compile(&s.app.script, &opts)
                        .map_err(|e| format!("{}: compile: {e}", s.app.id))?,
                    request: run_request(s.ranks, workers),
                    reference: reference(s)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut batch = Batch {
            scripts,
            expected: None,
        };
        let off = Recorder::new(false);
        for i in 0..WARMUP_JOBS {
            if let Some(e) = batch.job(&off, 0).error {
                return Err(format!("warm-up job {i}: {e}"));
            }
        }
        Ok(batch)
    }

    pub fn counts(&self) -> Counts {
        self.expected.expect("set-up ran warm-up jobs")
    }

    /// One job: `run` every script in order (the timed part), then
    /// verify results against the references and counts against the
    /// first job's.
    pub fn job(&mut self, rec: &Recorder, job: u64) -> Outcome {
        let (wall_ms, checked) = rec.span("job", None, job, |span| {
            let started = Instant::now();
            let reports: Vec<_> = self
                .scripts
                .iter()
                .map(|s| rec.span("core.run", span, job, |_| run(&s.artifact, &s.request)))
                .collect();
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            let checked = rec.span("oracle.verify", span, job, |_| {
                let mut counts = Counts::default();
                for (s, report) in self.scripts.iter().zip(&reports) {
                    let report = report.as_ref().map_err(|e| format!("{}: {e}", s.id))?;
                    verify(s.id, &s.reference, |v| report.scalar(v))?;
                    counts.add(report);
                }
                Ok(counts)
            });
            (wall_ms, checked)
        });
        let error = match (checked, self.expected) {
            (Err(e), _) => Some(e),
            (Ok(counts), None) => {
                self.expected = Some(counts);
                None
            }
            (Ok(counts), Some(first)) if counts != first => Some(format!(
                "exact counts differ between jobs: {counts:?} vs {first:?}"
            )),
            _ => None,
        };
        Outcome {
            wall_ms,
            error,
            serve: None,
        }
    }

    /// Measure jobs on one thread until `limit`.
    pub fn measure(self, limit: Limit, rec: Arc<Recorder>) -> (Collected, Option<Batch>) {
        let (collected, states) = drive(vec![self], limit, move |b, job| b.job(&rec, job));
        (collected, states.and_then(|mut s| s.pop()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_is_relative_above_one_and_absolute_below() {
        assert!(close(1e6, 1e6 * (1.0 + 5e-10)));
        assert!(!close(1e6, 1e6 * (1.0 + 5e-9)));
        assert!(
            close(1e-120, 3e-121),
            "noise-level residuals compare absolutely"
        );
        assert!(!close(1.0, f64::NAN));
        assert!(!close(0.0, 1e-8));
    }

    #[test]
    fn drive_counts_jobs_and_returns_states() {
        let (c, states) = drive(vec![0u64, 0u64], Limit::Count(5), |n, _| {
            *n += 1;
            Outcome {
                wall_ms: 1.0,
                error: (*n == 3).then(|| "third".to_string()),
                serve: None,
            }
        });
        assert_eq!((c.attempted(), c.failed()), (10, 2));
        assert_eq!(states, Some(vec![5, 5]));
    }

    #[test]
    fn batch_jobs_verify_against_the_interpreter_and_repeat_their_counts() {
        let w = crate::workloads::build("spmd-p4", 11).unwrap();
        // Test-scale stand-ins keep the unit test fast.
        let scripts: Vec<Script> = otter_apps::test_apps()
            .into_iter()
            .zip(&w.scripts)
            .map(|(app, s)| Script { app, ..s.clone() })
            .collect();
        let batch = Batch::setup(&scripts, 2).unwrap();
        let counts = batch.counts();
        assert!(counts.messages > 0 && counts.ops > 0 && counts.modeled_seconds() > 0.0);
        let rec = Arc::new(Recorder::new(true));
        let (c, batch) = batch.measure(Limit::Count(4), Arc::clone(&rec));
        assert_eq!((c.attempted(), c.failed()), (4, 0));
        assert_eq!(batch.unwrap().counts(), counts);
        let spans = rec.take();
        assert_eq!(spans.iter().filter(|s| s.name == "job").count(), 4);
        assert_eq!(spans.iter().filter(|s| s.name == "core.run").count(), 16);
    }

    #[test]
    fn a_wrong_reference_is_a_failed_job() {
        let w = crate::workloads::build("spmd-p4", 11).unwrap();
        let mut script = w.scripts[1].clone();
        script.app = otter_apps::test_apps().remove(1);
        let mut batch = Batch::setup(&[script], 2).unwrap();
        batch.scripts[0].reference[0].1 += 1.0;
        let out = batch.job(&Recorder::new(false), 1);
        assert!(out.error.unwrap().contains("reference"));
    }
}
