//! SPMD job launcher: schedules `p` *virtual ranks* over a fixed pool
//! of `W` workers, collecting either every rank's result or a
//! structured per-rank failure report.
//!
//! Rank 0 runs on the caller's thread and every other rank on a
//! carrier thread of the process-wide pool (`crate::pool::join_all`),
//! so a warm process starts a job without spawning. At most `W`
//! carriers execute at once (see `crate::sched`): a rank that blocks
//! in `recv` parks — it releases its worker slot and sleeps on its own
//! mailbox — so thousands of logical ranks multiplex over a handful of
//! workers. With `W >= p` no rank ever queues and behavior is
//! identical to one-thread-per-rank.
//!
//! A parked rank has no timer to poll on: a push, a finishing peer or
//! a deadlock verdict wakes it, and the wait-for graph is walked once
//! per park (see `crate::state`). The only clock is the 30 s stall
//! fallback for a peer that is alive but silent while the whole job
//! is quiet; no option tunes any of it.

use crate::collectives::CollectiveAlgo;
use crate::comm::Comm;
use crate::error::CommError;
use crate::fault::FaultPlan;
use crate::mailbox::Mailbox;
use crate::observe::{CommStats, Event, Note, Observations};
use crate::pool;
use crate::sched::Scheduler;
use crate::state::JobState;
use otter_log::{FlightEvent, JobId, DEFAULT_RECORDER_CAPACITY};
use otter_machine::Machine;
use otter_metrics::MetricsSnapshot;
use otter_trace::TraceSink;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// The worker-pool size used when [`SpmdOptions::workers`] is `None`:
/// the host's available parallelism (falling back to 4 when the host
/// will not say).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// What one rank produced: its return value, final virtual clock, and
/// communication counters.
#[derive(Debug, Clone)]
pub struct RankResult<R> {
    pub rank: usize,
    pub value: R,
    pub clock: f64,
    pub stats: CommStats,
    /// Frozen per-rank metric registry; `None` unless the job ran with
    /// [`SpmdOptions::metrics`] on.
    pub metrics: Option<MetricsSnapshot>,
    /// The rank's flight-recorder tail (always on; bounded by
    /// [`SpmdOptions::recorder_capacity`]), oldest first.
    pub flight: Vec<FlightEvent>,
}

/// Launch-time configuration for an SPMD job.
#[derive(Clone)]
pub struct SpmdOptions {
    /// Schedule the un-suffixed collective methods use on every rank.
    pub algo: CollectiveAlgo,
    /// Event sink shared by every rank; `None` means tracing is off
    /// (ranks skip event construction entirely).
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Give every rank its own metric registry, snapshotted into
    /// [`RankResult::metrics`] when the rank finishes. Off by default:
    /// the disabled path never constructs a registry or a key.
    pub metrics: bool,
    /// Deterministic fault-injection schedule; `None` (the default)
    /// costs one branch per comm op and perturbs nothing.
    pub faults: Option<FaultPlan>,
    /// Size of the worker pool the virtual ranks are scheduled over.
    /// `None` (the default) uses [`default_workers`]; the effective
    /// pool is capped at `p` since extra workers could never run.
    /// `Some(0)` is an [`CommError::InvalidConfig`].
    pub workers: Option<usize>,
    /// Correlation key stamped on every observability artifact this
    /// job produces (flight events, failure reports, postmortems).
    /// Purely observational: it never affects modeled results.
    /// `JobId(0)` (the default) means "not correlated".
    pub job_id: JobId,
    /// Per-rank flight-recorder ring capacity (events, not bytes).
    /// The recorder is always on; this bounds its memory.
    pub recorder_capacity: usize,
}

impl Default for SpmdOptions {
    fn default() -> Self {
        SpmdOptions {
            algo: CollectiveAlgo::default(),
            trace: None,
            metrics: false,
            faults: None,
            workers: None,
            job_id: JobId(0),
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
        }
    }
}

/// How one rank failed, with the partial state it had accumulated.
#[derive(Debug, Clone)]
pub struct RankFailure {
    pub rank: usize,
    pub error: CommError,
    /// Ranks that were blocked waiting on this rank when the job
    /// ended (the inverted wait-for snapshot: "who was stuck on the
    /// dead rank").
    pub blocked_peers: Vec<usize>,
    /// Virtual clock when the rank failed.
    pub clock: f64,
    /// Counters up to the failure point.
    pub stats: CommStats,
    /// Partial metric registry, when metrics were on.
    pub metrics: Option<MetricsSnapshot>,
    /// The rank's flight-recorder tail at the moment of failure,
    /// oldest first — the event context a postmortem bundles up.
    pub flight: Vec<FlightEvent>,
}

/// The value-erased portion of a job failure: which ranks failed and
/// why. Engines propagate this upward without knowing the rank return
/// type.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Total ranks in the job.
    pub size: usize,
    /// Every failed rank, ordered by rank id.
    pub failures: Vec<RankFailure>,
    /// Ranks that completed the program.
    pub survivor_ranks: Vec<usize>,
}

impl FailureReport {
    /// The failed rank with the lowest id whose failure is primary
    /// (not a reaction to another rank's death), falling back to the
    /// first failure. "Primary" means anything that is not
    /// peer-terminated: a crash, a panic, a typed misuse, a deadlock.
    pub fn root_cause(&self) -> &RankFailure {
        self.failures
            .iter()
            .find(|f| !matches!(f.error, CommError::PeerTerminated { .. }))
            .unwrap_or(&self.failures[0])
    }
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "SPMD job failed: {} of {} rank(s)",
            self.failures.len(),
            self.size
        )?;
        for rf in &self.failures {
            write!(f, "  rank {}: {}", rf.rank, rf.error)?;
            if !rf.blocked_peers.is_empty() {
                write!(f, " [blocked peers:")?;
                for p in &rf.blocked_peers {
                    write!(f, " {p}")?;
                }
                write!(f, "]")?;
            }
            writeln!(f)?;
        }
        write!(f, "  survivors: {:?}", self.survivor_ranks)
    }
}

/// A failed SPMD job: the report plus everything the surviving ranks
/// produced (full results, stats, and metrics — traces live in the
/// caller's sink and are already complete up to the failure).
#[derive(Debug)]
pub struct JobFailure<R> {
    pub report: FailureReport,
    /// Results of the ranks that completed the program, ordered by
    /// rank id.
    pub survivors: Vec<RankResult<R>>,
}

impl<R> std::fmt::Display for JobFailure<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.report.fmt(f)
    }
}

impl<R: std::fmt::Debug> std::error::Error for JobFailure<R> {}

/// What a launched job yields: every rank's result, or the failure
/// report with the survivors' partial output.
pub type JobResult<R> = Result<Vec<RankResult<R>>, JobFailure<R>>;

/// Run `body` on `p` ranks over the given machine model with default
/// options (tree collectives, no tracing, no faults); results ordered
/// by rank.
///
/// The modeled parallel execution time of the job is the maximum final
/// clock over ranks — loosely synchronous SPMD programs end when their
/// slowest rank does.
///
/// Any rank failure (a returned [`CommError`] or a panic in `body`)
/// aborts the whole job with a panic carrying the formatted
/// [`FailureReport`], matching `MPI_Abort` semantics closely enough
/// for test purposes. Callers that want the report as data use
/// [`run_spmd_with`].
pub fn run_spmd<R, F>(machine: &Machine, p: usize, body: F) -> Vec<RankResult<R>>
where
    R: Send,
    F: Fn(&mut Comm) -> Result<R, CommError> + Sync,
{
    match run_spmd_with(machine, p, SpmdOptions::default(), body) {
        Ok(results) => results,
        Err(failure) => panic!("{}", failure.report),
    }
}

/// One rank's raw outcome, before job-level assembly.
enum RankOutcome<R> {
    Ok(RankResult<R>),
    Failed(RankFailure),
}

/// Run one rank to completion on its carrier thread: claim a worker
/// slot, run the body (panics are caught at this boundary and
/// converted into [`CommError::Panicked`]), publish the rank's final
/// state to the wait-for registry, wake the peers parked on it, and
/// give the slot back.
fn run_rank<R, F>(mut comm: Comm, body: &F) -> RankOutcome<R>
where
    F: Fn(&mut Comm) -> Result<R, CommError>,
{
    let rank = comm.rank();
    let job = Arc::clone(comm.job());
    comm.acquire_worker();
    let result = match catch_unwind(AssertUnwindSafe(|| body(&mut comm))) {
        Ok(r) => r,
        Err(payload) => Err(CommError::Panicked {
            rank,
            message: panic_message(payload),
        }),
    };
    job.set_done(rank, result.is_ok());
    job.note_progress();
    comm.wake_ranks_blocked_on_me();
    comm.record(Event::Note(match &result {
        Ok(_) => Note::RankDone,
        Err(e) => Note::RankFailed { rank: e.rank() },
    }));
    let Observations {
        clock,
        stats,
        metrics,
    } = comm.freeze();
    let flight = comm.flight();
    comm.release_worker();
    match result {
        Ok(value) => RankOutcome::Ok(RankResult {
            rank,
            value,
            clock,
            stats,
            metrics,
            flight,
        }),
        Err(error) => RankOutcome::Failed(RankFailure {
            rank,
            error,
            blocked_peers: Vec::new(), // filled in at job assembly
            clock,
            stats,
            metrics,
            flight,
        }),
    }
}

/// A launch-time rejection: no rank ever ran, so the report carries a
/// single [`CommError::InvalidConfig`] failure on rank 0 with zeroed
/// partial state and no survivors.
fn invalid_config<R>(p: usize, reason: &str) -> JobFailure<R> {
    JobFailure {
        report: FailureReport {
            size: p,
            failures: vec![RankFailure {
                rank: 0,
                error: CommError::InvalidConfig {
                    reason: reason.to_string(),
                },
                blocked_peers: Vec::new(),
                clock: 0.0,
                stats: CommStats::default(),
                metrics: None,
                flight: Vec::new(),
            }],
            survivor_ranks: Vec::new(),
        },
        survivors: Vec::new(),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`run_spmd`] with explicit [`SpmdOptions`], returning failures as
/// data instead of panicking: the [`JobFailure`] names every failed
/// rank, why it failed, and which peers were blocked on it, alongside
/// the surviving ranks' complete results.
pub fn run_spmd_with<R, F>(machine: &Machine, p: usize, opts: SpmdOptions, body: F) -> JobResult<R>
where
    R: Send,
    F: Fn(&mut Comm) -> Result<R, CommError> + Sync,
{
    if p == 0 {
        return Err(invalid_config(p, "an SPMD job needs at least one rank"));
    }
    if opts.workers == Some(0) {
        return Err(invalid_config(
            p,
            "the worker pool needs at least one worker",
        ));
    }
    // `machine.max_cpus` is a *modeling* parameter (it shapes message
    // times and node layout), not an execution limit: any p runs,
    // multiplexed over the worker pool.
    let workers = opts.workers.unwrap_or_else(default_workers).min(p);
    let machine = Arc::new(machine.clone());
    let job = Arc::new(JobState::new(p));
    let mailboxes: Arc<Vec<Mailbox>> = Arc::new((0..p).map(|_| Mailbox::new()).collect());
    let sched = Arc::new(Scheduler::new(workers, p));

    // Rank 0 runs on the caller, every other rank on a pooled thread;
    // each builds its own endpoint and leaves its outcome in its slot.
    let slots: Vec<Mutex<Option<RankOutcome<R>>>> = (0..p).map(|_| Mutex::new(None)).collect();
    pool::join_all(p, &|r| {
        let comm = Comm::new(
            r,
            p,
            Arc::clone(&machine),
            Arc::clone(&mailboxes),
            Arc::clone(&sched),
            &opts,
            Arc::clone(&job),
        );
        *slots[r].lock().expect("a rank's slot is never poisoned") = Some(run_rank(comm, &body));
    });

    // Slots are in rank order, so both lists are too.
    let mut results: Vec<RankResult<R>> = Vec::new();
    let mut failures: Vec<RankFailure> = Vec::new();
    for slot in slots {
        match slot.into_inner().ok().flatten().expect("every rank ran") {
            RankOutcome::Ok(r) => results.push(r),
            RankOutcome::Failed(f) => failures.push(f),
        }
    }
    if failures.is_empty() {
        return Ok(results);
    }

    // Invert the wait-for edges: each failed rank learns which peers
    // were blocked on it when the job ended.
    let waiting_edges: Vec<(usize, usize)> = failures
        .iter()
        .filter_map(|f| f.error.waiting_on().map(|on| (f.rank, on)))
        .collect();
    for f in &mut failures {
        f.blocked_peers = waiting_edges
            .iter()
            .filter(|&&(_, on)| on == f.rank)
            .map(|&(waiter, _)| waiter)
            .collect();
    }
    Err(JobFailure {
        report: FailureReport {
            size: p,
            failures,
            survivor_ranks: results.iter().map(|r| r.rank).collect(),
        },
        survivors: results,
    })
}

/// The modeled parallel runtime of a finished job: max final clock.
pub fn job_time<R>(results: &[RankResult<R>]) -> f64 {
    results.iter().map(|r| r.clock).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReduceOp;
    use otter_machine::meiko_cs2;
    use otter_trace::{critical_path, timelines, MemorySink};

    #[test]
    fn ranks_are_ordered_and_complete() {
        let res = run_spmd(&meiko_cs2(), 8, |c| Ok(c.rank() * 10));
        assert_eq!(res.len(), 8);
        for (i, r) in res.iter().enumerate() {
            assert_eq!(r.rank, i);
            assert_eq!(r.value, i * 10);
        }
    }

    #[test]
    fn single_rank_runs_inline() {
        let res = run_spmd(&meiko_cs2(), 1, |c| {
            assert_eq!(c.size(), 1);
            Ok("done")
        });
        assert_eq!(res[0].value, "done");
    }

    #[test]
    fn more_ranks_than_cpus_is_allowed() {
        // max_cpus (16 on the Meiko) is a modeling parameter now, not
        // an execution limit: ranks are virtual.
        let res = run_spmd(&meiko_cs2(), 17, |c| Ok(c.rank()));
        assert_eq!(res.len(), 17);
        assert!(res.iter().enumerate().all(|(i, r)| r.value == i));
    }

    #[test]
    fn zero_ranks_is_invalid_config() {
        let res = run_spmd_with(&meiko_cs2(), 0, SpmdOptions::default(), |_| Ok(()));
        let failure = res.unwrap_err();
        assert_eq!(failure.report.failures.len(), 1);
        let f = &failure.report.failures[0];
        assert_eq!(f.rank, 0);
        assert_eq!(f.error.code(), "invalid_config");
        assert!(
            f.error.to_string().contains("at least one rank"),
            "{}",
            f.error
        );
        assert!(failure.report.survivor_ranks.is_empty());
        assert!(failure.survivors.is_empty());
    }

    #[test]
    fn zero_workers_is_invalid_config() {
        let opts = SpmdOptions {
            workers: Some(0),
            ..SpmdOptions::default()
        };
        let res = run_spmd_with(&meiko_cs2(), 4, opts, |_| Ok(()));
        let failure = res.unwrap_err();
        assert_eq!(failure.report.failures[0].error.code(), "invalid_config");
        assert!(
            failure.report.to_string().contains("at least one worker"),
            "{}",
            failure.report
        );
    }

    #[test]
    fn oversubscribed_pool_gives_identical_results() {
        // The virtual clock depends only on the program and the
        // machine model, never on how ranks are multiplexed: a
        // one-worker pool must reproduce the dedicated pool bit for
        // bit.
        let run = |workers: Option<usize>| {
            let opts = SpmdOptions {
                workers,
                ..SpmdOptions::default()
            };
            run_spmd_with(&meiko_cs2(), 8, opts, |c| {
                c.compute((c.rank() as f64 + 1.0) * 1e5);
                let s = c.allreduce_scalar(c.rank() as f64, ReduceOp::Sum)?;
                Ok((s.to_bits(), c.clock().to_bits()))
            })
            .unwrap()
            .iter()
            .map(|r| (r.value, r.clock.to_bits(), r.stats))
            .collect::<Vec<_>>()
        };
        let dedicated = run(Some(8));
        assert_eq!(run(Some(1)), dedicated, "W=1");
        assert_eq!(run(Some(2)), dedicated, "W=2");
    }

    #[test]
    fn deadlock_is_diagnosed_without_a_confirm_sleep() {
        // The last rank to park proves the cycle from one snapshot and
        // wakes the other: no window to sleep out, so a p=2 diagnosis
        // costs about as much as spawning the job.
        let diagnose = || {
            let t0 = std::time::Instant::now();
            let failure = run_spmd_with(&meiko_cs2(), 2, SpmdOptions::default(), |c| {
                c.recv(1 - c.rank())?;
                Ok(())
            })
            .unwrap_err();
            for f in &failure.report.failures {
                assert_eq!(f.error.code(), "deadlock", "{}", f.error);
            }
            t0.elapsed()
        };
        let best = (0..3).map(|_| diagnose()).min().unwrap();
        assert!(
            best < std::time::Duration::from_millis(50),
            "best of 3 took {best:?}"
        );
    }

    #[test]
    fn job_time_is_max_clock() {
        let res = run_spmd(&meiko_cs2(), 4, |c| {
            c.compute((c.rank() as f64 + 1.0) * 1e6);
            Ok(())
        });
        let t = job_time(&res);
        assert!((t - res[3].clock).abs() < 1e-15);
        assert!(t > res[0].clock);
    }

    #[test]
    fn traced_job_critical_path_matches_job_time() {
        let sink = Arc::new(MemorySink::new());
        let opts = SpmdOptions {
            trace: Some(sink.clone() as Arc<dyn TraceSink>),
            ..SpmdOptions::default()
        };
        let res = run_spmd_with(&meiko_cs2(), 4, opts, |c| {
            c.compute((c.rank() as f64 + 1.0) * 1e6);
            c.allreduce_scalar(1.0, crate::ReduceOp::Sum)
        })
        .unwrap();
        let events = sink.snapshot().unwrap();
        let cp = critical_path(&events);
        let t = job_time(&res);
        assert!((cp.total - t).abs() < 1e-12, "cp={} job={t}", cp.total);
        // The chain decomposes into compute + transfer time exactly.
        assert!((cp.compute + cp.comm - cp.total).abs() < 1e-9);
        // Every rank's timeline tiles its clock.
        for tl in timelines(&events) {
            let r = &res[tl.rank];
            assert!(
                (tl.compute + tl.comm + tl.idle - r.clock).abs() < 1e-9,
                "rank {}",
                tl.rank
            );
        }
    }

    #[test]
    fn deadlock_cycle_is_diagnosed_fast_with_both_edges() {
        // Ranks 0 and 1 each wait for the other: a classic 2-cycle.
        let t0 = std::time::Instant::now();
        let res = run_spmd_with(&meiko_cs2(), 2, SpmdOptions::default(), |c| {
            let peer = 1 - c.rank();
            let v = c.recv(peer)?; // nobody ever sends
            c.send(peer, &v)?;
            Ok(())
        });
        let failure = res.unwrap_err();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "diagnosis must come from the wait-for graph, not a 60s timeout"
        );
        assert_eq!(failure.report.failures.len(), 2);
        assert!(failure.report.survivor_ranks.is_empty());
        for f in &failure.report.failures {
            let peer = 1 - f.rank;
            assert_eq!(f.error.code(), "deadlock", "{}", f.error);
            assert_eq!(f.error.waiting_on(), Some(peer));
            // Each rank's report names the peer that was stuck on it.
            assert_eq!(f.blocked_peers, vec![peer]);
            match &f.error {
                CommError::Deadlock { cycle, .. } => {
                    assert_eq!(cycle.len(), 2);
                    assert_eq!(cycle[0].waiter, 0, "cycle is canonicalized");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn crash_at_p8_names_dead_rank_and_blocked_peers() {
        // The acceptance scenario: rank 3 is killed by the fault plan
        // at its first comm op. Ranks 2 and 4 are blocked on it; ranks
        // 5..8 never talk to it and survive with their stats intact.
        let opts = SpmdOptions {
            metrics: true,
            faults: Some(FaultPlan::new().crash(3, 1)),
            ..SpmdOptions::default()
        };
        let res = run_spmd_with(&meiko_cs2(), 8, opts, |c| {
            match c.rank() {
                2 => {
                    c.send(3, &[2.0])?;
                    c.recv(3)?;
                }
                4 => {
                    c.recv(3)?;
                }
                3 => {
                    let v = c.recv(2)?;
                    c.send(2, &v)?;
                    c.send(4, &[3.0])?;
                }
                0 | 1 => {
                    // An independent pair that completes normally.
                    let peer = 1 - c.rank();
                    if c.rank() == 0 {
                        c.send(peer, &[0.5])?;
                    } else {
                        c.recv(peer)?;
                    }
                }
                _ => c.compute(1e6),
            }
            Ok(c.rank())
        });
        let failure = res.unwrap_err();
        let report = &failure.report;
        assert_eq!(report.size, 8);
        // Rank 3 died by injection; 2 and 4 report the dead peer.
        let failed: Vec<usize> = report.failures.iter().map(|f| f.rank).collect();
        assert_eq!(failed, vec![2, 3, 4]);
        let f3 = report.failures.iter().find(|f| f.rank == 3).unwrap();
        assert_eq!(f3.error.code(), "injected_crash");
        assert_eq!(f3.blocked_peers, vec![2, 4], "peers blocked on rank 3");
        assert_eq!(report.root_cause().rank, 3);
        for r in [2usize, 4] {
            let f = report.failures.iter().find(|f| f.rank == r).unwrap();
            assert_eq!(f.error.code(), "peer_terminated");
            assert_eq!(f.error.waiting_on(), Some(3));
        }
        // Survivors kept complete results, stats, and metrics.
        assert_eq!(report.survivor_ranks, vec![0, 1, 5, 6, 7]);
        assert_eq!(failure.survivors.len(), 5);
        let s0 = failure.survivors.iter().find(|r| r.rank == 0).unwrap();
        assert_eq!(s0.stats.messages_sent, 1);
        assert!(s0.metrics.is_some(), "partial metrics intact");
        let s5 = failure.survivors.iter().find(|r| r.rank == 5).unwrap();
        assert!(s5.stats.compute_time > 0.0);
        // The formatted report names everything CI greps for.
        let text = report.to_string();
        assert!(text.contains("rank 3 crashed by fault plan"), "{text}");
        assert!(text.contains("[blocked peers: 2 4]"), "{text}");
        assert!(text.contains("survivors: [0, 1, 5, 6, 7]"), "{text}");
    }

    #[test]
    fn dropped_message_becomes_a_diagnosed_deadlock() {
        // Rank 0's first message to rank 1 is dropped; rank 1 then
        // waits for a packet that never comes while rank 0 waits for
        // the reply — a 2-cycle the detector must find.
        let opts = SpmdOptions {
            faults: Some(FaultPlan::new().drop_message(0, 1, 0)),
            ..SpmdOptions::default()
        };
        let t0 = std::time::Instant::now();
        let res = run_spmd_with(&meiko_cs2(), 2, opts, |c| {
            if c.rank() == 0 {
                c.send(1, &[1.0])?;
                c.recv(1)?;
            } else {
                let v = c.recv(0)?;
                c.send(0, &v)?;
            }
            Ok(())
        });
        let failure = res.unwrap_err();
        assert!(t0.elapsed() < std::time::Duration::from_secs(10));
        for f in &failure.report.failures {
            assert_eq!(f.error.code(), "deadlock", "{}", f.error);
        }
        // The sender was charged for the dropped message.
        let f0 = &failure.report.failures[0];
        assert_eq!(f0.stats.messages_sent, 1);
    }

    #[test]
    fn delayed_message_shifts_virtual_time_only() {
        let run = |delay: Option<f64>| {
            let opts = SpmdOptions {
                faults: delay.map(|s| FaultPlan::new().delay_message(0, 1, 0, s)),
                ..SpmdOptions::default()
            };
            run_spmd_with(&meiko_cs2(), 2, opts, |c| {
                if c.rank() == 0 {
                    c.send(1, &[1.0])?;
                } else {
                    c.recv(0)?;
                }
                Ok(c.clock())
            })
            .unwrap()
        };
        let base = run(None);
        let delayed = run(Some(2.5));
        assert_eq!(base[0].value, delayed[0].value, "sender unaffected");
        let got = delayed[1].value - base[1].value;
        assert!((got - 2.5).abs() < 1e-12, "receiver delayed by 2.5s: {got}");
    }

    #[test]
    fn no_fault_plan_is_byte_identical() {
        let run = |opts: SpmdOptions| {
            run_spmd_with(&meiko_cs2(), 4, opts, |c| {
                c.compute(1e5);
                let s = c.allreduce_scalar(c.rank() as f64, ReduceOp::Sum)?;
                Ok((s, c.clock().to_bits()))
            })
            .unwrap()
            .iter()
            .map(|r| (r.value.0.to_bits(), r.value.1))
            .collect::<Vec<_>>()
        };
        // An empty plan (present but no actions) must match no plan.
        let without = run(SpmdOptions::default());
        let with_empty = run(SpmdOptions {
            faults: Some(FaultPlan::new()),
            ..SpmdOptions::default()
        });
        assert_eq!(without, with_empty);
    }

    #[test]
    fn body_panic_is_captured_not_propagated() {
        let res = run_spmd_with(&meiko_cs2(), 4, SpmdOptions::default(), |c| {
            if c.rank() == 2 {
                panic!("injected panic on rank 2");
            }
            c.allreduce_scalar(1.0, ReduceOp::Sum)
        });
        let failure = res.unwrap_err();
        let f2 = failure
            .report
            .failures
            .iter()
            .find(|f| f.rank == 2)
            .unwrap();
        assert_eq!(f2.error.code(), "panicked");
        assert!(
            f2.error.to_string().contains("injected panic"),
            "{}",
            f2.error
        );
        // Everyone else was blocked on the collective and reports the
        // dead peer rather than panicking themselves.
        for f in failure.report.failures.iter().filter(|f| f.rank != 2) {
            assert!(
                matches!(f.error.code(), "peer_terminated" | "deadlock"),
                "rank {}: {}",
                f.rank,
                f.error
            );
        }
    }

    #[test]
    fn seeded_fault_plans_reproduce_identical_reports() {
        let run = |seed: u64| {
            let opts = SpmdOptions {
                faults: Some(FaultPlan::seeded(seed, 4)),
                ..SpmdOptions::default()
            };
            run_spmd_with(&meiko_cs2(), 4, opts, |c| {
                let s = c.allreduce_scalar(1.0, ReduceOp::Sum)?;
                c.barrier()?;
                Ok(s)
            })
        };
        for seed in [0u64, 2, 4] {
            let a = run(seed);
            let b = run(seed);
            match (a, b) {
                (Err(fa), Err(fb)) => {
                    assert_eq!(fa.report.to_string(), fb.report.to_string(), "seed {seed}");
                }
                (Ok(_), Ok(_)) => {} // fault site past the program's op count
                _ => panic!("seed {seed}: runs disagreed on success"),
            }
        }
    }
}

#[cfg(test)]
mod detector_stress {
    use super::*;
    use crate::ReduceOp;
    use otter_machine::meiko_cs2;

    /// Regression stress for the chimera-cycle false positive: with
    /// thousands of ranks funneling through a small worker pool, the
    /// detector's walk reads slots at spread-out instants, and a rank
    /// that progresses mid-walk used to stitch waits from different
    /// allreduce phases into a "cycle" that never coexisted — the
    /// confirmation then re-anchored on fresh states instead of the
    /// walk's observations and blessed it. At p=3000 on a few workers
    /// this fired within a run or two. Ignored by default; CI's
    /// scaling smoke runs it with `--ignored`.
    #[test]
    #[ignore]
    fn tree_allreduce_loop_survives_p3000() {
        let res = run_spmd_with(&meiko_cs2(), 3000, SpmdOptions::default(), |c| {
            let mut acc = 0.0;
            for _ in 0..4 {
                acc = c.allreduce_scalar(1.0, ReduceOp::Sum)?;
            }
            Ok(acc)
        });
        match res {
            Ok(r) => assert_eq!(r[0].value, 3000.0),
            Err(f) => panic!("false deadlock: {}", f.report.root_cause().error),
        }
    }
}
