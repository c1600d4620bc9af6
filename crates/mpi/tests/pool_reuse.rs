//! The process-wide thread pool carries ranks 1..p of every job and
//! kernel helper parts, and a warm process starts a job without
//! spawning. Threads are counted from `/proc/self/status`, so this file
//! holds one test: nothing else in its process starts or ends a thread.

use otter_machine::meiko_cs2;
use otter_mpi::pool::{parallel_for, MAX_WORKERS};
use otter_mpi::{run_spmd_with, FaultPlan, SpmdOptions};
use std::time::{Duration, Instant};

/// Threads in this process right now.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

/// A p-rank job in which every rank talks, so none finishes before
/// all have started.
fn allreduce_job(p: usize) {
    let res = run_spmd_with(&meiko_cs2(), p, SpmdOptions::default(), |c| {
        c.allreduce_scalar(1.0, otter_mpi::ReduceOp::Sum)
    });
    assert!(res.unwrap().iter().all(|r| r.value == p as f64));
}

/// The fault-injection acceptance scenario: rank 3 crashes at its first
/// comm op, ranks 2 and 4 fail on it, the rest survive.
fn crash_job() {
    let opts = SpmdOptions {
        faults: Some(FaultPlan::new().crash(3, 1)),
        ..SpmdOptions::default()
    };
    let failure = run_spmd_with(&meiko_cs2(), 8, opts, |c| {
        match c.rank() {
            2 => {
                c.send(3, &[2.0])?;
                c.recv(3)?;
            }
            3 | 4 => {
                c.recv(2)?;
            }
            _ => c.compute(1e6),
        }
        Ok(())
    })
    .unwrap_err();
    assert_eq!(failure.report.root_cause().rank, 3);
}

/// Ranks 0 and 1 each wait for the other; the detector ends the job.
fn deadlock_job() {
    let failure = run_spmd_with(&meiko_cs2(), 8, SpmdOptions::default(), |c| {
        if c.rank() < 2 {
            c.recv_scalar(1 - c.rank())?;
        }
        Ok(())
    })
    .unwrap_err();
    assert_eq!(failure.report.failures.len(), 2);
}

#[test]
fn one_pool_carries_every_job() {
    let before_pool = threads();

    // Warm: the first p=4 job spawns its three carriers; the second
    // finds them parked and spawns none, and neither do kernel parts.
    allreduce_job(4);
    let warm = threads();
    assert_eq!(warm, before_pool + 3, "ranks 1..4 on new pooled threads");
    allreduce_job(4);
    assert_eq!(threads(), warm, "a warm p=4 job spawned a thread");
    parallel_for(16, 4, &|_| std::hint::black_box(()));
    assert_eq!(threads(), warm, "kernel parts spawned a thread");

    // A failed job hands every carrier back: the p=8 job after each
    // failure finds all seven parked and spawns none.
    allreduce_job(8);
    let warm = threads();
    for failed in [crash_job as fn(), deadlock_job] {
        failed();
        allreduce_job(8);
        assert_eq!(threads(), warm, "a carrier did not come back to the pool");
    }

    // A p=200 job needs 199 carriers at once; all but MAX_WORKERS of
    // them exit once their rank is done.
    allreduce_job(200);
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() > before_pool + MAX_WORKERS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), before_pool + MAX_WORKERS, "idle set not capped");
}
