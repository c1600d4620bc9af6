//! Job admission onto the fixed worker pool.
//!
//! The virtual-rank scheduler multiplexes any number of logical ranks
//! over `W` workers, but each concurrent *job* still spins up its own
//! pool. A long-lived service (`otterd`) therefore needs a gate in
//! front of [`crate::run_spmd_with`]: a counting semaphore over a
//! worker budget, so ten simultaneous compile-and-run requests share
//! the host instead of each claiming full parallelism. Admission is
//! FIFO-fair by condvar wakeup order; a job asking for more workers
//! than the budget is clamped rather than deadlocked, so a single
//! oversized request still runs (alone).

use std::sync::{Arc, Condvar, Mutex};

/// A counting semaphore over a fixed worker budget. Cloning shares the
/// budget (both halves gate the same pool).
#[derive(Debug, Clone)]
pub struct JobGate {
    inner: Arc<GateInner>,
}

#[derive(Debug)]
struct GateInner {
    total: usize,
    free: Mutex<usize>,
    cond: Condvar,
}

/// An admitted job's worker allocation; workers return to the gate on
/// drop, so a panicking job cannot leak budget.
#[derive(Debug)]
pub struct JobPermit {
    gate: Arc<GateInner>,
    granted: usize,
}

impl JobGate {
    /// A gate over `total` workers (clamped up to at least 1).
    pub fn new(total: usize) -> Self {
        JobGate {
            inner: Arc::new(GateInner {
                total: total.max(1),
                free: Mutex::new(total.max(1)),
                cond: Condvar::new(),
            }),
        }
    }

    /// The fixed worker budget.
    pub fn total(&self) -> usize {
        self.inner.total
    }

    /// Workers not currently allocated to a job.
    pub fn available(&self) -> usize {
        *self.inner.free.lock().unwrap()
    }

    /// Block until `want` workers are free, then take them. Requests
    /// larger than the whole budget are clamped to it — the job runs
    /// with every worker rather than waiting forever; requests of 0
    /// are raised to 1 (a job always needs one worker).
    pub fn admit(&self, want: usize) -> JobPermit {
        let want = want.clamp(1, self.inner.total);
        let mut free = self.inner.free.lock().unwrap();
        while *free < want {
            free = self.inner.cond.wait(free).unwrap();
        }
        *free -= want;
        JobPermit {
            gate: Arc::clone(&self.inner),
            granted: want,
        }
    }
}

impl JobPermit {
    /// How many workers this job was granted (its clamped request).
    pub fn workers(&self) -> usize {
        self.granted
    }
}

impl Drop for JobPermit {
    fn drop(&mut self) {
        let mut free = self.gate.free.lock().unwrap();
        *free += self.granted;
        // More than one waiter may now fit; wake them all and let the
        // admit loops re-check.
        self.gate.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn grants_and_returns_workers() {
        let gate = JobGate::new(4);
        assert_eq!(gate.total(), 4);
        let a = gate.admit(3);
        assert_eq!(a.workers(), 3);
        assert_eq!(gate.available(), 1);
        drop(a);
        assert_eq!(gate.available(), 4);
    }

    #[test]
    fn oversized_requests_are_clamped() {
        let gate = JobGate::new(2);
        let p = gate.admit(100);
        assert_eq!(p.workers(), 2);
        assert_eq!(gate.available(), 0);
    }

    #[test]
    fn zero_requests_need_one_worker() {
        let gate = JobGate::new(2);
        let p = gate.admit(0);
        assert_eq!(p.workers(), 1);
        assert_eq!(gate.available(), 1);
    }

    #[test]
    fn blocked_jobs_run_after_release() {
        let gate = JobGate::new(2);
        let first = gate.admit(2);
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let gate = gate.clone();
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    let permit = gate.admit(1);
                    let in_flight = 2 - gate.available();
                    peak.fetch_max(in_flight, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    drop(permit);
                })
            })
            .collect();
        // Nothing can start until the first job gives its pool back.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(gate.available(), 0);
        drop(first);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(gate.available(), 2);
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }
}
