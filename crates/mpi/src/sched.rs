//! Worker-slot scheduler: multiplexes `p` virtual ranks over a fixed
//! pool of `W` execution slots.
//!
//! A logical rank is a *schedulable task*, not a dedicated OS thread.
//! Each rank does run on its own small-stack carrier thread (arbitrary
//! rank closures cannot be suspended mid-call without coroutines), but
//! at most `W` carriers execute at any moment: a rank must hold one of
//! `W` worker slots to run, and a rank that blocks in `recv` *parks* —
//! it releases its slot back to the pool and sleeps on its own condvar,
//! costing nothing but a parked stack until a message (or a verdict)
//! wakes it. This is the scheduler-activations shape: the slot pool
//! bounds concurrency, the carrier threads preserve blocked state.
//!
//! Handoff is direct and FIFO: `release` gives the freed slot straight
//! to the longest-waiting rank (waking exactly that rank's condvar)
//! instead of incrementing a shared semaphore and letting every waiter
//! stampede. With `W >= p` no rank ever queues, which is how the
//! pooled scheduler stays byte-identical to the seed's
//! thread-per-rank behavior.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// One rank's park flag: `granted` is set by the releasing rank when
/// it hands its slot over, under the slot's own mutex so only the one
/// chosen waiter wakes.
struct ParkSlot {
    granted: Mutex<bool>,
    cv: Condvar,
}

/// Slot-pool bookkeeping, guarded by one mutex: free slots and the
/// FIFO of ranks waiting for one.
struct SchedState {
    free: usize,
    ready: VecDeque<usize>,
}

/// The per-job scheduler shared by every rank's [`crate::Comm`].
pub(crate) struct Scheduler {
    state: Mutex<SchedState>,
    slots: Vec<ParkSlot>,
    /// Times a rank had to queue for a slot (its acquire did not find
    /// one free). Purely observational — never read on the hot path.
    parks: AtomicU64,
}

impl Scheduler {
    /// A pool of `workers` slots serving ranks `0..p`.
    pub fn new(workers: usize, p: usize) -> Self {
        debug_assert!(workers >= 1, "a pool needs at least one worker");
        Scheduler {
            state: Mutex::new(SchedState {
                free: workers,
                ready: VecDeque::new(),
            }),
            slots: (0..p)
                .map(|_| ParkSlot {
                    granted: Mutex::new(false),
                    cv: Condvar::new(),
                })
                .collect(),
            parks: AtomicU64::new(0),
        }
    }

    /// Times a rank queued for a slot over the job's lifetime.
    #[cfg(test)]
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Block until `rank` holds a worker slot. Called once at rank
    /// start and again after every park; the caller must not already
    /// hold a slot.
    pub fn acquire(&self, rank: usize) {
        {
            let mut st = self.state.lock().unwrap();
            if st.free > 0 {
                st.free -= 1;
                return;
            }
            st.ready.push_back(rank);
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[rank];
        let mut granted = slot.granted.lock().unwrap();
        while !*granted {
            granted = slot.cv.wait(granted).unwrap();
        }
        // Consume the grant so the next acquire by this rank waits
        // again instead of reusing a stale flag.
        *granted = false;
    }

    /// Give this rank's worker slot back: hand it directly to the
    /// longest-queued rank, or return it to the free pool when nobody
    /// waits. Called when a rank parks in a blocked receive and when
    /// it finishes.
    pub fn release(&self) {
        let next = {
            let mut st = self.state.lock().unwrap();
            match st.ready.pop_front() {
                Some(r) => r,
                None => {
                    st.free += 1;
                    return;
                }
            }
        };
        let slot = &self.slots[next];
        *slot.granted.lock().unwrap() = true;
        slot.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn pool_never_exceeds_worker_count() {
        let p = 32;
        let workers = 3;
        let sched = Arc::new(Scheduler::new(workers, p));
        let running = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for rank in 0..p {
                let sched = Arc::clone(&sched);
                let running = Arc::clone(&running);
                let high_water = Arc::clone(&high_water);
                scope.spawn(move || {
                    for _ in 0..10 {
                        sched.acquire(rank);
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        high_water.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        running.fetch_sub(1, Ordering::SeqCst);
                        sched.release();
                    }
                });
            }
        });
        let peak = high_water.load(Ordering::SeqCst);
        assert!(
            peak <= workers,
            "{peak} ranks ran concurrently on a {workers}-slot pool"
        );
        // Whether 32 threads ever collided is up to the OS, so force a
        // queue: hold every slot, start one more rank, and it must park.
        for rank in 0..workers {
            sched.acquire(rank);
        }
        let parks_before = sched.parks();
        std::thread::scope(|scope| {
            let waiter = Arc::clone(&sched);
            scope.spawn(move || {
                waiter.acquire(workers);
                waiter.release();
            });
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while sched.parks() == parks_before && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            // Release before asserting: the parked rank must finish
            // for the scope to end.
            let parked = sched.parks() > parks_before;
            for _ in 0..workers {
                sched.release();
            }
            assert!(
                parked,
                "a rank must queue while all {workers} slots are held"
            );
        });
    }

    #[test]
    fn uncontended_pool_never_parks() {
        let p = 4;
        let sched = Arc::new(Scheduler::new(p, p));
        std::thread::scope(|scope| {
            for rank in 0..p {
                let sched = Arc::clone(&sched);
                scope.spawn(move || {
                    for _ in 0..100 {
                        sched.acquire(rank);
                        sched.release();
                    }
                });
            }
        });
        assert_eq!(sched.parks(), 0, "W >= p must behave like a free pool");
    }

    #[test]
    fn release_hands_off_in_fifo_order() {
        // One slot, taken up front; ranks 1 and 2 queue in order and
        // must be granted in that order.
        let sched = Arc::new(Scheduler::new(1, 3));
        sched.acquire(0);
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for rank in [1usize, 2] {
                let sched_for_thread = Arc::clone(&sched);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    sched_for_thread.acquire(rank);
                    order.lock().unwrap().push(rank);
                    sched_for_thread.release();
                });
                // Let the spawned thread enqueue before the next one.
                while sched.parks() < rank as u64 {
                    std::thread::yield_now();
                }
            }
            sched.release();
        });
        assert_eq!(*order.lock().unwrap(), vec![1, 2]);
    }
}
