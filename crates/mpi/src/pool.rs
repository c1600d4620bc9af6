//! The process-wide pool of parked threads that carries every SPMD
//! rank after the first and every kernel helper part.
//!
//! [`join_all`] is the one primitive: it runs part 0 on the caller and
//! hands each other part *at once* to an idle pooled thread, spawning
//! a new one (with a `CARRIER_STACK_BYTES` stack) when none is idle.
//! A part never waits in a queue: a rank blocked in `recv` needs all
//! its peers to be live, so a bounded queue could deadlock a job. When
//! its part is done a thread parks in the idle set again, on its own
//! condvar, unless [`MAX_WORKERS`] threads already idle there; then it
//! exits. So a warm process starts a p-rank job without spawning, and
//! how many ranks *run* at once is still the job's W-slot scheduler's
//! business (`crate::sched`), not the pool's.
//!
//! Properties callers rely on:
//!
//! * **Caller-blocking scope.** [`join_all`] returns only after every
//!   part has finished, which is what makes lending the caller's stack
//!   borrows to pooled threads sound (see the safety comments). A panic
//!   in any part is re-raised on the caller after that.
//! * **Thread-local state is the part's business.** A pooled thread
//!   may carry rank 3 of one job, a kernel helper part, then rank 1 of
//!   the next; whoever reads thread-local state (the executor's
//!   allocation counters and kernel budget) resets it when it starts.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Stack size of a pooled thread. Rank bodies are shallow (compiled
/// SPMD programs and test closures), so 1 MiB instead of the platform
/// default ~8 MiB is what makes p=4096 carriers feasible: reserved
/// address space stays at ~4 GiB and the *touched* pages are far
/// fewer.
const CARRIER_STACK_BYTES: usize = 1 << 20;

/// Most threads kept parked in the idle set; a thread finishing its
/// part while this many idle exits instead.
pub const MAX_WORKERS: usize = 64;

type Panic = Box<dyn Any + Send>;

/// One [`join_all`] call: the caller's body and the parts still out.
struct Join {
    /// The caller's body with its borrow lifetime erased to `'static`.
    /// Valid for exactly as long as the caller blocks in [`join_all`].
    body: *const (dyn Fn(usize) + Sync + 'static),
    /// Parts handed out and not yet finished, and the first panic.
    left: Mutex<(usize, Option<Panic>)>,
    done: Condvar,
}

// SAFETY: `body` is only dereferenced by a part that has not yet
// called `finish`, while the issuing caller blocks in `join_all`,
// which keeps the pointee alive; all other fields are Sync primitives.
unsafe impl Send for Join {}
unsafe impl Sync for Join {}

impl Join {
    fn run(&self, part: usize) -> Option<Panic> {
        // SAFETY: this part has not called `finish` yet, so the caller
        // is still blocked in `join_all` (see the struct invariant).
        let body = unsafe { &*self.body };
        catch_unwind(AssertUnwindSafe(|| body(part))).err()
    }

    /// Count one part finished; the body is not touched after this.
    fn finish(&self, panic: Option<Panic>) {
        let mut left = lock(&self.left);
        left.0 -= 1;
        if left.1.is_none() {
            left.1 = panic;
        }
        if left.0 == 0 {
            self.done.notify_one();
        }
    }
}

/// A parked thread's mailbox: the next part it is handed.
#[derive(Default)]
struct Idle {
    task: Mutex<Option<(Arc<Join>, usize)>>,
    wake: Condvar,
}

/// Parked threads, most recently parked last (taken first).
static IDLE: Mutex<Vec<Arc<Idle>>> = Mutex::new(Vec::new());

/// Nothing panics while holding a pool lock, but a poisoned one must
/// not turn into a panic between handing out a borrow and joining it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A pooled thread's life: run the part, park (or exit when the idle
/// set is full), take the next part.
fn carry(mut join: Arc<Join>, mut part: usize) {
    let me = Arc::new(Idle::default());
    loop {
        let panic = join.run(part);
        // Park before reporting, so that once `join_all` returns every
        // thread it used is already back in the idle set.
        let parked = {
            let mut idle = lock(&IDLE);
            let room = idle.len() < MAX_WORKERS;
            if room {
                idle.push(Arc::clone(&me));
            }
            room
        };
        join.finish(panic);
        if !parked {
            return;
        }
        let mut task = lock(&me.task);
        (join, part) = loop {
            match task.take() {
                Some(next) => break next,
                None => task = me.wake.wait(task).unwrap_or_else(PoisonError::into_inner),
            }
        };
    }
}

/// Start `part` of `join` on an idle thread, or on a new one.
fn hand(join: &Arc<Join>, part: usize) {
    let idle = lock(&IDLE).pop();
    if let Some(t) = idle {
        *lock(&t.task) = Some((Arc::clone(join), part));
        t.wake.notify_one();
        return;
    }
    let j = Arc::clone(join);
    let spawned = std::thread::Builder::new()
        .name("otter-pool".to_string())
        .stack_size(CARRIER_STACK_BYTES)
        .spawn(move || carry(j, part));
    if let Err(e) = spawned {
        join.finish(Some(Box::new(format!("pool thread spawn failed: {e}"))));
    }
}

/// Run `body(part)` for every `part` in `0..parts`, each on its own
/// thread at once: part 0 on the caller, the others on pooled threads.
/// Returns after every part has finished; a panic in any part (part
/// 0's first) is re-raised then.
pub fn join_all(parts: usize, body: &(dyn Fn(usize) + Sync)) {
    if parts <= 1 {
        (0..parts).for_each(body);
        return;
    }
    // SAFETY: erasing the borrow lifetime to 'static is sound because
    // nothing below unwinds (part 0 runs under `catch_unwind`, the pool
    // locks ignore poisoning, a failed spawn is counted as a panicked
    // part) and this function blocks until every handed-out part has
    // called `finish`, after which no thread dereferences `body`.
    let body: *const (dyn Fn(usize) + Sync + 'static) = unsafe {
        std::mem::transmute::<
            *const (dyn Fn(usize) + Sync + '_),
            *const (dyn Fn(usize) + Sync + 'static),
        >(std::ptr::from_ref(body))
    };
    let join = Arc::new(Join {
        body,
        left: Mutex::new((parts - 1, None)),
        done: Condvar::new(),
    });
    for part in 1..parts {
        hand(&join, part);
    }
    let own = join.run(0);
    let mut left = lock(&join.left);
    while left.0 > 0 {
        left = join.done.wait(left).unwrap_or_else(PoisonError::into_inner);
    }
    if let Some(panic) = own.or_else(|| left.1.take()) {
        drop(left);
        resume_unwind(panic);
    }
}

/// Run `body(part)` for every `part` in `0..parts` over up to `threads`
/// threads *including the caller*: a part counter drained inside
/// [`join_all`]. `threads <= 1` (or fewer than two parts) runs inline,
/// so a single-CPU budget never pays for synchronization.
pub fn parallel_for(parts: usize, threads: usize, body: &(dyn Fn(usize) + Sync)) {
    if threads <= 1 || parts <= 1 {
        (0..parts).for_each(body);
        return;
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    join_all(threads.min(parts).min(MAX_WORKERS + 1), &|_| loop {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if i >= parts {
            break;
        }
        body(i);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn covers_every_part_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let hits: Vec<AtomicU64> = (0..37).map(|_| AtomicU64::new(0)).collect();
            parallel_for(hits.len(), threads, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "part {i} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn more_threads_than_parts_is_fine() {
        let hits = AtomicU64::new(0);
        parallel_for(2, 16, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn zero_parts_is_a_noop() {
        parallel_for(0, 4, &|_| panic!("no parts to run"));
        join_all(0, &|_| panic!("no parts to run"));
    }

    #[test]
    fn writes_land_in_disjoint_chunks() {
        let mut data = vec![0.0f64; 64];
        let chunk = 16;
        {
            let base = data.as_mut_ptr() as usize;
            parallel_for(4, 4, &move |i| {
                // SAFETY: each part touches its own disjoint 16-element
                // chunk, and `data` outlives the blocking call.
                let slice = unsafe {
                    std::slice::from_raw_parts_mut((base as *mut f64).add(i * chunk), chunk)
                };
                for (j, v) in slice.iter_mut().enumerate() {
                    *v = (i * chunk + j) as f64;
                }
            });
        }
        for (k, v) in data.iter().enumerate() {
            assert_eq!(*v, k as f64);
        }
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = catch_unwind(|| {
            parallel_for(8, 4, &|i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn every_part_starts_at_once_on_its_own_thread() {
        // Each part waits until all have started: a pool that queued a
        // part behind another would never get past the barrier.
        let parts = 6;
        let barrier = std::sync::Barrier::new(parts);
        let threads = Mutex::new(Vec::new());
        join_all(parts, &|_| {
            lock(&threads).push(std::thread::current().id());
            barrier.wait();
        });
        let ids = threads.into_inner().unwrap();
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(
            (ids.len(), distinct.len()),
            (parts, parts),
            "parts shared a thread"
        );
    }

    #[test]
    fn a_panic_in_part_0_waits_for_the_other_parts() {
        // The other parts are still running when part 0 panics: they
        // start their last step only after it has started to unwind.
        // The sleep only widens the window in which an early return
        // would show; a pool that waits passes whatever the timing.
        let panicking = AtomicBool::new(false);
        let finished: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            join_all(4, &|i| {
                if i == 0 {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("part 0 fails first");
                }
                while !panicking.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                std::thread::sleep(std::time::Duration::from_millis(30));
                finished[i].store(true, Ordering::SeqCst);
            });
        }));
        let payload = result.expect_err("part 0's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"part 0 fails first"));
        for (i, f) in finished.iter().enumerate().skip(1) {
            assert!(f.load(Ordering::SeqCst), "part {i} still running");
        }
    }
}
