//! Per-rank mailboxes: the O(p) replacement for the O(p²) mpsc
//! channel mesh.
//!
//! Every rank owns one [`Mailbox`]; a send from rank `s` pushes onto
//! the *receiver's* mailbox under its per-sender FIFO queue, so the
//! job carries `p` mailboxes total instead of `p²` channels — the
//! difference between p=4096 being a 4096-element vector and a
//! sixteen-million-channel mesh. Queues are sparse (a `HashMap` keyed
//! by sender) because real SPMD traffic touches a handful of
//! neighbors, not all peers.
//!
//! Ordering: per-edge FIFO is preserved exactly as mpsc channels
//! preserved it — each `(sender, receiver)` edge has its own queue.
//!
//! The mailbox lock is also the lock of the wait-for invariant
//! (`crate::state`): the owner publishes a wait under it after finding
//! the awaited queue empty ([`Mailbox::pop_or`]), and a push ends that
//! wait under it ([`Mailbox::push`]). Only the owner waits on the
//! condvar; a push wakes it only when the push ended its wait, and
//! everything else that can end a wait (a peer finishing, a verdict)
//! calls [`Mailbox::notify`].

use crate::comm::Packet;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

type Queues = HashMap<usize, VecDeque<Packet>>;

/// One rank's inbox: per-sender FIFO queues plus the condvar its owner
/// parks on while blocked in `recv`.
pub(crate) struct Mailbox {
    queues: Mutex<Queues>,
    cv: Condvar,
}

fn pop(queues: &mut Queues, from: usize) -> Option<Packet> {
    let q = queues.get_mut(&from)?;
    let pkt = q.pop_front();
    if q.is_empty() {
        queues.remove(&from);
    }
    pkt
}

impl Mailbox {
    pub fn new() -> Self {
        Mailbox {
            queues: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }

    /// Deliver a packet on the `(from → owner)` edge. `end_wait` runs
    /// under the lock, after the enqueue, and ends the owner's wait if
    /// it is blocked on exactly this edge (`JobState::release`); the
    /// owner is woken only when it did.
    pub fn push(&self, from: usize, pkt: Packet, end_wait: impl FnOnce() -> bool) {
        let mut queues = self.queues.lock().expect("mailbox lock poisoned");
        queues.entry(from).or_default().push_back(pkt);
        let ended = end_wait();
        drop(queues);
        if ended {
            self.cv.notify_one();
        }
    }

    /// Take the next packet from `from`; if none is queued, run
    /// `publish_wait` under the same lock, so no push can slip between
    /// finding the queue empty and the wait becoming visible.
    pub fn pop_or(&self, from: usize, publish_wait: impl FnOnce()) -> Option<Packet> {
        let mut queues = self.queues.lock().expect("mailbox lock poisoned");
        let pkt = pop(&mut queues, from);
        if pkt.is_none() {
            publish_wait();
        }
        pkt
    }

    /// Park until a packet from `from` arrives. Before every wait,
    /// `check` runs under the lock: `Ok(d)` parks for at most `d`,
    /// `Err(e)` gives up with `e`. Whoever can change `check`'s answer
    /// takes this lock to notify, so no wakeup is lost.
    pub fn pop_or_wait<E>(
        &self,
        from: usize,
        mut check: impl FnMut() -> Result<Duration, E>,
    ) -> Result<Packet, E> {
        let mut queues = self.queues.lock().expect("mailbox lock poisoned");
        loop {
            if let Some(pkt) = pop(&mut queues, from) {
                return Ok(pkt);
            }
            queues = self
                .cv
                .wait_timeout(queues, check()?)
                .expect("mailbox lock poisoned")
                .0;
        }
    }

    /// Wake the owner without delivering anything, so a parked rank
    /// re-runs its check now (a peer finished, a verdict was posted).
    pub fn notify(&self) {
        // Taking the lock orders this wakeup after the state change
        // the owner must observe: the owner either is parked (and
        // re-checks after waking) or has not yet run its check under
        // the lock (and will see the change there).
        drop(self.queues.lock().expect("mailbox lock poisoned"));
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pkt(v: f64) -> Packet {
        Packet {
            data: vec![v],
            send_clock: v,
        }
    }

    #[test]
    fn per_edge_fifo_is_preserved() {
        let mb = Mailbox::new();
        for i in 0..5 {
            mb.push(1, pkt(i as f64), || false);
        }
        mb.push(2, pkt(100.0), || false);
        for i in 0..5 {
            assert_eq!(mb.pop_or(1, || ()).unwrap().data, vec![i as f64]);
        }
        assert!(mb.pop_or(1, || ()).is_none());
        assert_eq!(mb.pop_or(2, || ()).unwrap().data, vec![100.0]);
    }

    #[test]
    fn pop_or_wait_times_out_empty() {
        let mb = Mailbox::new();
        let mut checks = 0;
        let got = mb.pop_or_wait(0, || {
            checks += 1;
            if checks == 1 {
                Ok(Duration::from_millis(1))
            } else {
                Err("timed out")
            }
        });
        assert_eq!(got.unwrap_err(), "timed out");
        assert_eq!(checks, 2);
    }

    #[test]
    fn pop_or_wait_sees_a_concurrent_push() {
        let mb = Arc::new(Mailbox::new());
        let pusher = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                mb.push(3, pkt(7.0), || true);
            })
        };
        let t0 = std::time::Instant::now();
        let got = mb.pop_or_wait(3, || -> Result<_, ()> { Ok(Duration::from_secs(30)) });
        assert_eq!(got.unwrap().data, vec![7.0]);
        assert!(t0.elapsed() < Duration::from_secs(10), "push must wake");
        pusher.join().unwrap();
    }

    #[test]
    fn notify_wakes_without_delivery() {
        let mb = Arc::new(Mailbox::new());
        let woken = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let waker = {
            let (mb, woken) = (Arc::clone(&mb), Arc::clone(&woken));
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                woken.store(true, std::sync::atomic::Ordering::SeqCst);
                mb.notify();
            })
        };
        // A long park cut short by notify re-runs the check, which now
        // gives up: the caller re-checks job state, not the queue.
        let t0 = std::time::Instant::now();
        let got = mb.pop_or_wait(0, || {
            if woken.load(std::sync::atomic::Ordering::SeqCst) {
                Err(())
            } else {
                Ok(Duration::from_secs(30))
            }
        });
        assert!(got.is_err());
        assert!(t0.elapsed() < Duration::from_secs(10), "notify must wake");
        waker.join().unwrap();
    }
}
