//! Shared job state: the wait-for registry every rank publishes its
//! blocking state into, and the exact deadlock detector over it.
//!
//! Each rank has one packed `AtomicU64` slot, `(epoch << 16) | tag`:
//! the tag is the peer index the rank is blocked receiving from, or
//! one of the `RUNNING` / `FINISHED` / `FAILED` sentinels; the epoch
//! increments on every transition, so a reader can tell "still in the
//! same blocked receive" from "blocked again on the same peer".
//!
//! **The invariant.** Rank `r` leaves `WaitingOn(s)` only through `s`
//! — a packet pushed on the `s → r` edge, or `s` terminating — or a
//! posted deadlock verdict. `r` publishes the wait under its mailbox
//! lock after finding the `s` queue empty, and a push from `s` ends it
//! under that same lock ([`JobState::release`]), so a waiting rank
//! never has mail on its awaited edge. The owner makes every other
//! transition itself; a push writes another rank's slot only by one
//! compare-exchange on the exact `(epoch, WaitingOn(s))` word, so it
//! can never overwrite a transition the owner made.
//!
//! **Why one snapshot proves a deadlock.** The walk reads slots at
//! different instants, so the chain it sees may be a chimera of waits
//! that never coexisted. Re-reading every rank on it with its epoch
//! unchanged proves each wait held across the instant between the two
//! passes, so all of them held at once. From then on, by the
//! invariant, a cycle member can be released only by another member,
//! which is itself waiting: none can move first. Publish and walk are
//! `SeqCst`, so the last member to park sees the whole cycle, and one
//! walk per park is enough.

use crate::error::{canonical_cycle, walk_wait_chain, CommError, WaitEdge};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const TAG_RUNNING: u64 = 0xFFFF;
const TAG_FINISHED: u64 = 0xFFFE;
const TAG_FAILED: u64 = 0xFFFD;

/// Packed slot word for `tag` one epoch after `v`.
fn next_word(v: u64, tag: u64) -> u64 {
    (((v >> 16) + 1) << 16) | tag
}

/// State shared by every rank of one SPMD job.
pub(crate) struct JobState {
    /// Packed `(epoch << 16) | tag` per rank.
    slots: Vec<AtomicU64>,
    /// One-shot failure verdicts posted by whichever rank proves a
    /// deadlock cycle, so every member of the cycle reports the same
    /// diagnosis instead of a racy mix of deadlock/peer-terminated.
    verdicts: Vec<Mutex<Option<CommError>>>,
    /// Job-wide delivery counter: bumped on every packet handed to a
    /// mailbox and every rank completion. The stall timeout measures
    /// against this, not wall time alone — on a starved worker pool a
    /// rank can legitimately wait minutes for its turn while the job
    /// is making steady progress, and only "nothing moved anywhere"
    /// is evidence of a silent hang.
    progress: AtomicU64,
}

/// A decoded slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RankState {
    Running,
    Finished,
    Failed,
    /// Blocked receiving from this peer.
    WaitingOn(usize),
}

impl JobState {
    pub fn new(p: usize) -> Self {
        JobState {
            slots: (0..p).map(|_| AtomicU64::new(TAG_RUNNING)).collect(),
            verdicts: (0..p).map(|_| Mutex::new(None)).collect(),
            progress: AtomicU64::new(0),
        }
    }

    /// Note one unit of job-wide progress (a delivery or completion).
    pub fn note_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Current progress count, for stall-reset comparisons.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// The owner's own transition. An atomic read-modify-write, so a
    /// concurrent [`JobState::release`] either lands first or fails;
    /// the two never share an epoch.
    fn store(&self, rank: usize, tag: u64) {
        let _ = self.slots[rank].fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
            Some(next_word(v, tag))
        });
    }

    /// Publish "rank is blocked receiving from peer". Called under the
    /// rank's mailbox lock, after finding the `peer` queue empty.
    pub fn set_waiting(&self, rank: usize, peer: usize) {
        debug_assert!(peer < TAG_FAILED as usize);
        self.store(rank, peer as u64);
    }

    /// Publish "rank is computing again": the owner leaving a wait on
    /// its own (a verdict, a terminated peer, a stall).
    pub fn set_running(&self, rank: usize) {
        self.store(rank, TAG_RUNNING);
    }

    /// Publish the rank's final state.
    pub fn set_done(&self, rank: usize, ok: bool) {
        self.store(rank, if ok { TAG_FINISHED } else { TAG_FAILED });
    }

    /// The state half of a push on the `from → rank` edge, run under
    /// `rank`'s mailbox lock: if `rank` waits on exactly `from`, end
    /// that wait. One compare-exchange on the word just read, so it
    /// fails if the owner moved in between. Returns whether it ended a
    /// wait (the owner then needs waking).
    pub fn release(&self, rank: usize, from: usize) -> bool {
        let v = self.slots[rank].load(Ordering::SeqCst);
        v & 0xFFFF == from as u64
            && self.slots[rank]
                .compare_exchange(
                    v,
                    next_word(v, TAG_RUNNING),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
    }

    /// Raw epoch+state snapshot of one slot.
    fn load(&self, rank: usize) -> (u64, RankState) {
        let v = self.slots[rank].load(Ordering::SeqCst);
        let state = match v & 0xFFFF {
            TAG_RUNNING => RankState::Running,
            TAG_FINISHED => RankState::Finished,
            TAG_FAILED => RankState::Failed,
            peer => RankState::WaitingOn(peer as usize),
        };
        (v >> 16, state)
    }

    pub fn state_of(&self, rank: usize) -> RankState {
        self.load(rank).1
    }

    /// Ranks currently blocked receiving from `rank`. A finishing rank
    /// uses this to wake exactly the parked peers its termination
    /// affects (the mailbox-world replacement for mpsc's disconnect
    /// signal).
    pub fn waiters_on(&self, rank: usize) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&r| r != rank && self.state_of(r) == RankState::WaitingOn(rank))
            .collect()
    }

    /// Take the one-shot verdict another rank may have posted for us.
    pub fn take_verdict(&self, rank: usize) -> Option<CommError> {
        self.verdicts[rank].lock().unwrap().take()
    }

    fn post_verdict(&self, rank: usize, err: CommError) {
        let mut slot = self.verdicts[rank].lock().unwrap();
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// The wait `rank` holds, with the epoch it holds it at; the step
    /// function of the detector's walk.
    fn observe(&self, rank: usize) -> Option<(usize, u64)> {
        match self.load(rank) {
            (epoch, RankState::WaitingOn(peer)) => Some((peer, epoch)),
            _ => None,
        }
    }

    /// Whether every wait the walk observed is still the exact
    /// `(epoch, peer)` it read.
    fn unchanged(&self, observed: &[(WaitEdge, u64)]) -> bool {
        observed
            .iter()
            .all(|&(e, epoch)| self.observe(e.waiter) == Some((e.waiting_on, epoch)))
    }

    /// Diagnose a deadlock from `rank`, which has just published its
    /// wait: walk the chain without locks, re-read every rank on it,
    /// and if none moved, the cycle the walk closed is proven (module
    /// docs). Posts the canonical verdict to `rank` and to every cycle
    /// member and returns the cycle, so the caller can wake them. Ranks
    /// on the chain between `rank` and the cycle get no verdict; they
    /// learn of it as `PeerTerminated` when the rank they wait on
    /// fails.
    pub fn diagnose_deadlock(&self, rank: usize) -> Option<Vec<WaitEdge>> {
        let (observed, pos) = walk_wait_chain(rank, |r| self.observe(r))?;
        if !self.unchanged(&observed) {
            return None;
        }
        let cycle = canonical_cycle(observed[pos..].iter().map(|&(e, _)| e).collect());
        for &(e, _) in observed[..1].iter().chain(&observed[pos.max(1)..]) {
            self.post_verdict(
                e.waiter,
                CommError::Deadlock {
                    rank: e.waiter,
                    waiting_on: e.waiting_on,
                    cycle: cycle.clone(),
                },
            );
        }
        Some(cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Packet;
    use crate::mailbox::Mailbox;

    fn edge(waiter: usize, waiting_on: usize) -> WaitEdge {
        WaitEdge { waiter, waiting_on }
    }

    fn deadlock(rank: usize, waiting_on: usize, cycle: &[WaitEdge]) -> Option<CommError> {
        Some(CommError::Deadlock {
            rank,
            waiting_on,
            cycle: cycle.to_vec(),
        })
    }

    #[test]
    fn transitions_bump_epoch_and_decode() {
        let js = JobState::new(3);
        assert_eq!(js.state_of(0), RankState::Running);
        js.set_waiting(0, 2);
        assert_eq!(js.state_of(0), RankState::WaitingOn(2));
        let (e1, _) = js.load(0);
        js.set_running(0);
        js.set_waiting(0, 2);
        let (e2, s) = js.load(0);
        assert_eq!(s, RankState::WaitingOn(2));
        assert!(e2 > e1, "re-entering the same wait must look different");
        js.set_done(0, true);
        assert_eq!(js.state_of(0), RankState::Finished);
        js.set_done(1, false);
        assert_eq!(js.state_of(1), RankState::Failed);
    }

    #[test]
    fn push_on_the_awaited_edge_releases_the_wait_and_bumps_the_epoch() {
        let js = JobState::new(2);
        let mb = Mailbox::new();
        assert!(mb.pop_or(1, || js.set_waiting(0, 1)).is_none());
        let (e, _) = js.load(0);
        let pkt = Packet {
            data: vec![1.0],
            send_clock: 0.0,
        };
        mb.push(1, pkt, || js.release(0, 1));
        assert_eq!(js.load(0), (e + 1, RankState::Running));
        assert!(!js.release(0, 1), "a second push finds nothing to end");
    }

    #[test]
    fn push_on_another_edge_leaves_the_wait() {
        let js = JobState::new(3);
        let mb = Mailbox::new();
        assert!(mb.pop_or(1, || js.set_waiting(0, 1)).is_none());
        let before = js.load(0);
        let pkt = Packet {
            data: vec![2.0],
            send_clock: 0.0,
        };
        mb.push(2, pkt, || js.release(0, 2));
        assert_eq!(js.load(0), before);
    }

    #[test]
    fn set_done_racing_a_release_is_never_overwritten() {
        for _ in 0..200 {
            let js = JobState::new(2);
            js.set_waiting(0, 1);
            let (e, _) = js.load(0);
            let released = std::thread::scope(|s| {
                let pusher = s.spawn(|| js.release(0, 1));
                js.set_done(0, false);
                pusher.join().unwrap()
            });
            // Whichever lands first, the owner's write stands and each
            // transition got its own epoch.
            assert_eq!(js.load(0), (e + 1 + released as u64, RankState::Failed));
        }
    }

    #[test]
    fn two_cycle_is_diagnosed_and_verdict_posted() {
        let js = JobState::new(4);
        js.set_waiting(2, 3);
        js.set_waiting(3, 2);
        let cycle = js.diagnose_deadlock(3).expect("cycle must be found");
        assert_eq!(cycle, [edge(2, 3), edge(3, 2)]);
        // Every member, the initiator included, holds the same cycle.
        assert_eq!(js.take_verdict(2), deadlock(2, 3, &cycle));
        assert_eq!(js.take_verdict(3), deadlock(3, 2, &cycle));
    }

    #[test]
    fn waiters_on_inverts_the_wait_edges() {
        let js = JobState::new(5);
        js.set_waiting(1, 3);
        js.set_waiting(2, 3);
        js.set_waiting(4, 0);
        assert_eq!(js.waiters_on(3), vec![1, 2]);
        assert_eq!(js.waiters_on(0), vec![4]);
        assert!(js.waiters_on(1).is_empty());
        js.set_running(1);
        assert_eq!(js.waiters_on(3), vec![2]);
    }

    #[test]
    fn epoch_changed_between_walk_and_reread_vetoes_the_cycle() {
        // A chimera: the walk reads 2 → 3, then, before it reads rank 3,
        // rank 3 sends to 2 (ending that wait) and parks on 2. Each read
        // was a real wait, but the two never coexisted.
        let js = JobState::new(4);
        js.set_waiting(2, 3);
        let mut reads = 0;
        let (observed, _) = walk_wait_chain(2, |r| {
            if reads == 1 {
                assert!(js.release(2, 3));
                js.set_waiting(3, 2);
            }
            reads += 1;
            js.observe(r)
        })
        .expect("the walk closes 2 → 3 → 2");
        assert!(!js.unchanged(&observed), "rank 2 moved after its read");
        // Rank 2 re-entering the *same* wait does not revive it: the
        // state is indistinguishable, the epoch is not.
        js.set_waiting(2, 3);
        assert!(!js.unchanged(&observed));
    }

    #[test]
    fn chain_to_running_rank_is_not_a_deadlock() {
        let js = JobState::new(3);
        js.set_waiting(0, 1);
        js.set_waiting(1, 2); // rank 2 still running
        assert!(js.diagnose_deadlock(0).is_none());
        assert!(js.take_verdict(0).is_none());
    }

    #[test]
    fn waiter_outside_cycle_is_diagnosed_too() {
        // 0 waits on 1; 1 and 2 deadlock each other. Rank 0 will never
        // be served either, and its walk finds the cycle.
        let js = JobState::new(3);
        js.set_waiting(0, 1);
        js.set_waiting(1, 2);
        js.set_waiting(2, 1);
        let cycle = js.diagnose_deadlock(0).expect("transitive deadlock");
        assert_eq!(cycle, [edge(1, 2), edge(2, 1)]);
        assert_eq!(js.take_verdict(0), deadlock(0, 1, &cycle));
        assert_eq!(js.take_verdict(1), deadlock(1, 2, &cycle));
        assert_eq!(js.take_verdict(2), deadlock(2, 1, &cycle));
    }
}
