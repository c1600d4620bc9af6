//! Typed communication failures.
//!
//! Every fallible `Comm` operation returns a [`CommError`] instead of
//! panicking inside the rank thread, so the launcher can assemble a
//! per-rank failure report (see `runner::FailureReport`) with the
//! surviving ranks' partial results intact.

use std::fmt;

/// One edge of the blocked-rank wait-for graph: `waiter` is blocked in
/// a receive that only `waiting_on` can satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    pub waiter: usize,
    pub waiting_on: usize,
}

impl fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.waiter, self.waiting_on)
    }
}

/// Follow wait-for edges from `start` until a rank repeats: the one
/// walk both the live detector (`JobState::diagnose_deadlock`) and
/// the offline [`find_wait_cycle`] run. `next_of(r)` answers "whom
/// does `r` wait on", plus whatever the caller wants recorded beside
/// that edge (the live detector records the slot epoch it read).
/// Returns the walked path, `path[0]` leaving `start`, and the index
/// where its cycle begins; `None` if the chain reaches a rank that
/// waits on nobody. Path waiters are distinct, so the walk ends within
/// `p` steps.
pub(crate) fn walk_wait_chain<T>(
    start: usize,
    mut next_of: impl FnMut(usize) -> Option<(usize, T)>,
) -> Option<(Vec<(WaitEdge, T)>, usize)> {
    let mut path: Vec<(WaitEdge, T)> = Vec::new();
    let mut cur = start;
    loop {
        let (next, seen) = next_of(cur)?;
        path.push((
            WaitEdge {
                waiter: cur,
                waiting_on: next,
            },
            seen,
        ));
        if let Some(pos) = path.iter().position(|(e, _)| e.waiter == next) {
            return Some((path, pos));
        }
        cur = next;
    }
}

/// Rotate a cycle to start at its smallest member: the one spelling
/// every report — live verdicts and postmortem re-diagnosis — uses.
pub(crate) fn canonical_cycle(mut cycle: Vec<WaitEdge>) -> Vec<WaitEdge> {
    if let Some(min_pos) = (0..cycle.len()).min_by_key(|&i| cycle[i].waiter) {
        cycle.rotate_left(min_pos);
    }
    cycle
}

/// Find a wait-for cycle in a static edge snapshot, canonicalized to
/// start at its smallest member — the same walk and spelling the live
/// detector (`JobState::diagnose_deadlock`) uses.
///
/// This is the *offline* half of deadlock diagnosis: a postmortem
/// bundle serializes the final wait-for edges, and `harness postmortem`
/// re-runs the cycle search from the bundle alone, with no live job.
/// Unlike the live detector there are no epochs to re-read; the
/// snapshot is already final.
pub fn find_wait_cycle(edges: &[WaitEdge]) -> Option<Vec<WaitEdge>> {
    // Walk from each waiter in turn; the first closed walk wins. Edges
    // come from per-rank failure records, so each waiter appears once.
    let next_of = |r: usize| {
        edges
            .iter()
            .find(|e| e.waiter == r)
            .map(|e| (e.waiting_on, ()))
    };
    let mut starts: Vec<usize> = edges.iter().map(|e| e.waiter).collect();
    starts.sort_unstable();
    starts.into_iter().find_map(|start| {
        let (path, pos) = walk_wait_chain(start, next_of)?;
        Some(canonical_cycle(
            path[pos..].iter().map(|&(e, ())| e).collect(),
        ))
    })
}

/// Why a communication operation failed on one rank.
///
/// The display strings are stable enough to grep in CI; the
/// machine-readable discriminant is [`CommError::code`].
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// This rank is part of (or transitively blocked on) a wait-for
    /// cycle: every rank in `cycle` is blocked in a receive that only
    /// another member of the cycle could satisfy. Diagnosed from one
    /// consistent wait-for snapshot, not a timeout.
    Deadlock {
        rank: usize,
        waiting_on: usize,
        /// The proven cycle, starting at its smallest member.
        cycle: Vec<WaitEdge>,
    },
    /// The peer this rank was talking to is gone: it finished the
    /// program, failed, or panicked without sending the awaited
    /// message (or before draining this rank's send).
    PeerTerminated { rank: usize, peer: usize },
    /// A send/recv/collective named a rank outside `0..size`.
    RankOutOfRange {
        rank: usize,
        /// The operation, e.g. `"send to"` or `"broadcast root"`.
        op: &'static str,
        target: usize,
        size: usize,
    },
    /// A send or receive named this rank itself.
    SelfMessage {
        rank: usize,
        op: &'static str,
        target: usize,
    },
    /// A message arrived with the wrong shape (e.g. a multi-element
    /// payload where a scalar was required).
    PayloadMismatch {
        rank: usize,
        from: usize,
        expected: usize,
        got: usize,
    },
    /// The rank was killed by the job's `FaultPlan` at its
    /// `op_index`-th communication operation (1-based).
    InjectedCrash { rank: usize, op_index: u64 },
    /// A blocking receive waited out the stall timeout with the peer
    /// still running, no wait-for cycle, and the whole job quiet.
    Stalled {
        rank: usize,
        waiting_on: usize,
        seconds: u64,
    },
    /// The rank body panicked; the panic was caught at the thread
    /// boundary instead of aborting the launcher.
    Panicked { rank: usize, message: String },
    /// The job could not be launched at all: the `SpmdOptions` or the
    /// rank count were invalid (zero ranks, a zero-worker pool). No
    /// rank ever ran; the report carries this error on rank 0.
    InvalidConfig { reason: String },
}

impl CommError {
    /// Stable machine-readable discriminant, used by the harness
    /// failure report and CI greps.
    pub fn code(&self) -> &'static str {
        match self {
            CommError::Deadlock { .. } => "deadlock",
            CommError::PeerTerminated { .. } => "peer_terminated",
            CommError::RankOutOfRange { .. } => "rank_out_of_range",
            CommError::SelfMessage { .. } => "self_message",
            CommError::PayloadMismatch { .. } => "payload_mismatch",
            CommError::InjectedCrash { .. } => "injected_crash",
            CommError::Stalled { .. } => "stalled",
            CommError::Panicked { .. } => "panicked",
            CommError::InvalidConfig { .. } => "invalid_config",
        }
    }

    /// The rank this error was observed on. A launch-time
    /// configuration error precedes any rank, and is attributed to
    /// rank 0 by convention.
    pub fn rank(&self) -> usize {
        match *self {
            CommError::InvalidConfig { .. } => 0,
            CommError::Deadlock { rank, .. }
            | CommError::PeerTerminated { rank, .. }
            | CommError::RankOutOfRange { rank, .. }
            | CommError::SelfMessage { rank, .. }
            | CommError::PayloadMismatch { rank, .. }
            | CommError::InjectedCrash { rank, .. }
            | CommError::Stalled { rank, .. }
            | CommError::Panicked { rank, .. } => rank,
        }
    }

    /// The peer this rank was blocked on when it failed, if the
    /// failure was a blocked receive. Feeds the job report's
    /// blocked-peer inversion ("who was waiting on the dead rank").
    pub fn waiting_on(&self) -> Option<usize> {
        match *self {
            CommError::Deadlock { waiting_on, .. } | CommError::Stalled { waiting_on, .. } => {
                Some(waiting_on)
            }
            CommError::PeerTerminated { peer, .. } => Some(peer),
            _ => None,
        }
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Deadlock {
                rank,
                waiting_on,
                cycle,
            } => {
                write!(
                    f,
                    "rank {rank} deadlocked waiting for a message from rank {waiting_on}"
                )?;
                if !cycle.is_empty() {
                    write!(f, " (wait-for cycle: ")?;
                    for (i, e) in cycle.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            CommError::PeerTerminated { rank, peer } => write!(
                f,
                "rank {peer} terminated while rank {rank} awaited its message"
            ),
            CommError::RankOutOfRange {
                rank,
                op,
                target,
                size,
            } => write!(f, "rank {rank}: {op} rank {target} out of range 0..{size}"),
            CommError::SelfMessage { rank, op, target } => {
                write!(f, "rank {rank}: {op} rank {target} is a self-message")
            }
            CommError::PayloadMismatch {
                rank,
                from,
                expected,
                got,
            } => write!(
                f,
                "rank {rank}: message from rank {from} has {got} element(s), expected {expected}"
            ),
            CommError::InjectedCrash { rank, op_index } => {
                write!(f, "rank {rank} crashed by fault plan at comm op {op_index}")
            }
            CommError::Stalled {
                rank,
                waiting_on,
                seconds,
            } => write!(
                f,
                "rank {rank} stalled for {seconds}s waiting for rank {waiting_on} \
                 (peer still running, no wait-for cycle)"
            ),
            CommError::Panicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            CommError::InvalidConfig { reason } => {
                write!(f, "invalid SPMD configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_greppable_phrases() {
        let e = CommError::RankOutOfRange {
            rank: 0,
            op: "send to",
            target: 5,
            size: 2,
        };
        assert!(e.to_string().contains("out of range"));
        let e = CommError::PeerTerminated { rank: 1, peer: 0 };
        assert!(e.to_string().contains("terminated"));
    }

    #[test]
    fn waiting_on_reports_blocked_edges_only() {
        let d = CommError::Deadlock {
            rank: 2,
            waiting_on: 3,
            cycle: vec![],
        };
        assert_eq!(d.waiting_on(), Some(3));
        let c = CommError::InjectedCrash {
            rank: 2,
            op_index: 1,
        };
        assert_eq!(c.waiting_on(), None);
        assert_eq!(c.code(), "injected_crash");
    }
}
