//! # otter-mpi
//!
//! Message-passing substrate for Otter-compiled SPMD programs: the
//! stand-in for the MPI library of the paper's Figure 1 stack
//! (`MATLAB script → compiler → SPMD C + run-time library → MPI`).
//!
//! Each *rank* is a schedulable virtual task holding a [`Comm`]
//! endpoint: a fixed pool of `W` workers (host parallelism by
//! default, [`SpmdOptions::workers`] to override) multiplexes `p`
//! logical ranks, with a rank *parking* — releasing its worker —
//! whenever it blocks in a receive. Messages travel through `p`
//! per-rank mailboxes rather than a `p²` channel mesh, so jobs with
//! thousands of ranks are feasible on a laptop. Compiled programs
//! still really move data between really-parallel threads. On top of
//! the real execution, every endpoint maintains a **virtual clock**
//! charged against an [`otter_machine::Machine`] model: compute
//! advances the local clock, a message delivers at
//! `max(receiver clock, sender clock + α + bytes·β)` — a conservative
//! parallel-discrete-event simulation. This is how the repo reproduces
//! the paper's speedup curves for hardware that no longer exists
//! (Meiko CS-2, SPARC-20 Ethernet cluster, Enterprise SMP) while still
//! computing real answers.
//!
//! Failures are data, not panics: every fallible operation returns a
//! typed [`CommError`], blocked receives publish themselves into a
//! shared wait-for registry so deadlocks are *diagnosed* (with the
//! full cycle) instead of timed out, and [`run_spmd_with`] returns a
//! [`JobResult`] whose error carries a per-rank [`FailureReport`]
//! plus the surviving ranks' complete results. A seeded [`FaultPlan`]
//! in [`SpmdOptions`] deterministically drops, delays, or crashes to
//! exercise those paths end-to-end.
//!
//! ```
//! use otter_mpi::{run_spmd, ReduceOp};
//! use otter_machine::meiko_cs2;
//!
//! let results = run_spmd(&meiko_cs2(), 4, |comm| {
//!     let mine = vec![comm.rank() as f64 + 1.0];
//!     let total = comm.allreduce(&mine, ReduceOp::Sum)?;
//!     Ok(total[0])
//! });
//! assert!(results.iter().all(|r| r.value == 10.0));
//! ```

pub mod admission;
pub mod collectives;
pub mod comm;
pub mod error;
pub mod fault;
mod mailbox;
pub mod observe;
pub mod runner;
mod sched;
mod state;

pub use admission::{JobGate, JobPermit};
pub use collectives::{CollectiveAlgo, ReduceOp};
pub use comm::Comm;
pub use error::{find_wait_cycle, CommError, WaitEdge};
pub use fault::{FaultAction, FaultPlan};
pub use observe::{CommStats, Event, Note, Observations};
pub use runner::{
    default_workers, job_time, run_spmd, run_spmd_with, FailureReport, JobFailure, JobResult,
    RankFailure, RankResult, SpmdOptions,
};
