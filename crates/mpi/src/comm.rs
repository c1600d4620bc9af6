//! Per-rank communication endpoints with virtual-time accounting.

use crate::collectives::CollectiveAlgo;
use crate::error::CommError;
use crate::fault::{FaultState, SendDisposition};
use crate::mailbox::Mailbox;
use crate::observe::{CommStats, Event, Note, Observations, Observer};
use crate::sched::Scheduler;
use crate::state::{JobState, RankState};
use otter_log::{FlightEvent, JobId};
use otter_machine::Machine;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The one timer left in a blocked receive: a rank whose peer is alive
/// but silent, with no wait-for cycle to diagnose, gives up as
/// `Stalled` once the whole job has been quiet this long.
const STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// One message: a vector of doubles stamped with the sender's virtual
/// clock at completion of the send.
#[derive(Debug, Clone)]
pub(crate) struct Packet {
    pub data: Vec<f64>,
    pub send_clock: f64,
}

/// A rank's endpoint: its identity, the job-wide mailbox array, and
/// its virtual clock.
///
/// `Comm` is deliberately `!Sync`: exactly one carrier thread owns
/// each rank, mirroring MPI's process model (enforced by the
/// `PhantomData<Cell<()>>` marker, since the shared mailbox/scheduler
/// handles would otherwise make it `Sync`).
pub struct Comm {
    rank: usize,
    size: usize,
    machine: Arc<Machine>,
    /// One mailbox per rank, shared by the whole job: `mailboxes[d]`
    /// is rank d's inbox, and a send pushes straight into it.
    mailboxes: Arc<Vec<Mailbox>>,
    /// The job's worker-slot scheduler; a blocked receive releases its
    /// slot here and re-acquires on wake.
    sched: Arc<Scheduler>,
    clock: f64,
    /// Schedule used by the un-suffixed collective methods.
    algo: CollectiveAlgo,
    /// Everything this rank observes about itself — stats, trace,
    /// metrics, flight ring — behind [`Comm::record`].
    obs: Observer,
    /// Wait-for registry shared by every rank of the job; blocked
    /// receives publish their state here so peers can diagnose
    /// deadlocks from a snapshot instead of a blanket timeout.
    job: Arc<JobState>,
    /// Fault-injection bookkeeping; `None` unless the job's
    /// `FaultPlan` targets this rank, so the healthy path is one
    /// branch per op.
    faults: Option<Box<FaultState>>,
    /// Correlation key for every observability artifact of this job.
    job_id: JobId,
    /// Keeps `Comm: !Sync` (one owner per rank) despite the shared
    /// `Arc`/`Mutex` fields above.
    _not_sync: PhantomData<Cell<()>>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        machine: Arc<Machine>,
        mailboxes: Arc<Vec<Mailbox>>,
        sched: Arc<Scheduler>,
        opts: &crate::runner::SpmdOptions,
        job: Arc<JobState>,
    ) -> Self {
        debug_assert_eq!(mailboxes.len(), size);
        Comm {
            rank,
            size,
            machine,
            mailboxes,
            sched,
            clock: 0.0,
            algo: opts.algo,
            obs: Observer::new(rank, size, opts),
            job,
            faults: opts
                .faults
                .as_ref()
                .and_then(|plan| FaultState::for_rank(plan, rank, size)),
            job_id: opts.job_id,
            _not_sync: PhantomData,
        }
    }

    /// Claim a worker slot for this rank. Called once by the runner
    /// before the rank body starts; the rank holds the slot except
    /// while parked in a blocked receive.
    pub(crate) fn acquire_worker(&self) {
        self.sched.acquire(self.rank);
    }

    /// Return this rank's worker slot to the pool for good. Called by
    /// the runner after the rank body (and its result snapshot) are
    /// done.
    pub(crate) fn release_worker(&self) {
        self.sched.release();
    }

    /// Wake every rank currently parked waiting on *this* rank, so a
    /// finishing/failing rank's peers see its final state and give up
    /// (the replacement for mpsc's disconnect signal). Called by the
    /// runner right after `set_done`.
    pub(crate) fn wake_ranks_blocked_on_me(&self) {
        for r in self.job.waiters_on(self.rank) {
            self.mailboxes[r].notify();
        }
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The machine model virtual time is charged against.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Current virtual clock in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Accumulated counters.
    pub fn stats(&self) -> CommStats {
        self.obs.stats()
    }

    /// Schedule the un-suffixed collectives (`broadcast`, `reduce`,
    /// `allreduce`) use on this endpoint.
    pub fn collective_algo(&self) -> CollectiveAlgo {
        self.algo
    }

    /// Change the collective schedule mid-program (ablations flip this
    /// to compare tree vs linear on one endpoint).
    pub fn set_collective_algo(&mut self, algo: CollectiveAlgo) {
        self.algo = algo;
    }

    /// The shared job state (runner-internal).
    pub(crate) fn job(&self) -> &Arc<JobState> {
        &self.job
    }

    /// The job's correlation key ([`JobId`] 0 when the launcher did
    /// not assign one).
    pub fn job_id(&self) -> JobId {
        self.job_id
    }

    /// Record one observation, stamped with the current clock: the one
    /// instrumentation entry point. Which sinks see the event is
    /// decided in [`crate::observe`], never at the site.
    #[inline]
    pub fn record(&mut self, ev: Event<'_>) {
        self.obs.record(self.clock, ev);
    }

    /// Snapshot this rank's clock, stats and metric registry, and stop
    /// tracing and metering. Engines call this before their out-of-band
    /// reporting collectives, so all three totals keep matching.
    pub fn freeze(&mut self) -> Observations {
        self.obs.freeze(self.clock)
    }

    /// The flight recorder's events (oldest first), for the rank's
    /// result or failure record.
    pub(crate) fn flight(&self) -> Vec<FlightEvent> {
        self.obs.flight()
    }

    /// Charge `flop_units` of modeled computation (in units of one
    /// sustained flop; see `otter_machine::OpClass::weight`).
    pub fn compute(&mut self, flop_units: f64) {
        let dt = flop_units * self.machine.cpu.flop_time();
        self.clock += dt;
        self.record(Event::Compute { dt });
    }

    /// One message-target validity check, shared by send and recv so
    /// the two report identically-formatted errors.
    fn check_peer(&self, target: usize, op: &'static str) -> Result<(), CommError> {
        if target >= self.size {
            return Err(CommError::RankOutOfRange {
                rank: self.rank,
                op,
                target,
                size: self.size,
            });
        }
        if target == self.rank {
            return Err(CommError::SelfMessage {
                rank: self.rank,
                op,
                target,
            });
        }
        Ok(())
    }

    /// Root validity check for the collectives (a root may be this
    /// rank, so only the range applies).
    pub(crate) fn check_root(&self, root: usize, op: &'static str) -> Result<(), CommError> {
        if root >= self.size {
            return Err(CommError::RankOutOfRange {
                rank: self.rank,
                op,
                target: root,
                size: self.size,
            });
        }
        Ok(())
    }

    /// Count one comm op against the fault plan; `Err` kills the rank
    /// here, before the op touches the wire.
    fn fault_op(&mut self) -> Result<(), CommError> {
        if let Some(f) = self.faults.as_deref_mut() {
            if f.note_op() {
                let op_index = f.ops;
                self.record(Event::Note(Note::Crashed { op_index }));
                return Err(CommError::InjectedCrash {
                    rank: self.rank,
                    op_index,
                });
            }
        }
        Ok(())
    }

    /// Blocking send of `data` to `to`.
    ///
    /// The sender is occupied for the full modeled transfer
    /// (`α + bytes·β`), matching a rendezvous-style blocking MPI send
    /// on 1998 interconnects. `concurrent` is the number of transfers
    /// the caller knows share the fabric in this phase (collectives
    /// pass their stage width; point-to-point passes 1) — it feeds the
    /// aggregate-bandwidth ceiling of bus/Ethernet fabrics.
    pub fn send_concurrent(
        &mut self,
        to: usize,
        data: &[f64],
        concurrent: usize,
    ) -> Result<(), CommError> {
        self.check_peer(to, "send to")?;
        self.fault_op()?;
        let bytes = (data.len() * 8) as u64;
        let dt = self
            .machine
            .message_time(self.rank, to, bytes as usize, concurrent);
        self.clock += dt;
        self.record(Event::Send { to, bytes, dt });
        let mut send_clock = self.clock;
        let disposition = self.faults.as_deref_mut().map(|f| f.outgoing(to));
        match disposition {
            None | Some(SendDisposition::Deliver) => {}
            // The sender believes the send succeeded: time and
            // stats are charged, the packet just never arrives.
            Some(SendDisposition::Drop) => {
                self.record(Event::Note(Note::Dropped { to, bytes }));
                return Ok(());
            }
            Some(SendDisposition::Delay(s)) => {
                self.record(Event::Note(Note::Delayed { to, bytes }));
                send_clock += s;
            }
        }
        // A terminated receiver can never consume this message; report
        // it like the old mpsc disconnect did. Stats and time were
        // already charged above, exactly as they were when the channel
        // send failed after the charge.
        match self.job.state_of(to) {
            RankState::Finished | RankState::Failed => {
                self.record(Event::Note(Note::DeadPeer { peer: to }));
                Err(CommError::PeerTerminated {
                    rank: self.rank,
                    peer: to,
                })
            }
            _ => {
                let pkt = Packet {
                    data: data.to_vec(),
                    send_clock,
                };
                self.mailboxes[to].push(self.rank, pkt, || self.job.release(to, self.rank));
                self.job.note_progress();
                Ok(())
            }
        }
    }

    /// Blocking send with no known fabric sharing.
    pub fn send(&mut self, to: usize, data: &[f64]) -> Result<(), CommError> {
        self.send_concurrent(to, data, 1)
    }

    /// Block until the next packet from `from` is available. This is
    /// the scheduler's park point: a receive that finds nothing
    /// buffered publishes its wait to the wait-for registry (under its
    /// mailbox lock; see `crate::state`), *releases its worker slot*
    /// so another virtual rank can run, walks the wait-for graph once,
    /// and sleeps on its own mailbox condvar until a push, a
    /// terminated peer or a deadlock verdict ends the wait. It
    /// re-acquires a slot before returning.
    fn recv_packet(&mut self, from: usize) -> Result<Packet, CommError> {
        let publish_wait = || self.job.set_waiting(self.rank, from);
        if let Some(p) = self.mailboxes[self.rank].pop_or(from, publish_wait) {
            return Ok(p);
        }
        self.record(Event::Note(Note::Park { from }));
        self.sched.release();
        let (rank, job) = (self.rank, &self.job);
        if let Some(cycle) = job.diagnose_deadlock(rank) {
            // Every member now holds its verdict; wake them to take it.
            for e in cycle.iter().filter(|e| e.waiter != rank) {
                self.mailboxes[e.waiter].notify();
            }
        }
        // The stall clock restarts whenever the job as a whole makes
        // progress: on a starved pool a rank may legitimately sit
        // blocked for many multiples of the timeout while packets flow
        // elsewhere. Only a globally quiet `STALL_TIMEOUT` is a hang.
        let mut quiet = (job.progress(), Instant::now());
        let result = self.mailboxes[rank].pop_or_wait(from, || {
            let err = if let Some(verdict) = job.take_verdict(rank) {
                verdict
            } else if matches!(job.state_of(from), RankState::Finished | RankState::Failed) {
                CommError::PeerTerminated { rank, peer: from }
            } else {
                let progress = job.progress();
                if progress != quiet.0 {
                    quiet = (progress, Instant::now());
                }
                match STALL_TIMEOUT.checked_sub(quiet.1.elapsed()) {
                    Some(left) => return Ok(left),
                    None => CommError::Stalled {
                        rank,
                        waiting_on: from,
                        seconds: STALL_TIMEOUT.as_secs(),
                    },
                }
            };
            // Leave the wait here, under the lock pushes take, so a
            // push cannot end it a second time.
            job.set_running(rank);
            Err(err)
        });
        self.sched.acquire(rank);
        self.record(Event::Note(match &result {
            Ok(_) => Note::Unpark { from },
            &Err(CommError::Deadlock { waiting_on, .. }) => Note::Deadlock { waiting_on },
            &Err(CommError::Stalled { waiting_on, .. }) => Note::Stall { waiting_on },
            Err(_) => Note::DeadPeer { peer: from },
        }));
        result
    }

    /// Blocking receive of the next message from `from`.
    ///
    /// Virtual time: the message is available at the sender's
    /// post-transfer clock; the receiver waits if it got here early
    /// and proceeds immediately if the message was already buffered.
    pub fn recv(&mut self, from: usize) -> Result<Vec<f64>, CommError> {
        self.check_peer(from, "recv from")?;
        self.fault_op()?;
        let pkt = self.recv_packet(from)?;
        let t0 = self.clock;
        self.clock = self.clock.max(pkt.send_clock);
        let bytes = (pkt.data.len() * 8) as u64;
        self.record(Event::Recv { from, bytes, t0 });
        Ok(pkt.data)
    }

    /// Send a single scalar.
    pub fn send_scalar(&mut self, to: usize, v: f64) -> Result<(), CommError> {
        self.send(to, &[v])
    }

    /// Receive a single scalar.
    pub fn recv_scalar(&mut self, from: usize) -> Result<f64, CommError> {
        let d = self.recv(from)?;
        if d.len() != 1 {
            return Err(CommError::PayloadMismatch {
                rank: self.rank,
                from,
                expected: 1,
                got: d.len(),
            });
        }
        Ok(d[0])
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::{run_spmd, run_spmd_with, SpmdOptions};
    use otter_machine::{meiko_cs2, sparc20_cluster};
    use otter_trace::{timelines, EventKind, MemorySink, TraceSink};
    use std::sync::Arc;

    #[test]
    fn ping_pong_delivers_data() {
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            if c.rank() == 0 {
                c.send(1, &[1.0, 2.0, 3.0])?;
                c.recv(1)
            } else {
                let v = c.recv(0)?;
                let doubled: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
                c.send(0, &doubled)?;
                Ok(doubled)
            }
        });
        assert_eq!(res[0].value, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn virtual_clock_advances_on_messages() {
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            if c.rank() == 0 {
                c.send(1, &vec![0.0; 1000])?;
            } else {
                c.recv(0)?;
            }
            Ok(c.clock())
        });
        let m = meiko_cs2();
        let expect = m.message_time(0, 1, 8000, 1);
        assert!((res[0].value - expect).abs() < 1e-12);
        // Receiver clock is at least the full transfer time too.
        assert!(res[1].value >= expect);
    }

    #[test]
    fn receiver_waits_for_late_sender() {
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            if c.rank() == 0 {
                c.compute(1e6); // sender is busy first
                c.send(1, &[42.0])?;
            } else {
                c.recv(0)?;
            }
            Ok(c.clock())
        });
        // Receiver's clock must include the sender's compute phase.
        assert!(res[1].value >= res[0].value * 0.99);
    }

    #[test]
    fn early_receiver_does_not_double_charge() {
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            if c.rank() == 0 {
                c.send(1, &[1.0])?;
                Ok(0.0)
            } else {
                c.compute(1e7); // receiver is the late one
                let before = c.clock();
                c.recv(0)?;
                Ok(c.clock() - before)
            }
        });
        // Message was already there: no extra virtual wait.
        assert_eq!(res[1].value, 0.0);
    }

    #[test]
    fn compute_charges_flop_time() {
        let res = run_spmd(&meiko_cs2(), 1, |c| {
            c.compute(25e6);
            Ok(c.clock())
        });
        assert!(
            (res[0].value - 1.0).abs() < 1e-9,
            "25 Mflop at 25 Mflop/s = 1 s"
        );
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            if c.rank() == 0 {
                c.send(1, &[1.0, 2.0])?;
                c.send(1, &[3.0])?;
            } else {
                c.recv(0)?;
                c.recv(0)?;
            }
            Ok(c.stats())
        });
        assert_eq!(res[0].value.messages_sent, 2);
        assert_eq!(res[0].value.bytes_sent, 24);
        assert_eq!(res[1].value.messages_sent, 0);
    }

    #[test]
    fn stats_split_send_and_wait_time() {
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            if c.rank() == 0 {
                c.compute(1e6);
                c.send(1, &vec![0.0; 1000])?;
            } else {
                c.recv(0)?; // arrives early, waits for the busy sender
            }
            Ok(c.stats())
        });
        let s0 = res[0].value;
        let s1 = res[1].value;
        assert!(s0.send_time > 0.0);
        assert_eq!(s0.wait_time, 0.0);
        assert_eq!(s1.send_time, 0.0);
        assert!(s1.wait_time > 0.0);
        // Every second of each rank's clock is accounted for.
        for (s, r) in [(s0, &res[0]), (s1, &res[1])] {
            let total = s.compute_time + s.comm_time();
            assert!((total - r.clock).abs() < 1e-12);
        }
    }

    #[test]
    fn messages_from_same_source_keep_order() {
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            if c.rank() == 0 {
                for i in 0..100 {
                    c.send_scalar(1, i as f64)?;
                }
                Ok(vec![])
            } else {
                (0..100).map(|_| c.recv_scalar(0)).collect()
            }
        });
        let got = &res[1].value;
        assert!(got.iter().enumerate().all(|(i, &v)| v == i as f64));
    }

    #[test]
    fn cluster_inter_node_messages_cost_more() {
        let m = sparc20_cluster();
        let res = run_spmd(&m, 8, |c| {
            match c.rank() {
                0 => c.send(1, &vec![0.0; 4096])?, // intra-node
                1 => {
                    c.recv(0)?;
                }
                2 => c.send(6, &vec![0.0; 4096])?, // inter-node
                6 => {
                    c.recv(2)?;
                }
                _ => {}
            }
            Ok(c.clock())
        });
        assert!(
            res[2].value > 20.0 * res[0].value,
            "inter={} intra={}",
            res[2].value,
            res[0].value
        );
    }

    #[test]
    fn traced_run_records_matching_events() {
        let sink = Arc::new(MemorySink::new());
        let opts = SpmdOptions {
            trace: Some(sink.clone() as Arc<dyn otter_trace::TraceSink>),
            ..SpmdOptions::default()
        };
        let res = run_spmd_with(&meiko_cs2(), 2, opts, |c| {
            if c.rank() == 0 {
                c.compute(1e6);
                c.send(1, &[1.0, 2.0])?;
            } else {
                c.recv(0)?;
            }
            Ok(c.stats())
        })
        .unwrap();
        let events = sink.snapshot().unwrap();
        let sends: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Send { .. }))
            .collect();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].rank, 0);
        assert!(matches!(
            sends[0].kind,
            EventKind::Send {
                to: 1,
                bytes: 16,
                seq: 0
            }
        ));
        // Timeline totals equal the always-on stats, per rank.
        for t in timelines(&events) {
            let s = res[t.rank].value;
            assert!(
                (t.compute - s.compute_time).abs() < 1e-12,
                "rank {}",
                t.rank
            );
            assert!((t.comm - s.send_time).abs() < 1e-12);
            assert!((t.idle - s.wait_time).abs() < 1e-12);
        }
    }

    #[test]
    fn untraced_run_is_untouched() {
        let sink = Arc::new(MemorySink::new());
        // No trace in the options: Comm must not see the sink at all.
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            if c.rank() == 0 {
                c.send(1, &[1.0])?;
            } else {
                c.recv(0)?;
            }
            Ok(c.clock())
        });
        assert!(res[0].value > 0.0);
        assert!(sink.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_out_of_range_panics() {
        run_spmd(&meiko_cs2(), 1, |c| c.send(5, &[1.0]));
    }

    #[test]
    fn relay_chain_completes_on_one_worker() {
        // Ranks 1..6 all block in recv immediately; rank 0 starts the
        // relay. On a one-worker pool this only terminates if every
        // blocked recv genuinely parks (releases its worker slot) —
        // a rank that held its worker while blocked would starve the
        // sender forever.
        let p = 6;
        let opts = SpmdOptions {
            workers: Some(1),
            ..SpmdOptions::default()
        };
        let res = run_spmd_with(&meiko_cs2(), p, opts, |c| {
            if c.rank() == 0 {
                c.send_scalar(1, 1.0)?;
                c.recv_scalar(p - 1)
            } else {
                let v = c.recv_scalar(c.rank() - 1)?;
                c.send_scalar((c.rank() + 1) % p, v + 1.0)?;
                Ok(v)
            }
        })
        .unwrap();
        assert_eq!(res[0].value, p as f64); // went all the way around
        for r in res.iter().skip(1) {
            assert_eq!(r.value, r.rank as f64);
        }
    }

    #[test]
    fn self_message_is_a_typed_error() {
        let res = run_spmd_with(&meiko_cs2(), 1, SpmdOptions::default(), |c| c.recv(0));
        let failure = res.unwrap_err();
        let e = &failure.report.failures[0].error;
        assert_eq!(e.code(), "self_message");
        assert!(e.to_string().contains("self-message"), "{e}");
    }

    #[test]
    fn scalar_payload_mismatch_is_typed() {
        let res = run_spmd_with(&meiko_cs2(), 2, SpmdOptions::default(), |c| {
            if c.rank() == 0 {
                c.send(1, &[1.0, 2.0])?;
                Ok(0.0)
            } else {
                c.recv_scalar(0)
            }
        });
        let failure = res.unwrap_err();
        let f = failure
            .report
            .failures
            .iter()
            .find(|f| f.rank == 1)
            .unwrap();
        assert_eq!(f.error.code(), "payload_mismatch");
        assert!(f.error.to_string().contains("expected 1"), "{}", f.error);
    }
}
