//! The observation spine: every instrumentation site in `otter-mpi`,
//! `otter-rt` and the executor records one typed [`Event`] through
//! [`Comm::record`](crate::Comm::record), and the four consumers —
//! the always-on [`CommStats`], the optional trace sink, the optional
//! per-rank metric registry, and the always-on flight ring — are folds
//! over that one stream, all written here. This module is the only
//! place that spells a metric name, a flight code or a trace kind, so
//! the streams agree by construction: a new site is one event, a new
//! sink is one fold.
//!
//! Events carry virtual-clock stamps only. Host timestamps are
//! deliberately absent: an `Instant::now()` per `Compute` event would
//! cost more than the two float adds the event stands for.

use crate::collectives::{CollectiveAlgo, ReduceOp};
use crate::runner::SpmdOptions;
use otter_log::{FlightEvent, FlightRecorder, LogLevel};
use otter_metrics::{MetricId, MetricsRegistry, MetricsSnapshot};
use otter_trace::{EventKind, TraceEvent, TraceSink};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Metric names the sequential engines' reports share with this fold.
pub const OPS_TOTAL: &str = "ops_total";
pub const WORKSPACE_PEAK_BYTES: &str = "workspace_peak_bytes";
/// Job-wide series: each rank's final virtual clock, and the gauge of
/// max/min rank clock.
pub const RANK_CLOCK_SECONDS: &str = "rank_clock_seconds";
pub const LOAD_IMBALANCE_RATIO: &str = "load_imbalance_ratio";

/// Communication/computation counters a rank accumulates; used by the
/// benchmark harness to report message counts and volumes per
/// experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    pub messages_sent: u64,
    pub bytes_sent: u64,
    /// Virtual seconds spent in modeled computation.
    pub compute_time: f64,
    /// Virtual seconds spent driving sends (the sender-side transfer
    /// charge).
    pub send_time: f64,
    /// Virtual seconds spent blocked in `recv` waiting for a message
    /// that had not yet arrived in virtual time.
    pub wait_time: f64,
}

impl CommStats {
    /// Total virtual seconds attributed to communication.
    pub fn comm_time(&self) -> f64 {
        self.send_time + self.wait_time
    }
}

/// One observation. Interval events name their start (`t0`) or their
/// length (`dt`); the end is the rank's clock at record time.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// `dt` seconds of modeled computation were just charged.
    Compute { dt: f64 },
    /// A message left for `to`; its transfer took the last `dt` seconds.
    Send { to: usize, bytes: u64, dt: f64 },
    /// A message from `from` was consumed by a `recv` entered at `t0`
    /// (the clock is past `t0` only if the receiver had to wait).
    Recv { from: usize, bytes: u64, t0: f64 },
    /// A collective call that began at `t0` finished.
    Collective {
        name: &'static str,
        algo: CollectiveAlgo,
        op: Option<ReduceOp>,
        t0: f64,
    },
    /// A barrier that began at `t0` finished.
    Barrier { algo: CollectiveAlgo, t0: f64 },
    /// An `ML_*` run-time library call that began at `t0` finished.
    Phase { name: &'static str, t0: f64 },
    /// A zero-width run-time library marker (a purely local call that
    /// charges no time).
    Mark { name: &'static str },
    /// One IR instruction that began at `t0` finished.
    Statement { opcode: &'static str, t0: f64 },
    /// A point event for the flight ring only.
    Note(Note),
    /// End of a rank's program: opcode tallies and high-water marks.
    RunSummary {
        ops: &'a BTreeMap<&'static str, u64>,
        alloc_peak_bytes: usize,
        workspace_peak_bytes: usize,
    },
}

/// Scheduler, fault, failure and executor milestones: what a
/// postmortem reads from a rank's flight tail.
#[derive(Debug, Clone, Copy)]
pub enum Note {
    /// A `recv` from `from` found nothing buffered and parked.
    Park { from: usize },
    /// The parked `recv` got its message.
    Unpark { from: usize },
    /// The fault plan killed this rank at its `op_index`-th comm op.
    Crashed { op_index: u64 },
    /// The fault plan swallowed a message this rank believes it sent.
    Dropped { to: usize, bytes: u64 },
    /// The fault plan held a message back in virtual time.
    Delayed { to: usize, bytes: u64 },
    /// A peer this rank sent to or awaited had already terminated.
    DeadPeer { peer: usize },
    /// The detector confirmed a wait-for cycle through this rank.
    Deadlock { waiting_on: usize },
    /// The job made no progress for the whole stall timeout.
    Stall { waiting_on: usize },
    /// The rank's body returned `Ok`.
    RankDone,
    /// The rank's body failed; `rank` is the one the error names.
    RankFailed { rank: usize },
    /// The executor is about to run `instrs` top-level instructions.
    ExecStart { instrs: usize },
    /// The program stopped on an application-level error.
    ExecAppError,
}

impl Note {
    /// The flight-ring spelling: level, code, and the two payload
    /// slots.
    fn flight(self) -> (LogLevel, &'static str, u64, u64) {
        use LogLevel::{Debug, Error, Info, Warn};
        match self {
            Note::Park { from } => (Debug, "sched.park", from as u64, 0),
            Note::Unpark { from } => (Debug, "sched.unpark", from as u64, 0),
            Note::Crashed { op_index } => (Error, "fault.crash", op_index, 0),
            Note::Dropped { to, bytes } => (Warn, "fault.drop", to as u64, bytes),
            Note::Delayed { to, bytes } => (Warn, "fault.delay", to as u64, bytes),
            Note::DeadPeer { peer } => (Error, "comm.dead_peer", peer as u64, 0),
            Note::Deadlock { waiting_on } => (Error, "comm.deadlock", waiting_on as u64, 0),
            Note::Stall { waiting_on } => (Error, "comm.stall", waiting_on as u64, 0),
            Note::RankDone => (Info, "rank.done", 0, 0),
            Note::RankFailed { rank } => (Error, "rank.failed", rank as u64, 0),
            Note::ExecStart { instrs } => (Info, "exec.start", instrs as u64, 0),
            Note::ExecAppError => (Error, "exec.app_error", 0, 0),
        }
    }
}

/// A rank's observations as of one [`Comm::freeze`](crate::Comm::freeze).
#[derive(Debug, Clone)]
pub struct Observations {
    pub clock: f64,
    pub stats: CommStats,
    /// `None` when the job ran without metrics (or was already frozen).
    pub metrics: Option<MetricsSnapshot>,
}

/// The per-rank sink set, owned by [`Comm`](crate::Comm); its fields
/// are private to this module.
pub(crate) struct Observer {
    rank: usize,
    stats: CommStats,
    /// `None` when tracing is off, so the disabled path is one branch.
    trace: Option<Arc<dyn TraceSink>>,
    /// Per-edge FIFO sequence numbers (only maintained while tracing):
    /// the k-th send on edge (self → d) pairs with the k-th recv on it.
    send_seq: Vec<u64>,
    recv_seq: Vec<u64>,
    /// `None` when metrics are off.
    metrics: Option<Box<MetricsRegistry>>,
    /// Opcode → pre-registered `op_seconds` handle, so the
    /// per-instruction record path builds no key.
    op_ids: HashMap<&'static str, MetricId>,
    /// Always-on bounded flight recorder: single-writer, fixed memory;
    /// it observes the virtual clock but never charges it.
    flight: FlightRecorder,
}

impl Observer {
    pub(crate) fn new(rank: usize, size: usize, opts: &SpmdOptions) -> Self {
        let edges = if opts.trace.is_some() { size } else { 0 };
        Observer {
            rank,
            stats: CommStats::default(),
            trace: opts.trace.clone(),
            send_seq: vec![0; edges],
            recv_seq: vec![0; edges],
            metrics: opts.metrics.then(Box::default),
            op_ids: HashMap::new(),
            flight: FlightRecorder::with_capacity(opts.recorder_capacity),
        }
    }

    pub(crate) fn stats(&self) -> CommStats {
        self.stats
    }

    fn span(&self, kind: EventKind, t_start: f64, t_end: f64) {
        if let Some(sink) = &self.trace {
            sink.record(TraceEvent {
                rank: self.rank,
                t_start,
                t_end,
                kind,
            });
        }
    }

    /// Fold one event into every sink that wants it; `clock` is the
    /// rank's clock now, i.e. the event's end. The two hot cases are
    /// decided here so they inline into the site: `Compute` is two
    /// float adds and a branch when tracing is off, and the events only
    /// trace and metrics consume cost one branch when both are off.
    #[inline(always)]
    pub(crate) fn record(&mut self, clock: f64, ev: Event<'_>) {
        match ev {
            Event::Compute { dt } => {
                self.stats.compute_time += dt;
                if self.trace.is_some() && dt > 0.0 {
                    self.span(EventKind::Compute, clock - dt, clock);
                }
            }
            Event::Statement { .. } | Event::Phase { .. } | Event::Mark { .. }
                if self.trace.is_none() && self.metrics.is_none() => {}
            _ => self.fold(clock, ev),
        }
    }

    fn fold(&mut self, clock: f64, ev: Event<'_>) {
        match ev {
            Event::Compute { .. } => unreachable!("`record` folds Compute inline"),
            Event::Send { to, bytes, dt } => {
                self.stats.send_time += dt;
                self.stats.messages_sent += 1;
                self.stats.bytes_sent += bytes;
                if self.trace.is_some() {
                    let seq = self.send_seq[to];
                    self.send_seq[to] += 1;
                    self.span(EventKind::Send { to, bytes, seq }, clock - dt, clock);
                }
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.inc("comm_messages_total", &[], 1);
                    m.inc("comm_bytes_total", &[], bytes);
                    m.observe("message_bytes", &[], bytes as f64);
                    m.observe("send_seconds", &[], dt);
                }
                self.flight
                    .record(LogLevel::Debug, "comm.send", to as u64, bytes, clock);
            }
            Event::Recv { from, bytes, t0 } => {
                if clock > t0 {
                    self.stats.wait_time += clock - t0;
                    if let Some(m) = self.metrics.as_deref_mut() {
                        m.observe("recv_wait_seconds", &[], clock - t0);
                    }
                }
                if self.trace.is_some() {
                    let seq = self.recv_seq[from];
                    self.recv_seq[from] += 1;
                    self.span(EventKind::Recv { from, bytes, seq }, t0, clock);
                }
                self.flight
                    .record(LogLevel::Debug, "comm.recv", from as u64, bytes, clock);
            }
            Event::Collective { name, algo, op, t0 } => {
                let (algo, op) = (algo.label(), op.map(ReduceOp::label));
                self.span(EventKind::Collective { name, algo, op }, t0, clock);
                self.collective(name, algo, t0, clock);
            }
            Event::Barrier { algo, t0 } => {
                self.span(EventKind::Barrier, t0, clock);
                self.collective("barrier", algo.label(), t0, clock);
            }
            Event::Phase { name, t0 } => {
                self.span(EventKind::Phase { name }, t0, clock);
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.observe("rt_op_seconds", &[("op", name)], clock - t0);
                }
            }
            Event::Mark { name } => self.span(EventKind::Phase { name }, clock, clock),
            Event::Statement { opcode, t0 } => {
                self.span(EventKind::Statement { name: opcode }, t0, clock);
                if let Some(m) = self.metrics.as_deref_mut() {
                    let id = *self
                        .op_ids
                        .entry(opcode)
                        .or_insert_with(|| m.histogram("op_seconds", &[("op", opcode)]));
                    m.observe_id(id, clock - t0);
                }
            }
            Event::Note(note) => {
                let (level, code, a, b) = note.flight();
                self.flight.record(level, code, a, b, clock);
            }
            Event::RunSummary {
                ops,
                alloc_peak_bytes,
                workspace_peak_bytes,
            } => {
                if let Some(m) = self.metrics.as_deref_mut() {
                    for (op, n) in ops {
                        m.inc(OPS_TOTAL, &[("op", op)], *n);
                    }
                    m.gauge_max("alloc_peak_bytes", &[], alloc_peak_bytes as f64);
                    m.gauge_max(WORKSPACE_PEAK_BYTES, &[], workspace_peak_bytes as f64);
                }
            }
        }
    }

    /// The metrics and flight folds every collective (barrier
    /// included) shares: an invocation counter labeled by collective
    /// and schedule, plus a duration histogram.
    fn collective(&mut self, name: &'static str, algo: &'static str, t0: f64, clock: f64) {
        self.flight
            .record(LogLevel::Debug, "comm.collective", 0, 0, clock);
        if let Some(m) = self.metrics.as_deref_mut() {
            m.inc("collectives_total", &[("coll", name), ("algo", algo)], 1);
            m.observe("collective_seconds", &[("coll", name)], clock - t0);
        }
    }

    /// Snapshot clock, stats and the registry in one call (so they
    /// cannot be taken at different points), and turn the trace and
    /// metrics sinks off; stats and the flight ring stay on.
    pub(crate) fn freeze(&mut self, clock: f64) -> Observations {
        self.trace = None;
        Observations {
            clock,
            stats: self.stats,
            metrics: self.metrics.take().map(|m| m.snapshot()),
        }
    }

    /// The flight ring's events, oldest first.
    pub(crate) fn flight(&self) -> Vec<FlightEvent> {
        self.flight.events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_trace::MemorySink;

    /// Rank 1 of 4 with a retaining trace sink and metrics on.
    fn all_on() -> (Arc<MemorySink>, Observer) {
        let sink = Arc::new(MemorySink::new());
        let opts = SpmdOptions {
            trace: Some(sink.clone()),
            metrics: true,
            ..SpmdOptions::default()
        };
        (sink, Observer::new(1, 4, &opts))
    }

    /// Feed `ev` (ending at clock 2.0) to a fresh all-sinks-on observer
    /// and render what each sink saw: the five stats, the trace
    /// labels, the metric keys, the flight codes.
    fn seen(ev: Event<'_>) -> String {
        let (sink, mut obs) = all_on();
        obs.record(2.0, ev);
        let codes: Vec<&str> = obs.flight().iter().map(|e| e.code).collect();
        let Observations {
            stats: s, metrics, ..
        } = obs.freeze(2.0);
        let labels: Vec<&str> = sink.take().iter().map(|e| e.kind.label()).collect();
        let metrics = metrics.expect("metrics on");
        let keys: Vec<String> = metrics.entries.keys().map(|k| k.to_string()).collect();
        let stats = (
            s.messages_sent,
            s.bytes_sent,
            s.compute_time,
            s.send_time,
            s.wait_time,
        );
        let (labels, keys, codes) = (labels.join(" "), keys.join(" "), codes.join(" "));
        format!("{stats:?} | {labels} | {keys} | {codes}")
    }

    #[test]
    fn each_event_kind_reaches_exactly_its_sinks() {
        let (to, from, bytes, dt, t0) = (2, 0, 16, 0.25, 1.5);
        let (name, opcode) = ("reduce", "matmul");
        let (algo, op) = (CollectiveAlgo::Tree, Some(ReduceOp::Sum));
        let ops = &BTreeMap::from([(opcode, 2u64)]);
        let (alloc_peak_bytes, workspace_peak_bytes) = (64, 32);
        let summary = Event::RunSummary {
            ops,
            alloc_peak_bytes,
            workspace_peak_bytes,
        };
        // Stats as `(messages, bytes, compute, send, wait)`. A zero-length
        // charge tiles nothing (no span); a receive whose message was
        // already buffered neither waits nor observes a wait.
        let table = [
            (Event::Compute { dt }, "(0, 0, 0.25, 0.0, 0.0) | compute |  | "),
            (Event::Compute { dt: 0.0 }, "(0, 0, 0.0, 0.0, 0.0) |  |  | "),
            (Event::Send { to, bytes, dt }, "(1, 16, 0.0, 0.25, 0.0) | send | comm_bytes_total comm_messages_total message_bytes send_seconds | comm.send"),
            (Event::Recv { from, bytes, t0 }, "(0, 0, 0.0, 0.0, 0.5) | recv | recv_wait_seconds | comm.recv"),
            (Event::Recv { from, bytes, t0: 2.0 }, "(0, 0, 0.0, 0.0, 0.0) | recv |  | comm.recv"),
            (Event::Collective { name, algo, op, t0 }, "(0, 0, 0.0, 0.0, 0.0) | reduce | collective_seconds{coll=\"reduce\"} collectives_total{algo=\"tree\",coll=\"reduce\"} | comm.collective"),
            (Event::Barrier { algo, t0 }, "(0, 0, 0.0, 0.0, 0.0) | barrier | collective_seconds{coll=\"barrier\"} collectives_total{algo=\"tree\",coll=\"barrier\"} | comm.collective"),
            (Event::Phase { name, t0 }, "(0, 0, 0.0, 0.0, 0.0) | reduce | rt_op_seconds{op=\"reduce\"} | "),
            (Event::Mark { name }, "(0, 0, 0.0, 0.0, 0.0) | reduce |  | "),
            (Event::Statement { opcode, t0 }, "(0, 0, 0.0, 0.0, 0.0) | matmul | op_seconds{op=\"matmul\"} | "),
            (Event::Note(Note::Park { from }), "(0, 0, 0.0, 0.0, 0.0) |  |  | sched.park"),
            (summary, "(0, 0, 0.0, 0.0, 0.0) |  | alloc_peak_bytes ops_total{op=\"matmul\"} workspace_peak_bytes | "),
        ];
        for (ev, want) in table {
            assert_eq!(seen(ev), want, "{ev:?}");
        }
    }

    #[test]
    fn freeze_turns_trace_and_metrics_off_but_not_stats_or_flight() {
        let (sink, mut obs) = all_on();
        let (to, bytes, dt) = (2, 8, 0.5);
        obs.record(0.5, Event::Send { to, bytes, dt });
        let frozen = obs.freeze(0.5);
        assert_eq!(frozen.stats.messages_sent, 1);
        assert!(frozen.metrics.is_some());
        obs.record(1.0, Event::Send { to, bytes, dt });
        assert_eq!(sink.len(), 1, "no span after the freeze");
        assert_eq!(obs.stats().messages_sent, 2);
        assert!(obs.freeze(1.0).metrics.is_none());
        assert_eq!(obs.flight().len(), 2);
    }
}
