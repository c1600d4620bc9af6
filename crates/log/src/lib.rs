//! Job-scoped structured logging for the Otter runtime.
//!
//! Three small pieces, all dependency-free:
//!
//! * [`JobId`] / [`SpanId`] — the correlation keys. One `JobId` is
//!   minted per engine run (or per `otterd` request) and threaded
//!   through compile, the scheduler, Comm, the executor, metrics, and
//!   any failure report, so every observability artifact produced by
//!   one job can be joined on the same key. `SpanId`s subdivide a job
//!   into phases (compile, run, per-pass) without a global registry.
//! * [`LogLevel`] — the usual four-level severity lattice with a total
//!   order, so "give me warn and up" is a single comparison.
//! * [`FlightRecorder`] — a bounded ring buffer of [`FlightEvent`]s,
//!   the always-on backing store. Recording is overwrite-oldest and
//!   allocation-free after construction, so every rank can afford one
//!   even when full tracing is off: when a job dies, the last few
//!   dozen events per rank are exactly the context a postmortem needs.
//!
//! The recorder deliberately stores fixed-size events (`&'static str`
//! code plus two integer payload slots) rather than formatted strings:
//! formatting happens only if the events are ever rendered, which for
//! a healthy job is never.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide monotonic source for [`JobId::mint`].
static NEXT_JOB: AtomicU64 = AtomicU64::new(1);

/// Stable correlation key for one job (one engine run).
///
/// Displays as 16 lowercase hex digits — the same spelling the serve
/// layer uses in `/jobs`, trace exports, and postmortem bundles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl JobId {
    /// Mint a process-unique id (monotonic, starts at 1).
    pub fn mint() -> JobId {
        JobId(NEXT_JOB.fetch_add(1, Ordering::Relaxed))
    }

    /// Parse the 16-hex-digit spelling produced by `Display`.
    pub fn parse(s: &str) -> Option<JobId> {
        u64::from_str_radix(s, 16).ok().map(JobId)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Correlation key for one phase (span) within a job.
///
/// Spans are allocated per job by [`SpanId::next`] chaining, so
/// two jobs' spans never need a shared counter: span k of job j is
/// just `(j, k)` — the pair is globally unique because `JobId` is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId {
    pub job: JobId,
    pub seq: u32,
}

impl SpanId {
    /// The first span of a job.
    pub fn root(job: JobId) -> SpanId {
        SpanId { job, seq: 0 }
    }

    /// The span following this one within the same job.
    pub fn next(self) -> SpanId {
        SpanId {
            job: self.job,
            seq: self.seq + 1,
        }
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.job, self.seq)
    }
}

/// Severity levels, ordered `Error < Warn < Info < Debug` so that
/// "at most this verbose" is `level <= filter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogLevel {
    Error,
    Warn,
    Info,
    Debug,
}

impl LogLevel {
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    /// Parse the lowercase spelling (`"warn"`), for protocol fields.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "error" => Some(LogLevel::Error),
            "warn" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One flight-recorder event. Fixed size, no heap: the code is a
/// `&'static str` tag (dotted, e.g. `"comm.send"`), and the two
/// payload slots carry whatever the code defines (peer rank, byte
/// count, op index...). `clock` is a read-only observation of the
/// rank's virtual clock at record time — the recorder never *charges*
/// time, so enabling it cannot perturb modeled results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Per-recorder monotonic sequence number (never wraps in practice).
    pub seq: u64,
    /// Virtual clock of the owning rank when the event was recorded.
    pub clock: f64,
    pub level: LogLevel,
    pub code: &'static str,
    /// First payload slot (meaning depends on `code`).
    pub a: u64,
    /// Second payload slot (meaning depends on `code`).
    pub b: u64,
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} [{}] {} a={} b={} clock={:.6}",
            self.seq, self.level, self.code, self.a, self.b, self.clock
        )
    }
}

/// Default ring capacity per rank. Small enough that even p=3000
/// stress jobs stay in the low megabytes, large enough to hold the
/// whole recent comm history that a deadlock diagnosis wants.
pub const DEFAULT_RECORDER_CAPACITY: usize = 64;

/// Bounded ring-buffer flight recorder: always on, fixed memory,
/// overwrite-oldest. One per rank (single-writer, no locks); the
/// serve layer also keeps one process-wide behind a mutex for the
/// `logs` protocol op.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<FlightEvent>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Total events ever recorded (= next seq).
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events. Capacity 0 is
    /// clamped to 1 so `record` never has to special-case it.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            buf: Vec::with_capacity(capacity.max(1)),
            cap: capacity.max(1),
            head: 0,
            recorded: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Append an event, overwriting the oldest if the ring is full.
    /// Allocation-free after the ring first fills.
    pub fn record(&mut self, level: LogLevel, code: &'static str, a: u64, b: u64, clock: f64) {
        let ev = FlightEvent {
            seq: self.recorded,
            clock,
            level,
            code,
            a,
            b,
        };
        self.recorded += 1;
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Events in record order (oldest first).
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// The last `n` events in record order.
    pub fn tail(&self, n: usize) -> Vec<FlightEvent> {
        let all = self.events();
        let skip = all.len().saturating_sub(n);
        all[skip..].to_vec()
    }

    /// Events at `level` or more severe, in record order.
    pub fn filtered(&self, max_level: LogLevel) -> Vec<FlightEvent> {
        self.events()
            .into_iter()
            .filter(|e| e.level <= max_level)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_are_unique_and_round_trip() {
        let a = JobId::mint();
        let b = JobId::mint();
        assert_ne!(a, b);
        assert_eq!(a.to_string().len(), 16);
        assert_eq!(JobId::parse(&a.to_string()), Some(a));
        assert_eq!(JobId::parse("zz"), None);
    }

    #[test]
    fn span_ids_chain_within_a_job() {
        let job = JobId(7);
        let s0 = SpanId::root(job);
        let s1 = s0.next();
        assert_eq!(s0.seq, 0);
        assert_eq!(s1.seq, 1);
        assert_eq!(s1.job, job);
        assert_eq!(s1.to_string(), "0000000000000007/1");
    }

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Error < LogLevel::Warn);
        assert!(LogLevel::Warn < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
        for l in [
            LogLevel::Error,
            LogLevel::Warn,
            LogLevel::Info,
            LogLevel::Debug,
        ] {
            assert_eq!(LogLevel::parse(l.as_str()), Some(l));
        }
        assert_eq!(LogLevel::parse("loud"), None);
    }

    #[test]
    fn ring_overwrites_oldest_and_stays_bounded() {
        let mut fr = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            fr.record(LogLevel::Debug, "t", i, 0, i as f64);
            assert!(fr.len() <= 4, "ring exceeded capacity");
        }
        assert_eq!(fr.recorded(), 10);
        let evs = fr.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "oldest events must be overwritten, order preserved"
        );
        assert_eq!(evs[0].seq, 6);
    }

    #[test]
    fn tail_and_filter() {
        let mut fr = FlightRecorder::with_capacity(8);
        fr.record(LogLevel::Debug, "a", 0, 0, 0.0);
        fr.record(LogLevel::Error, "b", 1, 0, 0.0);
        fr.record(LogLevel::Info, "c", 2, 0, 0.0);
        assert_eq!(fr.tail(2).iter().map(|e| e.a).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(fr.tail(99).len(), 3);
        let errs = fr.filtered(LogLevel::Error);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].code, "b");
        assert_eq!(fr.filtered(LogLevel::Info).len(), 2);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut fr = FlightRecorder::with_capacity(0);
        fr.record(LogLevel::Info, "x", 1, 2, 0.5);
        fr.record(LogLevel::Info, "y", 3, 4, 1.0);
        assert_eq!(fr.capacity(), 1);
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.events()[0].code, "y");
    }

    #[test]
    fn clone_snapshots_are_independent() {
        let mut fr = FlightRecorder::with_capacity(2);
        fr.record(LogLevel::Info, "x", 1, 0, 0.0);
        let snap = fr.clone();
        fr.record(LogLevel::Info, "y", 2, 0, 0.0);
        assert_eq!(snap.len(), 1);
        assert_eq!(fr.len(), 2);
    }
}
