//! Structured per-rank event tracing for the Otter execution stack.
//!
//! Every layer of the simulator can emit [`TraceEvent`]s into a shared
//! [`TraceSink`]: the message-passing substrate records `Compute`, `Send`,
//! `Recv`, `Collective` and `Barrier` primitives stamped with simulated
//! (virtual) start/end clocks; the distributed runtime and the SPMD executor
//! add `Phase` and `Statement` spans on top. The three engines (interpreter,
//! matcom, otter) all trace through this one schema.
//!
//! Tracing is opt-in and zero-cost when disabled: callers hold an
//! `Option<Arc<dyn TraceSink>>`, and `None` means the disabled path never
//! constructs an event.
//!
//! On top of the raw stream this crate provides:
//!
//! * [`timelines`] — per-rank compute/comm/idle second totals,
//! * [`critical_path`] — the longest dependency chain through the send/recv
//!   graph and the share of communication on it,
//! * [`chrome_trace`] — a Chrome `trace_event` JSON exporter (load the output
//!   in `chrome://tracing` or Perfetto).

mod analyze;
mod chrome;
mod event;
mod sink;

pub use analyze::{critical_path, timelines, CriticalPath, RankTimeline};
pub use chrome::chrome_trace;
pub use event::{EventKind, TraceEvent};
pub use sink::{MemorySink, TraceSink};
