//! Sinks that receive the event stream.

use crate::TraceEvent;
use std::sync::Mutex;

/// Destination for trace events. Shared by every rank thread, so
/// implementations must be `Send + Sync`.
///
/// Tracing off is the absence of a sink: emitters hold an
/// `Option<Arc<dyn TraceSink>>`, so the disabled path costs one branch per
/// would-be event and perturbs no modeled numbers.
pub trait TraceSink: Send + Sync {
    /// Record one event. May be called concurrently from rank threads.
    fn record(&self, ev: TraceEvent);

    /// A copy of everything recorded so far, if this sink retains events.
    /// Sinks that stream events elsewhere return `None` (the default).
    fn snapshot(&self) -> Option<Vec<TraceEvent>> {
        None
    }
}

/// Retains every event in memory; the sink used by `harness trace`,
/// `otterc --trace` and the test suite.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain and return all recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }
}

impl TraceSink for MemorySink {
    fn record(&self, ev: TraceEvent) {
        self.events.lock().unwrap().push(ev);
    }

    fn snapshot(&self) -> Option<Vec<TraceEvent>> {
        Some(self.events.lock().unwrap().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn ev(rank: usize, a: f64, b: f64) -> TraceEvent {
        TraceEvent {
            rank,
            t_start: a,
            t_end: b,
            kind: EventKind::Compute,
        }
    }

    #[test]
    fn memory_sink_retains_in_order() {
        let s = MemorySink::new();
        s.record(ev(0, 0.0, 1.0));
        s.record(ev(1, 0.5, 2.0));
        let evs = s.snapshot().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].rank, 0);
        assert_eq!(evs[1].rank, 1);
        assert_eq!(s.take().len(), 2);
        assert!(s.is_empty());
    }
}
