//! The public door of the observation spine: a layer above `Comm`
//! (what `otter-rt` and the executor are) records its own events with
//! `Comm::record`, and they come back through the same per-rank
//! results the comm layer's own events do.

use otter_machine::meiko_cs2;
use otter_mpi::{run_spmd_with, Event, SpmdOptions};
use otter_trace::{EventKind, MemorySink, TraceSink};
use std::sync::Arc;

#[test]
fn upper_layer_events_reach_the_rank_results() {
    let sink = Arc::new(MemorySink::new());
    let opts = SpmdOptions {
        trace: Some(sink.clone() as Arc<dyn TraceSink>),
        metrics: true,
        ..SpmdOptions::default()
    };
    let results = run_spmd_with(&meiko_cs2(), 2, opts, |c| {
        let (name, t0) = ("ML_probe", c.clock());
        c.compute(1e3);
        if c.rank() == 0 {
            c.send(1, &[1.0, 2.0])?;
        } else {
            c.recv(0)?;
        }
        c.record(Event::Phase { name, t0 });
        Ok(c.clock())
    })
    .expect("job succeeds");

    let events = sink.snapshot().expect("memory sink retains events");
    for r in &results {
        let m = r.metrics.as_ref().expect("metrics were on");
        let phase = m
            .histogram("rt_op_seconds", &[("op", "ML_probe")])
            .expect("the phase was metered");
        assert_eq!(
            (phase.count(), phase.sum()),
            (1, r.value),
            "rank {}",
            r.rank
        );
        assert_eq!(
            m.counter("comm_messages_total", &[]).unwrap_or(0),
            r.stats.messages_sent,
            "rank {}",
            r.rank
        );
        let span = events
            .iter()
            .find(|e| e.rank == r.rank && e.kind == EventKind::Phase { name: "ML_probe" })
            .expect("the phase was traced");
        assert_eq!(
            (span.t_start, span.t_end),
            (0.0, r.value),
            "rank {}",
            r.rank
        );
        assert_eq!(r.flight.last().expect("flight is on").code, "rank.done");
    }
}
