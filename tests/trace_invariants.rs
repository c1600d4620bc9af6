//! Property-style agreement checks between the trace stream and the
//! always-on counters: for every benchmark application and job size,
//! the per-rank event totals must *exactly* reproduce what
//! `CommStats`/`RankCounters` measured, and the critical path can
//! never exceed the simulated job time. Any drift between the two
//! accounting paths (stats are charged inside `Comm`, events are
//! recorded by the sink) is a tracing bug.

use otter_core::{compile, run_engine, try_run, EngineOptions, OtterEngine, RunRequest};
use otter_machine::meiko_cs2;
use otter_mpi::FaultPlan;
use otter_trace::{timelines, EventKind, MemorySink, TraceEvent, TraceSink};
use std::sync::Arc;

/// Relative tolerance for summed floating-point durations. The event
/// durations are differences of the same clock values the stats are
/// accumulated from, so only rounding in `t_end - t_start` separates
/// them.
const REL_EPS: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_EPS * a.abs().max(b.abs()).max(1e-30)
}

/// Count and byte sum of one rank's `Send` events.
fn sends_of(events: &[TraceEvent], rank: usize) -> (u64, u64) {
    events
        .iter()
        .filter(|e| e.rank == rank)
        .filter_map(|e| match e.kind {
            EventKind::Send { bytes, .. } => Some(bytes),
            _ => None,
        })
        .fold((0, 0), |(n, sum), bytes| (n + 1, sum + bytes))
}

#[test]
fn trace_totals_agree_with_rank_counters_for_every_app() {
    for app in otter_apps::test_apps() {
        for p in [1usize, 2, 4, 8] {
            let sink = Arc::new(MemorySink::new());
            let opts = EngineOptions::builder().trace(Arc::clone(&sink)).build();
            let report = run_engine(&mut OtterEngine::new(opts), &app.script, &meiko_cs2(), p)
                .unwrap_or_else(|e| panic!("{} x{p}: {e}", app.id));
            let events = sink.snapshot().expect("memory sink retains events");
            assert!(!events.is_empty(), "{} x{p}: no events", app.id);

            let tls = timelines(&events);
            assert_eq!(tls.len(), p, "{} x{p}: one timeline per rank", app.id);
            assert_eq!(report.per_rank.len(), p);

            for (tl, rc) in tls.iter().zip(&report.per_rank) {
                let tag = format!("{} x{p} rank {}", app.id, tl.rank);
                assert_eq!(tl.rank, rc.rank, "{tag}: rank order");

                // Message/byte counts are integers: demand exact
                // agreement between Send events and the counters.
                let (sends, sent_bytes) = sends_of(&events, tl.rank);
                assert_eq!(sends, rc.messages, "{tag}: message count");
                assert_eq!(sent_bytes, rc.bytes, "{tag}: bytes sent");

                // Seconds are sums of clock differences: near-exact.
                assert!(
                    close(tl.compute, rc.compute_seconds),
                    "{tag}: compute {} vs {}",
                    tl.compute,
                    rc.compute_seconds
                );
                assert!(
                    close(tl.comm, rc.comm_seconds),
                    "{tag}: comm {} vs {}",
                    tl.comm,
                    rc.comm_seconds
                );
                assert!(
                    close(tl.idle, rc.idle_seconds),
                    "{tag}: idle {} vs {}",
                    tl.idle,
                    rc.idle_seconds
                );

                // The primitive events tile the rank's clock: nothing
                // is double-counted and nothing falls through.
                assert!(
                    close(tl.compute + tl.comm + tl.idle, tl.clock),
                    "{tag}: compute+comm+idle {} != clock {}",
                    tl.compute + tl.comm + tl.idle,
                    tl.clock
                );
                assert!(close(tl.clock, rc.clock), "{tag}: final clock");
            }

            // The critical path is one dependency chain through the
            // run — it can never be longer than the job itself, and
            // its compute/comm split must account for all of it.
            let cp = report
                .critical_path
                .as_ref()
                .unwrap_or_else(|| panic!("{} x{p}: traced run reports a critical path", app.id));
            assert!(
                cp.total <= report.modeled_seconds * (1.0 + REL_EPS),
                "{} x{p}: critical path {} exceeds job time {}",
                app.id,
                cp.total,
                report.modeled_seconds
            );
            assert!(
                close(cp.compute + cp.comm, cp.total),
                "{} x{p}: critical path split {} + {} != {}",
                app.id,
                cp.compute,
                cp.comm,
                cp.total
            );
            if p == 1 {
                assert_eq!(cp.hops, 0, "{}: no cross-rank hops on one CPU", app.id);
            }
        }
    }
}

/// The streams must agree when a job fails, too: every rank's partial
/// stats, its `Send` events, and the merged partial registries are
/// folds of the same events, and a failed rank's flight tail ends
/// with the failure. The crash lands inside the program proper, while
/// every sink is still on (the engine freezes trace and metrics before
/// its out-of-band reporting gathers).
#[test]
fn streams_agree_after_an_injected_crash() {
    let app = otter_apps::test_apps()
        .into_iter()
        .find(|a| a.id == "cg")
        .expect("cg app");
    let sink = Arc::new(MemorySink::new());
    let opts = EngineOptions::builder()
        .trace(Arc::clone(&sink))
        .metrics(true)
        .faults(FaultPlan::new().crash(2, 12))
        .build();
    let artifact = compile(&app.script, &opts).expect("compiles");
    let failure = try_run(&artifact, &RunRequest::on(meiko_cs2(), 4))
        .expect("no driver error")
        .expect_err("the injected crash must surface");
    let events = sink.snapshot().expect("memory sink retains events");

    let failed = failure
        .report
        .failures
        .iter()
        .map(|f| (f.rank, f.stats.messages_sent, f.stats.bytes_sent));
    let survived = failure
        .survivors
        .iter()
        .map(|s| (s.rank, s.messages, s.bytes));
    let ranks: Vec<(usize, u64, u64)> = failed.chain(survived).collect();
    assert_eq!(ranks.len(), 4, "every rank is accounted for");
    for &(rank, messages, bytes) in &ranks {
        assert_eq!(
            sends_of(&events, rank),
            (messages, bytes),
            "rank {rank}: Send events vs stats"
        );
    }
    let total: u64 = ranks.iter().map(|&(_, messages, _)| messages).sum();
    assert!(total > 0, "the crash must land mid-program");
    let merged = failure.metrics.as_ref().expect("metrics were on");
    assert_eq!(merged.counter("comm_messages_total", &[]), Some(total));

    for f in &failure.report.failures {
        let (_, tail) = &failure.flight[f.rank];
        let last = tail.last().expect("failed ranks record events");
        assert_eq!(last.code, "rank.failed", "rank {}", f.rank);
    }
}

#[test]
fn untraced_runs_report_no_critical_path() {
    let app = &otter_apps::test_apps()[0];
    let report = run_engine(
        &mut OtterEngine::new(EngineOptions::default()),
        &app.script,
        &meiko_cs2(),
        4,
    )
    .unwrap();
    assert!(report.critical_path.is_none());
}
