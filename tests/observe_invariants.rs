//! Invariants of the observation spine: trace events, metrics and the
//! `EngineReport` counters are folds of one event stream, so they must
//! agree exactly.
//!
//! Four layers: the histogram/snapshot merge algebra must be
//! associative and commutative (that is what makes the job-level
//! snapshot independent of rank arrival order); for every benchmark
//! application and job size, one run with trace and metrics on must
//! reproduce its `RankCounters` from the per-rank trace totals and its
//! `EngineReport` totals from the merged metrics, and its critical
//! path can never exceed the simulated job time; the streams must
//! agree after an injected crash too; and observation must not perturb
//! the simulation — Figure 2 renders byte-identical with metrics on,
//! and a run with both off reports neither.

use otter_bench::render::render_fig2_csv;
use otter_bench::{fig2_with, Scale};
use otter_core::{compile, run_engine, try_run, Engine, EngineOptions, EngineReport, RunRequest};
use otter_det::DetRng;
use otter_machine::meiko_cs2;
use otter_metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
use otter_mpi::FaultPlan;
use otter_trace::{timelines, EventKind, MemorySink, TraceEvent, TraceSink};
use std::sync::{Arc, OnceLock};

// ---- merge algebra --------------------------------------------------------

/// Integer-valued samples spanning many buckets: addition of integers
/// up to a few thousand is exact in f64, so `sum` comparisons below
/// are exact equality, not tolerance checks.
fn sample_values(rng: &mut DetRng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.gen_index(8) {
            0 => 0.0,                                // underflow bucket
            k => (rng.gen_index(1 << k) + 1) as f64, // 1 ..= 2^k
        })
        .collect()
}

fn hist_of(values: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

#[test]
fn histogram_merge_is_associative_and_commutative() {
    let mut rng = DetRng::seed_from_u64(0x0717);
    for trial in 0..50 {
        let (na, nb, nc) = (1 + rng.gen_index(40), rng.gen_index(40), rng.gen_index(40));
        let a = hist_of(&sample_values(&mut rng, na));
        let b = hist_of(&sample_values(&mut rng, nb));
        let c = hist_of(&sample_values(&mut rng, nc));

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "associativity, trial {trial}");

        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "commutativity, trial {trial}");
    }
}

#[test]
fn histogram_merge_equals_pooled_observations() {
    let mut rng = DetRng::seed_from_u64(0x5EED);
    for _ in 0..20 {
        let xs = sample_values(&mut rng, 30);
        let ys = sample_values(&mut rng, 30);
        let mut merged = hist_of(&xs);
        merged.merge(&hist_of(&ys));
        let pooled = hist_of(&xs.iter().chain(&ys).copied().collect::<Vec<_>>());
        assert_eq!(merged, pooled);
    }
}

#[test]
fn snapshot_merge_is_rank_order_independent() {
    // Simulate 4 ranks with overlapping and disjoint keys, then merge
    // the snapshots in several different orders.
    let mut rng = DetRng::seed_from_u64(0xC0FFEE);
    let mut snaps = Vec::new();
    for rank in 0..4u64 {
        let mut r = MetricsRegistry::new();
        r.inc("msgs", &[], 10 + rank);
        r.gauge_max("peak", &[], (rank * 7 % 5) as f64);
        for v in sample_values(&mut rng, 25) {
            r.observe(
                "lat",
                &[("op", if rank % 2 == 0 { "send" } else { "recv" })],
                v,
            );
        }
        if rank == 2 {
            r.inc("only_rank2", &[], 1);
        }
        snaps.push(r.snapshot());
    }
    let forward = MetricsSnapshot::merged(snaps.iter());
    let reverse = MetricsSnapshot::merged(snaps.iter().rev());
    let shuffled = MetricsSnapshot::merged([&snaps[2], &snaps[0], &snaps[3], &snaps[1]]);
    assert_eq!(forward, reverse);
    assert_eq!(forward, shuffled);
    assert_eq!(forward.counter("msgs", &[]), Some(10 + 11 + 12 + 13));
    assert_eq!(forward.counter("only_rank2", &[]), Some(1));
}

// ---- trace and metrics agree with the EngineReport counters ---------------

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

/// One observed run of a benchmark application at one job size.
struct ObservedRun {
    ctx: String,
    p: usize,
    events: Vec<TraceEvent>,
    report: EngineReport,
}

/// Every test application at p ∈ {1, 2, 4, 8}, each run once with
/// trace and metrics on; both agreement checks below read these runs.
fn observed_runs() -> &'static [ObservedRun] {
    static RUNS: OnceLock<Vec<ObservedRun>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let machine = meiko_cs2();
        let mut runs = Vec::new();
        for app in otter_apps::test_apps() {
            for p in [1usize, 2, 4, 8] {
                let ctx = format!("{} x{p}", app.id);
                let sink = Arc::new(MemorySink::new());
                let opts = EngineOptions::builder()
                    .trace(Arc::clone(&sink))
                    .metrics(true)
                    .build();
                let report = run_engine(Engine::Otter, &app.script, &opts, &machine, p)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let events = sink.snapshot().expect("memory sink retains events");
                runs.push(ObservedRun {
                    ctx,
                    p,
                    events,
                    report,
                });
            }
        }
        runs
    })
}

#[test]
fn trace_totals_agree_with_rank_counters_for_every_app() {
    for run in observed_runs() {
        let (ctx, p, events, report) = (&run.ctx, run.p, &run.events, &run.report);
        // ---- the trace stream reproduces the per-rank counters.
        assert!(!events.is_empty(), "{ctx}: no events");

        let tls = timelines(events);
        assert_eq!(tls.len(), p, "{ctx}: one timeline per rank");
        assert_eq!(report.per_rank.len(), p);

        for (tl, rc) in tls.iter().zip(&report.per_rank) {
            let tag = format!("{ctx} rank {}", tl.rank);
            assert_eq!(tl.rank, rc.rank, "{tag}: rank order");

            // Message/byte counts are integers: demand exact
            // agreement between Send events and the counters.
            let (sends, sent_bytes) = sends_of(events, tl.rank);
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
            .unwrap_or_else(|| panic!("{ctx}: traced run reports a critical path"));
        assert!(
            cp.total <= report.modeled_seconds * (1.0 + REL_EPS),
            "{ctx}: critical path {} exceeds job time {}",
            cp.total,
            report.modeled_seconds
        );
        assert!(
            close(cp.compute + cp.comm, cp.total),
            "{ctx}: critical path split {} + {} != {}",
            cp.compute,
            cp.comm,
            cp.total
        );
        if p == 1 {
            assert_eq!(cp.hops, 0, "{ctx}: no cross-rank hops on one CPU");
        }
    }
}

#[test]
fn merged_totals_equal_report_counters() {
    for run in observed_runs() {
        let (ctx, p, report) = (&run.ctx, run.p, &run.report);
        // ---- the merged metrics reproduce the report totals.
        let m = report
            .metrics
            .as_ref()
            .unwrap_or_else(|| panic!("{ctx}: metrics enabled but report.metrics is None"));

        // Traffic: the comm-layer counters are a second tally of
        // exactly the packets the runner's stats counted.
        assert_eq!(
            m.counter("comm_messages_total", &[]).unwrap_or(0),
            report.messages,
            "{ctx}: messages"
        );
        assert_eq!(
            m.counter("comm_bytes_total", &[]).unwrap_or(0),
            report.bytes,
            "{ctx}: bytes"
        );
        let msg_hist_count = m
            .histogram("message_bytes", &[])
            .map(|h| h.count())
            .unwrap_or(0);
        assert_eq!(msg_hist_count, report.messages, "{ctx}: message size hist");

        // Ops: every rank executes the same instruction sequence
        // (SPMD), so the merged per-opcode counters are exactly p
        // times rank 0's counts.
        for (op, n) in &report.op_counts {
            assert_eq!(
                m.counter("ops_total", &[("op", op)]),
                Some(p as u64 * n),
                "{ctx}: ops_total{{op={op}}}"
            );
        }
        assert_eq!(m.counter_sum("ops_total"), {
            p as u64 * report.op_counts.values().sum::<u64>()
        });

        // Memory: max-gauges across ranks must equal the report's
        // high-water marks.
        assert_eq!(
            m.gauge("alloc_peak_bytes", &[]),
            Some(report.peak_temp_bytes as f64),
            "{ctx}: allocator peak"
        );
        assert_eq!(
            m.gauge("workspace_peak_bytes", &[]),
            Some(report.peak_rank_bytes as f64),
            "{ctx}: workspace peak"
        );

        // Clocks: one observation per rank, the slowest being the
        // modeled time; the imbalance gauge is consistent with it.
        let clocks = m.histogram("rank_clock_seconds", &[]).unwrap();
        assert_eq!(clocks.count(), p as u64, "{ctx}: one clock per rank");
        assert_eq!(clocks.max(), Some(report.modeled_seconds), "{ctx}: slowest");
        let ratio = m.gauge("load_imbalance_ratio", &[]).unwrap();
        assert!(ratio >= 1.0, "{ctx}: imbalance {ratio}");

        if p > 1 {
            assert!(report.messages > 0, "{ctx}: apps must communicate");
            assert!(
                m.counter_sum("collectives_total") > 0,
                "{ctx}: no collectives recorded"
            );
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

// ---- observation off reports nothing and changes nothing ------------------

/// One run with trace and metrics both off, shared by the two checks
/// below.
fn unobserved_report() -> &'static EngineReport {
    static REPORT: OnceLock<EngineReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let app = &otter_apps::test_apps()[0];
        run_engine(
            Engine::Otter,
            &app.script,
            &EngineOptions::default(),
            &meiko_cs2(),
            4,
        )
        .unwrap()
    })
}

#[test]
fn untraced_runs_report_no_critical_path() {
    assert!(unobserved_report().critical_path.is_none());
}

#[test]
fn metrics_off_means_no_snapshot() {
    assert!(unobserved_report().metrics.is_none());
}

#[test]
fn metrics_is_zero_cost() {
    // Enabling metrics must not change a single modeled number:
    // Figure 2's CSV renders byte-identical with the knob on and off.
    let off = render_fig2_csv(&fig2_with(Scale::Test, &EngineOptions::default()));
    let on = render_fig2_csv(&fig2_with(
        Scale::Test,
        &EngineOptions::builder().metrics(true).build(),
    ));
    assert_eq!(off, on);
}
