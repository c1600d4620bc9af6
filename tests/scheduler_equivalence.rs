//! Scheduler equivalence: the virtual-rank scheduler multiplexes `p`
//! logical ranks over `W` workers, and nothing the simulation *reports*
//! may depend on `W`. Virtual clocks advance only through the machine
//! model, so every deterministic output — rank results, counters,
//! trace totals, failure reports — must be identical whether ranks get
//! dedicated workers (`W = p`, the seed's thread-per-rank behavior) or
//! fight over a tiny pool (`W = 1`, `W = 2`). The oversubscription
//! fixtures push p = 256 over two workers, including an injected crash
//! and a deadlock, to prove the failure machinery is also
//! pool-size-blind.

use otter_core::{compile, run, EngineOptions, EngineReport, RunRequest};
use otter_machine::meiko_cs2;
use otter_mpi::{run_spmd_with, FaultPlan, SpmdOptions, WaitEdge};
use std::time::Duration;

/// Everything deterministic in an [`EngineReport`], flattened to a
/// string so mismatches show exactly which field diverged. Bits, not
/// values: the contract is byte-identity, not tolerance.
fn fingerprint(r: &EngineReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "modeled={:016x} messages={} bytes={} peak_rank={} peak_temp={}",
        r.modeled_seconds.to_bits(),
        r.messages,
        r.bytes,
        r.peak_rank_bytes,
        r.peak_temp_bytes
    );
    let _ = writeln!(out, "output={:?}", r.output);
    let _ = writeln!(out, "ops={:?}", r.op_counts);
    for c in &r.per_rank {
        let _ = writeln!(
            out,
            "rank={} clock={:016x} msgs={} bytes={} peak={} compute={:016x} comm={:016x} idle={:016x}",
            c.rank,
            c.clock.to_bits(),
            c.messages,
            c.bytes,
            c.peak_bytes,
            c.compute_seconds.to_bits(),
            c.comm_seconds.to_bits(),
            c.idle_seconds.to_bits()
        );
    }
    out
}

fn run_with_workers(script: &str, p: usize, workers: Option<usize>) -> EngineReport {
    let opts = EngineOptions::builder().metrics(true).build();
    let artifact = compile(script, &opts).expect("app compiles");
    let mut req = RunRequest::on(meiko_cs2(), p);
    req.workers = workers;
    run(&artifact, &req).expect("job completes")
}

/// The headline property: every benchmark app, at every tested rank
/// count, produces bit-identical reports on a starved pool. Metrics
/// with deterministic meaning (communication totals, imbalance) agree
/// too.
#[test]
fn pooled_runs_match_dedicated_worker_runs() {
    for app in otter_apps::test_apps() {
        for p in [1usize, 2, 4, 8] {
            let dedicated = run_with_workers(&app.script, p, Some(p));
            let baseline = fingerprint(&dedicated);
            let base_metrics = dedicated.metrics.as_ref().expect("metrics on");
            for w in [1usize, 2] {
                let pooled = run_with_workers(&app.script, p, Some(w));
                assert_eq!(
                    fingerprint(&pooled),
                    baseline,
                    "{} p={p} W={w}: report must be byte-identical",
                    app.id
                );
                let m = pooled.metrics.as_ref().expect("metrics on");
                for counter in ["comm_messages_total", "comm_bytes_total"] {
                    assert_eq!(
                        m.counter_sum(counter),
                        base_metrics.counter_sum(counter),
                        "{} p={p} W={w}: {counter}",
                        app.id
                    );
                }
                assert_eq!(
                    m.gauge("load_imbalance_ratio", &[]),
                    base_metrics.gauge("load_imbalance_ratio", &[]),
                    "{} p={p} W={w}: imbalance",
                    app.id
                );
            }
        }
    }
}

/// Trace-derived quantities (per-rank timeline totals and the critical
/// path) are functions of virtual time only, so a one-worker pool must
/// reproduce them exactly.
#[test]
fn trace_totals_are_worker_invariant() {
    use otter_trace::{critical_path, timelines, MemorySink, TraceSink as _};
    use std::sync::Arc;

    let app = otter_apps::test_apps()
        .into_iter()
        .find(|a| a.id == "cg")
        .expect("cg app");
    let run_traced = |workers: usize| {
        let sink = Arc::new(MemorySink::new());
        let opts = EngineOptions::builder().trace(Arc::clone(&sink)).build();
        let artifact = compile(&app.script, &opts).expect("compiles");
        run(
            &artifact,
            &RunRequest::on(meiko_cs2(), 8).with_workers(workers),
        )
        .expect("job completes");
        let events = sink.snapshot().unwrap_or_default();
        let cp = critical_path(&events);
        let mut tls = timelines(&events);
        tls.sort_by_key(|t| t.rank);
        let tl_text: Vec<String> = tls
            .iter()
            .map(|t| {
                format!(
                    "rank={} compute={:016x} comm={:016x} idle={:016x}",
                    t.rank,
                    t.compute.to_bits(),
                    t.comm.to_bits(),
                    t.idle.to_bits()
                )
            })
            .collect();
        (
            events.len(),
            cp.total.to_bits(),
            cp.compute.to_bits(),
            cp.comm.to_bits(),
            cp.hops,
            tl_text,
        )
    };
    assert_eq!(
        run_traced(1),
        run_traced(8),
        "W=1 must trace identically to W=8"
    );
}

/// Failure reports — which ranks failed, why, who was blocked on whom,
/// the formatted text CI greps — must not depend on the pool size
/// either. An injected crash with a blocked sender/receiver pair is
/// the richest report shape.
#[test]
fn failure_reports_are_worker_invariant() {
    let run = |workers: usize| {
        let opts = SpmdOptions {
            workers: Some(workers),
            faults: Some(FaultPlan::new().crash(3, 1)),
            ..SpmdOptions::default()
        };
        let failure = run_spmd_with(&meiko_cs2(), 8, opts, |c| {
            match c.rank() {
                2 => {
                    c.send(3, &[2.0])?;
                    c.recv(3)?;
                }
                4 => {
                    c.recv(3)?;
                }
                3 => {
                    let v = c.recv(2)?;
                    c.send(2, &v)?;
                    c.send(4, &[3.0])?;
                }
                _ => c.compute(1e6),
            }
            Ok(c.rank())
        })
        .expect_err("the crash must surface");
        let survivors: Vec<(usize, u64)> = failure
            .survivors
            .iter()
            .map(|s| (s.rank, s.clock.to_bits()))
            .collect();
        (failure.report.to_string(), survivors)
    };
    let dedicated = run(8);
    assert_eq!(run(1), dedicated, "W=1");
    assert_eq!(run(2), dedicated, "W=2");
}

/// Heavy oversubscription on a real app: 256 virtual ranks of CG over
/// two workers reproduce a 32-worker run bit for bit.
#[test]
fn oversubscribed_cg_at_p256_on_two_workers() {
    let app = otter_apps::test_apps()
        .into_iter()
        .find(|a| a.id == "cg")
        .expect("cg app");
    let two = run_with_workers(&app.script, 256, Some(2));
    let many = run_with_workers(&app.script, 256, Some(32));
    assert_eq!(fingerprint(&two), fingerprint(&many));
    assert!(two.messages > 0, "256 ranks must communicate");
}

/// A crash mid-ring at p = 256 on two workers: the cascade is long
/// (every rank downstream of the victim dies waiting) and entirely
/// deterministic in membership.
#[test]
fn injected_crash_at_p256_on_two_workers() {
    let p = 256usize;
    let victim = 100usize;
    let opts = SpmdOptions {
        workers: Some(2),
        // The victim's ops: recv is op 1, send is op 2 — it dies at
        // its send, after consuming its predecessor's message.
        faults: Some(FaultPlan::new().crash(victim, 2)),
        ..SpmdOptions::default()
    };
    let failure = run_spmd_with(&meiko_cs2(), p, opts, |c| {
        // A ring: rank 0 seeds it, everyone else forwards.
        if c.rank() == 0 {
            c.send(1, &[1.0])?;
            c.recv(p - 1)?;
        } else {
            let v = c.recv(c.rank() - 1)?;
            c.send((c.rank() + 1) % p, &v)?;
        }
        Ok(c.rank())
    })
    .expect_err("the crash must break the ring");

    // Ranks 1..=99 received and forwarded before the victim died; the
    // victim and everyone downstream of it (101..=255 and the seeding
    // rank 0, which waits on 255) fail.
    let expected_failed: Vec<usize> = std::iter::once(0).chain(victim..p).collect();
    let failed: Vec<usize> = failure.report.failures.iter().map(|f| f.rank).collect();
    assert_eq!(failed, expected_failed);
    let expected_survivors: Vec<usize> = (1..victim).collect();
    assert_eq!(failure.report.survivor_ranks, expected_survivors);
    let root = failure.report.root_cause();
    assert_eq!(root.rank, victim);
    assert_eq!(root.error.code(), "injected_crash");
    for f in failure.report.failures.iter().filter(|f| f.rank != victim) {
        assert_eq!(
            f.error.code(),
            "peer_terminated",
            "rank {}: {}",
            f.rank,
            f.error
        );
    }
}

/// A two-rank deadlock buried in 256 ranks on a two-worker pool: the
/// detector must find the exact canonical cycle while 254 parked and
/// finished ranks stay out of the verdict.
#[test]
fn deadlock_fixture_at_p256_on_two_workers() {
    let t0 = std::time::Instant::now();
    let opts = SpmdOptions {
        workers: Some(2),
        ..SpmdOptions::default()
    };
    let failure = run_spmd_with(&meiko_cs2(), 256, opts, |c| {
        match c.rank() {
            7 => {
                c.recv(9)?;
            }
            9 => {
                c.recv(7)?;
            }
            _ => c.compute(1e5),
        }
        Ok(())
    })
    .expect_err("the cycle must be diagnosed");
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "diagnosis took {:?}",
        t0.elapsed()
    );
    let cycle = vec![
        WaitEdge {
            waiter: 7,
            waiting_on: 9,
        },
        WaitEdge {
            waiter: 9,
            waiting_on: 7,
        },
    ];
    assert_eq!(failure.report.failures.len(), 2);
    for (f, (rank, on)) in failure.report.failures.iter().zip([(7, 9), (9, 7)]) {
        assert_eq!(
            f.error,
            otter_mpi::CommError::Deadlock {
                rank,
                waiting_on: on,
                cycle: cycle.clone(),
            }
        );
    }
    assert_eq!(failure.report.survivor_ranks.len(), 254);
}
