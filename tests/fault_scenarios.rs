//! Failure-path fixtures: SPMD jobs that misuse the communication
//! layer (mismatched collectives, unpaired point-to-point traffic,
//! wrong payload shapes) and jobs under injected faults, asserting the
//! exact typed [`JobFailure`] contents — which rank failed, why, and
//! which peers were blocked on it — at p ∈ {2, 4, 8}.
//!
//! Each dynamic fixture has a static twin: the lint divergence
//! analysis flags the same misuse pattern on hand-built IR (compiled
//! `.m` programs are divergence-free after resolution, so the IR is
//! constructed directly, exactly as the fixture's closure diverges on
//! `rank()`).

use otter_core::{compile, run_engine, try_run, Engine, EngineOptions, RunRequest};
use otter_ir::by_name::{frame, v, var};
use otter_ir::{ColRedOp, Instr, MatInit, RedOp, SExpr};
use otter_lint::divergence::lint_scope;
use otter_machine::meiko_cs2;
use otter_mpi::{run_spmd_with, CommError, FaultPlan, ReduceOp, SpmdOptions, WaitEdge};

/// Mismatched collective: even ranks enter an allreduce, odd ranks
/// skip it and finish. The participating ranks each learn which dead
/// peer they were waiting on; the skippers survive with their values.
#[test]
fn mismatched_collective_reports_terminated_peers() {
    for p in [2usize, 4, 8] {
        let job = run_spmd_with(&meiko_cs2(), p, SpmdOptions::default(), |c| {
            if c.rank() % 2 == 0 {
                c.allreduce_scalar(c.rank() as f64, ReduceOp::Sum)?;
            }
            Ok(c.rank())
        });
        let failure = job.expect_err("even ranks must fail");
        let failed: Vec<usize> = failure.report.failures.iter().map(|f| f.rank).collect();
        let even: Vec<usize> = (0..p).filter(|r| r % 2 == 0).collect();
        let odd: Vec<usize> = (0..p).filter(|r| r % 2 == 1).collect();
        assert_eq!(failed, even, "p={p}");
        assert_eq!(failure.report.survivor_ranks, odd, "p={p}");
        for f in &failure.report.failures {
            assert_eq!(f.error.code(), "peer_terminated", "p={p} rank {}", f.rank);
            assert_eq!(f.error.rank(), f.rank, "p={p}");
        }
        // Survivors keep their results and partial counters.
        for (s, want) in failure.survivors.iter().zip(&odd) {
            assert_eq!(s.rank, *want, "p={p}");
            assert_eq!(s.value, *want, "p={p}");
        }
        // At p = 2 the whole report is pinned down exactly.
        if p == 2 {
            assert_eq!(
                failure.report.failures[0].error,
                CommError::PeerTerminated { rank: 0, peer: 1 },
            );
            assert_eq!(
                failure.report.failures[0].error.to_string(),
                "rank 1 terminated while rank 0 awaited its message",
            );
        }
    }
}

/// Static twin: a collective (`Reduce`) under rank-divergent control
/// flow — the lint flags it as a collective-divergence site, the same
/// defect the dynamic fixture above exhibits at run time.
#[test]
fn lint_flags_the_mismatched_collective_statically() {
    let body = vec![
        Instr::InitMatrix {
            dst: v("a"),
            init: MatInit::Rand {
                rows: SExpr::c(4.0),
                cols: SExpr::c(4.0),
            },
        },
        // `r` is read before any definition: the lint's stand-in for a
        // per-rank value (exactly how the closure branches on rank()).
        Instr::If {
            cond: var("r"),
            then_body: vec![Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("a"),
            }],
            else_body: vec![],
        },
    ];
    let (findings, divergence_free) = lint_scope(&frame(body));
    assert!(!divergence_free);
    assert!(
        findings
            .iter()
            .any(|f| f.anchor == "s" && f.message.contains("collective divergence")),
        "{findings:?}"
    );
}

/// Send without a matching receive: rank 0 sends once but rank 1
/// receives twice, so the second receive finds its peer already
/// finished. The exact error is identical at every p.
#[test]
fn send_without_matching_recv_reports_dead_peer() {
    for p in [2usize, 4, 8] {
        let job = run_spmd_with(&meiko_cs2(), p, SpmdOptions::default(), |c| {
            match c.rank() {
                0 => c.send_scalar(1, 42.0)?,
                1 => {
                    let a = c.recv_scalar(0)?;
                    let b = c.recv_scalar(0)?; // never sent
                    assert_eq!((a, b), (42.0, 42.0));
                }
                _ => {}
            }
            Ok(())
        });
        let failure = job.expect_err("rank 1 must fail");
        assert_eq!(failure.report.failures.len(), 1, "p={p}");
        let f = &failure.report.failures[0];
        assert_eq!(f.rank, 1, "p={p}");
        assert_eq!(f.error, CommError::PeerTerminated { rank: 1, peer: 0 });
        assert!(f.blocked_peers.is_empty(), "p={p}: {:?}", f.blocked_peers);
        assert_eq!(failure.report.root_cause().rank, 1, "p={p}");
        let survivors: Vec<usize> = (0..p).filter(|&r| r != 1).collect();
        assert_eq!(failure.report.survivor_ranks, survivors, "p={p}");
        // The sender's partial stats survive: its one message is
        // counted even though the job failed.
        let rank0 = &failure.survivors[0];
        assert_eq!(rank0.rank, 0);
        assert_eq!(rank0.stats.messages_sent, 1, "p={p}");
    }
}

/// Static twin: a point-to-point instruction (`Shift`) under
/// rank-divergent control flow — flagged as a send/recv mismatch.
#[test]
fn lint_flags_the_unpaired_p2p_statically() {
    let body = vec![
        Instr::InitMatrix {
            dst: v("v"),
            init: MatInit::Rand {
                rows: SExpr::c(1.0),
                cols: SExpr::c(8.0),
            },
        },
        Instr::If {
            cond: var("r"),
            then_body: vec![Instr::Shift {
                dst: v("w"),
                v: v("v"),
                k: SExpr::c(1.0),
            }],
            else_body: vec![],
        },
    ];
    let (findings, divergence_free) = lint_scope(&frame(body));
    assert!(!divergence_free);
    assert!(
        findings
            .iter()
            .any(|f| f.anchor == "w" && f.message.contains("send/recv mismatch")),
        "{findings:?}"
    );
}

/// Two ranks blocked on each other receive the canonical deadlock
/// verdict — the confirmed wait-for cycle, byte-for-byte identical on
/// both members — while uninvolved ranks finish normally. No 60-second
/// timeout is involved: the whole diagnosis is wait-for-graph based.
#[test]
fn recv_recv_cycle_yields_exact_deadlock_cycle() {
    for p in [2usize, 4, 8] {
        let t0 = std::time::Instant::now();
        let job = run_spmd_with(&meiko_cs2(), p, SpmdOptions::default(), |c| {
            match c.rank() {
                0 => {
                    c.recv_scalar(1)?;
                }
                1 => {
                    c.recv_scalar(0)?;
                }
                _ => {}
            }
            Ok(())
        });
        let elapsed = t0.elapsed();
        let failure = job.expect_err("the cycle must be diagnosed");
        let cycle = vec![
            WaitEdge {
                waiter: 0,
                waiting_on: 1,
            },
            WaitEdge {
                waiter: 1,
                waiting_on: 0,
            },
        ];
        assert_eq!(failure.report.failures.len(), 2, "p={p}");
        assert_eq!(
            failure.report.failures[0].error,
            CommError::Deadlock {
                rank: 0,
                waiting_on: 1,
                cycle: cycle.clone(),
            },
            "p={p}"
        );
        assert_eq!(
            failure.report.failures[1].error,
            CommError::Deadlock {
                rank: 1,
                waiting_on: 0,
                cycle,
            },
            "p={p}"
        );
        assert_eq!(failure.report.failures[0].blocked_peers, vec![1], "p={p}");
        assert_eq!(failure.report.failures[1].blocked_peers, vec![0], "p={p}");
        let rest: Vec<usize> = (2..p).collect();
        assert_eq!(failure.report.survivor_ranks, rest, "p={p}");
        // Diagnosis is wait-for based, well under the old 60 s timeout.
        assert!(
            elapsed < std::time::Duration::from_secs(20),
            "p={p}: deadlock diagnosis took {elapsed:?}"
        );
    }
}

/// Wrong payload shape is a typed error on the receiver, not a panic.
#[test]
fn payload_mismatch_is_typed() {
    let job = run_spmd_with(&meiko_cs2(), 2, SpmdOptions::default(), |c| {
        if c.rank() == 0 {
            c.send(1, &[1.0, 2.0, 3.0])?;
        } else {
            c.recv_scalar(0)?;
        }
        Ok(())
    });
    let failure = job.expect_err("rank 1 must reject the payload");
    assert_eq!(failure.report.failures.len(), 1);
    assert_eq!(
        failure.report.failures[0].error,
        CommError::PayloadMismatch {
            rank: 1,
            from: 0,
            expected: 1,
            got: 3,
        }
    );
    assert_eq!(failure.report.survivor_ranks, vec![0]);
}

/// The headline acceptance scenario: a compiled benchmark app at
/// p = 8 with an injected rank crash. The job result names the dead
/// rank, the peers blocked on it appear in its failure entry, the
/// surviving/cascade ranks keep their partial counters, and no thread
/// panics anywhere (the error arrives as data through `try_run`).
#[test]
fn injected_crash_at_p8_names_dead_rank_and_blocked_peers() {
    let app = otter_apps::test_apps()
        .into_iter()
        .find(|a| a.id == "cg")
        .expect("cg app");
    let victim = 3usize;
    let mut opts = EngineOptions::builder()
        .faults(FaultPlan::new().crash(victim, 2))
        .build();
    opts.data_dir = None;
    let artifact = compile(&app.script, &opts).expect("compiles");
    let outcome = try_run(&artifact, &RunRequest::on(meiko_cs2(), 8)).expect("no driver error");
    let failure = outcome.expect_err("the injected crash must surface");

    let root = failure.report.root_cause();
    assert_eq!(root.rank, victim);
    assert_eq!(
        root.error,
        CommError::InjectedCrash {
            rank: victim,
            op_index: 2,
        }
    );
    // Every rank listed as blocked on the victim cascaded into a
    // peer-terminated failure of its own.
    let victim_entry = failure
        .report
        .failures
        .iter()
        .find(|f| f.rank == victim)
        .expect("victim entry");
    for blocked in &victim_entry.blocked_peers {
        assert!(
            failure
                .report
                .failures
                .iter()
                .any(|f| f.rank == *blocked && matches!(f.error, CommError::PeerTerminated { .. })),
            "blocked peer {blocked} should have failed as peer-terminated"
        );
    }
    // Partial per-rank state is intact: every failed rank reports the
    // clock and counters it had accumulated, and nothing panicked.
    for f in &failure.report.failures {
        assert!(f.clock >= 0.0);
        assert_ne!(f.error.code(), "panicked", "rank {}: {}", f.rank, f.error);
    }
    assert_eq!(
        failure.report.failures.len() + failure.survivors.len(),
        8,
        "every rank is accounted for"
    );
}

/// The engine's string-error path still works: `run_engine` folds the
/// failure report into an `OtterError` whose message names the root
/// cause, so callers that never opted into `try_run` keep working.
#[test]
fn engine_run_formats_the_failure_report() {
    let app = otter_apps::test_apps()
        .into_iter()
        .find(|a| a.id == "cg")
        .expect("cg app");
    let opts = EngineOptions::builder()
        .faults(FaultPlan::new().crash(1, 1))
        .build();
    let err = run_engine(Engine::Otter, &app.script, &opts, &meiko_cs2(), 4)
        .expect_err("the crash must surface");
    let msg = err.to_string();
    assert!(msg.contains("SPMD job failed"), "{msg}");
    assert!(msg.contains("crashed by fault plan"), "{msg}");
}
