//! Property: a program the linter certifies divergence-free actually
//! completes on every rank count — no rank left waiting in a
//! collective — and its traced point-to-point traffic pairs up
//! exactly: every `Send` on the edge `(from → to)` has the one `Recv`
//! with the same sequence number and byte count on the other side.
//! This cross-validates the static send/recv matching against the
//! trace subsystem's dependency edges (the same `seq` numbers the
//! critical-path analysis follows).

use otter_core::{compile_str, run_engine, EngineOptions, OtterEngine};
use otter_machine::meiko_cs2;
use otter_trace::{EventKind, MemorySink, TraceSink};
use std::collections::BTreeMap;
use std::sync::Arc;

#[test]
fn lint_clean_apps_complete_with_paired_sendrecv_at_all_rank_counts() {
    for app in otter_apps::test_apps() {
        let compiled = compile_str(&app.script).expect(app.id);
        assert!(compiled.compiled().lint.divergence_free, "{}", app.id);
        assert!(compiled.compiled().lint.sendrecv_matched, "{}", app.id);

        for p in [1usize, 2, 4, 8] {
            let sink = Arc::new(MemorySink::new());
            let opts = EngineOptions::builder().trace(Arc::clone(&sink)).build();
            let report = run_engine(&mut OtterEngine::new(opts), &app.script, &meiko_cs2(), p)
                .unwrap_or_else(|e| panic!("{} x{p}: {e}", app.id));

            // Completion: every rank reports a final clock — nobody is
            // stuck in a collective.
            assert_eq!(report.per_rank.len(), p, "{} x{p}", app.id);

            // Send/recv pairing as multisets keyed by the directed
            // edge, FIFO sequence number, and payload size.
            let events = sink.snapshot().expect("memory sink retains events");
            let mut sends: BTreeMap<(usize, usize, u64, u64), u64> = BTreeMap::new();
            let mut recvs: BTreeMap<(usize, usize, u64, u64), u64> = BTreeMap::new();
            for e in &events {
                match e.kind {
                    EventKind::Send { to, bytes, seq } => {
                        *sends.entry((e.rank, to, seq, bytes)).or_insert(0) += 1;
                    }
                    EventKind::Recv { from, bytes, seq } => {
                        *recvs.entry((from, e.rank, seq, bytes)).or_insert(0) += 1;
                    }
                    _ => {}
                }
            }
            assert_eq!(
                sends, recvs,
                "{} x{p}: unpaired point-to-point traffic",
                app.id
            );
            // Each (edge, seq) is a single message, not a burst.
            assert!(
                sends.values().all(|&n| n == 1),
                "{} x{p}: duplicate sequence numbers",
                app.id
            );

            // Static census vs dynamic reality: a program with zero
            // point-to-point sites must produce zero sends outside
            // collectives is not observable here (collectives expand
            // into sends), but a program with no communication sites
            // at all must stay silent on one rank.
            if compiled.compiled().lint.collective_sites == 0
                && compiled.compiled().lint.p2p_sites == 0
            {
                assert!(sends.is_empty(), "{} x{p}", app.id);
            }
        }
    }
}

#[test]
fn fixture_scripts_also_run_to_completion() {
    // The dist-lint fixtures carry warnings but remain divergence-free:
    // warnings are advisory, execution must still complete and match
    // across rank counts.
    for src in [
        include_str!("fixtures/lint_dist.m"),
        include_str!("fixtures/lint_churn.m"),
    ] {
        let compiled = compile_str(src).unwrap();
        assert!(compiled.compiled().lint.divergence_free);
        for p in [1usize, 2, 4, 8] {
            run_engine(
                &mut OtterEngine::new(EngineOptions::default()),
                src,
                &meiko_cs2(),
                p,
            )
            .unwrap_or_else(|e| panic!("fixture x{p}: {e}"));
        }
    }
}
