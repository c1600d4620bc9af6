//! Cache-keying properties of the compile/run split.
//!
//! The artifact cache is only sound if its key — `(source hash,
//! option fingerprint)` — separates everything that can change a
//! compile and collapses everything that cannot:
//!
//! * Any source edit (even a comment) and any compile-relevant option
//!   knob (disabled pass, fault plan, metrics, lint mode, data dir,
//!   M-file set) must give a distinct key.
//! * Run-time-only knobs — the worker-pool size, a trace sink — must
//!   NOT change the key: a warm artifact serves jobs at any pool size.
//! * A cache hit must be *observably* a re-run of the same program:
//!   the `EngineReport` of a hit is byte-identical to a cold compile's
//!   at every rank count, and its metrics contain no
//!   `compile_pass_seconds` series (passes 1–6 never ran).

use otter_core::{compile, run, source_hash, EngineOptions, EngineReport, RunRequest};
use otter_machine::meiko_cs2;
use otter_mpi::FaultPlan;
use otter_serve::ArtifactCache;

const SRC: &str = "a = [1, 2; 3, 4];\nb = a * a;\ns = sum(b(:, 1));\n";

/// Everything deterministic in an [`EngineReport`], flattened bit-
/// exactly (same contract as the scheduler-equivalence suite).
fn report_fingerprint(r: &EngineReport) -> String {
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
            "rank={} clock={:016x} msgs={} bytes={} peak={}",
            c.rank,
            c.clock.to_bits(),
            c.messages,
            c.bytes,
            c.peak_bytes,
        );
    }
    out
}

#[test]
fn every_compile_relevant_knob_changes_the_fingerprint() {
    let base = EngineOptions::default().fingerprint();
    let variants: Vec<(&str, EngineOptions)> = vec![
        (
            "disabled pass",
            EngineOptions::builder().disable_pass("peephole").build(),
        ),
        (
            "fault plan",
            EngineOptions::builder()
                .faults(FaultPlan::new().crash(1, 2))
                .build(),
        ),
        ("metrics", EngineOptions::builder().metrics(true).build()),
        ("lint mode", EngineOptions::builder().deny_lints().build()),
        (
            "data dir",
            EngineOptions::builder().data_dir("/tmp/otter-data").build(),
        ),
        (
            "m-files",
            EngineOptions::builder()
                .m_files(otter_frontend::MapProvider::new().with("f", "function y = f(x)\ny = x;"))
                .build(),
        ),
        (
            "fusion",
            EngineOptions::builder().disable_pass("fusion").build(),
        ),
    ];
    let mut seen = vec![("default", base)];
    for (what, opts) in &variants {
        let fp = opts.fingerprint();
        for (other, prev) in &seen {
            assert_ne!(
                fp, *prev,
                "changing `{what}` must not collide with `{other}`"
            );
        }
        seen.push((what, fp));
    }
}

#[test]
fn fingerprints_are_stable_across_calls() {
    let a = EngineOptions::builder()
        .disable_pass("peephole")
        .faults(FaultPlan::new().crash(1, 2))
        .build();
    let b = EngineOptions::builder()
        .disable_pass("peephole")
        .faults(FaultPlan::new().crash(1, 2))
        .build();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.fingerprint(), a.fingerprint());
}

#[test]
fn runtime_only_knobs_do_not_change_the_fingerprint() {
    let base = EngineOptions::default().fingerprint();
    let mut workers = EngineOptions::default();
    workers.workers = Some(2);
    assert_eq!(
        workers.fingerprint(),
        base,
        "worker-pool size is run-time-only: a warm artifact must serve any pool"
    );
    let traced = EngineOptions::builder()
        .trace(std::sync::Arc::new(otter_trace::MemorySink::new()))
        .build();
    assert_eq!(
        traced.fingerprint(),
        base,
        "a trace sink observes a run; it must not fork the compile cache"
    );
}

#[test]
fn any_source_change_changes_the_key() {
    let with_comment = format!("{SRC}% a comment changes nothing semantically\n");
    assert_ne!(
        source_hash(SRC),
        source_hash(&with_comment),
        "the cache key is content-addressed: byte-identity, not semantic identity"
    );
    assert_ne!(source_hash(SRC), source_hash("a = [1, 2; 3, 5];\n"));
}

#[test]
fn cache_hit_report_is_byte_identical_to_cold_compile() {
    let opts = EngineOptions::default();
    let mut cache = ArtifactCache::new(4);
    let (warm_artifact, first) = cache.get_or_compile(SRC, &opts).expect("cold compile");
    assert!(!first.cache_hit);
    let (warm_artifact2, second) = cache.get_or_compile(SRC, &opts).expect("cache hit");
    assert!(second.cache_hit);
    // A completely fresh compile, as a cold-path reference.
    let cold_artifact = compile(SRC, &opts).expect("reference compile");
    assert_eq!(warm_artifact.cache_key(), cold_artifact.cache_key());
    for p in [1usize, 2, 4, 8] {
        let req = RunRequest::on(meiko_cs2(), p);
        let cold = run(&cold_artifact, &req).expect("cold run");
        let warm = run(&warm_artifact2, &req).expect("warm run");
        assert_eq!(
            report_fingerprint(&cold),
            report_fingerprint(&warm),
            "p={p}: a cache hit must reproduce the cold compile bit-for-bit"
        );
    }
}

#[test]
fn warm_runs_carry_no_pass_timings() {
    let opts = EngineOptions::builder().metrics(true).build();
    let mut cache = ArtifactCache::new(4);
    let (_artifact, _) = cache.get_or_compile(SRC, &opts).expect("cold compile");
    let (artifact, outcome) = cache.get_or_compile(SRC, &opts).expect("cache hit");
    assert!(outcome.cache_hit);
    let report = run(&artifact, &RunRequest::on(meiko_cs2(), 4)).expect("warm run");
    let metrics = report.metrics.expect("metrics were requested");
    assert!(
        !metrics
            .entries
            .keys()
            .any(|k| k.name == "compile_pass_seconds"),
        "a served (cached) job must not report compiler-pass time: passes 1-6 never ran"
    );
}
