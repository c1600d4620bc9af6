//! Golden tests for the SPMD lint pass.
//!
//! Three layers: the four benchmark applications must be warning-clean
//! (the lints describe real inefficiencies, and the apps don't have
//! any); the fixture scripts under `tests/fixtures/` must trigger each
//! distribution-state lint with exact spans and rendering; and
//! hand-built IR exercises the divergence lints that no *compiled*
//! program can reach (resolution rejects use-before-assignment, so
//! compiled control flow is always replicated — the divergence
//! analysis is the verifier of that invariant, not a style check).
//! Finally, linting must be read-only: disabling the pass changes
//! nothing downstream.

use otter_core::{compile, compile_str, EngineOptions, LintReport};
use otter_ir::by_name::{program, v, var};
use otter_ir::{ColRedOp, Instr, MatInit, RedOp, SBinOp, SExpr, VarRank};
use otter_lint::lint_program;

const DIST_FIXTURE: &str = include_str!("fixtures/lint_dist.m");
const CHURN_FIXTURE: &str = include_str!("fixtures/lint_churn.m");
const SHAPE_FIXTURE: &str = include_str!("fixtures/lint_shape.m");

fn lint_of(src: &str) -> LintReport {
    let artifact = compile_str(src).expect("fixture compiles");
    artifact.compiled().lint.clone()
}

fn rendered(report: &LintReport) -> Vec<String> {
    report.warnings.iter().map(|w| w.to_string()).collect()
}

#[test]
fn benchmark_apps_are_warning_clean() {
    for app in otter_apps::paper_apps() {
        let report = lint_of(&app.script);
        assert!(
            report.is_clean(),
            "{}: unexpected lint warnings: {:#?}",
            app.id,
            rendered(&report)
        );
        assert!(report.divergence_free, "{}", app.id);
        assert!(report.sendrecv_matched, "{}", app.id);
        // Every app communicates: the census must see the collectives.
        assert!(report.collective_sites > 0, "{}", app.id);
    }
}

#[test]
fn dist_fixture_golden() {
    let report = lint_of(DIST_FIXTURE);
    assert_eq!(
        rendered(&report),
        [
            "warning[lint] 2:1: dead distributed value: `a` is allocated and computed \
             on every rank but never read before `a__1` overwrites it",
            "warning[lint] 5:1: redundant broadcast: element `a__1[1, 2]` is already \
             replicated by an earlier `ML_broadcast` and none of its inputs changed; \
             reuse that value",
        ]
    );
    // The fixture's control flow is still uniform.
    assert!(report.divergence_free);
    assert!(report.sendrecv_matched);
}

#[test]
fn churn_fixture_golden() {
    let report = lint_of(CHURN_FIXTURE);
    assert_eq!(
        rendered(&report),
        [
            "warning[lint] 5:3: redistribution churn: `t` repeats the same \
          `extract-range` of loop-invariant `v` (block-vec) on every iteration; \
          hoist it out of the loop"
        ]
    );
    assert_eq!(report.p2p_sites, 1);
}

#[test]
fn shape_fixture_golden() {
    // Each category of shape-safety error the lint pack proves
    // statically, with exact spans: constant-index reads and writes
    // past the matrix extent, dot-product length disagreement, and a
    // constant range overrunning its vector. These are run-time aborts
    // caught at compile time, so they render as errors, not warnings.
    let report = lint_of(SHAPE_FIXTURE);
    assert_eq!(
        rendered(&report),
        [
            "error[shape] 2:1: row index 4 out of bounds: `a` is 3x4",
            "error[shape] 3:1: row index 5 out of bounds: `a` is 3x4",
            "error[shape] 7:1: dot length mismatch: `u` has 8 elements but `w` has 9",
            "error[shape] 8:1: range 3:12 out of bounds: `u` has 8 elements",
        ]
    );
    // The fixture's problems are shape problems only — control flow is
    // uniform and no distribution lint fires.
    assert!(report.divergence_free);
    assert!(report.sendrecv_matched);
}

#[test]
fn shape_errors_fail_deny_mode() {
    let opts = EngineOptions::builder().deny_lints().build();
    let err = compile(SHAPE_FIXTURE, &opts).unwrap_err();
    let msg = err.to_string();
    assert!(msg.starts_with("error[lint]"), "{msg}");
    assert!(msg.contains("out of bounds"), "{msg}");
}

#[test]
fn deny_mode_fails_the_pipeline() {
    let opts = EngineOptions::builder().deny_lints().build();
    let err = compile(DIST_FIXTURE, &opts).unwrap_err();
    let msg = err.to_string();
    assert!(msg.starts_with("error[lint]"), "{msg}");
    assert!(msg.contains("dead distributed value"), "{msg}");
    assert!(msg.contains("1 more lint warning"), "{msg}");
    // Clean programs are unaffected by deny mode.
    for app in otter_apps::test_apps() {
        compile(&app.script, &opts).unwrap_or_else(|e| panic!("{} under --lint=deny: {e}", app.id));
    }
}

#[test]
fn lint_is_read_only() {
    // Disabling the pass must change nothing the pipeline produces —
    // IR, C text, stats — for every app and both fixtures.
    let sources: Vec<String> = otter_apps::test_apps()
        .into_iter()
        .map(|a| a.script)
        .chain([
            DIST_FIXTURE.to_string(),
            CHURN_FIXTURE.to_string(),
            SHAPE_FIXTURE.to_string(),
        ])
        .collect();
    for src in sources {
        let with = compile_str(&src).unwrap();
        let without =
            compile(&src, &EngineOptions::builder().disable_pass("lint").build()).unwrap();
        let (with, without) = (with.compiled(), without.compiled());
        assert_eq!(with.ir_text(), without.ir_text());
        assert_eq!(with.c_source, without.c_source);
        assert_eq!(with.peephole_stats, without.peephole_stats);
        assert_eq!(with.guard_stats, without.guard_stats);
        assert!(without.lint.warnings.is_empty(), "disabled pass reported");
    }
}

// ---- divergence lints on hand-built IR ------------------------------------
//
// The source language cannot express rank-divergent control flow (all
// scalars are replicated and resolution rejects use-before-assignment),
// so these fixtures build IR directly: an undefined variable models a
// per-rank value, exactly what a future `ML_rank()` intrinsic would
// introduce.

fn rand_mat(dst: &str) -> Instr {
    Instr::InitMatrix {
        dst: v(dst),
        init: MatInit::Rand {
            rows: SExpr::c(8.0),
            cols: SExpr::c(8.0),
        },
    }
}

#[test]
fn divergent_collective_golden() {
    let mut p = program(vec![
        rand_mat("a"),
        Instr::If {
            cond: SExpr::bin(SBinOp::Gt, var("myrank"), SExpr::c(0.0)),
            then_body: vec![Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("a"),
            }],
            else_body: vec![],
        },
    ]);
    p.main.vars[v("a")].rank = VarRank::Matrix;
    p.main.vars[v("s")].rank = VarRank::Scalar;
    let report = lint_program(&p);
    assert!(!report.divergence_free);
    // No source span exists for hand-built IR: the rendering must fall
    // back cleanly (satellite: no dangling `:` or whitespace).
    let lines = rendered(&report);
    assert_eq!(
        lines,
        [
            "warning[lint]: collective divergence: `s` (`reduce`) executes under \
          rank-divergent control flow; ranks that skip the branch never enter \
          the collective and the others deadlock"
        ]
    );
}

#[test]
fn divergent_point_to_point_breaks_sendrecv_matching() {
    let mut p = program(vec![
        rand_mat("a"),
        Instr::While {
            pre: vec![],
            cond: SExpr::bin(SBinOp::Gt, var("myrank"), SExpr::c(0.0)),
            body: vec![Instr::Transpose {
                dst: v("b"),
                a: v("a"),
            }],
        },
    ]);
    p.main.vars[v("a")].rank = VarRank::Matrix;
    p.main.vars[v("b")].rank = VarRank::Matrix;
    let report = lint_program(&p);
    assert!(!report.sendrecv_matched);
    assert!(!report.divergence_free);
    assert_eq!(report.p2p_sites, 1);
    assert!(
        report.warnings.iter().any(|w| w
            .message
            .starts_with("send/recv mismatch: point-to-point `b` (`transpose`)")),
        "{:#?}",
        rendered(&report)
    );
}

#[test]
fn uniform_branches_around_collectives_stay_clean() {
    // The same shape with a *defined* (replicated) condition variable
    // must not warn: the lint keys on provable rank-dependence, not on
    // collectives-inside-branches.
    let mut p = program(vec![
        Instr::AssignScalar {
            dst: v("n"),
            src: SExpr::c(4.0),
        },
        rand_mat("a"),
        Instr::If {
            cond: SExpr::bin(SBinOp::Gt, var("n"), SExpr::c(2.0)),
            then_body: vec![Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("a"),
            }],
            else_body: vec![],
        },
    ]);
    p.main.vars[v("a")].rank = VarRank::Matrix;
    p.main.vars[v("s")].rank = VarRank::Scalar;
    p.main.vars[v("n")].rank = VarRank::Scalar;
    let report = lint_program(&p);
    assert!(report.divergence_free);
    assert!(report.is_clean(), "{:#?}", rendered(&report));
}
