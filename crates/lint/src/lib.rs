//! `otter-lint` — static SPMD analyses over the post-rewrite IR.
//!
//! The compiler's rewrite pass decides, silently, where every value
//! lives and which run-time communication calls move it. This crate
//! makes those decisions auditable: a small forward-dataflow framework
//! ([`dataflow`]) drives three analyses and reports their findings as
//! warnings the driver can print (`otterc --lint`) or turn into hard
//! errors (`--lint=deny`):
//!
//! * [`dist`] — distribution-state inference over the lattice
//!   `⊥ < {replicated, row-dist, block-vec} < ⊤`, with lints for
//!   redundant owner-broadcasts, loop-invariant redistribution churn,
//!   and dead distributed values.
//! * [`divergence`] — rank-dependence taint analysis flagging
//!   communication reachable only under rank-divergent control flow
//!   (collective deadlock / unpaired point-to-point traffic).
//!   [`lint_program`] adds a static census of communication sites, a
//!   fold of `comm_profile` over [`otter_ir::leaf_sites`].
//! * [`shape`] — shape-safety *errors* (mismatched elementwise /
//!   matmul / dot operands, constant indices provably out of bounds)
//!   plus the SSA-web in-place legality analysis, both driven by the
//!   symbolic shapes inference attaches to the IR.
//! * [`oracle`] — the static communication-volume oracle: a closed-
//!   form `messages(p)` / `bytes(p)` model per leaf site, exact
//!   against the deterministic modeled run.
//!
//! Everything here is read-only over the IR: linting never changes
//! what the pipeline emits.

pub mod dataflow;
pub mod dist;
pub mod divergence;
pub mod oracle;
pub mod shape;

use otter_frontend::{Diagnostic, Span};
use otter_ir::{leaf_sites, Frame, IrProgram};

/// A raw lint finding: a message anchored to the variable whose
/// definition it is about (resolved to a source span through the
/// frame's table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Variable (or opcode, for def-less instructions) the finding
    /// points at.
    pub anchor: String,
    pub message: String,
}

/// How the driver treats lint warnings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintMode {
    /// Report warnings and keep compiling.
    #[default]
    Warn,
    /// Any warning fails the pipeline.
    Deny,
}

/// The result of linting one program.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings as printable warnings, deduplicated and ordered by
    /// source position.
    pub warnings: Vec<Diagnostic>,
    /// No communication site is reachable under rank-divergent control
    /// flow — the static guarantee that every rank runs every
    /// collective (no SPMD deadlock).
    pub divergence_free: bool,
    /// Every point-to-point site executes under uniform control flow,
    /// so each rank's sends pair with the partner's receives.
    pub sendrecv_matched: bool,
    /// Static count of point-to-point communication sites.
    pub p2p_sites: usize,
    /// Static count of collective communication sites.
    pub collective_sites: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty()
    }
}

/// Lint every scope of a lowered program.
pub fn lint_program(p: &IrProgram) -> LintReport {
    let mut report = LintReport {
        divergence_free: true,
        sendrecv_matched: true,
        ..Default::default()
    };
    // The communication-site census: the denominator for send/recv
    // matching.
    for site in leaf_sites(p) {
        let profile = site.instr.comm_profile();
        report.p2p_sites += usize::from(profile.point_to_point);
        report.collective_sites += usize::from(profile.collective);
    }

    let mut raw: Vec<(Finding, Span)> = Vec::new();
    for f in p.frames() {
        lint_scope(f, &p.live_out(f), &mut raw, &mut report);
    }

    // Transfer functions re-run under loop fixpoints, so identical
    // findings repeat; deduplicate, then order by source position for
    // stable golden output.
    raw.sort_by(|(a, sa), (b, sb)| {
        (sa.line, sa.col, &a.message).cmp(&(sb.line, sb.col, &b.message))
    });
    raw.dedup_by(|(a, sa), (b, sb)| a.message == b.message && sa == sb);
    report.warnings = raw
        .into_iter()
        .map(|(f, span)| Diagnostic::warning("lint", f.message).with_span(span))
        .collect();

    // Shape-safety findings are error-severity: they identify aborts
    // the run-time library would hit. Merging them into the same
    // report means deny mode fails on them automatically and warn
    // mode still surfaces them.
    for f in p.frames() {
        report.warnings.extend(shape::lint_scope(f));
    }
    report.warnings.sort_by(|a, b| {
        (a.span.line, a.span.col, &a.message).cmp(&(b.span.line, b.span.col, &b.message))
    });
    report
}

fn lint_scope(
    frame: &Frame,
    live_out: &[otter_ir::Slot],
    raw: &mut Vec<(Finding, Span)>,
    report: &mut LintReport,
) {
    let mut findings = dist::lint_scope(frame, live_out);
    let (div_findings, free) = divergence::lint_scope(frame);
    findings.extend(div_findings);
    report.divergence_free &= free;

    for mut f in findings {
        if f.message.starts_with("send/recv mismatch") {
            report.sendrecv_matched = false;
        }
        let span = def_span(frame, &f.anchor);
        if let Some(func) = frame.func() {
            f.message = format!("{} (in function `{}`)", f.message, func);
        }
        raw.push((f, span));
    }
}

/// Where the variable `anchor` of `frame` is first defined, if it is
/// one and lowering recorded a span.
fn def_span(frame: &Frame, anchor: &str) -> Span {
    let slot = frame.vars.slot(anchor);
    slot.and_then(|s| frame.vars[s].def_span)
        .unwrap_or(Span::DUMMY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_ir::by_name::*;
    use otter_ir::*;

    fn rand_mat(dst: &str) -> Instr {
        Instr::InitMatrix {
            dst: v(dst),
            init: MatInit::Rand {
                rows: SExpr::c(4.0),
                cols: SExpr::c(4.0),
            },
        }
    }

    #[test]
    fn clean_program_reports_clean() {
        let mut p = program(vec![
            rand_mat("a"),
            Instr::Reduce {
                dst: v("s"),
                op: RedOp::Fold(ColRedOp::Sum),
                m: v("a"),
            },
            Instr::Print {
                name: "s".into(),
                target: PrintTarget::Scalar(var("s")),
            },
        ]);
        p.main.vars[v("a")].rank = VarRank::Matrix;
        p.main.vars[v("s")].rank = VarRank::Scalar;
        let r = lint_program(&p);
        assert!(r.is_clean(), "{:?}", r.warnings);
        assert!(r.divergence_free);
        assert!(r.sendrecv_matched);
        assert_eq!(r.collective_sites, 1);
        assert_eq!(r.p2p_sites, 0);
    }

    #[test]
    fn site_census_counts_comm_classes() {
        let reduce = |dst: &str| Instr::Reduce {
            dst: v(dst),
            op: RedOp::Fold(ColRedOp::Sum),
            m: v("a"),
        };
        let mut p = program(vec![
            Instr::Transpose {
                dst: v("b"),
                a: v("a"),
            },
            Instr::For {
                var: v("i"),
                start: SExpr::c(1.0),
                step: SExpr::c(1.0),
                stop: SExpr::c(3.0),
                body: vec![reduce("s")],
            },
        ]);
        // Function bodies count too.
        let f = Frame {
            name: "f".into(),
            ..frame(vec![reduce("t")])
        };
        p.functions.insert("f".into(), f);
        let r = lint_program(&p);
        assert_eq!(r.p2p_sites, 1);
        assert_eq!(r.collective_sites, 2);
    }

    #[test]
    fn warnings_carry_def_spans_and_sorted_order() {
        let mut p = program(vec![
            rand_mat("a"),
            Instr::BroadcastElem {
                dst: v("x"),
                m: v("a"),
                i: SExpr::c(1.0),
                j: Some(SExpr::c(2.0)),
            },
            Instr::BroadcastElem {
                dst: v("y"),
                m: v("a"),
                i: SExpr::c(1.0),
                j: Some(SExpr::c(2.0)),
            },
            Instr::Print {
                name: "a".into(),
                target: PrintTarget::Matrix(v("a")),
            },
        ]);
        for (n, r) in [
            ("a", VarRank::Matrix),
            ("x", VarRank::Scalar),
            ("y", VarRank::Scalar),
        ] {
            p.main.vars[v(n)].rank = r;
        }
        p.main.vars[v("y")].def_span = Some(Span::new(0, 0, 3, 1));
        let r = lint_program(&p);
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        let w = r.warnings[0].to_string();
        assert!(
            w.starts_with("warning[lint] 3:1: redundant broadcast"),
            "{w}"
        );
    }

    #[test]
    fn function_findings_name_their_scope() {
        matrices(&["m"]);
        let body = vec![
            Instr::BroadcastElem {
                dst: v("t"),
                m: v("m"),
                i: SExpr::c(1.0),
                j: Some(SExpr::c(1.0)),
            },
            Instr::BroadcastElem {
                dst: v("u"),
                m: v("m"),
                i: SExpr::c(1.0),
                j: Some(SExpr::c(1.0)),
            },
            Instr::AssignScalar {
                dst: v("s"),
                src: SExpr::bin(SBinOp::Add, var("t"), var("u")),
            },
        ];
        let f = Frame {
            name: "helper".into(),
            params: vec![v("m")],
            outs: vec![v("s")],
            ..frame(body)
        };
        let mut p = IrProgram::default();
        p.functions.insert("helper".into(), f);
        let r = lint_program(&p);
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert!(r.warnings[0].message.contains("(in function `helper`)"));
    }

    #[test]
    fn duplicate_findings_from_fixpoint_deduplicated() {
        // A loop-invariant redundant broadcast inside a `for` is
        // visited on every fixpoint iteration; the report must carry
        // it once.
        let mut p = program(vec![
            rand_mat("a"),
            Instr::BroadcastElem {
                dst: v("x0"),
                m: v("a"),
                i: SExpr::c(1.0),
                j: Some(SExpr::c(1.0)),
            },
            Instr::For {
                var: v("k"),
                start: SExpr::c(1.0),
                step: SExpr::c(1.0),
                stop: SExpr::c(9.0),
                body: vec![Instr::BroadcastElem {
                    dst: v("x"),
                    m: v("a"),
                    i: SExpr::c(1.0),
                    j: Some(SExpr::c(1.0)),
                }],
            },
            Instr::Print {
                name: "a".into(),
                target: PrintTarget::Matrix(v("a")),
            },
        ]);
        for (n, r) in [
            ("a", VarRank::Matrix),
            ("x0", VarRank::Scalar),
            ("x", VarRank::Scalar),
            ("k", VarRank::Scalar),
        ] {
            p.main.vars[v(n)].rank = r;
        }
        let r = lint_program(&p);
        let redundant: Vec<_> = r
            .warnings
            .iter()
            .filter(|w| w.message.starts_with("redundant broadcast"))
            .collect();
        assert_eq!(redundant.len(), 1, "{redundant:?}");
    }
}
