//! The shared compiler diagnostic.
//!
//! Every per-crate error type (front-end, analysis, codegen,
//! interpreter run-time) converts into this one shape, so drivers like
//! `otterc` and the benchmark harness print a single consistent
//! format: `error[<pass>] <file>:<line>:<col>: <message>`. The crate
//! errors themselves stay as they are — `From` impls do the lifting —
//! and the compile driver re-labels `pass` with the name of the pipeline
//! stage that actually failed.
//!
//! Diagnostics carry a [`Severity`]: errors abort the pipeline, while
//! warnings (the lint pass's output) accumulate so one run can report
//! many findings.

use crate::span::Span;
use std::fmt;

/// How serious a diagnostic is. Errors abort compilation; warnings
/// are collected and reported together (and only fail the pipeline
/// under `--lint=deny`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Severity {
    Warning,
    #[default]
    Error,
}

impl Severity {
    /// The lowercase keyword used when rendering (`error[...]` /
    /// `warning[...]`).
    pub fn keyword(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A uniformly printable compiler/run-time diagnostic: what went
/// wrong, where in the source, and which pipeline stage said so.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The pipeline stage or subsystem that raised the error
    /// (`parse`, `resolve`, `ssa-infer`, `codegen`, `execution`, ...).
    pub pass: String,
    /// Human-readable description, without location decoration.
    pub message: String,
    /// Source location; [`Span::DUMMY`] when there is no useful one.
    pub span: Span,
    /// Originating M-file, when known.
    pub file: Option<String>,
    /// Error (aborts the pipeline) or warning (collected).
    pub severity: Severity,
}

impl Diagnostic {
    /// An error diagnostic with no source location.
    pub fn new(pass: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            pass: pass.into(),
            message: message.into(),
            span: Span::DUMMY,
            file: None,
            severity: Severity::Error,
        }
    }

    /// A warning diagnostic with no source location.
    pub fn warning(pass: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::new(pass, message)
        }
    }

    /// Attach a source span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// Attach the originating file name.
    pub fn in_file(mut self, file: impl Into<String>) -> Self {
        self.file = Some(file.into());
        self
    }

    /// Re-label the originating pass (the compile driver applies the
    /// concrete pipeline-stage name to errors raised inside a pass).
    pub fn with_pass(mut self, pass: impl Into<String>) -> Self {
        self.pass = pass.into();
        self
    }

    /// Change the severity (deny-mode promotes warnings to errors).
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Whether the span is usable for display. A span whose line is 0
    /// came from a context with no real source position (hand-built
    /// IR, synthesized nodes) even when it is not exactly
    /// [`Span::DUMMY`]; rendering such a span would print a bogus
    /// `0:0` location.
    pub fn has_location(&self) -> bool {
        !self.span.is_dummy() && self.span.line > 0
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity.keyword(), self.pass)?;
        // Location part, omitted cleanly when absent: there must be no
        // dangling `:` or stray whitespace without one.
        match (&self.file, self.has_location()) {
            (Some(file), true) => write!(f, " {file}:{}:", self.span)?,
            (Some(file), false) => write!(f, " {file}:")?,
            (None, true) => write!(f, " {}:", self.span)?,
            (None, false) => write!(f, ":")?,
        }
        write!(f, " {}", self.message)
    }
}

impl std::error::Error for Diagnostic {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_location_shapes() {
        let d = Diagnostic::new("resolve", "use of `x` before assignment");
        assert_eq!(
            d.to_string(),
            "error[resolve]: use of `x` before assignment"
        );
        let d = d.with_span(Span::new(4, 5, 1, 5));
        assert_eq!(
            d.to_string(),
            "error[resolve] 1:5: use of `x` before assignment"
        );
        let d = d.in_file("cg.m");
        assert_eq!(
            d.to_string(),
            "error[resolve] cg.m:1:5: use of `x` before assignment"
        );
    }

    #[test]
    fn zero_line_span_is_treated_as_absent() {
        // A non-DUMMY span with line 0 must not render as `0:0`.
        let d = Diagnostic::new("lint", "dead value").with_span(Span::new(7, 9, 0, 0));
        assert_eq!(d.to_string(), "error[lint]: dead value");
        let d = d.in_file("gen.m");
        assert_eq!(d.to_string(), "error[lint] gen.m: dead value");
    }

    #[test]
    fn no_dangling_location_punctuation() {
        for d in [
            Diagnostic::new("lint", "m"),
            Diagnostic::new("lint", "m").in_file("f.m"),
            Diagnostic::new("lint", "m").with_span(Span::new(0, 0, 2, 1)),
        ] {
            let s = d.to_string();
            assert!(!s.contains(": :"), "{s:?}");
            assert!(!s.contains("  "), "{s:?}");
            assert!(!s.contains(" :"), "{s:?}");
        }
    }

    #[test]
    fn warnings_render_with_their_own_keyword() {
        let d = Diagnostic::warning("lint", "redundant broadcast").with_span(Span::new(0, 0, 3, 5));
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.to_string(), "warning[lint] 3:5: redundant broadcast");
        let promoted = d.with_severity(Severity::Error);
        assert_eq!(promoted.to_string(), "error[lint] 3:5: redundant broadcast");
    }

    #[test]
    fn with_pass_relabels() {
        let d = Diagnostic::new("analysis", "rank conflict").with_pass("ssa-infer");
        assert_eq!(d.pass, "ssa-infer");
        assert!(d.to_string().starts_with("error[ssa-infer]"));
    }
}
