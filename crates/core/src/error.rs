//! Unified driver error type.
//!
//! Every failure along the compile-or-execute path is an
//! [`otter_frontend::Diagnostic`] — span, message, and the name of the
//! pipeline stage that raised it — so `otterc` and the benchmark
//! harness print one consistent `error[<pass>] <loc>: <message>`
//! format regardless of which crate the error started in. The
//! per-crate error types keep their own shapes; the `From` impls here
//! (and the `Diagnostic` conversions they build on) do the lifting,
//! and the compile driver re-labels `pass` with the concrete stage name.

use otter_frontend::Diagnostic;
use std::fmt;

/// Any failure along the compile-or-execute path, carrying the shared
/// diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct OtterError(pub Diagnostic);

impl OtterError {
    /// A front-end (scan/parse) failure with no richer source.
    pub fn frontend(message: impl Into<String>) -> Self {
        OtterError(Diagnostic::new("parse", message))
    }

    /// An analysis failure with no richer source.
    pub fn analysis(message: impl Into<String>) -> Self {
        OtterError(Diagnostic::new("analysis", message))
    }

    /// A codegen failure with no richer source.
    pub fn codegen(message: impl Into<String>) -> Self {
        OtterError(Diagnostic::new("codegen", message))
    }

    /// A run-time (executor/interpreter) failure.
    pub fn execution(message: impl Into<String>) -> Self {
        OtterError(Diagnostic::new("execution", message))
    }

    /// The underlying diagnostic.
    pub fn diagnostic(&self) -> &Diagnostic {
        &self.0
    }

    /// Re-label the originating pass.
    pub fn with_pass(self, pass: impl Into<String>) -> Self {
        OtterError(self.0.with_pass(pass))
    }
}

impl fmt::Display for OtterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for OtterError {}

impl From<Diagnostic> for OtterError {
    fn from(d: Diagnostic) -> Self {
        OtterError(d)
    }
}

impl From<otter_frontend::FrontendError> for OtterError {
    fn from(e: otter_frontend::FrontendError) -> Self {
        OtterError(e.into())
    }
}

impl From<otter_analysis::AnalysisError> for OtterError {
    fn from(e: otter_analysis::AnalysisError) -> Self {
        OtterError(e.into())
    }
}

impl From<otter_codegen::CodegenError> for OtterError {
    fn from(e: otter_codegen::CodegenError) -> Self {
        OtterError(e.into())
    }
}

impl From<otter_interp::InterpError> for OtterError {
    fn from(e: otter_interp::InterpError) -> Self {
        OtterError(e.into())
    }
}

impl From<otter_mpi::CommError> for OtterError {
    fn from(e: otter_mpi::CommError) -> Self {
        OtterError(Diagnostic::new("comm", e.to_string()))
    }
}

impl From<otter_mpi::FailureReport> for OtterError {
    fn from(r: otter_mpi::FailureReport) -> Self {
        OtterError(Diagnostic::new("comm", r.to_string()))
    }
}

pub type Result<T> = std::result::Result<T, OtterError>;

#[cfg(test)]
mod tests {
    use super::*;
    use otter_frontend::Span;

    #[test]
    fn constructors_set_the_pass() {
        assert_eq!(
            OtterError::execution("boom").to_string(),
            "error[execution]: boom"
        );
        assert_eq!(
            OtterError::analysis("nope")
                .with_pass("resolve")
                .to_string(),
            "error[resolve]: nope"
        );
    }

    #[test]
    fn conversions_preserve_spans() {
        let src = otter_analysis::AnalysisError::new("rank conflict", Span::new(2, 3, 4, 5));
        let e: OtterError = src.into();
        assert_eq!(e.diagnostic().span.line, 4);
        assert_eq!(e.to_string(), "error[analysis] 4:5: rank conflict");
    }
}
