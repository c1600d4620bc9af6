//! Front-end diagnostics.

use crate::span::Span;
use std::fmt;

/// An error produced by the scanner or parser.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendError {
    pub kind: FrontendErrorKind,
    pub span: Span,
    /// Name of the M-file being processed, when known.
    pub file: Option<String>,
}

/// Classification of front-end failures.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendErrorKind {
    /// A character the scanner cannot start a token with.
    UnexpectedChar(char),
    /// A string literal that runs past the end of its line.
    UnterminatedString,
    /// A malformed numeric literal (e.g. `1e+`).
    BadNumber(String),
    /// Parser found `found` where `expected` was needed.
    Expected { expected: String, found: String },
    /// A construct we deliberately do not support, with the reason.
    Unsupported(String),
    /// Nesting deeper than the parser's fixed limit.
    TooDeep(usize),
}

impl FrontendError {
    pub fn new(kind: FrontendErrorKind, span: Span) -> Self {
        FrontendError {
            kind,
            span,
            file: None,
        }
    }

    /// Attach the originating file name (used when loading M-files
    /// during identifier resolution).
    pub fn in_file(mut self, file: impl Into<String>) -> Self {
        self.file = Some(file.into());
        self
    }

    /// The description alone, without the location prefix `Display`
    /// adds (what a [`crate::Diagnostic`] carries as its message).
    pub fn message(&self) -> String {
        match &self.kind {
            FrontendErrorKind::UnexpectedChar(c) => format!("unexpected character `{c}`"),
            FrontendErrorKind::UnterminatedString => "unterminated string literal".into(),
            FrontendErrorKind::BadNumber(s) => format!("malformed number `{s}`"),
            FrontendErrorKind::Expected { expected, found } => {
                format!("expected {expected}, found {found}")
            }
            FrontendErrorKind::Unsupported(what) => format!("unsupported construct: {what}"),
            FrontendErrorKind::TooDeep(limit) => format!("nesting deeper than {limit}"),
        }
    }
}

impl From<FrontendError> for crate::Diagnostic {
    fn from(e: FrontendError) -> Self {
        let mut d = crate::Diagnostic::new("parse", e.message()).with_span(e.span);
        if let Some(file) = e.file {
            d = d.in_file(file);
        }
        d
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(file) = &self.file {
            write!(f, "{file}:")?;
        }
        write!(f, "{}: {}", self.span, self.message())
    }
}

impl std::error::Error for FrontendError {}

/// Convenient alias for front-end results.
pub type Result<T> = std::result::Result<T, FrontendError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location_and_file() {
        let e = FrontendError::new(
            FrontendErrorKind::Expected {
                expected: "`)`".into(),
                found: "`;`".into(),
            },
            Span::new(5, 6, 2, 7),
        )
        .in_file("cg.m");
        assert_eq!(e.to_string(), "cg.m:2:7: expected `)`, found `;`");
    }

    #[test]
    fn display_without_file() {
        let e = FrontendError::new(
            FrontendErrorKind::UnexpectedChar('@'),
            Span::new(0, 1, 1, 1),
        );
        assert_eq!(e.to_string(), "1:1: unexpected character `@`");
    }
}
