//! # otter-core
//!
//! The Otter compiler driver and execution engines — the paper's
//! primary contribution assembled from the substrate crates:
//!
//! ```text
//! MATLAB script ──► otter-frontend (scan/parse)
//!                ──► otter-analysis (resolve, SSA, inference)
//!                ──► otter-codegen (rewrite → IR, peephole, C text)
//!                ──► otter-core::exec (SPMD execution over otter-rt / otter-mpi)
//! ```
//!
//! The driver is one function, [`compile_with`], whose body is the
//! paper's pipeline — one stage per row of the pass table
//! [`pass::PASSES`], each wrapped in the same instrumentation (per-pass
//! wall time, size statistics, artifact dumps, optional-pass toggles).
//! The paper's three evaluation systems are the variants of
//! [`Engine`]: `Interpreter` (the MathWorks baseline), `Matcom` (the
//! commercial sequential compiler baseline), and `Otter` (compile +
//! SPMD execution on a modeled machine). [`run_engine`] runs any of
//! them, and every engine reports through one [`EngineReport`] schema.
//!
//! The compile side and the run side are split: [`compile()`] turns a
//! script plus [`EngineOptions`] into a [`CompiledArtifact`] — an
//! immutable, cheaply cloneable snapshot keyed by `(source hash,
//! option fingerprint)` — and [`run`] executes an artifact on a
//! machine described by a [`RunRequest`]. Long-lived services cache
//! artifacts by [`CompiledArtifact::cache_key`] so repeat jobs skip
//! passes 1–6 entirely.
//!
//! ```
//! use otter_core::{compile, run, EngineOptions, RunRequest};
//! use otter_machine::meiko_cs2;
//!
//! let artifact = compile(
//!     "a = [1, 2; 3, 4];\nb = a * a;\ns = sum(b(:, 1));",
//!     &EngineOptions::default(),
//! )
//! .unwrap();
//! assert!(artifact.compiled().c_source.contains("ML_matrix_multiply"));
//! let report = run(&artifact, &RunRequest::on(meiko_cs2(), 4)).unwrap();
//! assert_eq!(report.scalar("s"), Some(22.0));
//! ```

pub mod artifact;
pub mod compile;
pub mod engines;
pub mod error;
pub mod exec;
pub mod pass;
pub mod postmortem;

pub use artifact::{run, source_hash, try_run, CompiledArtifact, RunRequest};
pub use compile::{compile, compile_str, compile_with, Compiled, GuardStats};
pub use engines::{run_engine, Engine, EngineOptions, EngineReport, RankCounters, SpmdJobFailure};
pub use error::OtterError;
pub use exec::{ExecError, ExecOptions, Executor, XVal};
/// The static communication-volume oracle (re-exported so drivers can
/// evaluate [`Compiled::analysis`] predictions without a direct
/// `otter-lint` dependency).
pub use otter_lint::oracle as analysis;
pub use otter_lint::{lint_program, LintMode, LintReport};
pub use pass::{pass_names, DumpRequest, PassDump, PassInfo, PassStats, PASSES};
pub use postmortem::{
    build_postmortem, parse_postmortem, write_postmortem, PostmortemSummary, POSTMORTEM_SCHEMA,
};

#[cfg(test)]
mod tests;
