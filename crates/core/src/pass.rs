//! The pass table and the per-stage recorder of the compile driver.
//!
//! The paper describes Otter as a fixed multi-pass pipeline (§3:
//! scan/parse, identifier resolution, SSA + type inference, expression
//! rewriting, owner-computes guards, peephole optimization, then C
//! emission). [`PASSES`] names those stages in execution order and says
//! which may be disabled; [`crate::compile_with`] *is* the pipeline,
//! one stage per row. Around each stage the recorder skips it when
//! disabled, times it, records before/after program sizes
//! ([`PassStats`]), labels its errors with the stage name, and
//! snapshots the artefact when a [`DumpRequest`] asks (`otterc
//! --dump-after=<pass>`).
//!
//! A new pass is one row in the table and one stage in the function.

use crate::error::{OtterError, Result};
use otter_frontend::Program;
use otter_ir::IrProgram;
use std::time::{Duration, Instant};

/// One row of the pass table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassInfo {
    /// Stable name used by `--dump-after`, `disabled_passes`, reports
    /// and `error[<pass>]` labels.
    pub name: &'static str,
    /// Whether the pass may be disabled (optional optimisations and
    /// the read-only lint only — you cannot ablate the parser).
    pub optional: bool,
}

const fn row(name: &'static str, optional: bool) -> PassInfo {
    PassInfo { name, optional }
}

/// The pipeline, paper order: passes 1–6 of §3 (with the read-only
/// lint slotted between 5 and 6), then de-allocation, loop fusion, the
/// static analysis, and C emission.
pub const PASSES: [PassInfo; 11] = [
    row("parse", false),
    row("resolve", false),
    row("ssa-infer", false),
    row("rewrite", false),
    row("guards", false),
    row("peephole", true),
    row("lint", true),
    row("frees", false),
    row("fusion", true),
    row("analyze", false),
    row("emit-c", false),
];

/// Pass names, in execution order.
pub fn pass_names() -> Vec<&'static str> {
    PASSES.iter().map(|p| p.name).collect()
}

fn lookup(name: &str) -> Result<&'static PassInfo> {
    PASSES.iter().find(|p| p.name == name).ok_or_else(|| {
        OtterError::analysis(format!(
            "unknown pass `{name}` (registered: {})",
            pass_names().join(", ")
        ))
    })
}

/// Timing and size statistics for one executed pass.
#[derive(Debug, Clone, Copy)]
pub struct PassStats {
    pub name: &'static str,
    /// Host wall-clock time spent inside the pass.
    pub wall: Duration,
    /// AST statement count before/after.
    pub stmts_before: usize,
    pub stmts_after: usize,
    /// IR instruction count before/after (0 while no IR exists).
    pub ir_instrs_before: usize,
    pub ir_instrs_after: usize,
    /// Run-time library call count before/after.
    pub runtime_calls_before: usize,
    pub runtime_calls_after: usize,
}

/// An artifact snapshot taken after a pass (for `--dump-after`).
#[derive(Debug, Clone)]
pub struct PassDump {
    pub pass: &'static str,
    pub text: String,
}

/// Which passes to snapshot for dumping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DumpRequest {
    #[default]
    None,
    /// One pass of [`PASSES`].
    After(&'static str),
    /// Every pass.
    All,
}

impl DumpRequest {
    /// The `--dump-after` argument: `all`, or one pass name (checked
    /// against the table — an unknown name is an error here, not a
    /// dump that silently never appears).
    pub fn parse(arg: &str) -> Result<DumpRequest> {
        if arg == "all" {
            return Ok(DumpRequest::All);
        }
        Ok(DumpRequest::After(lookup(arg)?.name))
    }

    /// Whether a dump after pass `name` was asked for.
    pub fn wants(self, name: &str) -> bool {
        match self {
            DumpRequest::None => false,
            DumpRequest::All => true,
            DumpRequest::After(n) => n == name,
        }
    }
}

/// Program size as [`PassStats`] reports it.
#[derive(Debug, Clone, Copy, Default)]
struct Sizes {
    stmts: usize,
    ir_instrs: usize,
    runtime_calls: usize,
}

/// What a producing stage leaves behind: the artefact the recorder
/// sizes and, on request, dumps.
pub(crate) enum Artefact<'a> {
    Ast(&'a Program),
    Ir(&'a IrProgram),
    C(&'a str),
}

impl Artefact<'_> {
    /// Sizes after the stage: the artefact's own, the rest carried
    /// over (the AST is final once the IR exists; emitting C changes
    /// neither).
    fn sizes(&self, before: Sizes) -> Sizes {
        match self {
            Artefact::Ast(p) => Sizes {
                stmts: p.stmt_count(),
                ..before
            },
            Artefact::Ir(ir) => Sizes {
                ir_instrs: ir.instr_count(),
                runtime_calls: ir.runtime_call_count(),
                ..before
            },
            Artefact::C(_) => before,
        }
    }

    fn text(&self) -> String {
        match self {
            Artefact::Ast(p) => otter_frontend::pretty::program_to_string(p),
            Artefact::Ir(ir) => otter_ir::display::program_to_string(ir),
            Artefact::C(c) => c.to_string(),
        }
    }
}

/// The default dump of an IR stage: the IR as it now stands.
pub(crate) fn ir_text<T>(ir: &IrProgram, _: &T) -> String {
    otter_ir::display::program_to_string(ir)
}

/// The instrumentation [`crate::compile_with`] wraps around each
/// stage. Each stage's "after" sizes are the next stage's "before", so
/// the program is walked once per pass.
pub(crate) struct Recorder<'a> {
    disabled: &'a [String],
    dump: DumpRequest,
    sizes: Sizes,
    pub stats: Vec<PassStats>,
    pub dumps: Vec<PassDump>,
}

impl<'a> Recorder<'a> {
    /// The one check of [`crate::EngineOptions::disabled_passes`], at
    /// the top of every compile: every name must be an optional row of
    /// [`PASSES`], or there is no recorder to run stages with.
    pub fn new(disabled: &'a [String], dump: DumpRequest) -> Result<Self> {
        for name in disabled {
            if !lookup(name)?.optional {
                return Err(OtterError::analysis(format!("pass `{name}` is mandatory")));
            }
        }
        Ok(Recorder {
            disabled,
            dump,
            sizes: Sizes::default(),
            stats: Vec::with_capacity(PASSES.len()),
            dumps: Vec::new(),
        })
    }

    /// A stage that produces the next artefact from the ones before
    /// it. Such a stage has no "skipped" outcome: whatever follows
    /// takes its value.
    pub fn stage<T>(
        &mut self,
        name: &'static str,
        run: impl FnOnce() -> Result<T>,
        view: impl FnOnce(&T) -> Artefact<'_>,
    ) -> Result<T> {
        let start = Instant::now();
        // Label errors with the concrete stage that failed: a rank
        // conflict raised inside `ssa-infer` reads `error[ssa-infer]`,
        // not the generic `error[analysis]`.
        let out = run().map_err(|e| e.with_pass(name))?;
        let wall = start.elapsed();
        let artefact = view(&out);
        self.record(name, wall, artefact.sizes(self.sizes), || artefact.text());
        Ok(out)
    }

    /// A stage that reads or rewrites the IR in place and reports what
    /// it did. Disabled, it leaves the IR alone and reports
    /// `T::default()` (zero rewrites, no findings).
    pub fn ir_stage<T: Default>(
        &mut self,
        name: &'static str,
        ir: &mut IrProgram,
        run: impl FnOnce(&mut IrProgram) -> Result<T>,
        dump: impl FnOnce(&IrProgram, &T) -> String,
    ) -> Result<T> {
        if self.disabled.iter().any(|d| d == name) {
            return Ok(T::default());
        }
        let start = Instant::now();
        let out = run(ir).map_err(|e| e.with_pass(name))?;
        let wall = start.elapsed();
        let after = Artefact::Ir(ir).sizes(self.sizes);
        self.record(name, wall, after, || dump(ir, &out));
        Ok(out)
    }

    fn record(
        &mut self,
        name: &'static str,
        wall: Duration,
        after: Sizes,
        dump: impl FnOnce() -> String,
    ) {
        let before = std::mem::replace(&mut self.sizes, after);
        self.stats.push(PassStats {
            name,
            wall,
            stmts_before: before.stmts,
            stmts_after: after.stmts,
            ir_instrs_before: before.ir_instrs,
            ir_instrs_after: after.ir_instrs,
            runtime_calls_before: before.runtime_calls,
            runtime_calls_after: after.runtime_calls,
        });
        if self.dump.wants(name) {
            self.dumps.push(PassDump {
                pass: name,
                text: dump(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, compile_str, compile_with, CompiledArtifact, EngineOptions};
    use otter_frontend::EmptyProvider;

    const SRC: &str = "a = [1, 2; 3, 4];\nb = a * a;\ns = sum(b(:, 1));";

    fn without(pass: &str) -> Result<CompiledArtifact> {
        compile(SRC, &EngineOptions::builder().disable_pass(pass).build())
    }

    fn ran(artifact: &CompiledArtifact) -> Vec<&'static str> {
        artifact.pass_stats().iter().map(|s| s.name).collect()
    }

    fn dumps(request: &str) -> Vec<PassDump> {
        let request = DumpRequest::parse(request).unwrap();
        let opts = EngineOptions::default();
        compile_with(SRC, &EmptyProvider, &opts, request).unwrap().1
    }

    /// The default pass order is the paper's: passes 1–6 in §3 order
    /// (with the read-only lint stage slotted between passes 5 and 6),
    /// then the two emission-side stages.
    #[test]
    fn default_order_matches_paper() {
        let order = [
            "parse",
            "resolve",
            "ssa-infer",
            "rewrite",
            "guards",
            "peephole",
            "lint",
            "frees",
            "fusion",
            "analyze",
            "emit-c",
        ];
        assert_eq!(pass_names(), order);
        // The paper's numbered passes 1–6 appear in order once the
        // lint and fusion additions are filtered out.
        let paper: Vec<_> = pass_names()
            .into_iter()
            .filter(|n| *n != "lint" && *n != "fusion")
            .take(6)
            .collect();
        assert_eq!(paper, order[..6]);
        // The function runs its stages in table order.
        assert_eq!(ran(&compile_str(SRC).unwrap()), order);
    }

    #[test]
    fn every_pass_reports_stats() {
        let artifact = compile_str(SRC).unwrap();
        let passes = artifact.pass_stats();
        assert_eq!(passes.len(), pass_names().len());
        for s in passes {
            // Wall time is measured (zero is possible but the field is
            // real); sizes are coherent.
            assert!(s.stmts_after > 0 || s.ir_instrs_after > 0, "{s:?}");
        }
        // Rewrite creates the IR.
        let rewrite = passes.iter().find(|s| s.name == "rewrite").unwrap();
        assert_eq!(rewrite.ir_instrs_before, 0);
        assert!(rewrite.ir_instrs_after > 0);
        assert!(rewrite.runtime_calls_after > 0);
        // Each stage's "before" is the previous stage's "after".
        for w in passes.windows(2) {
            assert_eq!(w[1].stmts_before, w[0].stmts_after, "{w:?}");
            assert_eq!(w[1].ir_instrs_before, w[0].ir_instrs_after, "{w:?}");
            assert_eq!(w[1].runtime_calls_before, w[0].runtime_calls_after);
        }
    }

    /// `--dump-after` produces an artifact for every pass name.
    #[test]
    fn dump_after_emits_at_every_pass() {
        for name in pass_names() {
            let dumps = dumps(name);
            assert_eq!(dumps.len(), 1, "pass {name}");
            assert_eq!(dumps[0].pass, name);
            assert!(!dumps[0].text.is_empty(), "pass {name} dumped nothing");
        }
        assert!(DumpRequest::parse("no-such-pass").is_err());
    }

    #[test]
    fn dump_all_emits_everything() {
        assert_eq!(dumps("all").len(), pass_names().len());
    }

    /// Every name in `disabled_passes` is checked against the table
    /// before any stage runs: a mandatory or unknown name is a typed
    /// error (never a panic or a half-built artifact), an optional one
    /// is skipped.
    #[test]
    fn only_optional_passes_can_be_disabled() {
        let artifact = without("peephole").unwrap();
        assert!(without("parse").is_err());
        assert!(without("no-such-pass").is_err());
        assert!(artifact.pass_stats().iter().all(|s| s.name != "peephole"));

        let (optional, mandatory): (Vec<PassInfo>, Vec<PassInfo>) =
            PASSES.iter().partition(|p| p.optional);
        assert_eq!(optional.len(), 3);
        assert_eq!(mandatory.len(), 8);
        for pass in mandatory {
            let name = pass.name;
            assert_eq!(
                without(name).expect_err(name).to_string(),
                format!("error[analysis]: pass `{name}` is mandatory")
            );
        }
        assert_eq!(
            without("nope").unwrap_err().to_string(),
            "error[analysis]: unknown pass `nope` (registered: parse, resolve, ssa-infer, \
             rewrite, guards, peephole, lint, frees, fusion, analyze, emit-c)"
        );
        // A valid name does not excuse an invalid one beside it.
        let both = EngineOptions::builder()
            .disable_pass("peephole")
            .disable_pass("emit-c");
        assert!(compile(SRC, &both.build()).is_err());
        for pass in optional {
            let artifact = without(pass.name).expect(pass.name);
            let mut expected = pass_names();
            expected.retain(|n| *n != pass.name);
            assert_eq!(ran(&artifact), expected);
            assert!(!artifact.compiled().c_source.is_empty(), "{}", pass.name);
        }
    }

    /// The `analyze` stage does its work only when the options ask:
    /// off, there are no predictions and no in-place sets; the emitted
    /// C and the IR text are the same either way.
    #[test]
    fn analyze_stage_follows_its_flag() {
        let apps = otter_apps::test_apps();
        let nbody = &apps.iter().find(|a| a.id == "nbody").unwrap().script;
        let off = compile_str(nbody).unwrap();
        let on = compile(nbody, &EngineOptions::builder().analyze(true).build()).unwrap();
        assert!(off.compiled().analysis.is_empty());
        assert!(off.compiled().ir.in_place.is_empty());
        assert!(!on.compiled().analysis.is_empty());
        assert!(!on.compiled().ir.in_place.is_empty());
        assert_eq!(off.compiled().c_source, on.compiled().c_source);
        assert_eq!(off.compiled().ir_text(), on.compiled().ir_text());
        assert_ne!(off.cache_key(), on.cache_key());
    }

    #[test]
    fn guards_are_counted() {
        // Element store into a matrix → owner-computes guard.
        let src = "a = zeros(4, 4);\na(2, 3) = 7;\ns = a(2, 3);";
        let g = compile_str(src).unwrap().compiled().guard_stats;
        assert!(g.store_guards > 0, "{g:?}");
    }
}
