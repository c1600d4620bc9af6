//! The compiler driver: [`compile_with`] is the paper's pipeline,
//! written top to bottom as the rows of [`crate::pass::PASSES`].
//!
//! 1. scan + parse (otter-frontend)                      — `parse`
//! 2. identifier resolution, M-file loading              — `resolve`
//! 3. SSA + type/rank/shape inference                    — `ssa-infer`
//! 4. expression rewriting → IR (otter-codegen::lower)   — `rewrite`
//! 5. owner-computes guards (audited post-lowering)      — `guards`
//! 6. peephole optimization (optional)                   — `peephole`
//! 7. temporaries de-allocation + C emission             — `frees`, `emit-c`
//!
//! Two more stages ride along: the read-only `lint` (SPMD dataflow +
//! shape safety, between 5 and 6) and the optional loop `fusion`
//! (after `frees`). The static communication oracle and the in-place
//! legality sets are not a stage: `otterc --analyze` runs
//! `otter_lint::{shape::annotate_in_place, oracle::predict}` on a copy
//! of the finished IR, whose leaf-site numbering is the one the
//! executor instruments.
//!
//! From `rewrite` on there is one program, [`IrProgram`]: lowering
//! numbers each scope's variables, every later stage rewrites those
//! frames in place, and the executor runs the result as it stands.
//!
//! [`compile`] and [`compile_str`] are that one function with the
//! provider and dump request filled in; there is no other way in.

use crate::artifact::CompiledArtifact;
use crate::engines::EngineOptions;
use crate::error::{OtterError, Result};
use crate::pass::{ir_text, Artefact, DumpRequest, PassDump, Recorder};
use otter_analysis::{infer, resolve_program, ssa_rename, InferOptions};
use otter_codegen::peephole::PeepholeStats;
use otter_codegen::{emit_c, fuse, insert_frees, lower, peephole, FusionStats};
use otter_frontend::{parse, Program, Severity, SourceProvider};
use otter_ir::{Instr, IrProgram, VarRank};
use otter_lint::{lint_program, LintMode, LintReport};

/// A fully compiled program.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Executable SPMD IR: what `emit-c` printed and what the executor
    /// runs.
    pub ir: IrProgram,
    /// Emitted SPMD C translation unit.
    pub c_source: String,
    /// What pass 6 rewrote (zeros when disabled).
    pub peephole_stats: PeepholeStats,
    /// What the loop-fusion pass rewrote (zeros when disabled).
    pub fusion_stats: FusionStats,
    /// What pass 5 audited.
    pub guard_stats: GuardStats,
    /// What the lint pass found (empty when linting was disabled).
    pub lint: LintReport,
}

impl Compiled {
    /// The IR rendered for debugging.
    pub fn ir_text(&self) -> String {
        otter_ir::display::program_to_string(&self.ir)
    }
}

/// What the owner-computes guard pass found (pass 5). Lowering emits
/// the guards inline with each element store/fetch; this pass audits
/// and counts them so the construct is visible in compiler output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// `if (ML_owner(...))`-style guarded element stores.
    pub store_guards: usize,
    /// Owner-broadcast element fetches.
    pub broadcast_guards: usize,
}

/// Compile a script under `opts`. The compile half of the API split:
/// no machine, no rank count, nothing run-time enters here, so the
/// result is reusable across every subsequent [`crate::run`]. M-file
/// functions come from [`EngineOptions::m_files`].
pub fn compile(src: &str, opts: &EngineOptions) -> Result<CompiledArtifact> {
    let provider: &dyn SourceProvider = match &opts.m_files {
        Some(m_files) => m_files,
        None => &otter_frontend::EmptyProvider,
    };
    Ok(compile_with(src, provider, opts, DumpRequest::None)?.0)
}

/// Convenience: compile with no M-files and default options.
pub fn compile_str(src: &str) -> Result<CompiledArtifact> {
    compile(src, &EngineOptions::default())
}

/// The pipeline. Every compile goes through here: `provider` resolves
/// M-file functions (`otterc` passes the script's directory; it takes
/// precedence over [`EngineOptions::m_files`]), `dump` selects the
/// artefact snapshots returned beside the artifact.
///
/// Each stage takes the values the stages before it produced, so the
/// order below is the only order there is; the recorder adds the
/// timing, size statistics, dumps and error labels around each.
pub fn compile_with(
    src: &str,
    provider: &dyn SourceProvider,
    opts: &EngineOptions,
    dump: DumpRequest,
) -> Result<(CompiledArtifact, Vec<PassDump>)> {
    let mut rec = Recorder::new(&opts.disabled_passes, dump)?;

    // Pass 1: scan + parse.
    let program = rec.stage(
        "parse",
        || {
            let file = parse(src)?;
            Ok(Program {
                script: file.script,
                functions: file.functions,
            })
        },
        |program| Artefact::Ast(program),
    )?;

    // Pass 2: identifier resolution + M-file loading.
    let program = rec.stage(
        "resolve",
        || Ok(resolve_program(program, provider)?.program),
        |program| Artefact::Ast(program),
    )?;

    // Pass 3: SSA web renaming + type/rank/shape inference. A function
    // returns the webs its outputs hold at the end of its body; the
    // script's exit webs are what the workspace reports.
    let (program, inference, exit_webs) = rec.stage(
        "ssa-infer",
        || {
            let mut program = program;
            let script = ssa_rename(&program.script, &[]);
            program.script = script.block;
            for f in &mut program.functions {
                let info = ssa_rename(&f.body, &f.params);
                f.outs = f
                    .outs
                    .iter()
                    .map(|o| info.exit_web(o).to_string())
                    .collect();
                f.body = info.block;
            }
            let inference = infer(
                &program,
                InferOptions {
                    data_dir: opts.data_dir.clone(),
                },
            )?;
            Ok((program, inference, script.exit_webs))
        },
        |(program, _, _)| Artefact::Ast(program),
    )?;

    // Pass 4: expression rewriting — lower the typed AST to SPMD IR.
    let mut ir = rec.stage(
        "rewrite",
        || {
            let mut ir = lower(&program, &inference)?;
            // A web no statement defines has no slot and nothing to
            // report.
            let vars = &ir.main.vars;
            ir.exit_webs = exit_webs
                .into_iter()
                .filter_map(|(name, web)| Some((name, vars.slot(&web)?)))
                .collect();
            Ok(ir)
        },
        |ir| Artefact::Ir(ir),
    )?;

    // Pass 5: owner-computes guards.
    let guard_stats = rec.ir_stage("guards", &mut ir, |ir| audit_guards(ir), ir_text)?;

    // Pass 6: peephole optimization (optional — the ablation toggles it).
    let peephole_stats = rec.ir_stage("peephole", &mut ir, |ir| Ok(peephole(ir)), ir_text)?;

    // SPMD lint, on the IR as it will actually execute — after the
    // peephole pass has fused and pruned (else every transpose temp
    // the fuser is about to absorb reads as dead code), but before
    // `frees` inserts `Free` instructions that would count as uses.
    // Read-only: it never changes what later stages see.
    let lint = rec.ir_stage(
        "lint",
        &mut ir,
        |ir| lint_stage(ir, opts.lint),
        |_, report| {
            if report.warnings.is_empty() {
                return "(lint: no warnings)\n".to_string();
            }
            report.warnings.iter().map(|w| format!("{w}\n")).collect()
        },
    )?;

    // De-allocation of dead temporaries (paper §4: the run-time
    // library allocates *and de-allocates*). Memory hygiene, not an
    // optimization — always runs.
    let _freed = rec.ir_stage("frees", &mut ir, |ir| Ok(insert_frees(ir)), ir_text)?;

    // Loop fusion (optional). After `frees` so each fused temporary's
    // `Free` exists to consume.
    let fusion_stats = rec.ir_stage("fusion", &mut ir, |ir| Ok(fuse(ir)), ir_text)?;

    // Pass 7: C emission.
    let c_source = rec.stage("emit-c", || Ok(emit_c(&ir)), |c| Artefact::C(c))?;

    let compiled = Compiled {
        ir,
        c_source,
        peephole_stats,
        fusion_stats,
        guard_stats,
        lint,
    };
    Ok((
        CompiledArtifact::new(compiled, rec.stats, src, opts),
        rec.dumps,
    ))
}

/// Pass 5. Lowering emits the guards inline (`StoreElem` executes only
/// on the owning rank; `BroadcastElem` broadcasts from the owner), so
/// this audits and counts those constructs rather than inserting them:
/// every guarded instruction must target a variable the IR knows to be
/// a distributed matrix.
fn audit_guards(ir: &IrProgram) -> Result<GuardStats> {
    let mut stats = GuardStats::default();
    for site in otter_ir::leaf_sites(ir) {
        let (m, what, count) = match site.instr {
            Instr::StoreElem { m, .. } => {
                (m, "owner-computes guard targets", &mut stats.store_guards)
            }
            Instr::BroadcastElem { m, .. } => {
                (m, "owner broadcast reads", &mut stats.broadcast_guards)
            }
            _ => continue,
        };
        if site.frame.vars[*m].rank != VarRank::Matrix {
            let m = site.frame.vars.name(*m);
            return Err(OtterError::codegen(format!("{what} unknown matrix `{m}`")));
        }
        *count += 1;
    }
    Ok(stats)
}

/// The lint stage: distribution-state dataflow, collective-divergence
/// detection and the communication-site census. Under
/// [`LintMode::Deny`] the first warning becomes the compile error.
fn lint_stage(ir: &IrProgram, mode: LintMode) -> Result<LintReport> {
    let report = lint_program(ir);
    if mode == LintMode::Deny {
        if let Some(first) = report.warnings.first() {
            let mut d = first.clone().with_severity(Severity::Error);
            let rest = report.warnings.len() - 1;
            if rest > 0 {
                d.message = format!("{} ({rest} more lint warning(s) follow)", d.message);
            }
            return Err(OtterError(d));
        }
    }
    Ok(report)
}
