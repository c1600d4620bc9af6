//! Property tests for the static-analysis tentpole: the symbolic
//! shape layer and the communication-volume oracle, checked against
//! independent ground truth on all four benchmark applications.
//!
//! Two contracts:
//!
//! * **Oracle exactness** — for every leaf site of every app, at every
//!   p ∈ {1, 2, 4, 8}, the compile-time model evaluated at the sample
//!   dimensions times the measured execution count equals the
//!   instrumented modeled run's per-site message and byte totals
//!   *exactly* (no tolerance), and statically predicted trip products
//!   equal measured execution counts.
//! * **Shape fidelity** — the symbolic shapes inference and the
//!   structural temp-refinement derive, evaluated at the sample
//!   dimensions, equal the shapes the reference interpreter actually
//!   produces for every surviving workspace matrix.

use otter_core::analysis::{predict, refined_shapes, Execs};
use otter_core::exec::SiteComm;
use otter_core::{compile, EngineOptions, ExecError, ExecOptions, Executor};
use otter_ir::IrProgram;
use otter_machine::meiko_cs2;
use otter_mpi::{run_spmd_with, SpmdOptions};

/// Realized traffic per leaf site of one modeled run of `ir` on `p`
/// ranks, in [`otter_ir::leaf_sites`] order: messages and bytes summed
/// over ranks, execution counts from rank 0 (SPMD: every rank runs
/// every site equally often).
fn measured_sites(ir: &IrProgram, p: usize) -> Vec<SiteComm> {
    let opts = ExecOptions {
        analyze: true,
        ..ExecOptions::default()
    };
    let ranks = run_spmd_with(
        &meiko_cs2(),
        p,
        SpmdOptions::default(),
        |comm| match Executor::new(ir, comm, opts.clone()).run() {
            Ok(outcome) => Ok(outcome.site_comm),
            Err(ExecError::Comm(e)) => Err(e),
            Err(ExecError::App(e)) => panic!("p={p}: {e}"),
        },
    )
    .unwrap_or_else(|failure| panic!("p={p}: {}", failure.report));
    let mut ranks = ranks.into_iter().map(|r| r.value);
    let mut total = ranks.next().expect("at least one rank");
    for rank in ranks {
        for (sum, site) in total.iter_mut().zip(rank) {
            sum.messages += site.messages;
            sum.bytes += site.bytes;
        }
    }
    total
}

#[test]
fn oracle_is_exact_for_every_app_and_rank_count() {
    for app in otter_apps::test_apps() {
        let artifact = compile(&app.script, &EngineOptions::default()).expect("app compiles");
        let mut ir = artifact.compiled().ir.clone();
        otter_lint::shape::annotate_in_place(&mut ir);
        let predictions = predict(&ir);
        assert!(!predictions.is_empty(), "{}: no predictions", app.id);
        let sites = otter_ir::leaf_sites(&ir);

        for p in [1usize, 2, 4, 8] {
            let measured = measured_sites(&ir, p);
            assert_eq!(
                measured.len(),
                predictions.len(),
                "{} at p={p}: oracle and executor disagree on the site list",
                app.id
            );
            for ((pred, site), got) in predictions.iter().zip(&sites).zip(&measured) {
                let opcode = site.instr.opcode();
                assert_eq!(pred.site, site.id, "{}: site order", app.id);
                if let Execs::Static(k) = pred.execs {
                    assert_eq!(
                        k, got.execs,
                        "{} site {} ({opcode}) at p={p}: static trip product",
                        app.id, site.id
                    );
                }
                let per = pred.model.per_exec(p).unwrap_or_else(|| {
                    panic!(
                        "{} site {} ({opcode}): model did not resolve at p={p}",
                        app.id, site.id
                    )
                });
                assert_eq!(
                    per.messages * got.execs,
                    got.messages,
                    "{} site {} ({opcode}) at p={p}: messages",
                    app.id,
                    site.id
                );
                assert_eq!(
                    per.bytes * got.execs,
                    got.bytes,
                    "{} site {} ({opcode}) at p={p}: bytes",
                    app.id,
                    site.id
                );
            }
        }
    }
}

#[test]
fn symbolic_shapes_match_interpreter_shapes() {
    for app in otter_apps::test_apps() {
        let artifact = compile(&app.script, &EngineOptions::default()).expect("app compiles");
        let ir = &artifact.compiled().ir;
        let shapes = refined_shapes(&ir.main);

        let outcome =
            otter_interp::run_script(&app.script, None).expect("interpreter runs the app");
        let mut checked = 0usize;
        for (name, value) in &outcome.workspace {
            let otter_interp::Value::Matrix(m) = value else {
                continue;
            };
            // The interpreter's final value is the script's exit web
            // of `name`; compare whenever that shape is statically
            // concrete (symbolic-only shapes are legal, wrong concrete
            // ones are not).
            let exit_web = ir.exit_webs.iter().find(|(n, _)| n == name);
            let exit_shape = exit_web.and_then(|&(_, web)| shapes[web.index()]);
            if let Some((r, c)) = exit_shape.and_then(|s| s.concrete()) {
                assert_eq!(
                    (r, c),
                    (m.rows(), m.cols()),
                    "{}: static shape of `{name}` disagrees with the interpreter",
                    app.id
                );
                checked += 1;
            }
        }
        assert!(
            checked >= 2,
            "{}: only {checked} concrete shapes checked — inference lost coverage",
            app.id
        );
    }
}
