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

use otter_core::analysis::{refined_shapes, Execs};
use otter_core::{compile, run, EngineOptions, RunRequest};
use otter_machine::meiko_cs2;

#[test]
fn oracle_is_exact_for_every_app_and_rank_count() {
    for app in otter_apps::test_apps() {
        let opts = EngineOptions::builder().analyze(true).build();
        let artifact = compile(&app.script, &opts).expect("app compiles");
        let predictions = &artifact.compiled().analysis;
        assert!(!predictions.is_empty(), "{}: no predictions", app.id);

        for p in [1usize, 2, 4, 8] {
            let report = run(&artifact, &RunRequest::on(meiko_cs2(), p))
                .unwrap_or_else(|e| panic!("{} at p={p}: {e}", app.id));
            assert_eq!(
                report.comm_sites.len(),
                predictions.len(),
                "{} at p={p}: oracle and executor disagree on the site list",
                app.id
            );
            for (pred, site) in predictions.iter().zip(&report.comm_sites) {
                assert_eq!(pred.site, site.site, "{}: site order", app.id);
                if let Execs::Static(k) = pred.execs {
                    assert_eq!(
                        k, site.execs,
                        "{} site {} ({}) at p={p}: static trip product",
                        app.id, site.site, site.opcode
                    );
                }
                let per = pred.model.per_exec(p).unwrap_or_else(|| {
                    panic!(
                        "{} site {} ({}): model did not resolve at p={p}",
                        app.id, site.site, site.opcode
                    )
                });
                assert_eq!(
                    per.messages * site.execs,
                    site.messages,
                    "{} site {} ({}) at p={p}: messages",
                    app.id,
                    site.site,
                    site.opcode
                );
                assert_eq!(
                    per.bytes * site.execs,
                    site.bytes,
                    "{} site {} ({}) at p={p}: bytes",
                    app.id,
                    site.site,
                    site.opcode
                );
            }
        }
    }
}

/// The final SSA version of source variable `base` (`x`, `x__1`, …)
/// in the shape map, if any version is recorded.
fn final_version<'a>(
    shapes: &'a std::collections::BTreeMap<String, otter_analysis::Shape>,
    base: &str,
) -> Option<&'a otter_analysis::Shape> {
    let mut best: Option<(u64, &otter_analysis::Shape)> = None;
    for (name, shape) in shapes {
        let idx = if name == base {
            Some(0)
        } else {
            name.strip_prefix(base)
                .and_then(|rest| rest.strip_prefix("__"))
                .and_then(|digits| digits.parse::<u64>().ok())
                .map(|k| k + 1)
        };
        if let Some(idx) = idx {
            if best.is_none_or(|(b, _)| idx >= b) {
                best = Some((idx, shape));
            }
        }
    }
    best.map(|(_, s)| s)
}

#[test]
fn symbolic_shapes_match_interpreter_shapes() {
    for app in otter_apps::test_apps() {
        let artifact = compile(&app.script, &EngineOptions::default()).expect("app compiles");
        let ir = &artifact.compiled().ir;
        let shapes = refined_shapes(&ir.main, &ir.var_shapes, &ir.var_consts);

        let outcome =
            otter_interp::run_script(&app.script, None).expect("interpreter runs the app");
        let mut checked = 0usize;
        for (name, value) in &outcome.workspace {
            let otter_interp::Value::Matrix(m) = value else {
                continue;
            };
            // The interpreter's final value corresponds to the last
            // SSA version; compare whenever that shape is statically
            // concrete (symbolic-only shapes are legal, wrong concrete
            // ones are not).
            if let Some((r, c)) = final_version(&shapes, name).and_then(|s| s.concrete()) {
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
