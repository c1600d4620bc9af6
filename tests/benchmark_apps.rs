//! The reproduction's gold test: every benchmark application from the
//! paper's evaluation compiles through the full Otter pipeline and
//! produces results identical (to FP-reduction tolerance) to the
//! interpreter oracle, at every processor count on every modeled
//! machine.

use otter_core::{compile, run, run_engine, Engine, EngineOptions, EngineReport, RunRequest};
use otter_machine::{enterprise_smp, meiko_cs2, sparc20_cluster, workstation, Machine};

fn assert_app_matches(app: &otter_apps::App, machine: &Machine, ps: &[usize]) {
    let opts = EngineOptions::default();
    let base = run_engine(Engine::Interpreter, &app.script, &opts, &workstation(), 1)
        .unwrap_or_else(|e| panic!("{}: interpreter: {e}", app.id));
    let compiled =
        compile(&app.script, &opts).unwrap_or_else(|e| panic!("{}: compile: {e}", app.id));
    for &p in ps {
        if p > machine.max_cpus {
            continue;
        }
        let report: EngineReport = run(&compiled, &RunRequest::on(machine.clone(), p))
            .unwrap_or_else(|e| panic!("{}: p={p}: {e}", app.id));
        for v in &app.result_vars {
            let a = base
                .scalar(v)
                .unwrap_or_else(|| panic!("{}: interpreter has no scalar `{v}`", app.id));
            let b = report
                .scalar(v)
                .unwrap_or_else(|| panic!("{}: compiled has no scalar `{v}`", app.id));
            assert!(
                (a - b).abs() <= 1e-6 * (1.0 + a.abs()),
                "{} on {} p={p}: `{v}` interpreter={a} otter={b}",
                app.id,
                machine.name
            );
        }
    }
}

#[test]
fn conjugate_gradient_matches_oracle_on_meiko() {
    let app = otter_apps::cg::conjugate_gradient(otter_apps::cg::Params::test());
    assert_app_matches(&app, &meiko_cs2(), &[1, 2, 3, 4, 8, 16]);
}

#[test]
fn ocean_engineering_matches_oracle_on_meiko() {
    let app = otter_apps::ocean::ocean_engineering(otter_apps::ocean::Params::test());
    assert_app_matches(&app, &meiko_cs2(), &[1, 2, 3, 4, 8, 16]);
}

#[test]
fn n_body_matches_oracle_on_meiko() {
    let app = otter_apps::nbody::n_body(otter_apps::nbody::Params::test());
    assert_app_matches(&app, &meiko_cs2(), &[1, 2, 3, 4, 8, 16]);
}

#[test]
fn transitive_closure_matches_oracle_on_meiko() {
    let app = otter_apps::transitive::transitive_closure(otter_apps::transitive::Params::test());
    assert_app_matches(&app, &meiko_cs2(), &[1, 2, 3, 4, 8, 16]);
}

#[test]
fn all_apps_match_oracle_on_cluster() {
    // The cluster's hierarchical topology exercises different message
    // paths; answers must not depend on the machine model.
    for app in otter_apps::test_apps() {
        assert_app_matches(&app, &sparc20_cluster(), &[4, 8]);
    }
}

#[test]
fn all_apps_match_oracle_on_smp() {
    for app in otter_apps::test_apps() {
        assert_app_matches(&app, &enterprise_smp(), &[2, 8]);
    }
}

#[test]
fn odd_processor_counts_work() {
    // Block distribution with remainders: non-power-of-two ranks.
    for app in otter_apps::test_apps() {
        assert_app_matches(&app, &meiko_cs2(), &[5, 7, 11, 13]);
    }
}

#[test]
fn all_three_engines_agree_on_every_benchmark_app() {
    // Acceptance check for the one `run_engine` path: the
    // interpreter, MATCOM, and Otter engines produce numerically equal
    // results on the four benchmark apps, and every report carries the
    // uniform counters.
    for app in otter_apps::test_apps() {
        let mut reports = Vec::new();
        for engine in Engine::ALL {
            let r = run_engine(
                engine,
                &app.script,
                &EngineOptions::default(),
                &meiko_cs2(),
                8,
            )
            .unwrap_or_else(|e| panic!("{}: {}: {e}", app.id, engine.name()));
            assert!(r.total_ops() > 0, "{}: {}: no op counts", app.id, r.engine);
            assert!(r.modeled_seconds > 0.0, "{}: {}", app.id, r.engine);
            reports.push(r);
        }
        let base = &reports[0];
        for r in &reports[1..] {
            for v in &app.result_vars {
                let a = base
                    .scalar(v)
                    .unwrap_or_else(|| panic!("{}: {} lacks `{v}`", app.id, base.engine));
                let b = r
                    .scalar(v)
                    .unwrap_or_else(|| panic!("{}: {} lacks `{v}`", app.id, r.engine));
                assert!(
                    (a - b).abs() <= 1e-6 * (1.0 + a.abs()),
                    "{}: `{v}` {}={a} vs {}={b}",
                    app.id,
                    base.engine,
                    r.engine
                );
            }
        }
        // Only the SPMD engine communicates; its per-rank counters must
        // sum to the totals.
        let otter = reports.iter().find(|r| r.engine == "otter").unwrap();
        assert_eq!(otter.per_rank.len(), 8, "{}", app.id);
        let msg_sum: u64 = otter.per_rank.iter().map(|c| c.messages).sum();
        assert_eq!(msg_sum, otter.messages, "{}", app.id);
        for r in &reports {
            if r.engine != "otter" {
                assert_eq!(r.messages, 0, "{}: {} is sequential", app.id, r.engine);
            }
        }
    }
}

#[test]
fn cg_actually_converges_in_compiled_form() {
    let app = otter_apps::cg::conjugate_gradient(otter_apps::cg::Params::test());
    let compiled = compile(&app.script, &EngineOptions::default()).unwrap();
    let report = run(&compiled, &RunRequest::on(meiko_cs2(), 8)).unwrap();
    assert!(
        report.scalar("err").unwrap() < 1e-6,
        "err={:?}",
        report.scalar("err")
    );
}

#[test]
fn transitive_closure_is_total_in_compiled_form() {
    let p = otter_apps::transitive::Params::test();
    let app = otter_apps::transitive::transitive_closure(p);
    let compiled = compile(&app.script, &EngineOptions::default()).unwrap();
    let report = run(&compiled, &RunRequest::on(meiko_cs2(), 6)).unwrap();
    assert_eq!(report.scalar("reach"), Some((p.n * p.n) as f64));
}
