//! Determinism guarantees: compiled SPMD execution is a simulation of
//! a *specific* machine, so repeated runs must agree exactly — same
//! numerical results, same modeled time, same message counts —
//! regardless of host scheduling. These properties are what make the
//! benchmark harness's figures reproducible.

use otter_core::{compile, run, EngineOptions, RunRequest};
use otter_machine::{meiko_cs2, sparc20_cluster};

const SRC: &str = "\
n = 33;
u = 1:n;
a = u' * u / n + eye(n);
v = cos(u)';
w = a * v;
d = v' * w;
s = sum(w);
t = circshift(w, 3);
z = norm(t - w);
";

#[test]
fn repeated_runs_are_bitwise_identical() {
    let compiled = compile(SRC, &EngineOptions::default()).unwrap();
    let machine = meiko_cs2();
    let first = run(&compiled, &RunRequest::on(machine.clone(), 8)).unwrap();
    for _ in 0..3 {
        let again = run(&compiled, &RunRequest::on(machine.clone(), 8)).unwrap();
        for v in ["d", "s", "z"] {
            assert_eq!(
                first.scalar(v).unwrap().to_bits(),
                again.scalar(v).unwrap().to_bits(),
                "{v} must be bitwise stable"
            );
        }
        assert_eq!(first.modeled_seconds, again.modeled_seconds, "modeled time");
        assert_eq!(first.messages, again.messages, "message count");
        assert_eq!(first.bytes, again.bytes, "byte count");
    }
}

#[test]
fn modeled_time_is_a_pure_function_of_machine_and_p() {
    let compiled = compile(SRC, &EngineOptions::default()).unwrap();
    for machine in [meiko_cs2(), sparc20_cluster()] {
        for p in [1usize, 2, 5, 8] {
            let a = run(&compiled, &RunRequest::on(machine.clone(), p))
                .unwrap()
                .modeled_seconds;
            let b = run(&compiled, &RunRequest::on(machine.clone(), p))
                .unwrap()
                .modeled_seconds;
            assert_eq!(a, b, "{} p={p}", machine.name);
        }
    }
}

#[test]
fn results_are_p_invariant_within_tolerance() {
    // Reductions reassociate across p, so exact bits may differ
    // between *different* processor counts — but values must agree to
    // tight tolerance.
    let compiled = compile(SRC, &EngineOptions::default()).unwrap();
    let machine = meiko_cs2();
    let base = run(&compiled, &RunRequest::on(machine.clone(), 1)).unwrap();
    for p in [2usize, 3, 7, 16] {
        let report = run(&compiled, &RunRequest::on(machine.clone(), p)).unwrap();
        for v in ["d", "s", "z"] {
            let a = base.scalar(v).unwrap();
            let b = report.scalar(v).unwrap();
            assert!(
                (a - b).abs() <= 1e-10 * (1.0 + a.abs()),
                "{v}: p=1 gives {a}, p={p} gives {b}"
            );
        }
    }
}

#[test]
fn machine_model_changes_time_not_answers() {
    let compiled = compile(SRC, &EngineOptions::default()).unwrap();
    let meiko = run(&compiled, &RunRequest::on(meiko_cs2(), 8)).unwrap();
    let cluster = run(&compiled, &RunRequest::on(sparc20_cluster(), 8)).unwrap();
    for v in ["d", "s", "z"] {
        assert_eq!(
            meiko.scalar(v).unwrap().to_bits(),
            cluster.scalar(v).unwrap().to_bits(),
            "{v}: answers must not depend on the machine model"
        );
    }
    assert!(
        cluster.modeled_seconds > meiko.modeled_seconds,
        "the Ethernet cluster must be slower at p=8"
    );
}

#[test]
fn seeded_rand_is_p_invariant() {
    // The replicated-stream rand initializer must give every rank the
    // same data no matter how many ranks there are. Individual
    // elements are bitwise stable; sums only agree to reduction
    // tolerance (tree reassociation).
    let src = "a = rand(12, 12);\ns = sum(sum(a));\ne = a(3, 4);";
    let compiled = compile(src, &EngineOptions::default()).unwrap();
    let machine = meiko_cs2();
    let r1 = run(&compiled, &RunRequest::on(machine.clone(), 1)).unwrap();
    for p in [2usize, 5, 8] {
        let rp = run(&compiled, &RunRequest::on(machine.clone(), p)).unwrap();
        assert_eq!(
            r1.scalar("e").unwrap().to_bits(),
            rp.scalar("e").unwrap().to_bits(),
            "rand element must be bitwise identical at p={p}"
        );
        let (a, b) = (r1.scalar("s").unwrap(), rp.scalar("s").unwrap());
        assert!(
            (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
            "sum at p={p}: {a} vs {b}"
        );
    }
}
