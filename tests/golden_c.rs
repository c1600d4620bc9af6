//! Golden tests: the generated C for the paper's two §3 example
//! statements, produced by the *full* pipeline from MATLAB source
//! (the unit tests in `otter-codegen` check the emitter from
//! hand-built IR; these check everything upstream too).

use otter_core::compile_str;

#[test]
fn excerpt_one_from_source() {
    // Paper §3: a = b * c + d(i,j);
    // "ML_matrix_multiply(b, c, ML_tmp1);
    //  ML_broadcast(&ML_tmp2, d, i-1, j-1);
    //  for (ML_tmp3 = ML_local_els(a)-1; ML_tmp3 >= 0; ML_tmp3--) {
    //      a->realbase[ML_tmp3] = ML_tmp1->realbase[ML_tmp3] + ML_tmp2;
    //  }"
    let src = "\
n = 8;
b = ones(n, n);
c = ones(n, n);
d = eye(n);
i = 2;
j = 3;
a = b * c + d(i, j);
";
    let compiled = compile_str(src).expect("compiles");
    let c = &compiled.compiled().c_source;

    // The three-statement structure survives the pipeline.
    let mm_line = c
        .lines()
        .find(|l| l.contains("ML_matrix_multiply"))
        .unwrap_or_else(|| panic!("no matmul call in:\n{c}"));
    assert!(mm_line.contains("(b, c, "), "{mm_line}");

    let bc_line = c.lines().find(|l| l.contains("ML_broadcast(")).unwrap();
    assert!(bc_line.contains(", d, i - 1, j - 1);"), "{bc_line}");

    let loop_line = c.lines().find(|l| l.contains("ML_local_els(a)")).unwrap();
    assert!(loop_line.contains(">= 0;"), "{loop_line}");

    let body_line = c.lines().find(|l| l.contains("a->realbase[")).unwrap();
    assert!(body_line.contains("->realbase["), "{body_line}");
    assert!(body_line.contains(" + "), "{body_line}");
}

#[test]
fn excerpt_two_from_source() {
    // Paper §3: a(i,j) = a(i,j) / b(j,i);
    // "ML_broadcast(&ML_tmp1, b, j-1, i-1);
    //  if (ML_owner(a, i-1, j-1)) {
    //      *ML_realaddr2(a, i-1, j-1) = *ML_realaddr2(a, i-1, j-1) / ML_tmp1;
    //  }"
    let src = "\
n = 8;
a = ones(n, n);
b = ones(n, n);
i = 2;
j = 3;
a(i, j) = a(i, j) / b(j, i);
";
    let compiled = compile_str(src).expect("compiles");
    let c = &compiled.compiled().c_source;

    // Exactly one broadcast: the read of a(i,j) itself must become
    // the in-guard ML_realaddr2 read, not a second broadcast.
    let bcasts: Vec<&str> = c.lines().filter(|l| l.contains("ML_broadcast(")).collect();
    assert_eq!(
        bcasts.len(),
        1,
        "one broadcast only (b's element): {bcasts:?}"
    );
    assert!(bcasts[0].contains(", b, j - 1, i - 1);"), "{}", bcasts[0]);

    let guard = c.lines().find(|l| l.contains("ML_owner(")).unwrap();
    assert!(guard.contains("ML_owner(a, i - 1, j - 1)"), "{guard}");

    let store = c
        .lines()
        .find(|l| l.trim().starts_with("*ML_realaddr2"))
        .unwrap();
    assert!(
        store.contains("*ML_realaddr2(a, i - 1, j - 1) = *ML_realaddr2(a, i - 1, j - 1) /"),
        "{store}"
    );
}

#[test]
fn generated_c_has_spmd_scaffolding() {
    let compiled = compile_str("x = 1;\ny = x * 2;").unwrap();
    let c = &compiled.compiled().c_source;
    for needle in [
        "#include <mpi.h>",
        "#include \"ml_runtime.h\"",
        "int main(int argc, char **argv)",
        "ML_init_env(&argc, &argv);",
        "ML_finalize_env();",
        "double x;",
        "double y;",
    ] {
        assert!(c.contains(needle), "missing `{needle}` in:\n{c}");
    }
}

#[test]
fn declarations_match_inferred_ranks() {
    let compiled = compile_str("n = 4;\nm = ones(n, n);\nv = m(:, 1);\ns = sum(v);").unwrap();
    let c = &compiled.compiled().c_source;
    assert!(c.contains("double n;"), "{c}");
    assert!(c.contains("MATRIX *m;"), "{c}");
    assert!(c.contains("MATRIX *v;"), "{c}");
    assert!(c.contains("double s;"), "{c}");
}

#[test]
fn functions_become_c_functions() {
    let provider = otter_frontend::MapProvider::new()
        .with("axpy", "function y = axpy(a, x, b)\ny = a * x + b;\n");
    let compiled = otter_core::compile(
        "x = ones(4, 1);\nb = ones(4, 1);\ny = axpy(2, x, b);",
        &otter_core::EngineOptions::builder()
            .m_files(provider)
            .build(),
    )
    .unwrap();
    let c = &compiled.compiled().c_source;
    assert!(
        c.contains("void ML_fn_axpy(double a, MATRIX *x, MATRIX *b, MATRIX **ML_out_y)"),
        "{c}"
    );
    assert!(c.contains("ML_fn_axpy(2, x, b, &"), "{c}");
}

#[test]
fn benchmark_scripts_pretty_print_roundtrip() {
    // Parse every benchmark script, pretty-print it, re-parse, and
    // require the print to be a fixed point — the front end and the
    // printer agree on the whole application subset.
    use otter_frontend::pretty::program_to_string;
    use otter_frontend::{parse, Program};
    for app in otter_apps::test_apps() {
        let f1 = parse(&app.script).unwrap_or_else(|e| panic!("{}: {e}", app.id));
        let p1 = Program {
            script: f1.script,
            functions: f1.functions,
        };
        let printed = program_to_string(&p1);
        let f2 = parse(&printed)
            .unwrap_or_else(|e| panic!("{}: reprint unparseable: {e}\n{printed}", app.id));
        let p2 = Program {
            script: f2.script,
            functions: f2.functions,
        };
        assert_eq!(printed, program_to_string(&p2), "{}", app.id);
    }
}

#[test]
fn benchmark_scripts_emit_c_without_temps_leaking() {
    // Every app's generated C declares all its variables and contains
    // balanced braces.
    for app in otter_apps::test_apps() {
        let compiled = otter_core::compile_str(&app.script).unwrap();
        let c = &compiled.compiled().c_source;
        let opens = c.matches('{').count();
        let closes = c.matches('}').count();
        assert_eq!(opens, closes, "{}: unbalanced braces", app.id);
        for v in &app.result_vars {
            assert!(
                c.contains(&format!("double {v};")) || c.contains(&format!("MATRIX *{v};")),
                "{}: result variable `{v}` undeclared",
                app.id
            );
        }
    }
}
