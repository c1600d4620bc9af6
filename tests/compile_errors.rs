//! Error-path tests: every documented compiler restriction fails with
//! a clear, actionable diagnostic (and, where the construct is legal
//! MATLAB, the interpreter still accepts it).

use otter_core::compile_str;
use otter_interp::run_script;

fn compile_err(src: &str) -> String {
    compile_str(src)
        .expect_err(&format!("should not compile:\n{src}"))
        .to_string()
}

#[test]
fn unknown_function_names_the_culprit() {
    let e = compile_err("z = frobnicate(3);");
    assert!(e.contains("frobnicate"), "{e}");
}

#[test]
fn use_before_assignment_names_the_variable() {
    let e = compile_err("y = x + 1;\nx = 2;");
    assert!(e.contains("`x`"), "{e}");
    assert!(e.contains("before"), "{e}");
}

#[test]
fn matrix_solve_points_to_cg() {
    let e = compile_err("a = ones(3, 3);\nb = ones(3, 1);\nx = a \\ b;");
    assert!(e.contains("left-division"), "{e}");
    // The interpreter supports it.
    let out = run_script("a = eye(3);\nb = ones(3, 1);\nx = a \\ b;", None).unwrap();
    assert_eq!(out.matrix("x").unwrap().data(), &[1.0, 1.0, 1.0]);
}

#[test]
fn recursion_rejected_with_interpreter_fallback() {
    let m = otter_frontend::MapProvider::new().with(
        "fact",
        "function y = fact(n)\nif n <= 1\ny = 1;\nelse\ny = n * fact(n - 1);\nend\n",
    );
    let opts = otter_core::EngineOptions::builder()
        .m_files(m.clone())
        .build();
    let err = otter_core::compile("f = fact(5);", &opts)
        .unwrap_err()
        .to_string();
    assert!(err.contains("recursive"), "{err}");
    let out = run_script("f = fact(5);", Some(&m)).unwrap();
    assert_eq!(out.scalar("f"), Some(120.0));
}

#[test]
fn global_rejected_by_compiler_only() {
    let e = compile_err("global g\ng = 1;\nx = g + 1;");
    assert!(e.contains("global"), "{e}");
}

#[test]
fn growth_by_indexed_assignment_requires_preallocation() {
    let e = compile_err("a(5) = 1;");
    assert!(e.contains("preallocate"), "{e}");
    // MATLAB (the interpreter) grows happily.
    let out = run_script("a(5) = 1;\nn = length(a);", None).unwrap();
    assert_eq!(out.scalar("n"), Some(5.0));
}

#[test]
fn rank_conflict_across_control_flow_explains_itself() {
    let e = compile_err("c = 1;\nif c > 0\nx = 1;\nelse\nx = [1, 2];\nend\ny = x;");
    assert!(e.contains("rank"), "{e}");
}

#[test]
fn shape_mismatch_reports_shapes() {
    let e = compile_err("a = ones(2, 3);\nb = ones(3, 2);\nc = a + b;");
    assert!(e.contains("2x3") && e.contains("3x2"), "{e}");
}

#[test]
fn inner_dimension_mismatch_reported() {
    let e = compile_err("a = ones(2, 3);\nb = ones(2, 3);\nc = a * b;");
    assert!(e.contains("inner dimensions"), "{e}");
}

#[test]
fn matrix_condition_rejected() {
    let e = compile_err("a = ones(2, 2);\nif a\nx = 1;\nend");
    assert!(e.contains("scalar"), "{e}");
}

#[test]
fn load_needs_sample_data_file() {
    let e = compile_err("d = load('nonexistent_file.dat');");
    assert!(e.contains("sample data file"), "{e}");
}

#[test]
fn whitespace_matrix_literals_cite_the_restriction() {
    // The paper's own documented restriction.
    let e = compile_err("a = [1 2];");
    assert!(e.to_lowercase().contains("comma"), "{e}");
}

#[test]
fn parse_errors_carry_positions() {
    let e = compile_err("x = ;\n");
    assert!(e.contains("1:5"), "position in: {e}");
}

#[test]
fn unsupported_indexing_form_is_explicit() {
    let e = compile_err("a = ones(4, 4);\nb = a(1:2, 1:2);");
    assert!(e.contains("not supported"), "{e}");
}

#[test]
fn conflicting_function_signatures_explained() {
    let m = otter_frontend::MapProvider::new().with("idy", "function y = idy(x)\ny = x;\n");
    let err = otter_core::compile(
        "a = idy(1);\nb = idy(ones(2, 2));",
        &otter_core::EngineOptions::builder().m_files(m).build(),
    )
    .unwrap_err()
    .to_string();
    assert!(err.contains("conflicting"), "{err}");
}

#[test]
fn large_generated_program_compiles_quickly() {
    // Compiler-scalability smoke test: a 600-statement script must
    // compile in well under a second even in debug builds.
    let mut src = String::from("x0 = 1;\nv0 = ones(16, 1);\n");
    for i in 1..300 {
        src.push_str(&format!("x{i} = x{} + {i};\n", i - 1));
        src.push_str(&format!("v{i} = v{} * 2 + x{i};\n", i - 1));
    }
    src.push_str("total = x299 + sum(v299);\n");
    let t0 = std::time::Instant::now();
    let compiled = compile_str(&src).expect("large program compiles");
    let elapsed = t0.elapsed();
    assert!(compiled.compiled().ir.instr_count() >= 600);
    assert!(elapsed.as_secs() < 20, "compile took {elapsed:?}");
}
