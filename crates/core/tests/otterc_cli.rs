//! Integration tests for the `otterc` command-line compiler.

use std::process::Command;

fn otterc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_otterc"))
}

fn workdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("otterc_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn compiles_a_script_to_c() {
    let dir = workdir("c");
    let m = dir.join("demo.m");
    std::fs::write(
        &m,
        "n = 8;\na = eye(n);\nv = ones(n, 1);\nw = a * v;\ns = sum(w);\n",
    )
    .unwrap();
    let out = otterc().arg(&m).output().expect("otterc runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let c = std::fs::read_to_string(dir.join("demo.c")).expect("demo.c written");
    assert!(c.contains("ML_matrix_vector_multiply"), "{c}");
    assert!(c.contains("int main(int argc, char **argv)"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runs_a_script_and_prints_output() {
    let dir = workdir("run");
    let m = dir.join("hello.m");
    std::fs::write(&m, "x = 6 * 7\n").unwrap();
    let out = otterc()
        .arg(&m)
        .args(["--run", "-p", "4", "--machine", "meiko"])
        .output()
        .expect("otterc runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("x ="), "{stdout}");
    assert!(stdout.contains("42"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("modeled"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resolves_m_files_from_script_directory() {
    let dir = workdir("mfiles");
    std::fs::write(dir.join("triple.m"), "function y = triple(x)\ny = x * 3;\n").unwrap();
    let m = dir.join("main.m");
    std::fs::write(&m, "z = triple(14)\n").unwrap();
    let out = otterc().arg(&m).args(["--run"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("42"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn emit_ir_prints_program() {
    let dir = workdir("ir");
    let m = dir.join("p.m");
    std::fs::write(&m, "a = ones(4, 4);\nb = a * a;\n").unwrap();
    let out = otterc().arg(&m).args(["--emit", "ir"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matmul(a, a)"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn emit_ir_and_ast_write_the_o_path() {
    let dir = workdir("emit_o");
    let m = dir.join("p.m");
    std::fs::write(&m, "a = ones(4, 4);\nb = a * a;\n").unwrap();
    for emit in ["ir", "ast"] {
        let stdout = otterc().arg(&m).args(["--emit", emit]).output().unwrap();
        assert!(stdout.status.success());
        assert!(!stdout.stdout.is_empty(), "--emit {emit} printed nothing");
        let path = dir.join(format!("p.{emit}"));
        let to_file = otterc()
            .arg(&m)
            .args(["--emit", emit, "-o"])
            .arg(&path)
            .output()
            .unwrap();
        assert!(to_file.status.success());
        assert!(to_file.stdout.is_empty(), "--emit {emit} -o also printed");
        let written = std::fs::read(&path).unwrap_or_else(|e| panic!("--emit {emit}: {e}"));
        assert_eq!(written, stdout.stdout, "--emit {emit}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compile_errors_exit_nonzero_with_message() {
    let dir = workdir("err");
    let m = dir.join("bad.m");
    std::fs::write(&m, "x = mystery_fn(3);\n").unwrap();
    let out = otterc().arg(&m).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mystery_fn"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_2() {
    let out = otterc().arg("--bogus-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn timing_prints_one_line_per_pass() {
    let dir = workdir("timing");
    let m = dir.join("t.m");
    std::fs::write(
        &m,
        "n = 8;\na = ones(n, n);\nb = a * a;\ns = sum(sum(b));\n",
    )
    .unwrap();
    let out = otterc().arg(&m).arg("--timing").output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let rows: Vec<&str> = stderr
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with("otterc:"))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        rows,
        [
            "parse",
            "resolve",
            "ssa-infer",
            "rewrite",
            "guards",
            "peephole",
            "lint",
            "frees",
            "fusion",
            "emit-c",
        ],
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timing_skips_disabled_passes() {
    let dir = workdir("timing_nopeep");
    let m = dir.join("t.m");
    std::fs::write(&m, "v = 1:16;\ns = sum(v);\n").unwrap();
    let out = otterc()
        .arg(&m)
        .args(["--timing", "--no-peephole"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.lines().any(|l| l.starts_with("peephole")),
        "{stderr}"
    );
    assert!(stderr.lines().any(|l| l.starts_with("emit-c")), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dump_after_prints_artifact() {
    let dir = workdir("dump");
    let m = dir.join("d.m");
    std::fs::write(&m, "a = ones(4, 4);\nb = a * a;\n").unwrap();
    let out = otterc()
        .arg(&m)
        .arg("--dump-after=rewrite")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("=== after pass `rewrite` ==="), "{stdout}");
    assert!(stdout.contains("matmul"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dump_after_unknown_pass_is_an_error() {
    let dir = workdir("dump_bad");
    let m = dir.join("d.m");
    std::fs::write(&m, "x = 1;\n").unwrap();
    let out = otterc()
        .arg(&m)
        .arg("--dump-after=frobnicate")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("frobnicate"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--analyze` runs the oracle on the compiled IR: one table row per
/// leaf site, then a summary whose counts are `predict`'s on the same
/// compile.
#[test]
fn analyze_prints_one_row_per_site() {
    let dir = workdir("analyze");
    let m = dir.join("cg.m");
    let app = otter_apps::test_apps()
        .into_iter()
        .find(|a| a.id == "cg")
        .unwrap();
    std::fs::write(&m, &app.script).unwrap();
    let out = otterc()
        .arg(&m)
        .args(["--analyze", "-p", "4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);

    let opts = otter_core::EngineOptions::builder().data_dir(&dir).build();
    let artifact = otter_core::compile(&app.script, &opts).unwrap();
    let mut ir = artifact.compiled().ir.clone();
    otter_lint::shape::annotate_in_place(&mut ir);
    let predictions = otter_lint::oracle::predict(&ir);
    let free = predictions.iter().filter(|p| p.model.is_free()).count();
    assert!(free > 0 && free < predictions.len(), "{free}");

    let rows = stderr
        .lines()
        .filter(|l| {
            l.split_whitespace()
                .next()
                .is_some_and(|w| w.parse::<u32>().is_ok())
        })
        .count();
    assert_eq!(rows, predictions.len(), "{stderr}");
    assert_eq!(rows, otter_ir::leaf_sites(&ir).len());
    let summary = format!(
        "otterc: analyze: {} site(s), {free} communication-free, evaluated at p=4",
        predictions.len()
    );
    assert!(stderr.lines().any(|l| l == summary), "{summary}\n{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
