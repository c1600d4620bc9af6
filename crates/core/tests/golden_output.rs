//! Whole-program output, pinned byte for byte: the emitted C and the
//! `--emit ir` text of the four apps at test scale (fusion on and
//! off), their `--analyze -p 4` tables, `ocean`'s `--dump-after=all`,
//! and all three for a script that calls a user function. The
//! fixtures live in `tests/fixtures/golden/`; a change to any of them
//! is a change to what the compiler emits, and is made by hand.

use std::path::{Path, PathBuf};
use std::process::Command;

const USER_FN_SCRIPT: &str = "v = (1:5)';\nw = v(1:2:5);\nv(2:3) = 0;\nm = v * v';\n\
m(2, :) = 1;\n[a, b] = f(v, 2);\nc = m(:, 2) + b(1)\n";
const USER_FN: &str = "function [s, t] = f(v, k)\ns = sum(v) * k;\nt = v(2:3);\n";

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden")
}

/// What one `otterc` run leaves: its stdout, its stderr, and the C
/// file it wrote, if any.
struct Output {
    stdout: String,
    stderr: String,
    c: Option<String>,
}

fn otterc(script: &Path, args: &[&str]) -> Output {
    let c_path = script.with_extension("c");
    std::fs::remove_file(&c_path).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_otterc"))
        .arg(script)
        .args(args)
        .output()
        .expect("otterc runs");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        out.status.success(),
        "{} {args:?}: {stderr}",
        script.display()
    );
    Output {
        stdout: String::from_utf8(out.stdout).unwrap(),
        stderr,
        c: std::fs::read_to_string(&c_path).ok(),
    }
}

/// The first line where `got` and the fixture `name` differ, if any.
fn mismatch(name: &str, got: &str) -> Option<String> {
    let want = std::fs::read_to_string(fixtures().join(name))
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    if got == want {
        return None;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    Some(format!(
        "{name}: line {}: got {:?}, want {:?}",
        line + 1,
        got.lines().nth(line),
        want.lines().nth(line)
    ))
}

/// Every fixture of one script: C and IR with fusion on and off, and
/// the `--analyze -p 4` table.
fn script_mismatches(id: &str, script: &Path, out: &mut Vec<String>) {
    for (suffix, extra) in [("", None), (".nofusion", Some("--no-fusion"))] {
        let args: Vec<&str> = extra.into_iter().collect();
        let c = otterc(script, &args).c.expect("C file written");
        out.extend(mismatch(&format!("{id}{suffix}.c"), &c));
        let ir = otterc(script, &[&args[..], &["--emit", "ir"]].concat()).stdout;
        out.extend(mismatch(&format!("{id}{suffix}.ir"), &ir));
    }
    let analyze = otterc(script, &["--emit", "ir", "--analyze", "-p", "4"]).stderr;
    out.extend(mismatch(&format!("{id}.analyze"), &analyze));
}

#[test]
fn whole_program_output_matches_the_fixtures() {
    let dir = std::env::temp_dir().join(format!("otter_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut bad = Vec::new();
    for app in otter_apps::test_apps() {
        let script = dir.join(format!("{}.m", app.id));
        std::fs::write(&script, &app.script).unwrap();
        script_mismatches(app.id, &script, &mut bad);
        if app.id == "ocean" {
            let dump = otterc(&script, &["--emit", "ir", "--dump-after=all"]).stdout;
            bad.extend(mismatch("ocean.dump", &dump));
        }
    }
    let user = dir.join("user_fn");
    std::fs::create_dir_all(&user).unwrap();
    std::fs::write(user.join("f.m"), USER_FN).unwrap();
    let script = user.join("userfn.m");
    std::fs::write(&script, USER_FN_SCRIPT).unwrap();
    script_mismatches("userfn", &script, &mut bad);
    std::fs::remove_dir_all(&dir).ok();
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
