//! Property-based oracle testing: generate random (but well-typed)
//! MATLAB programs in the compiler's subset, run them through both the
//! interpreter and the compiled SPMD pipeline, and require identical
//! results at several processor counts.
//!
//! This is the single strongest check in the repository: it exercises
//! the scanner, parser, resolution, SSA, inference, lowering, the
//! peephole pass, the executor, the distributed run-time library, and
//! the message-passing substrate all at once, against an independent
//! implementation. Programs are generated from a seeded [`DetRng`]
//! stream, so every run (and every CI failure) is reproducible.

use otter_core::{compile, run, run_engine, Engine, EngineOptions, RunRequest};
use otter_det::DetRng;
use otter_machine::{meiko_cs2, workstation};

/// Vector dimension used by all generated programs (fixed so every
/// matrix/vector is aligned by construction).
const N: usize = 7;

/// One generated statement, encoded as selector bytes.
#[derive(Debug, Clone)]
struct GenStmt {
    kind: u8,
    a: u8,
    b: u8,
    c: u8,
}

fn gen_stmt(rng: &mut DetRng) -> GenStmt {
    let w = rng.next_u64();
    GenStmt {
        kind: w as u8,
        a: (w >> 8) as u8,
        b: (w >> 16) as u8,
        c: (w >> 24) as u8,
    }
}

const SCALARS: [&str; 3] = ["s0", "s1", "s2"];
const VECTORS: [&str; 3] = ["v0", "v1", "v2"];
const MATRICES: [&str; 2] = ["m0", "m1"];

/// Render a generated program: deterministic preamble defining every
/// variable, then the random statement list, then digest outputs.
fn render(stmts: &[GenStmt]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "n = {N};\n\
         u = 1:n;\n\
         s0 = 0.5;\n\
         s1 = 2;\n\
         s2 = -1.25;\n\
         v0 = u' / n;\n\
         v1 = cos(u)';\n\
         v2 = ones(n, 1);\n\
         m0 = u' * u / n + eye(n);\n\
         m1 = ones(n, n) / 3;\n"
    ));
    for s in stmts {
        out.push_str(&render_stmt(s));
    }
    // Digest: fold everything into scalars the test compares.
    out.push_str(
        "d0 = s0 + s1 + s2;\n\
         d1 = sum(v0) + sum(v1) + sum(v2);\n\
         d2 = sum(sum(m0)) + sum(sum(m1));\n\
         d3 = norm(v0) + norm(v1);\n",
    );
    out
}

fn render_stmt(s: &GenStmt) -> String {
    let sc = |x: u8| SCALARS[(x as usize) % SCALARS.len()];
    let vc = |x: u8| VECTORS[(x as usize) % VECTORS.len()];
    let mc = |x: u8| MATRICES[(x as usize) % MATRICES.len()];
    let idx = |x: u8| (x as usize % N) + 1; // 1-based in-range index
    match s.kind % 14 {
        // Scalar updates. Division is always by a positive quantity.
        0 => format!("{} = {} + {} * 0.5;\n", sc(s.a), sc(s.b), sc(s.c)),
        1 => format!("{} = {} / (abs({}) + 1);\n", sc(s.a), sc(s.b), sc(s.c)),
        2 => format!("{} = sum({});\n", sc(s.a), vc(s.b)),
        3 => format!("{} = {}({});\n", sc(s.a), vc(s.b), idx(s.c)),
        4 => format!("{} = {}({}, {});\n", sc(s.a), mc(s.b), idx(s.c), idx(s.a)),
        5 => format!("{} = norm({});\n", sc(s.a), vc(s.b)),
        6 => format!("{} = {}' * {};\n", sc(s.a), vc(s.b), vc(s.c)),
        // Vector updates.
        7 => format!("{} = {} + {} * {};\n", vc(s.a), vc(s.b), sc(s.c), vc(s.a)),
        8 => format!("{} = {} .* {};\n", vc(s.a), vc(s.b), vc(s.c)),
        9 => format!("{} = {} * {};\n", vc(s.a), mc(s.b), vc(s.c)),
        10 => format!(
            "{} = circshift({}, {});\n",
            vc(s.a),
            vc(s.b),
            (s.c % 5) as i32 - 2
        ),
        // Matrix updates.
        11 => format!("{} = {} + {} / 2;\n", mc(s.a), mc(s.b), mc(s.c)),
        12 => format!("{} = {}';\n", mc(s.a), mc(s.b)),
        13 => format!("{} = {} .* {};\n", mc(s.a), mc(s.b), mc(s.c)),
        _ => unreachable!(),
    }
}

fn check_program(src: &str) {
    let base = match run_engine(
        Engine::Interpreter,
        src,
        &EngineOptions::default(),
        &workstation(),
        1,
    ) {
        Ok(r) => r,
        Err(e) => panic!("interpreter rejected generated program: {e}\n{src}"),
    };
    let compiled = match compile(src, &EngineOptions::default()) {
        Ok(c) => c,
        Err(e) => panic!("compiler rejected generated program: {e}\n{src}"),
    };
    for p in [1usize, 3, 4] {
        let report = run(&compiled, &RunRequest::on(meiko_cs2(), p))
            .unwrap_or_else(|e| panic!("execution failed (p={p}): {e}\n{src}"));
        for d in ["d0", "d1", "d2", "d3"] {
            let a = base.scalar(d).unwrap();
            let b = report.scalar(d).unwrap();
            let tol = 1e-9 * (1.0 + a.abs());
            assert!(
                (a - b).abs() <= tol || (a.is_nan() && b.is_nan()),
                "digest {d} differs at p={p}: interpreter={a} otter={b}\n{src}"
            );
        }
    }
}

#[test]
fn random_programs_match_interpreter() {
    // 24 cases, 1–11 statements each (each case compiles + runs the
    // SPMD engine at three rank counts; keep CI sane).
    let mut rng = DetRng::seed_from_u64(0x0AC1_E001);
    for case in 0..24 {
        let len = 1 + rng.gen_index(11);
        let stmts: Vec<GenStmt> = (0..len).map(|_| gen_stmt(&mut rng)).collect();
        let src = render(&stmts);
        eprintln!("case {case}: {len} statements");
        check_program(&src);
    }
}

#[test]
fn fixed_regression_mix() {
    // A deterministic mix covering every statement kind at least once.
    let stmts: Vec<GenStmt> = (0..14)
        .map(|k| GenStmt {
            kind: k,
            a: k.wrapping_mul(7),
            b: k.wrapping_add(3),
            c: k ^ 0x5a,
        })
        .collect();
    let src = render(&stmts);
    check_program(&src);
}
