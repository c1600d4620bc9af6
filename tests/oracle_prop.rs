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

/// `op(a)` and the fusible `op(a .* b)` for each of the seven MATLAB
/// folds over operands at the IEEE edges, with every shape known only
/// at run time (`k` and `z` come from `rand`) except the two `s*`
/// operands, which are statically row vectors and so take the
/// whole-object path. Returns the script and its result names.
fn fold_edge_script() -> (String, Vec<String>) {
    let mut src = String::from(
        "r = rand(1, 1);\n\
         z = floor(r(1) * 0);\n\
         k = 1 + z;\n\
         x = [1, 2, -0, 3, -1; 2, -1, -0, 1, 1; -3, 1, -0, 2, 2; 1, 1, -0, -1, 3; \
         2, 3, -0, 1, -2; -1, 2, -0, 2, 1; 1, -2, -0, 1, 1];\n\
         m = x .* ones(7, 5 * k);\n mb = ones(7, 5 * k);\n\
         c = -zeros(6, k);\n cb = ones(6, k);\n\
         w = -zeros(k, 6);\n wb = ones(k, 6);\n\
         e = zeros(z, 1);\n eb = ones(z, 1);\n\
         s = -zeros(1, 6 * k);\n sb = ones(1, 6 * k);\n\
         se = zeros(1, z);\n seb = ones(1, z);\n",
    );
    let mut results = Vec::new();
    for a in ["m", "c", "w", "e", "s", "se"] {
        for op in ["sum", "mean", "prod", "max", "min", "any", "all"] {
            // MATLAB and the interpreter reject max/min of empty.
            if matches!(a, "e" | "se") && matches!(op, "max" | "min") {
                continue;
            }
            src.push_str(&format!("{op}_{a} = {op}({a});\n"));
            src.push_str(&format!("f{op}_{a} = {op}({a} .* {a}b);\n"));
            results.push(format!("{op}_{a}"));
            results.push(format!("f{op}_{a}"));
        }
    }
    (src, results)
}

/// Shape and element bits, with every NaN as one canonical NaN.
fn result_bits(report: &otter_core::EngineReport, name: &str) -> (usize, usize, Vec<u64>) {
    let m = report
        .matrix(name)
        .unwrap_or_else(|| panic!("missing result `{name}`"));
    let bits = m
        .data()
        .iter()
        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
        .collect();
    (m.rows(), m.cols(), bits)
}

#[test]
fn folds_at_the_ieee_edges_match_the_interpreter_bit_for_bit() {
    // A sum of −0.0 lanes is −0.0 for a vector (`Iterator::sum` starts
    // there) and +0.0 for a matrix column (`Dense::sum`'s column loop);
    // the mean of an empty vector is NaN; `any`/`all` of empty are 0/1.
    let (src, results) = fold_edge_script();
    let opts = EngineOptions::default();
    let base = run_engine(Engine::Interpreter, &src, &opts, &workstation(), 1)
        .unwrap_or_else(|e| panic!("interpreter: {e}"));
    for fuse in [true, false] {
        let opts = if fuse {
            EngineOptions::default()
        } else {
            EngineOptions::builder().disable_pass("fusion").build()
        };
        let compiled = compile(&src, &opts).unwrap_or_else(|e| panic!("{e}"));
        let stats = &compiled.compiled().fusion_stats;
        let fused_folds = stats.reduce_epilogues + stats.col_reduce_epilogues;
        assert_eq!(fused_folds > 0, fuse, "fused folds: {fused_folds}");
        for p in [1usize, 3, 4] {
            let report = run(&compiled, &RunRequest::on(meiko_cs2(), p))
                .unwrap_or_else(|e| panic!("p={p} fusion={fuse}: {e}"));
            for name in &results {
                assert_eq!(
                    result_bits(&report, name),
                    result_bits(&base, name),
                    "`{name}` at p={p} fusion={fuse}"
                );
            }
        }
    }
    // `max`/`min` of an empty operand whose shape only the run time
    // knows is an error in both engines, fused or not, on every rank.
    let (head, _) = fold_edge_script();
    for (op, arg) in ["max", "min"].iter().flat_map(|op| {
        ["e", "se"]
            .iter()
            .flat_map(move |a| [(*op, a.to_string()), (*op, format!("{a} .* {a}b"))])
    }) {
        let src = format!("{head}v = {op}({arg});\n");
        let want = format!("{op} of empty matrix");
        let err = run_engine(Engine::Interpreter, &src, &opts, &workstation(), 1)
            .expect_err("interpreter")
            .to_string();
        assert!(err.contains(&want), "interpreter, {op}({arg}): {err}");
        for fuse in [true, false] {
            let opts = if fuse {
                EngineOptions::default()
            } else {
                EngineOptions::builder().disable_pass("fusion").build()
            };
            let compiled = compile(&src, &opts).unwrap_or_else(|e| panic!("{e}"));
            for p in [1usize, 3, 4] {
                let err = run(&compiled, &RunRequest::on(meiko_cs2(), p))
                    .expect_err(&format!("{op}({arg}) at p={p} fusion={fuse}"))
                    .to_string();
                assert!(
                    err.contains(&want),
                    "{op}({arg}) at p={p} fusion={fuse}: {err}"
                );
            }
        }
    }
}

/// Outer products of a one-element `u` and a longer `v`, stored and
/// fused, whose shapes only the run time knows: the `1×n` result is
/// distributed by its elements, not by `u`'s.
#[test]
fn one_row_outer_products_match_the_interpreter() {
    let head = "r = rand(3, 1);\n\
                k = floor(r(1) * 0) + 1;\n\
                u = ones(k, 1);\n\
                v = (1:6)';\n\
                w = (1:6) * 10;\n";
    for body in ["a = u * v';\nc = a + w;\n", "c = u * v' + w;\n"] {
        let src = format!("{head}{body}");
        let base = run_engine(
            Engine::Interpreter,
            &src,
            &EngineOptions::default(),
            &workstation(),
            1,
        )
        .unwrap_or_else(|e| panic!("interpreter: {e}\n{src}"));
        for fuse in [true, false] {
            let opts = if fuse {
                EngineOptions::default()
            } else {
                EngineOptions::builder().disable_pass("fusion").build()
            };
            let compiled = compile(&src, &opts).unwrap_or_else(|e| panic!("{e}"));
            for p in [1usize, 2, 3, 4] {
                let report = run(&compiled, &RunRequest::on(meiko_cs2(), p))
                    .unwrap_or_else(|e| panic!("p={p} fusion={fuse}: {e}\n{src}"));
                assert_eq!(
                    result_bits(&report, "c"),
                    result_bits(&base, "c"),
                    "p={p} fusion={fuse}\n{src}"
                );
            }
        }
    }
}

/// A run-time error names its stage once, on every rank count.
#[test]
fn run_time_errors_carry_one_tag() {
    let src = "r = rand(3, 1);\nk = floor(r(1) * 0);\nv = zeros(k, 1);\nm = max(v);\n";
    let compiled = compile(src, &EngineOptions::default()).unwrap_or_else(|e| panic!("{e}"));
    for p in [1usize, 3] {
        let err = run(&compiled, &RunRequest::on(meiko_cs2(), p))
            .expect_err("max of empty")
            .to_string();
        assert_eq!(err.matches("error[execution]").count(), 1, "p={p}: {err}");
        assert!(err.contains("max of empty matrix"), "p={p}: {err}");
    }
}

/// `if` and `for` nests as deep as the parser admits (38 levels, with
/// the body and the script around them) run on every rank count. Each
/// rank beyond p = 1 runs on a 1 MiB stack, and a debug build is the
/// one that spends the most stack per level of nesting.
#[test]
fn nests_at_the_parser_cap_match_the_interpreter() {
    let depth = 38;
    for (open, what) in [("if x < 1\n", "if"), ("for i = 1:1\n", "for")] {
        let src = format!(
            "x = 0;\n{}x = x + 1;\n{}y = x * 2;\n",
            open.repeat(depth),
            "end\n".repeat(depth)
        );
        let base = run_engine(
            Engine::Interpreter,
            &src,
            &EngineOptions::default(),
            &workstation(),
            1,
        )
        .unwrap_or_else(|e| panic!("interpreter, {what} nest: {e}"));
        assert_eq!(base.scalar("y"), Some(2.0), "{what} nest");
        let compiled =
            compile(&src, &EngineOptions::default()).unwrap_or_else(|e| panic!("{what} nest: {e}"));
        for p in [1usize, 4] {
            let report = run(&compiled, &RunRequest::on(meiko_cs2(), p))
                .unwrap_or_else(|e| panic!("{what} nest at p={p}: {e}"));
            for v in ["x", "y"] {
                assert_eq!(
                    report.scalar(v),
                    base.scalar(v),
                    "{what} nest at p={p}: {v}"
                );
            }
        }
    }
}

/// `src` with the user functions `m_files`, compiled with fusion on and
/// off, against the interpreter at p = 1, 3 and 4, bit for bit. The
/// scripts keep every value dyadic and sum nothing, so no result
/// depends on an order of operations the engines may choose apart.
fn calls_match_the_interpreter(src: &str, m_files: otter_frontend::MapProvider, names: &[&str]) {
    let opts = EngineOptions::builder().m_files(m_files.clone()).build();
    let base = run_engine(Engine::Interpreter, src, &opts, &workstation(), 1)
        .unwrap_or_else(|e| panic!("interpreter: {e}\n{src}"));
    for fuse in [true, false] {
        let mut opts = EngineOptions::builder().m_files(m_files.clone());
        if !fuse {
            opts = opts.disable_pass("fusion");
        }
        let compiled = compile(src, &opts.build()).unwrap_or_else(|e| panic!("{e}\n{src}"));
        for p in [1usize, 3, 4] {
            let report = run(&compiled, &RunRequest::on(meiko_cs2(), p))
                .unwrap_or_else(|e| panic!("p={p} fusion={fuse}: {e}\n{src}"));
            for name in names {
                assert_eq!(
                    result_bits(&report, name),
                    result_bits(&base, name),
                    "`{name}` at p={p} fusion={fuse}\n{src}"
                );
            }
        }
    }
}

/// The executor builds an element-wise loop's program once per run and
/// keys it by instruction: a loop in a user function runs with other
/// operand shapes on each call, and in place or into a fresh buffer.
#[test]
fn a_function_loop_runs_with_each_calls_shapes() {
    let g = "function y = g(x, s)\ny = x .* s + 1;\ny = y - s * x;\n";
    let src = "a = g((1:5)' / 4, 2);\nb = g(ones(3, 7) / 8, 0.5);\nc = g((1:300)' / 16, 3);\n\
               for k = 1:3\n  d = g((1:(100 * k))' / 8, k);\nend\n";
    let m = otter_frontend::MapProvider::new().with("g", g);
    calls_match_the_interpreter(src, m, &["a", "b", "c", "d"]);
}

/// A call's outputs are written straight into the variables they are
/// assigned to, including an output assigned twice (the last wins) and
/// one that is also an argument (read before it is written).
#[test]
fn call_outputs_land_in_their_variables() {
    let f = "function [s, t] = f(v, k)\ns = v * k;\nt = v + k;\n";
    let src = "v = (1:5)' / 2;\n[x, x] = f(v, 2);\n[v, w] = f(v, 3);\n[p, q] = f(v, 0.5);\n";
    let m = otter_frontend::MapProvider::new().with("f", f);
    calls_match_the_interpreter(src, m, &["x", "v", "w", "p", "q"]);
}
