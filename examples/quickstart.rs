//! Quickstart: compile a MATLAB script with the Otter pipeline, look
//! at the generated SPMD C, and execute it on a modeled 16-CPU Meiko
//! CS-2.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use otter_core::{compile, run, run_engine, Engine, EngineOptions, RunRequest};
use otter_machine::{meiko_cs2, workstation};

fn main() {
    // A small MATLAB script: build a system, take a few Jacobi steps.
    let script = "\
n = 64;
A = ones(n, n) / n + n * eye(n);
b = A * ones(n, 1);
x = zeros(n, 1);
for it = 1:20
  r = b - A * x;
  x = x + r / n;
end
resid = norm(b - A * x);
";

    println!("== MATLAB source ==\n{script}");

    // Compile: scan → parse → resolve → SSA → infer → rewrite → peephole → C.
    // The artifact is immutable and cheaply cloneable — compile once,
    // run at any rank count.
    let artifact = compile(script, &EngineOptions::default()).expect("compiles");
    let compiled = artifact.compiled();
    println!("== Compiler statistics ==");
    println!("  IR instructions : {}", compiled.ir.instr_count());
    println!("  peephole        : {:?}", compiled.peephole_stats);
    println!();

    // A taste of the generated SPMD C (the paper's §3 idiom).
    println!("== Generated C (excerpt) ==");
    for line in compiled.c_source.lines().filter(|l| {
        l.contains("ML_matrix_vector_multiply")
            || l.contains("ML_norm2")
            || l.contains("for (ML_tmp")
    }) {
        println!("{line}");
    }
    println!();

    // Run on 1 and 16 CPUs of a modeled Meiko CS-2 — same artifact.
    let machine = meiko_cs2();
    let t1 = run(&artifact, &RunRequest::on(machine.clone(), 1)).expect("p=1 runs");
    let t16 = run(&artifact, &RunRequest::on(machine.clone(), 16)).expect("p=16 runs");
    let interp = run_engine(
        Engine::Interpreter,
        script,
        &EngineOptions::default(),
        &workstation(),
        1,
    )
    .expect("interp");

    println!("== Results ==");
    println!(
        "  residual (p=16)      : {:.3e}",
        t16.scalar("resid").unwrap()
    );
    println!(
        "  interpreter result    : {:.3e}",
        interp.scalar("resid").unwrap()
    );
    println!();
    println!("== Modeled times on the Meiko CS-2 ==");
    println!("  1 CPU  : {:.4} s", t1.modeled_seconds);
    println!(
        "  16 CPUs: {:.4} s  (speedup {:.1}x)",
        t16.modeled_seconds,
        t1.modeled_seconds / t16.modeled_seconds
    );
    println!("  messages at p=16: {}, bytes: {}", t16.messages, t16.bytes);
}
