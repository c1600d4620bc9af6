//! Domain example: the ocean-engineering workload (paper §5's second
//! benchmark) as an engineer would use it — compute the Morrison-
//! equation wave force on a submerged sphere and report the
//! engineering quantities, comparing interpreted and compiled-parallel
//! execution.
//!
//! ```text
//! cargo run --release --example wave_force
//! ```

use otter_apps::ocean;
use otter_core::{compile, run, run_engine, Engine, EngineOptions, RunRequest};
use otter_machine::{meiko_cs2, workstation};

fn main() {
    let app = ocean::ocean_engineering(ocean::Params { nt: 4096, nz: 32 });

    // Engineers debug in the interpreter first (the workflow the
    // paper's introduction describes)...
    let interp = run_engine(
        Engine::Interpreter,
        &app.script,
        &EngineOptions::default(),
        &workstation(),
        1,
    )
    .expect("interpreter run");

    // ...then compile the same script, unchanged, for the parallel
    // machine.
    let artifact = compile(&app.script, &EngineOptions::default()).expect("ocean script compiles");
    let parallel = run(&artifact, &RunRequest::on(meiko_cs2(), 16)).expect("p=16 run");

    println!("Morrison-equation wave force on a submerged sphere");
    println!("(4096 time samples, 32 depth samples)\n");
    println!(
        "{:<28} {:>16} {:>16}",
        "quantity", "interpreter", "Otter, 16 CPUs"
    );
    println!("{}", "-".repeat(62));
    for (label, var) in [
        ("net impulse [N·s]", "impulse"),
        ("peak force [N]", "fpeak"),
        ("RMS force [N]", "frms"),
        ("field energy [J-ish]", "energy"),
    ] {
        println!(
            "{label:<28} {:>16.4} {:>16.4}",
            interp.scalar(var).unwrap(),
            parallel.scalar(var).unwrap()
        );
    }
    println!();
    println!(
        "modeled time: interpreter {:.4} s  vs  compiled on 16 CPUs {:.4} s ({:.1}x)",
        interp.modeled_seconds,
        parallel.modeled_seconds,
        interp.modeled_seconds / parallel.modeled_seconds
    );
    println!();
    println!("The numbers agree to rounding: the compiler preserved the");
    println!("script's semantics while distributing every vector across the");
    println!("machine (paper §4's row-contiguous/block distribution).");
}
