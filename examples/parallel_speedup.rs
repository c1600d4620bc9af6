//! The paper's core claim, live: run the conjugate-gradient benchmark
//! on all three modeled 1998 architectures and watch how the speedup
//! over the MATLAB interpreter depends on the machine's balance of
//! compute and communication.
//!
//! ```text
//! cargo run --release --example parallel_speedup          # n = 512
//! cargo run --release --example parallel_speedup -- 2048  # paper scale
//! ```

use otter_apps::cg;
use otter_core::{compile, run, run_engine, Engine, EngineOptions, RunRequest};
use otter_machine::{enterprise_smp, meiko_cs2, sparc20_cluster};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(512);
    let app = cg::conjugate_gradient(cg::Params {
        n,
        iters: 30,
        tol: 1e-12,
    });
    println!("Conjugate gradient, n = {n}: speedup over the MATLAB interpreter\n");

    let artifact = compile(&app.script, &EngineOptions::default()).expect("CG compiles");
    for machine in [meiko_cs2(), sparc20_cluster(), enterprise_smp()] {
        let interp = run_engine(
            Engine::Interpreter,
            &app.script,
            &EngineOptions::default(),
            &machine,
            1,
        )
        .expect("interpreter baseline");
        print!("{:<22}", machine.name);
        let mut p = 1;
        while p <= machine.max_cpus {
            let run = run(&artifact, &RunRequest::on(machine.clone(), p)).expect("compiled run");
            print!(
                "  p={p}: {:>6.1}x",
                interp.modeled_seconds / run.modeled_seconds
            );
            p *= 2;
        }
        println!();
    }
    println!("\nNote how the Ethernet cluster's speedup collapses beyond one");
    println!("4-CPU node (paper §6: \"a severe damper on speedup achieved");
    println!("beyond four CPUs\"), while the Meiko CS-2's balanced network");
    println!("keeps scaling to 16.");
}
