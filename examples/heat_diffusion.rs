//! Domain example: 1-D heat diffusion by explicit finite differences —
//! the kind of numerical model the paper's introduction describes
//! scientists building in MATLAB ("debug their models in MATLAB using
//! a small data set, then ... wait for the MATLAB interpreter to
//! execute the script on a large data set, even if it requires several
//! CPU days").
//!
//! The stencil update uses circular vector shifts — the same primitive
//! as the ocean benchmark — with boundary fix-ups via scalar stores,
//! exercising the owner-computes machinery.
//!
//! ```text
//! cargo run --release --example heat_diffusion
//! ```

use otter_core::{compile, run, run_engine, Engine, EngineOptions, RunRequest};
use otter_machine::{meiko_cs2, workstation};

fn main() {
    let n = 20_000;
    let steps = 200;
    let script = format!(
        "\
n = {n};
nsteps = {steps};
alpha = 0.24;
% Initial condition: a hot spike in a cold rod.
x = (1:n) / n;
u = exp(-((x - 0.5) .* (x - 0.5)) / 0.001)';
% Dirichlet boundaries.
u(1) = 0;
u(n) = 0;
for step = 1:nsteps
  % u_xx via circular shifts; boundaries repaired afterwards.
  left = circshift(u, 1);
  right = circshift(u, -1);
  u = u + alpha * (left - 2 * u + right);
  u(1) = 0;
  u(n) = 0;
end
peak = max(u);
heat = sum(u);
center = u(floor(n / 2));
"
    );

    // Scientists' workflow: interpreter first...
    let interp = run_engine(
        Engine::Interpreter,
        &script,
        &EngineOptions::default(),
        &workstation(),
        1,
    )
    .expect("interpreter run");
    // ...then the unchanged script, compiled for the parallel machine.
    let artifact = compile(&script, &EngineOptions::default()).expect("compiles");
    let run16 = run(&artifact, &RunRequest::on(meiko_cs2(), 16)).expect("p=16");

    println!("1-D heat diffusion, n = {n} points, {steps} explicit steps\n");
    println!(
        "{:<24} {:>14} {:>14}",
        "quantity", "interpreter", "Otter x16"
    );
    println!("{}", "-".repeat(54));
    for (label, var) in [
        ("peak temperature", "peak"),
        ("total heat", "heat"),
        ("center", "center"),
    ] {
        println!(
            "{label:<24} {:>14.6} {:>14.6}",
            interp.scalar(var).unwrap(),
            run16.scalar(var).unwrap()
        );
    }
    println!();
    println!(
        "modeled time: interpreter {:.3} s → compiled on 16 Meiko CPUs {:.3} s ({:.1}x)",
        interp.modeled_seconds,
        run16.modeled_seconds,
        interp.modeled_seconds / run16.modeled_seconds
    );
    println!(
        "communication: {} messages, {} bytes (halo exchanges of the shift stencil)",
        run16.messages, run16.bytes
    );
}
