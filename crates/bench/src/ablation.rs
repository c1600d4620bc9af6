//! Ablation studies for the design decisions DESIGN.md calls out.

use crate::figures::run_compiled;
use otter_apps::App;
use otter_core::{compile, run_engine, EngineOptions, InterpreterEngine};
use otter_machine::{meiko_cs2, Machine};

/// Pass-6 ablation result for one application.
#[derive(Debug, Clone)]
pub struct PeepholeAblation {
    pub app: String,
    /// IR instruction counts.
    pub instrs_with: usize,
    pub instrs_without: usize,
    /// Modeled seconds on the Meiko at `p` CPUs.
    pub p: usize,
    pub seconds_with: f64,
    pub seconds_without: f64,
    /// Messages sent with/without.
    pub messages_with: u64,
    pub messages_without: u64,
}

/// Run one app with and without the peephole pass (pass 6 is a
/// toggleable optional pass of the compile driver).
pub fn peephole_ablation(app: &App, p: usize) -> PeepholeAblation {
    let machine = meiko_cs2();
    let with = compile(&app.script, &EngineOptions::default())
        .unwrap_or_else(|e| panic!("{}: {e}", app.id));
    let without = compile(
        &app.script,
        &EngineOptions::builder().disable_pass("peephole").build(),
    )
    .unwrap();
    let run_with = run_compiled(&with, &machine, p).unwrap();
    let run_without = run_compiled(&without, &machine, p).unwrap();
    // Sanity: same answers.
    for v in &app.result_vars {
        let a = run_with.scalar(v);
        let b = run_without.scalar(v);
        assert_eq!(a, b, "{}: peephole changed `{v}`", app.id);
    }
    PeepholeAblation {
        app: app.name.to_string(),
        instrs_with: with.compiled().ir.instr_count(),
        instrs_without: without.compiled().ir.instr_count(),
        p,
        seconds_with: run_with.modeled_seconds,
        seconds_without: run_without.modeled_seconds,
        messages_with: run_with.messages,
        messages_without: run_without.messages,
    }
}

/// Type-inference ablation result: what the same program costs when
/// the compiler cannot prove values are real (paper §3: "recognizing
/// that a variable is of type real rather than type complex saves half
/// the memory and significantly reduces the amount of time").
#[derive(Debug, Clone)]
pub struct TypeInferAblation {
    pub app: String,
    pub p: usize,
    /// Modeled seconds with real-typed data (inference succeeded).
    pub seconds_real: f64,
    /// Modeled seconds if every value were assumed complex.
    pub seconds_complex: f64,
    /// Bytes on the wire (doubles when every element is a pair).
    pub bytes_real: u64,
    pub bytes_complex: u64,
}

/// Run one app on the real-typed machine and on the complex-assumed
/// variant of the same machine.
pub fn typeinfer_ablation(app: &App, p: usize) -> TypeInferAblation {
    let real = meiko_cs2();
    let complex = real.assuming_complex();
    let compiled = compile(&app.script, &EngineOptions::default())
        .unwrap_or_else(|e| panic!("{}: {e}", app.id));
    let run_real = run_compiled(&compiled, &real, p).unwrap();
    let run_complex = run_compiled(&compiled, &complex, p).unwrap();
    TypeInferAblation {
        app: app.name.to_string(),
        p,
        seconds_real: run_real.modeled_seconds,
        seconds_complex: run_complex.modeled_seconds,
        // Bytes double per element when complex; the run itself moves
        // the same f64 payloads, so scale the measured count.
        bytes_real: run_real.bytes,
        bytes_complex: run_real.bytes * 2,
    }
}

/// One row of the collectives ablation: modeled seconds for a fixed
/// mix of broadcasts + allreduces with tree vs linear schedules.
#[derive(Debug, Clone)]
pub struct CollectiveAblation {
    pub machine: String,
    pub p: usize,
    pub seconds_tree: f64,
    pub seconds_linear: f64,
}

/// Modeled cost of the collective schedules (binomial tree vs naive
/// linear) on a representative small-message mix: 64 rounds of a
/// 1-element broadcast + a 64-element allreduce — the per-iteration
/// pattern of the conjugate-gradient inner loop.
pub fn collectives_ablation(machine: &Machine, ps: &[usize]) -> Vec<CollectiveAblation> {
    use otter_mpi::{run_spmd_with, CollectiveAlgo, ReduceOp, SpmdOptions};
    let time = |p: usize, algo: CollectiveAlgo| -> f64 {
        let opts = SpmdOptions {
            algo,
            ..SpmdOptions::default()
        };
        let res = run_spmd_with(machine, p, opts, move |c| {
            for _ in 0..64 {
                c.broadcast(0, &[1.0])?;
                c.allreduce(&vec![1.0; 64], ReduceOp::Sum)?;
            }
            Ok(c.clock())
        })
        .expect("ablation job runs without faults");
        res.iter().map(|r| r.clock).fold(0.0, f64::max)
    };
    ps.iter()
        .filter(|&&p| p <= machine.max_cpus)
        .map(|&p| CollectiveAblation {
            machine: machine.name.clone(),
            p,
            seconds_tree: time(p, CollectiveAlgo::Tree),
            seconds_linear: time(p, CollectiveAlgo::Linear),
        })
        .collect()
}

/// One point of the grain-size sweep.
#[derive(Debug, Clone, Copy)]
pub struct GrainPoint {
    pub n: usize,
    /// Speedup over the interpreter at `p` CPUs.
    pub speedup: f64,
}

/// Grain-size sweep: the paper's §7 claim that "two important
/// determinants are the sizes of the matrices being manipulated and
/// the complexity of the operations performed on them". Sweeps the
/// conjugate-gradient problem size at a fixed CPU count.
pub fn grain_sweep(machine: &Machine, p: usize, sizes: &[usize]) -> Vec<GrainPoint> {
    sizes
        .iter()
        .map(|&n| {
            let app = otter_apps::cg::conjugate_gradient(otter_apps::cg::Params {
                n,
                iters: 20,
                tol: 0.0,
            });
            let interp = run_engine(
                &mut InterpreterEngine::new(EngineOptions::default()),
                &app.script,
                machine,
                1,
            )
            .unwrap();
            let compiled = compile(&app.script, &EngineOptions::default()).unwrap();
            let run = run_compiled(&compiled, machine, p).unwrap();
            GrainPoint {
                n,
                speedup: interp.modeled_seconds / run.modeled_seconds,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peephole_never_hurts() {
        let app = otter_apps::cg::conjugate_gradient(otter_apps::cg::Params::test());
        let a = peephole_ablation(&app, 4);
        assert!(a.instrs_with <= a.instrs_without, "{a:?}");
        assert!(a.seconds_with <= a.seconds_without * 1.001, "{a:?}");
    }

    #[test]
    fn complex_assumption_costs_real_time() {
        let app = otter_apps::cg::conjugate_gradient(otter_apps::cg::Params::test());
        let a = typeinfer_ablation(&app, 4);
        assert!(
            a.seconds_complex > 2.0 * a.seconds_real,
            "complex arithmetic must cost ~3x compute: {a:?}"
        );
        assert_eq!(a.bytes_complex, 2 * a.bytes_real);
    }

    #[test]
    fn tree_collectives_win_at_scale() {
        let rows = collectives_ablation(&meiko_cs2(), &[2, 16]);
        let at16 = rows.iter().find(|r| r.p == 16).unwrap();
        assert!(
            at16.seconds_linear > 1.5 * at16.seconds_tree,
            "linear must lose at p=16: {at16:?}"
        );
        let at2 = rows.iter().find(|r| r.p == 2).unwrap();
        // At p=2 the schedules are nearly identical.
        assert!((at2.seconds_linear / at2.seconds_tree) < 1.2, "{at2:?}");
    }

    #[test]
    fn speedup_grows_with_grain() {
        let pts = grain_sweep(&meiko_cs2(), 8, &[32, 256]);
        assert!(
            pts[1].speedup > pts[0].speedup,
            "bigger matrices must speed up more: {pts:?}"
        );
    }
}
