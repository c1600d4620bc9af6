//! Figures 2–6: the performance experiments.
//!
//! All figures normalize against the MathWorks-interpreter stand-in
//! running on a single CPU of the *same* machine, matching the paper's
//! "speedup over MATLAB" axes.

use otter_apps::App;
use otter_core::{compile, run, run_engine, Engine, EngineOptions, EngineReport, RunRequest};
use otter_machine::{enterprise_smp, meiko_cs2, sparc20_cluster, workstation, Machine};
use std::collections::BTreeMap;

/// Which problem sizes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale problems (n = 2048 CG, 5 000 particles, 512² TC).
    Paper,
    /// Scaled-down problems for CI and debug builds.
    Test,
    /// Between test and paper: large enough that the dense kernels,
    /// not per-operation dispatch, dominate the work (the size of the
    /// second `harness bench --check` baseline).
    Large,
}

impl Scale {
    /// The name reports carry and `harness bench --scale` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Test => "test",
            Scale::Large => "large",
        }
    }

    /// The scale called `name` (the inverse of [`Scale::name`]).
    pub fn parse(name: &str) -> Option<Scale> {
        [Scale::Test, Scale::Large, Scale::Paper]
            .into_iter()
            .find(|s| s.name() == name)
    }

    pub fn apps(self) -> Vec<App> {
        match self {
            Scale::Paper => otter_apps::paper_apps(),
            Scale::Test => otter_apps::test_apps(),
            Scale::Large => otter_apps::large_apps(),
        }
    }
}

/// One engine's measurements in a Figure 2 row: relative performance
/// plus the uniform [`EngineReport`] counters.
#[derive(Debug, Clone)]
pub struct Fig2Cell {
    /// Speedup over the interpreter (interpreter ≡ 1.0).
    pub relative: f64,
    /// Modeled seconds on one CPU.
    pub seconds: f64,
    /// Per-opcode executed-operation counts.
    pub op_counts: BTreeMap<String, u64>,
    /// Messages sent (0 for sequential engines).
    pub messages: u64,
    /// Bytes sent (0 for sequential engines).
    pub bytes: u64,
}

impl Fig2Cell {
    fn from_report(r: &EngineReport, t0: f64) -> Self {
        Fig2Cell {
            relative: t0 / r.modeled_seconds,
            seconds: r.modeled_seconds,
            op_counts: r.op_counts.clone(),
            messages: r.messages,
            bytes: r.bytes,
        }
    }

    /// Total executed operations over all opcodes.
    pub fn total_ops(&self) -> u64 {
        self.op_counts.values().sum()
    }
}

/// One row of Figure 2: relative single-CPU performance
/// (interpreter ≡ 1.0; higher is faster).
#[derive(Debug, Clone)]
pub struct Fig2Row {
    pub app: String,
    pub interpreter: Fig2Cell,
    pub matcom: Fig2Cell,
    pub otter: Fig2Cell,
}

impl Fig2Row {
    /// The row's cells with their engine names, in figure order.
    pub fn cells(&self) -> [(&'static str, &Fig2Cell); 3] {
        [
            ("interpreter", &self.interpreter),
            ("matcom", &self.matcom),
            ("otter", &self.otter),
        ]
    }
}

/// Figure 2 — relative performance of the three systems on one
/// UltraSPARC CPU. Every engine runs through [`run_engine`] and
/// reports through the same [`EngineReport`] schema.
pub fn fig2(scale: Scale) -> Vec<Fig2Row> {
    fig2_with(scale, &EngineOptions::default())
}

/// [`fig2`] with explicit engine options — lets tests assert that
/// turning observability knobs on leaves the figure byte-identical.
pub fn fig2_with(scale: Scale, opts: &EngineOptions) -> Vec<Fig2Row> {
    let ws = workstation();
    scale
        .apps()
        .iter()
        .map(|app| {
            let [interpreter, matcom, otter] = Engine::ALL.map(|engine| {
                run_engine(engine, &app.script, opts, &ws, 1)
                    .unwrap_or_else(|e| panic!("{}: {}: {e}", app.id, engine.name()))
            });
            let t0 = interpreter.modeled_seconds;
            Fig2Row {
                app: app.name.to_string(),
                interpreter: Fig2Cell::from_report(&interpreter, t0),
                matcom: Fig2Cell::from_report(&matcom, t0),
                otter: Fig2Cell::from_report(&otter, t0),
            }
        })
        .collect()
}

/// One machine's speedup curve.
#[derive(Debug, Clone)]
pub struct SpeedupSeries {
    pub machine: String,
    /// (CPU count, speedup over the interpreter on one CPU of this
    /// machine).
    pub points: Vec<(usize, f64)>,
}

/// One figure: an application's speedup on all three architectures.
#[derive(Debug, Clone)]
pub struct FigureData {
    pub figure: &'static str,
    pub app: String,
    pub series: Vec<SpeedupSeries>,
    /// Total messages at the largest CPU count on the first machine
    /// (reported in EXPERIMENTS.md).
    pub messages_at_max: u64,
}

/// CPU counts swept on a machine (powers of two up to its size).
pub fn cpu_sweep(machine: &Machine) -> Vec<usize> {
    let mut out = Vec::new();
    let mut p = 1;
    while p <= machine.max_cpus {
        out.push(p);
        p *= 2;
    }
    out
}

/// Figures 3–6 — one application's speedup over the interpreter on the
/// three modeled parallel machines.
pub fn speedup_figure(figure: &'static str, app: &App) -> FigureData {
    let machines = [meiko_cs2(), sparc20_cluster(), enterprise_smp()];
    let opts = EngineOptions::default();
    let compiled =
        compile(&app.script, &opts).unwrap_or_else(|e| panic!("{}: compile: {e}", app.id));
    let mut series = Vec::new();
    let mut messages_at_max = 0;
    for m in &machines {
        let interp = run_engine(Engine::Interpreter, &app.script, &opts, m, 1)
            .unwrap_or_else(|e| panic!("{}: interp: {e}", app.id));
        let t0 = interp.modeled_seconds;
        let mut points = Vec::new();
        for p in cpu_sweep(m) {
            let report = run(&compiled, &RunRequest::on(m.clone(), p))
                .unwrap_or_else(|e| panic!("{}: p={p}: {e}", app.id));
            points.push((p, t0 / report.modeled_seconds));
            if m.name.contains("Meiko") && p == m.max_cpus {
                messages_at_max = report.messages;
            }
        }
        series.push(SpeedupSeries {
            machine: m.name.clone(),
            points,
        });
    }
    FigureData {
        figure,
        app: app.name.to_string(),
        series,
        messages_at_max,
    }
}

/// The four speedup figures in paper order.
pub fn all_speedup_figures(scale: Scale) -> Vec<FigureData> {
    let apps = scale.apps();
    let find = |id: &str| apps.iter().find(|a| a.id == id).unwrap();
    vec![
        speedup_figure("Figure 3", find("cg")),
        speedup_figure("Figure 4", find("ocean")),
        speedup_figure("Figure 5", find("nbody")),
        speedup_figure("Figure 6", find("tc")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_otter_beats_interpreter_everywhere() {
        for row in fig2(Scale::Test) {
            assert!(
                row.otter.relative > 1.0,
                "{}: Otter must outperform the interpreter (got {})",
                row.app,
                row.otter.relative
            );
            assert!(
                row.matcom.relative > 1.0,
                "{}: MATCOM must too ({})",
                row.app,
                row.matcom.relative
            );
            assert_eq!(row.interpreter.relative, 1.0);
        }
    }

    #[test]
    fn fig2_rows_carry_engine_counters() {
        for row in fig2(Scale::Test) {
            for (name, cell) in row.cells() {
                assert!(cell.total_ops() > 0, "{}: {name} op_counts empty", row.app);
                assert!(cell.seconds > 0.0, "{}: {name}", row.app);
            }
            // Sequential engines never touch the network.
            assert_eq!(row.interpreter.messages, 0, "{}", row.app);
            assert_eq!(row.matcom.bytes, 0, "{}", row.app);
        }
    }

    #[test]
    fn cpu_sweeps_match_machines() {
        assert_eq!(cpu_sweep(&meiko_cs2()), vec![1, 2, 4, 8, 16]);
        assert_eq!(cpu_sweep(&enterprise_smp()), vec![1, 2, 4, 8]);
    }

    #[test]
    fn transitive_closure_scales_best() {
        // Figure 6 vs Figures 4/5: at max Meiko CPUs, the O(n³) app
        // must show more speedup than the O(n) apps.
        let apps = Scale::Test.apps();
        let tc = speedup_figure("f6", apps.iter().find(|a| a.id == "tc").unwrap());
        let ocean = speedup_figure("f4", apps.iter().find(|a| a.id == "ocean").unwrap());
        let tc_max = tc.series[0].points.last().unwrap().1;
        let ocean_max = ocean.series[0].points.last().unwrap().1;
        assert!(
            tc_max > ocean_max,
            "TC speedup {tc_max} should beat ocean {ocean_max} on the Meiko"
        );
    }
}
