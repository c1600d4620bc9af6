//! The `harness scale` sweep: how far past the machine's physical
//! CPU count the virtual-rank scheduler can push a benchmark app.
//!
//! The paper stops at 16 CPUs because the Meiko CS-2 had 16; the
//! virtual-rank scheduler removes that ceiling by multiplexing
//! thousands of logical ranks over a fixed worker pool. A
//! [`ScaleSpec`] compiles one app once, measures the interpreter
//! baseline on a single CPU, then runs the compiled SPMD program at
//! each requested rank count on the same pooled scheduler. Each
//! [`ScalePoint`] carries both the deterministic simulation outputs
//! (modeled seconds, speedup over the interpreter, message/byte
//! totals, `load_imbalance_ratio`) — identical for any worker-pool
//! size — and the host wall-clock seconds of the run, which is the
//! honest cost of simulating that many ranks.

use crate::figures::Scale;
use otter_core::{compile, run, run_engine, Engine, EngineOptions, OtterError, RunRequest};
use otter_machine::meiko_cs2;
use otter_metrics::Json;
use std::time::Instant;

/// The `"schema"` tag every scale report carries.
pub const SCALE_SCHEMA: &str = "otter-scale/v1";

/// What to sweep.
#[derive(Debug, Clone)]
pub struct ScaleSpec {
    /// Problem sizes (test scale for CI, paper scale for real runs).
    pub scale: Scale,
    /// Benchmark app id (`cg`/`ocean`/`nbody`/`tc`).
    pub app_id: String,
    /// Rank counts to sweep, in order.
    pub ranks: Vec<usize>,
    /// Worker-pool size; `None` uses the host's parallelism. Only
    /// `wall_seconds` depends on this.
    pub workers: Option<usize>,
}

impl Default for ScaleSpec {
    fn default() -> Self {
        ScaleSpec {
            scale: Scale::Test,
            app_id: "cg".to_string(),
            ranks: vec![64, 256, 1024, 4096],
            workers: None,
        }
    }
}

/// One rank count's measurements.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    pub ranks: usize,
    /// Modeled execution time (virtual seconds; deterministic).
    pub modeled_seconds: f64,
    /// Speedup over the single-CPU interpreter baseline.
    pub speedup: f64,
    /// Total messages across ranks (deterministic).
    pub messages: u64,
    /// Total bytes across ranks (deterministic).
    pub bytes: u64,
    /// max/min rank virtual clock (deterministic; ≥ 1).
    pub load_imbalance_ratio: f64,
    /// Host wall-clock seconds for the run (informational).
    pub wall_seconds: f64,
}

/// A full sweep: configuration echo plus one point per rank count.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    pub app: String,
    pub machine: String,
    /// The worker-pool size used, or 0 for host parallelism.
    pub workers: usize,
    /// Interpreter modeled seconds on one CPU (the speedup baseline).
    pub t0: f64,
    pub points: Vec<ScalePoint>,
}

/// Run the sweep on the Meiko CS-2 model. Rank counts may exceed the
/// machine's physical 16 CPUs — `max_cpus` shapes the network model,
/// not the scheduler.
pub fn run_scale(spec: &ScaleSpec) -> Result<ScaleReport, OtterError> {
    let machine = meiko_cs2();
    let apps = spec.scale.apps();
    let app = apps.iter().find(|a| a.id == spec.app_id).ok_or_else(|| {
        OtterError::execution(format!(
            "scale: unknown app `{}` (expected cg|ocean|nbody|tc)",
            spec.app_id
        ))
    })?;
    let opts = EngineOptions::builder().metrics(true).build();
    let t0 = run_engine(Engine::Interpreter, &app.script, &opts, &machine, 1)?.modeled_seconds;
    let artifact = compile(&app.script, &opts)
        .map_err(|e| OtterError::execution(format!("scale: {}: compile: {e}", app.id)))?;
    let mut points = Vec::new();
    for &p in &spec.ranks {
        let mut req = RunRequest::on(machine.clone(), p);
        req.workers = spec.workers;
        let wall0 = Instant::now();
        let report = run(&artifact, &req)?;
        let wall_seconds = wall0.elapsed().as_secs_f64();
        let imbalance = report
            .metrics
            .as_ref()
            .and_then(|m| m.gauge("load_imbalance_ratio", &[]))
            .unwrap_or(1.0);
        points.push(ScalePoint {
            ranks: p,
            modeled_seconds: report.modeled_seconds,
            speedup: t0 / report.modeled_seconds,
            messages: report.messages,
            bytes: report.bytes,
            load_imbalance_ratio: imbalance,
            wall_seconds,
        });
    }
    Ok(ScaleReport {
        app: app.id.to_string(),
        machine: machine.name,
        workers: spec.workers.unwrap_or(0),
        t0,
        points,
    })
}

impl ScaleReport {
    /// Serialize under the `otter-scale/v1` schema.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(SCALE_SCHEMA.to_string())),
            ("app".to_string(), Json::Str(self.app.clone())),
            ("machine".to_string(), Json::Str(self.machine.clone())),
            ("workers".to_string(), Json::Num(self.workers as f64)),
            ("interpreter_seconds".to_string(), Json::Num(self.t0)),
            (
                "points".to_string(),
                Json::Arr(
                    self.points
                        .iter()
                        .map(|pt| {
                            Json::Obj(vec![
                                ("ranks".to_string(), Json::Num(pt.ranks as f64)),
                                ("modeled_seconds".to_string(), Json::Num(pt.modeled_seconds)),
                                ("speedup".to_string(), Json::Num(pt.speedup)),
                                ("messages".to_string(), Json::Num(pt.messages as f64)),
                                ("bytes".to_string(), Json::Num(pt.bytes as f64)),
                                (
                                    "load_imbalance_ratio".to_string(),
                                    Json::Num(pt.load_imbalance_ratio),
                                ),
                                ("wall_seconds".to_string(), Json::Num(pt.wall_seconds)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable sweep table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let workers = if self.workers == 0 {
            "host parallelism".to_string()
        } else {
            format!("{} worker(s)", self.workers)
        };
        let _ = writeln!(
            out,
            "scale: {} on {}, {workers}; interpreter baseline {:.6}s",
            self.app, self.machine, self.t0
        );
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>10} {:>10} {:>12} {:>11} {:>10}",
            "ranks", "modeled (s)", "speedup", "messages", "bytes", "imbalance", "wall (s)"
        );
        for pt in &self.points {
            let _ = writeln!(
                out,
                "{:>6} {:>14.6} {:>10.2} {:>10} {:>12} {:>11.3} {:>10.3}",
                pt.ranks,
                pt.modeled_seconds,
                pt.speedup,
                pt.messages,
                pt.bytes,
                pt.load_imbalance_ratio,
                pt.wall_seconds
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_reports_every_point() {
        // Keep the unit test cheap: two small rank counts on a tiny
        // pool still exercise compile-once + per-p engine + metrics.
        let spec = ScaleSpec {
            ranks: vec![2, 8],
            workers: Some(2),
            ..ScaleSpec::default()
        };
        let report = run_scale(&spec).expect("sweep runs");
        assert_eq!(report.app, "cg");
        assert_eq!(report.workers, 2);
        assert!(report.t0 > 0.0);
        assert_eq!(report.points.len(), 2);
        for (pt, &p) in report.points.iter().zip(&spec.ranks) {
            assert_eq!(pt.ranks, p);
            assert!(pt.modeled_seconds > 0.0);
            assert!(pt.speedup > 0.0);
            assert!(pt.load_imbalance_ratio >= 1.0);
            assert!(pt.messages > 0, "p={p} must communicate");
        }
        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).expect("valid json");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(SCALE_SCHEMA)
        );
        assert!(report.render().contains("speedup"));
    }

    #[test]
    fn unknown_app_is_an_error() {
        let spec = ScaleSpec {
            app_id: "nope".to_string(),
            ranks: vec![2],
            ..ScaleSpec::default()
        };
        let err = run_scale(&spec).expect_err("must reject");
        assert!(err.to_string().contains("unknown app"));
    }
}
