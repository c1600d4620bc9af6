//! The deterministic bench driver behind `harness bench`.
//!
//! One [`BenchSpec`] runs every selected (app, engine, ranks)
//! combination once, with metrics on. Each combination yields a
//! [`BenchResult`] of simulation outputs only — `modeled_seconds`,
//! `messages`, `bytes` and the job's metric snapshot — identical on
//! every machine and every run, because the SPMD substrate runs on
//! virtual clocks. [`check`] gates regressions on them, so a committed
//! baseline stays valid across hosts and CI runners. Host wall-clock
//! questions belong to the `benchmark/` harness (see
//! `benchmark/README.md`).
//!
//! Reports round-trip through the hand-rolled [`Json`] tree under the
//! `otter-bench/v2` schema, so `harness bench --check baseline.json`
//! can parse a checked-in baseline without any external dependency.

use crate::figures::Scale;
use otter_core::{run_engine, Engine, EngineOptions, OtterError};
use otter_machine::meiko_cs2;
use otter_metrics::{Json, MetricsSnapshot};

/// The `"schema"` tag every report carries; bump on breaking format
/// changes.
pub const BENCH_SCHEMA: &str = "otter-bench/v2";

/// What to benchmark.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// Problem sizes (test scale for CI, paper scale for real runs).
    pub scale: Scale,
    /// Benchmark app id (`cg`/`ocean`/`nbody`/`tc`) or `all`.
    pub app_id: String,
    /// Rank counts for the SPMD engine — one `otter` combination per
    /// entry (sequential engines always run on one CPU, once).
    pub ranks: Vec<usize>,
    /// Worker-pool size for the SPMD scheduler; `None` uses the host's
    /// parallelism. Every reported quantity is identical either way.
    pub workers: Option<usize>,
}

impl Default for BenchSpec {
    fn default() -> Self {
        BenchSpec {
            scale: Scale::Test,
            app_id: "all".to_string(),
            ranks: vec![4],
            workers: None,
        }
    }
}

/// One (app, engine, ranks) combination's measurements.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub app: String,
    pub engine: String,
    pub ranks: usize,
    /// Modeled execution time (virtual seconds; deterministic).
    pub modeled_seconds: f64,
    /// Total messages across ranks (deterministic).
    pub messages: u64,
    /// Total bytes across ranks (deterministic).
    pub bytes: u64,
    /// The job-level metric snapshot (rank registries merged).
    pub metrics: MetricsSnapshot,
}

/// A full bench run: configuration echo plus one result per
/// combination.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub scale: String,
    pub machine: String,
    pub results: Vec<BenchResult>,
}

/// Run the spec on the Meiko CS-2 model. Fails if an app id matches
/// nothing or any engine errors.
pub fn run_bench(spec: &BenchSpec) -> Result<BenchReport, OtterError> {
    let machine = meiko_cs2();
    let apps: Vec<_> = spec
        .scale
        .apps()
        .into_iter()
        .filter(|a| spec.app_id == "all" || a.id == spec.app_id)
        .collect();
    if apps.is_empty() {
        return Err(OtterError::execution(format!(
            "bench: unknown app `{}` (expected cg|ocean|nbody|tc|all)",
            spec.app_id
        )));
    }
    let mut opts = EngineOptions::builder().metrics(true).build();
    opts.workers = spec.workers;
    let ranks = if spec.ranks.is_empty() {
        vec![4]
    } else {
        spec.ranks.clone()
    };
    let mut results = Vec::new();
    for app in &apps {
        // Sequential engines model one CPU; only the SPMD engine sees
        // the requested rank counts (one combination per count).
        let mut combos = vec![(Engine::Interpreter, 1), (Engine::Matcom, 1)];
        combos.extend(ranks.iter().map(|&p| (Engine::Otter, p)));
        for (engine, p) in combos {
            let report = run_engine(engine, &app.script, &opts, &machine, p)?;
            results.push(BenchResult {
                app: app.id.to_string(),
                engine: engine.name().to_string(),
                ranks: p,
                modeled_seconds: report.modeled_seconds,
                messages: report.messages,
                bytes: report.bytes,
                metrics: report.metrics.unwrap_or_default(),
            });
        }
    }
    Ok(BenchReport {
        scale: spec.scale.name().to_string(),
        machine: machine.name,
        results,
    })
}

impl BenchReport {
    /// Serialize under the `otter-bench/v2` schema.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(BENCH_SCHEMA.to_string())),
            ("scale".to_string(), Json::Str(self.scale.clone())),
            ("machine".to_string(), Json::Str(self.machine.clone())),
            (
                "results".to_string(),
                Json::Arr(
                    self.results
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("app".to_string(), Json::Str(r.app.clone())),
                                ("engine".to_string(), Json::Str(r.engine.clone())),
                                ("ranks".to_string(), Json::Num(r.ranks as f64)),
                                ("modeled_seconds".to_string(), Json::Num(r.modeled_seconds)),
                                ("messages".to_string(), Json::Num(r.messages as f64)),
                                ("bytes".to_string(), Json::Num(r.bytes as f64)),
                                ("metrics".to_string(), r.metrics.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a report written by [`BenchReport::to_json`].
    pub fn from_json(json: &Json) -> Result<BenchReport, String> {
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("bench report missing `schema`")?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "unsupported bench schema `{schema}` (expected `{BENCH_SCHEMA}`)"
            ));
        }
        let str_field = |obj: &Json, field: &str| -> Result<String, String> {
            obj.get(field)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("bench report missing `{field}`"))
        };
        let num_field = |obj: &Json, field: &str| -> Result<f64, String> {
            obj.get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("bench report missing `{field}`"))
        };
        let mut results = Vec::new();
        for r in json
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("bench report missing `results`")?
        {
            let metrics = match r.get("metrics") {
                Some(m) => MetricsSnapshot::from_json(m)?,
                None => MetricsSnapshot::default(),
            };
            results.push(BenchResult {
                app: str_field(r, "app")?,
                engine: str_field(r, "engine")?,
                ranks: num_field(r, "ranks")? as usize,
                modeled_seconds: num_field(r, "modeled_seconds")?,
                messages: num_field(r, "messages")? as u64,
                bytes: num_field(r, "bytes")? as u64,
                metrics,
            });
        }
        Ok(BenchReport {
            scale: str_field(json, "scale")?,
            machine: str_field(json, "machine")?,
            results,
        })
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "bench: {} scale on {}", self.scale, self.machine);
        let _ = writeln!(
            out,
            "{:<7} {:<12} {:>5} {:>14} {:>10} {:>12}",
            "app", "engine", "ranks", "modeled (s)", "messages", "bytes"
        );
        for r in &self.results {
            let _ = writeln!(
                out,
                "{:<7} {:<12} {:>5} {:>14.6} {:>10} {:>12}",
                r.app, r.engine, r.ranks, r.modeled_seconds, r.messages, r.bytes
            );
        }
        out
    }
}

/// One detected regression of `current` against `baseline`.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    pub app: String,
    pub engine: String,
    pub ranks: usize,
    /// Which gated quantity regressed (`modeled_seconds`, `messages`,
    /// `bytes`, or `missing`).
    pub what: String,
    pub baseline: f64,
    pub current: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} x{}: {} regressed {} -> {}",
            self.app, self.engine, self.ranks, self.what, self.baseline, self.current
        )
    }
}

/// Gate `current` against `baseline`: every baseline combination must
/// exist in `current`, and its deterministic outputs must not exceed
/// the baseline by more than `tolerance_pct` percent.
pub fn check(baseline: &BenchReport, current: &BenchReport, tolerance_pct: f64) -> Vec<Regression> {
    let allowed = 1.0 + tolerance_pct / 100.0;
    let mut regressions = Vec::new();
    for b in &baseline.results {
        let Some(c) = current
            .results
            .iter()
            .find(|c| c.app == b.app && c.engine == b.engine && c.ranks == b.ranks)
        else {
            regressions.push(Regression {
                app: b.app.clone(),
                engine: b.engine.clone(),
                ranks: b.ranks,
                what: "missing".to_string(),
                baseline: 1.0,
                current: 0.0,
            });
            continue;
        };
        let gates = [
            ("modeled_seconds", b.modeled_seconds, c.modeled_seconds),
            ("messages", b.messages as f64, c.messages as f64),
            ("bytes", b.bytes as f64, c.bytes as f64),
        ];
        for (what, base, cur) in gates {
            if cur > base * allowed {
                regressions.push(Regression {
                    app: b.app.clone(),
                    engine: b.engine.clone(),
                    ranks: b.ranks,
                    what: what.to_string(),
                    baseline: base,
                    current: cur,
                });
            }
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report(modeled: f64, messages: u64) -> BenchReport {
        BenchReport {
            scale: "test".to_string(),
            machine: "m".to_string(),
            results: vec![BenchResult {
                app: "cg".to_string(),
                engine: "otter".to_string(),
                ranks: 4,
                modeled_seconds: modeled,
                messages,
                bytes: 1000,
                metrics: MetricsSnapshot::default(),
            }],
        }
    }

    #[test]
    fn json_round_trip() {
        let report = tiny_report(1.5, 42);
        let text = report.to_json().to_string();
        let back = BenchReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.results.len(), 1);
        assert_eq!(back.results[0].modeled_seconds, 1.5);
        assert_eq!(back.results[0].messages, 42);
        assert_eq!(back.scale, "test");
    }

    /// Everything a report carries is a pure function of the code: the
    /// JSON is byte-identical across runs and worker-pool sizes.
    #[test]
    fn reports_are_byte_identical_across_worker_pools() {
        let json = |workers| {
            let spec = BenchSpec {
                app_id: "ocean".to_string(),
                ranks: vec![1, 4],
                workers: Some(workers),
                ..BenchSpec::default()
            };
            run_bench(&spec).unwrap().to_json().to_string()
        };
        assert_eq!(json(1), json(2));
    }

    #[test]
    fn check_passes_within_tolerance_and_fails_past_it() {
        let base = tiny_report(1.0, 100);
        assert!(check(&base, &tiny_report(1.05, 100), 10.0).is_empty());
        let slow = check(&base, &tiny_report(1.5, 100), 10.0);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].what, "modeled_seconds");
        let chatty = check(&base, &tiny_report(1.0, 200), 10.0);
        assert_eq!(chatty.len(), 1);
        assert_eq!(chatty[0].what, "messages");
    }

    #[test]
    fn check_flags_missing_combinations() {
        let base = tiny_report(1.0, 100);
        let mut cur = tiny_report(1.0, 100);
        cur.results[0].ranks = 8; // no longer matches (cg, otter, 4)
        let r = check(&base, &cur, 10.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].what, "missing");
    }

    #[test]
    fn faster_is_never_a_regression() {
        let base = tiny_report(1.0, 100);
        assert!(check(&base, &tiny_report(0.2, 10), 0.0).is_empty());
    }
}
