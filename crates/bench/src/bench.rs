//! The statistical bench driver behind `harness bench`.
//!
//! One [`BenchSpec`] runs every selected (app, engine, ranks)
//! combination with metrics on: `warmup` untimed repetitions, then
//! `repeat` measured ones. Each combination yields a [`BenchResult`]
//! carrying two kinds of numbers:
//!
//! * **Deterministic simulation outputs** — `modeled_seconds`,
//!   `messages`, `bytes` — identical on every machine and every
//!   repetition, because the SPMD substrate runs on virtual clocks.
//!   These are what [`check`] gates regressions on: a committed
//!   baseline stays valid across hosts and CI runners.
//! * **Host wall-clock statistics** — median/min/max/IQR over the
//!   measured repetitions. These vary with the machine and its load,
//!   so [`check`] never gates them; wall-clock questions belong to
//!   the `benchmark/` harness (see `benchmark/README.md`).
//!
//! Reports round-trip through the hand-rolled [`Json`] tree under the
//! `otter-bench/v1` schema, so `harness bench --check baseline.json`
//! can parse a checked-in baseline without any external dependency.

use crate::figures::Scale;
use otter_core::{run_engine, Engine, EngineOptions, EngineReport, OtterError};
use otter_machine::meiko_cs2;
use otter_metrics::{Json, MetricsSnapshot};
use std::time::Instant;

/// The `"schema"` tag every report carries; bump on breaking format
/// changes.
pub const BENCH_SCHEMA: &str = "otter-bench/v1";

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
    /// parallelism. Deterministic outputs are identical either way, so
    /// gated quantities never depend on this.
    pub workers: Option<usize>,
    /// Measured repetitions per combination.
    pub repeat: usize,
    /// Untimed warm-up repetitions per combination.
    pub warmup: usize,
}

impl Default for BenchSpec {
    fn default() -> Self {
        BenchSpec {
            scale: Scale::Test,
            app_id: "all".to_string(),
            ranks: vec![4],
            workers: None,
            repeat: 5,
            warmup: 1,
        }
    }
}

/// Order statistics of the measured wall-clock samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallStats {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Interquartile range (q3 − q1, nearest-rank quartiles).
    pub iqr: f64,
}

impl WallStats {
    /// Summarize a non-empty sample set.
    pub fn from_samples(samples: &[f64]) -> WallStats {
        assert!(!samples.is_empty(), "wall stats need at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        // Nearest-rank quartiles degenerate below four samples: both
        // rank formulas land on interior (or identical) elements and
        // report a zero IQR for genuinely dispersed data. Clamp small
        // samples to the conservative full range instead — one sample
        // has no dispersion at all, so it stays zero.
        let iqr = match n {
            1 => 0.0,
            2 | 3 => s[n - 1] - s[0],
            _ => s[(3 * (n - 1)) / 4] - s[(n - 1) / 4],
        };
        WallStats {
            median,
            min: s[0],
            max: s[n - 1],
            iqr,
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
    /// Host wall-clock statistics over the measured repetitions
    /// (informational; never gated).
    pub wall: WallStats,
    /// The job-level metric snapshot from the last measured repetition
    /// (rank registries merged; identical across repetitions except
    /// for the host-time `compile_pass_seconds` series).
    pub metrics: MetricsSnapshot,
}

/// A full bench run: configuration echo plus one result per
/// combination.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub scale: String,
    pub machine: String,
    pub repeat: usize,
    pub warmup: usize,
    pub results: Vec<BenchResult>,
}

fn make_engine(name: &str, opts: &EngineOptions) -> Box<dyn Engine> {
    otter_core::standard_engines(opts)
        .into_iter()
        .find(|e| e.name() == name)
        .unwrap_or_else(|| panic!("no engine named `{name}`"))
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
    let repeat = spec.repeat.max(1);
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
        let mut combos = vec![("interpreter", 1), ("matcom", 1)];
        combos.extend(ranks.iter().map(|&p| ("otter", p)));
        for (engine_name, p) in combos {
            for _ in 0..spec.warmup {
                run_engine(
                    make_engine(engine_name, &opts).as_mut(),
                    &app.script,
                    &machine,
                    p,
                )?;
            }
            let mut walls = Vec::with_capacity(repeat);
            let mut last: Option<EngineReport> = None;
            for _ in 0..repeat {
                let t0 = Instant::now();
                let report = run_engine(
                    make_engine(engine_name, &opts).as_mut(),
                    &app.script,
                    &machine,
                    p,
                )?;
                walls.push(t0.elapsed().as_secs_f64());
                last = Some(report);
            }
            let report = last.expect("repeat >= 1");
            results.push(BenchResult {
                app: app.id.to_string(),
                engine: engine_name.to_string(),
                ranks: p,
                modeled_seconds: report.modeled_seconds,
                messages: report.messages,
                bytes: report.bytes,
                wall: WallStats::from_samples(&walls),
                metrics: report.metrics.unwrap_or_default(),
            });
        }
    }
    Ok(BenchReport {
        scale: match spec.scale {
            Scale::Paper => "paper".to_string(),
            Scale::Test => "test".to_string(),
            Scale::Large => "large".to_string(),
        },
        machine: machine.name,
        repeat,
        warmup: spec.warmup,
        results,
    })
}

impl BenchReport {
    /// Serialize under the `otter-bench/v1` schema.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(BENCH_SCHEMA.to_string())),
            ("scale".to_string(), Json::Str(self.scale.clone())),
            ("machine".to_string(), Json::Str(self.machine.clone())),
            ("repeat".to_string(), Json::Num(self.repeat as f64)),
            ("warmup".to_string(), Json::Num(self.warmup as f64)),
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
                                (
                                    "wall_seconds".to_string(),
                                    Json::Obj(vec![
                                        ("median".to_string(), Json::Num(r.wall.median)),
                                        ("min".to_string(), Json::Num(r.wall.min)),
                                        ("max".to_string(), Json::Num(r.wall.max)),
                                        ("iqr".to_string(), Json::Num(r.wall.iqr)),
                                    ]),
                                ),
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
            let wall = r
                .get("wall_seconds")
                .ok_or("result missing `wall_seconds`")?;
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
                wall: WallStats {
                    median: num_field(wall, "median")?,
                    min: num_field(wall, "min")?,
                    max: num_field(wall, "max")?,
                    iqr: num_field(wall, "iqr")?,
                },
                metrics,
            });
        }
        Ok(BenchReport {
            scale: str_field(json, "scale")?,
            machine: str_field(json, "machine")?,
            repeat: num_field(json, "repeat")? as usize,
            warmup: num_field(json, "warmup")? as usize,
            results,
        })
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench: {} scale on {}, {} repetition(s) after {} warmup(s)",
            self.scale, self.machine, self.repeat, self.warmup
        );
        let _ = writeln!(
            out,
            "{:<7} {:<12} {:>5} {:>14} {:>10} {:>12} {:>12}",
            "app", "engine", "ranks", "modeled (s)", "messages", "wall med (s)", "wall IQR (s)"
        );
        for r in &self.results {
            let _ = writeln!(
                out,
                "{:<7} {:<12} {:>5} {:>14.6} {:>10} {:>12.4} {:>12.4}",
                r.app, r.engine, r.ranks, r.modeled_seconds, r.messages, r.wall.median, r.wall.iqr
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
    /// `bytes`, `wall_seconds`, or `missing`).
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
/// the baseline by more than `tolerance_pct` percent. Wall-clock stats
/// are never gated — they are host-dependent.
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

    #[test]
    fn wall_stats_order_statistics() {
        let s = WallStats::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.iqr, 2.0, "q3=4, q1=2 under nearest-rank");
        let even = WallStats::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.median, 2.5);
    }

    #[test]
    fn wall_stats_small_samples_do_not_degenerate() {
        // One sample: no dispersion to report.
        let one = WallStats::from_samples(&[7.0]);
        assert_eq!(one.median, 7.0);
        assert_eq!(one.iqr, 0.0);
        // Two and three samples: nearest-rank quartiles would both
        // land on s[0] (n=2) or report a misleading interior spread
        // (n=3); the clamp reports the conservative full range.
        let two = WallStats::from_samples(&[1.0, 5.0]);
        assert_eq!(two.median, 3.0);
        assert_eq!(two.iqr, 4.0);
        let three = WallStats::from_samples(&[1.0, 2.0, 9.0]);
        assert_eq!(three.median, 2.0);
        assert_eq!(three.iqr, 8.0);
        // Four samples: back on nearest-rank (q1 = s[0], q3 = s[2]).
        let four = WallStats::from_samples(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!(four.iqr, 2.0);
    }

    fn tiny_report(modeled: f64, messages: u64) -> BenchReport {
        BenchReport {
            scale: "test".to_string(),
            machine: "m".to_string(),
            repeat: 3,
            warmup: 1,
            results: vec![BenchResult {
                app: "cg".to_string(),
                engine: "otter".to_string(),
                ranks: 4,
                modeled_seconds: modeled,
                messages,
                bytes: 1000,
                wall: WallStats {
                    median: 0.1,
                    min: 0.05,
                    max: 0.2,
                    iqr: 0.02,
                },
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
        assert_eq!(back.results[0].wall, report.results[0].wall);
        assert_eq!(back.scale, "test");
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
