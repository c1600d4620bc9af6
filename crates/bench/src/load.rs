//! The serve-mode traffic generator behind `harness load`.
//!
//! A [`LoadSpec`] drives `clients` concurrent sessions against an
//! `otterd` socket — an in-process [`otter_serve::Server`] spun up for
//! the occasion, or an external daemon via `socket` — issuing `run`
//! jobs drawn round-robin from `scripts` distinct sources (the four
//! benchmark apps, plus comment-suffixed variants past four, so every
//! variant compiles identically but occupies its own cache entry).
//!
//! The [`LoadReport`] separates two kinds of numbers:
//!
//! * **Informational traffic statistics** — throughput, p50/p95/p99
//!   round-trip latency, cold vs warm compile percentiles, cache-hit
//!   rate. Host- and schedule-dependent; never gated.
//! * **Deterministic per-script outputs** — `modeled_seconds`,
//!   `messages`, `bytes` of each distinct script, embedded as a full
//!   `otter-bench/v2` report under the `bench` key (engine `"serve"`).
//!   `harness load --check baseline.json` feeds that section through
//!   the same [`crate::bench::check`] gate the bench baseline uses, so
//!   one mechanism guards both paths.

use crate::bench::{check, BenchReport, BenchResult, Regression};
use crate::figures::Scale;
use otter_core::OtterError;
use otter_metrics::{Json, MetricsSnapshot};
use otter_serve::{JobOptions, ServeClient, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The `"schema"` tag on every load report.
pub const LOAD_SCHEMA: &str = "otter-load/v1";

/// How jobs arrive at the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each client issues its next job as soon as the previous one
    /// returns (think batch backlog).
    Closed,
    /// Jobs arrive on a fixed global schedule of `rate` jobs/second,
    /// independent of service time (think interactive users); a job
    /// whose scheduled instant has passed is issued immediately.
    Open { rate: f64 },
}

impl Arrival {
    pub fn label(self) -> &'static str {
        match self {
            Arrival::Closed => "closed",
            Arrival::Open { .. } => "open",
        }
    }
}

/// What traffic to generate.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Problem sizes for the underlying scripts.
    pub scale: Scale,
    /// Concurrent client sessions.
    pub clients: usize,
    /// Distinct scripts cycled through (variants past the four apps).
    pub scripts: usize,
    /// Jobs per client.
    pub requests: usize,
    pub arrival: Arrival,
    /// Logical SPMD ranks per job.
    pub ranks: usize,
    /// Worker budget for the in-process server (`None`: host cores).
    /// Ignored when `socket` points at an external daemon.
    pub workers: Option<usize>,
    /// Machine model name jobs run on.
    pub machine: String,
    /// Connect to an existing daemon instead of starting one.
    pub socket: Option<PathBuf>,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            scale: Scale::Test,
            clients: 4,
            scripts: 4,
            requests: 8,
            arrival: Arrival::Closed,
            ranks: 4,
            workers: None,
            machine: "meiko".to_string(),
            socket: None,
        }
    }
}

/// Nearest-rank percentiles of a latency sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

impl LatencyStats {
    /// Summarize a sample set; all zeros when it is empty.
    pub fn from_samples(samples: &[f64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats {
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        let rank = |q: f64| s[((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1];
        LatencyStats {
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            max: s[s.len() - 1],
        }
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("p50".to_string(), Json::Num(self.p50)),
            ("p95".to_string(), Json::Num(self.p95)),
            ("p99".to_string(), Json::Num(self.p99)),
            ("max".to_string(), Json::Num(self.max)),
        ])
    }

    fn from_json(json: &Json) -> Result<LatencyStats, String> {
        let num = |f: &str| {
            json.get(f)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("latency stats missing `{f}`"))
        };
        Ok(LatencyStats {
            p50: num("p50")?,
            p95: num("p95")?,
            p99: num("p99")?,
            max: num("max")?,
        })
    }
}

/// The outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub scale: String,
    pub machine: String,
    pub clients: usize,
    pub scripts: usize,
    /// Jobs per client (total = `clients × requests`).
    pub requests: usize,
    pub arrival: String,
    pub ranks: usize,
    /// Jobs that completed successfully.
    pub completed: usize,
    /// Wall seconds from first issue to last reply.
    pub duration_seconds: f64,
    pub throughput_jobs_per_sec: f64,
    /// Client-observed round-trip latency.
    pub latency_seconds: LatencyStats,
    /// Daemon-side compile seconds on cache misses.
    pub compile_cold_seconds: LatencyStats,
    /// Daemon-side compile seconds on cache hits (≈ 0: one hash and
    /// one table lookup; passes 1–6 never run).
    pub compile_warm_seconds: LatencyStats,
    /// `cold p50 / warm p50` (0 when either side has no samples).
    pub cold_over_warm: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Every daemon-minted job id this run exercised, for
    /// cross-referencing against the daemon's `GET /jobs` table.
    /// Printed, never serialized (ids are fresh each run, so they
    /// would churn baselines without gating anything).
    pub job_ids: Vec<String>,
    /// Deterministic per-script outputs in `otter-bench/v2` form, for
    /// the shared regression gate.
    pub bench: BenchReport,
}

/// One distinct script of the traffic mix.
struct LoadScript {
    id: String,
    source: String,
}

/// The four apps plus comment-variants: variant `k` of app `a` has the
/// same compiled form but a distinct source hash, so it exercises its
/// own cache entry.
fn load_scripts(scale: Scale, count: usize) -> Vec<LoadScript> {
    let apps = scale.apps();
    (0..count.max(1))
        .map(|i| {
            let app = &apps[i % apps.len()];
            let variant = i / apps.len();
            if variant == 0 {
                LoadScript {
                    id: app.id.to_string(),
                    source: app.script.clone(),
                }
            } else {
                LoadScript {
                    id: format!("{}+v{variant}", app.id),
                    source: format!("{}\n% load variant {variant}\n", app.script),
                }
            }
        })
        .collect()
}

/// Everything one job contributes to the report.
struct JobSample {
    script: usize,
    /// The daemon-minted correlation id, for cross-referencing this
    /// job against the daemon's `GET /jobs` table.
    job_id: String,
    latency: f64,
    cache_hit: bool,
    compile_seconds: f64,
    modeled_seconds: f64,
    messages: u64,
    bytes: u64,
}

/// Run the traffic. Starts (and cleanly shuts down) an in-process
/// server unless the spec points at an external socket.
pub fn run_load(spec: &LoadSpec) -> Result<LoadReport, OtterError> {
    let scripts = load_scripts(spec.scale, spec.scripts);
    let fail = |msg: String| OtterError::execution(format!("load: {msg}"));

    // Start our own daemon unless pointed at one.
    let (socket, server_thread) = match &spec.socket {
        Some(path) => (path.clone(), None),
        None => {
            let mut cfg = ServeConfig::default();
            static LOAD_SEQ: AtomicU64 = AtomicU64::new(0);
            cfg.socket = std::env::temp_dir().join(format!(
                "otter-load-{}-{}.sock",
                std::process::id(),
                LOAD_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            if let Some(w) = spec.workers {
                cfg.workers = w;
            }
            cfg.cache_capacity = spec.scripts.max(4) * 2;
            let server = Server::bind(cfg).map_err(|e| fail(format!("bind failed: {e}")))?;
            let path = server.socket().clone();
            (path, Some(std::thread::spawn(move || server.run())))
        }
    };

    let clients = spec.clients.max(1);
    let requests = spec.requests.max(1);
    let samples: Mutex<Vec<JobSample>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let started = Instant::now();

    std::thread::scope(|scope| {
        for client in 0..clients {
            let scripts = &scripts;
            let samples = &samples;
            let errors = &errors;
            let socket = &socket;
            scope.spawn(move || {
                let mut session =
                    match ServeClient::connect_with_retry(socket, Duration::from_secs(5)) {
                        Ok(s) => s,
                        Err(e) => {
                            errors.lock().unwrap().push(format!("connect failed: {e}"));
                            return;
                        }
                    };
                for req in 0..requests {
                    // Global job index: interleaved across clients so
                    // every script sees traffic from several sessions.
                    let global = req * clients + client;
                    if let Arrival::Open { rate } = spec.arrival {
                        let due = started + Duration::from_secs_f64(global as f64 / rate.max(1e-9));
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                    }
                    let script = global % scripts.len();
                    let t0 = Instant::now();
                    match session.run(
                        &scripts[script].source,
                        JobOptions::default(),
                        &spec.machine,
                        spec.ranks,
                        None,
                    ) {
                        Ok(reply) => {
                            let num =
                                |k: &str| reply.body.get(k).and_then(Json::as_num).unwrap_or(0.0);
                            samples.lock().unwrap().push(JobSample {
                                script,
                                job_id: reply.job_id.clone(),
                                latency: t0.elapsed().as_secs_f64(),
                                cache_hit: reply.cache_hit,
                                compile_seconds: reply.compile_seconds,
                                modeled_seconds: num("modeled_seconds"),
                                messages: num("messages") as u64,
                                bytes: num("bytes") as u64,
                            });
                        }
                        Err(e) => errors.lock().unwrap().push(e),
                    }
                }
            });
        }
    });
    let duration = started.elapsed().as_secs_f64();

    // Our in-process server gets a clean shutdown through the protocol.
    if let Some(handle) = server_thread {
        let stop = ServeClient::connect_with_retry(&socket, Duration::from_secs(5))
            .map_err(|e| fail(format!("shutdown connect failed: {e}")))
            .and_then(|mut c| c.shutdown().map_err(fail));
        stop?;
        handle
            .join()
            .map_err(|_| fail("server thread panicked".to_string()))?
            .map_err(|e| fail(format!("server accept loop failed: {e}")))?;
    }

    let errors = errors.into_inner().unwrap();
    if let Some(first) = errors.first() {
        return Err(fail(format!(
            "{} job(s) failed; first: {first}",
            errors.len()
        )));
    }
    let samples = samples.into_inner().unwrap();

    // Deterministic per-script outputs (identical on every completed
    // job of a script — take the first) become the bench section.
    let mut results = Vec::new();
    for (i, script) in scripts.iter().enumerate() {
        let Some(first) = samples.iter().find(|s| s.script == i) else {
            continue; // never reached by the schedule; not gated
        };
        results.push(BenchResult {
            app: script.id.clone(),
            engine: "serve".to_string(),
            ranks: spec.ranks,
            modeled_seconds: first.modeled_seconds,
            messages: first.messages,
            bytes: first.bytes,
            metrics: MetricsSnapshot::default(),
        });
    }
    let bench = BenchReport {
        scale: spec.scale.name().to_string(),
        machine: spec.machine.clone(),
        results,
    };

    let latencies: Vec<f64> = samples.iter().map(|s| s.latency).collect();
    let cold: Vec<f64> = samples
        .iter()
        .filter(|s| !s.cache_hit)
        .map(|s| s.compile_seconds)
        .collect();
    let warm: Vec<f64> = samples
        .iter()
        .filter(|s| s.cache_hit)
        .map(|s| s.compile_seconds)
        .collect();
    let cold_stats = LatencyStats::from_samples(&cold);
    let warm_stats = LatencyStats::from_samples(&warm);
    Ok(LoadReport {
        scale: bench.scale.clone(),
        machine: spec.machine.clone(),
        clients,
        scripts: scripts.len(),
        requests,
        arrival: spec.arrival.label().to_string(),
        ranks: spec.ranks,
        completed: samples.len(),
        duration_seconds: duration,
        throughput_jobs_per_sec: if duration > 0.0 {
            samples.len() as f64 / duration
        } else {
            0.0
        },
        latency_seconds: LatencyStats::from_samples(&latencies),
        compile_cold_seconds: cold_stats,
        compile_warm_seconds: warm_stats,
        cold_over_warm: if warm_stats.p50 > 0.0 && !cold.is_empty() {
            cold_stats.p50 / warm_stats.p50
        } else {
            0.0
        },
        cache_hits: warm.len() as u64,
        cache_misses: cold.len() as u64,
        job_ids: samples.iter().map(|s| s.job_id.clone()).collect(),
        bench,
    })
}

impl LoadReport {
    /// Serialize under the `otter-load/v1` schema.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(LOAD_SCHEMA.to_string())),
            ("scale".to_string(), Json::Str(self.scale.clone())),
            ("machine".to_string(), Json::Str(self.machine.clone())),
            ("clients".to_string(), Json::Num(self.clients as f64)),
            ("scripts".to_string(), Json::Num(self.scripts as f64)),
            ("requests".to_string(), Json::Num(self.requests as f64)),
            ("arrival".to_string(), Json::Str(self.arrival.clone())),
            ("ranks".to_string(), Json::Num(self.ranks as f64)),
            ("completed".to_string(), Json::Num(self.completed as f64)),
            (
                "duration_seconds".to_string(),
                Json::Num(self.duration_seconds),
            ),
            (
                "throughput_jobs_per_sec".to_string(),
                Json::Num(self.throughput_jobs_per_sec),
            ),
            (
                "latency_seconds".to_string(),
                self.latency_seconds.to_json(),
            ),
            (
                "compile_cold_seconds".to_string(),
                self.compile_cold_seconds.to_json(),
            ),
            (
                "compile_warm_seconds".to_string(),
                self.compile_warm_seconds.to_json(),
            ),
            ("cold_over_warm".to_string(), Json::Num(self.cold_over_warm)),
            ("cache_hits".to_string(), Json::Num(self.cache_hits as f64)),
            (
                "cache_misses".to_string(),
                Json::Num(self.cache_misses as f64),
            ),
            ("bench".to_string(), self.bench.to_json()),
        ])
    }

    /// Parse a report written by [`LoadReport::to_json`].
    pub fn from_json(json: &Json) -> Result<LoadReport, String> {
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("load report missing `schema`")?;
        if schema != LOAD_SCHEMA {
            return Err(format!(
                "unsupported load schema `{schema}` (expected `{LOAD_SCHEMA}`)"
            ));
        }
        let str_field = |f: &str| {
            json.get(f)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("load report missing `{f}`"))
        };
        let num_field = |f: &str| {
            json.get(f)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("load report missing `{f}`"))
        };
        let stats_field = |f: &str| {
            LatencyStats::from_json(
                json.get(f)
                    .ok_or_else(|| format!("load report missing `{f}`"))?,
            )
        };
        Ok(LoadReport {
            scale: str_field("scale")?,
            machine: str_field("machine")?,
            clients: num_field("clients")? as usize,
            scripts: num_field("scripts")? as usize,
            requests: num_field("requests")? as usize,
            arrival: str_field("arrival")?,
            ranks: num_field("ranks")? as usize,
            completed: num_field("completed")? as usize,
            duration_seconds: num_field("duration_seconds")?,
            throughput_jobs_per_sec: num_field("throughput_jobs_per_sec")?,
            latency_seconds: stats_field("latency_seconds")?,
            compile_cold_seconds: stats_field("compile_cold_seconds")?,
            compile_warm_seconds: stats_field("compile_warm_seconds")?,
            cold_over_warm: num_field("cold_over_warm")?,
            cache_hits: num_field("cache_hits")? as u64,
            cache_misses: num_field("cache_misses")? as u64,
            job_ids: Vec::new(),
            bench: BenchReport::from_json(json.get("bench").ok_or("load report missing `bench`")?)?,
        })
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "load: {} client(s) x {} request(s) over {} script(s), {} arrival, \
             {} scale on {}, {} rank(s)/job",
            self.clients,
            self.requests,
            self.scripts,
            self.arrival,
            self.scale,
            self.machine,
            self.ranks
        );
        let _ = writeln!(
            out,
            "completed {} job(s) in {:.3} s  ->  {:.1} jobs/s",
            self.completed, self.duration_seconds, self.throughput_jobs_per_sec
        );
        let _ = writeln!(
            out,
            "latency   p50 {:.6} s  p95 {:.6} s  p99 {:.6} s  max {:.6} s",
            self.latency_seconds.p50,
            self.latency_seconds.p95,
            self.latency_seconds.p99,
            self.latency_seconds.max
        );
        let _ = writeln!(
            out,
            "compile   cold p50 {:.6} s  warm p50 {:.6} s  (cold/warm {:.0}x)",
            self.compile_cold_seconds.p50, self.compile_warm_seconds.p50, self.cold_over_warm
        );
        let _ = writeln!(
            out,
            "cache     {} hit(s), {} miss(es)  (hit rate {:.2})",
            self.cache_hits,
            self.cache_misses,
            if self.completed > 0 {
                self.cache_hits as f64 / self.completed as f64
            } else {
                0.0
            }
        );
        if !self.job_ids.is_empty() {
            let _ = writeln!(
                out,
                "job_ids   {}  (cross-reference against GET /jobs)",
                self.job_ids.join(" ")
            );
        }
        out
    }

    /// Gate this run's deterministic bench section against a baseline
    /// load report — the same [`check`] the bench baseline goes
    /// through.
    pub fn check_against(&self, baseline: &LoadReport, tolerance_pct: f64) -> Vec<Regression> {
        check(&baseline.bench, &self.bench, tolerance_pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_get_distinct_sources() {
        let scripts = load_scripts(Scale::Test, 6);
        assert_eq!(scripts.len(), 6);
        assert_eq!(scripts[0].id, "cg");
        assert_eq!(scripts[4].id, "cg+v1");
        assert_ne!(scripts[0].source, scripts[4].source);
        assert_ne!(
            otter_core::source_hash(&scripts[0].source),
            otter_core::source_hash(&scripts[4].source)
        );
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = LatencyStats::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p95, 4.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(LatencyStats::from_samples(&[]).p50, 0.0);
    }

    #[test]
    fn closed_loop_traffic_round_trips_and_hits_the_cache() {
        let spec = LoadSpec {
            clients: 2,
            scripts: 2,
            requests: 4,
            ranks: 2,
            workers: Some(2),
            ..LoadSpec::default()
        };
        let report = run_load(&spec).expect("load run succeeds");
        assert_eq!(report.completed, 8);
        assert_eq!(report.cache_hits + report.cache_misses, 8);
        assert_eq!(report.job_ids.len(), 8, "one job_id per completed job");
        for id in &report.job_ids {
            assert_eq!(id.len(), 16, "job ids are 16-hex: {id}");
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id}");
        }
        assert!(
            report.render().contains("job_ids   "),
            "render surfaces the served ids"
        );
        assert!(
            report.cache_hits >= 4,
            "8 jobs over 2 scripts leave at most 4 cold compiles (2 clients racing), \
             got {} hit(s)",
            report.cache_hits
        );
        assert_eq!(report.bench.results.len(), 2, "one bench row per script");
        for r in &report.bench.results {
            assert_eq!(r.engine, "serve");
            assert!(r.modeled_seconds > 0.0);
        }
        let text = report.to_json().to_string();
        let back = LoadReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.completed, 8);
        assert_eq!(back.bench.results.len(), 2);
        assert!(report.check_against(&back, 0.0).is_empty());
    }
}
