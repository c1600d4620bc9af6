//! The serve-mode traffic generator behind `harness load`.
//!
//! A [`LoadSpec`] drives `clients` concurrent sessions against an
//! `otterd` socket — an in-process [`otter_serve::Server`] spun up for
//! the occasion, or an external daemon via `socket` — issuing `run`
//! jobs drawn round-robin from `scripts` distinct sources (the four
//! benchmark apps, plus comment-suffixed variants past four, so every
//! variant compiles identically but occupies its own cache entry).
//!
//! The [`LoadReport`] counts completed jobs and cache hits and misses,
//! and lists every served job id. It reads no clock: host latencies
//! belong to the `benchmark/` package's `serve-mix` workload, and what
//! a served job returns is pinned against a direct run by the serve
//! end-to-end tests.

use crate::figures::Scale;
use otter_core::OtterError;
use otter_metrics::Json;
use otter_serve::{JobOptions, ServeClient, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The `"schema"` tag on every load report.
pub const LOAD_SCHEMA: &str = "otter-load/v2";

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
            ranks: 4,
            workers: None,
            machine: "meiko".to_string(),
            socket: None,
        }
    }
}

/// The outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Jobs that completed successfully.
    pub completed: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Every daemon-minted job id this run exercised, for
    /// cross-referencing against the daemon's `GET /jobs` table.
    /// Printed, never serialized (ids are fresh each run).
    pub job_ids: Vec<String>,
}

/// The four apps plus comment-variants: variant `k` of app `a` has the
/// same compiled form but a distinct source hash, so it exercises its
/// own cache entry.
fn load_scripts(scale: Scale, count: usize) -> Vec<String> {
    let apps = scale.apps();
    (0..count.max(1))
        .map(|i| {
            let script = &apps[i % apps.len()].script;
            match i / apps.len() {
                0 => script.clone(),
                variant => format!("{script}\n% load variant {variant}\n"),
            }
        })
        .collect()
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
    // (job id, cache hit) per completed job.
    let served: Mutex<Vec<(String, bool)>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for client in 0..clients {
            let (scripts, served, errors, socket) = (&scripts, &served, &errors, &socket);
            scope.spawn(move || {
                // The socket is bound before any client starts: ours by
                // `Server::bind`, an external one by its daemon.
                let mut session = match ServeClient::connect(socket) {
                    Ok(s) => s,
                    Err(e) => {
                        errors.lock().unwrap().push(format!("connect failed: {e}"));
                        return;
                    }
                };
                for req in 0..requests {
                    // Global job index: interleaved across clients so
                    // every script sees traffic from several sessions.
                    let script = &scripts[(req * clients + client) % scripts.len()];
                    match session.run(
                        script,
                        JobOptions::default(),
                        &spec.machine,
                        spec.ranks,
                        None,
                    ) {
                        Ok(reply) => served.lock().unwrap().push((reply.job_id, reply.cache_hit)),
                        Err(e) => errors.lock().unwrap().push(e),
                    }
                }
            });
        }
    });

    // Our in-process server gets a clean shutdown through the protocol.
    if let Some(handle) = server_thread {
        ServeClient::connect(&socket)
            .map_err(|e| fail(format!("shutdown connect failed: {e}")))
            .and_then(|mut c| c.shutdown().map_err(fail))?;
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
    let served = served.into_inner().unwrap();
    let cache_hits = served.iter().filter(|(_, hit)| *hit).count() as u64;
    Ok(LoadReport {
        completed: served.len(),
        cache_hits,
        cache_misses: served.len() as u64 - cache_hits,
        job_ids: served.into_iter().map(|(id, _)| id).collect(),
    })
}

impl LoadReport {
    /// Serialize under the `otter-load/v2` schema.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(LOAD_SCHEMA.to_string())),
            ("completed".to_string(), Json::Num(self.completed as f64)),
            ("cache_hits".to_string(), Json::Num(self.cache_hits as f64)),
            (
                "cache_misses".to_string(),
                Json::Num(self.cache_misses as f64),
            ),
        ])
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "load: completed {} job(s), {} cache hit(s), {} miss(es)\n",
            self.completed, self.cache_hits, self.cache_misses
        );
        if !self.job_ids.is_empty() {
            out.push_str(&format!(
                "job_ids   {}  (cross-reference against GET /jobs)\n",
                self.job_ids.join(" ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_get_distinct_sources() {
        let scripts = load_scripts(Scale::Test, 6);
        assert_eq!(scripts.len(), 6);
        assert_eq!(scripts[0], Scale::Test.apps()[0].script);
        assert_ne!(scripts[0], scripts[4]);
        assert_ne!(
            otter_core::source_hash(&scripts[0]),
            otter_core::source_hash(&scripts[4])
        );
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
        let json = Json::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(LOAD_SCHEMA));
        assert_eq!(json.get("completed").and_then(Json::as_num), Some(8.0));
    }
}
