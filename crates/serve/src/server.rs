//! The daemon: a Unix-socket accept loop over the artifact cache, the
//! job gate, and the metrics registry, plus a minimal HTTP listener
//! for Prometheus scrapes.
//!
//! One thread per connection; a connection is a session of
//! newline-delimited `otter-serve/v1` requests. Compiles go through
//! the shared [`ArtifactCache`] (so concurrent sessions warm each
//! other), runs are admitted onto the worker budget through a
//! [`JobGate`] (so ten simultaneous jobs share the host instead of
//! each claiming full parallelism), and every job updates the
//! `serve_*` metric families. The stats endpoint speaks plain HTTP
//! GET → Prometheus text exposition, so `curl` works against it.

use crate::cache::ArtifactCache;
use crate::proto::{err_response, machine_by_name, ok_response, Request, SERVE_SCHEMA};
use otter_core::{build_postmortem, try_run, write_postmortem, RunRequest};
use otter_log::{FlightEvent, FlightRecorder, JobId, LogLevel};
use otter_metrics::{expo, Json, MetricsRegistry, MetricsSnapshot};
use otter_mpi::JobGate;
use otter_trace::MemorySink;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Rows retained in the `GET /jobs` recent-job table.
const RECENT_JOBS_CAP: usize = 64;
/// Chrome traces retained for `GET /trace/<job_id>` (each can be
/// large, so the LRU is deliberately small).
const TRACE_LRU_CAP: usize = 8;
/// Daemon-side flight-recorder ring size (the `logs` op's backing
/// store: one event per handled request).
const SERVE_RECORDER_CAPACITY: usize = 256;

/// How the daemon is wired up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Path of the Unix-domain job socket (created at bind, removed at
    /// shutdown).
    pub socket: PathBuf,
    /// Worker budget shared by all concurrent jobs (the [`JobGate`]
    /// total). Defaults to host parallelism.
    pub workers: usize,
    /// Artifact-cache capacity (entries).
    pub cache_capacity: usize,
    /// TCP address for the Prometheus stats endpoint, e.g.
    /// `127.0.0.1:9464`; `None` disables HTTP.
    pub metrics_addr: Option<String>,
    /// Directory for postmortem bundles of failed SPMD jobs (created
    /// on first failure).
    pub postmortem_dir: PathBuf,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: std::env::temp_dir().join(format!("otterd-{}.sock", std::process::id())),
            workers: otter_mpi::default_workers(),
            cache_capacity: 64,
            metrics_addr: None,
            postmortem_dir: std::env::temp_dir()
                .join(format!("otterd-{}-postmortem", std::process::id())),
        }
    }
}

impl ServeConfig {
    /// Parse `--socket PATH --workers W --cache N --metrics-addr A
    /// --postmortem-dir D` (shared by `otterd` and `harness serve`).
    /// Unknown flags are a typed error, not silently ignored.
    pub fn from_args(args: &[String]) -> Result<ServeConfig, String> {
        let mut cfg = ServeConfig::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("`{flag}` needs a value"))
            };
            match a.as_str() {
                "--socket" => cfg.socket = PathBuf::from(value("--socket")?),
                "--workers" => {
                    cfg.workers = value("--workers")?
                        .parse()
                        .ok()
                        .filter(|&w: &usize| w >= 1)
                        .ok_or("`--workers` must be a positive integer")?;
                }
                "--cache" => {
                    cfg.cache_capacity = value("--cache")?
                        .parse()
                        .ok()
                        .filter(|&c: &usize| c >= 1)
                        .ok_or("`--cache` must be a positive integer")?;
                }
                "--metrics-addr" => cfg.metrics_addr = Some(value("--metrics-addr")?),
                "--postmortem-dir" => {
                    cfg.postmortem_dir = PathBuf::from(value("--postmortem-dir")?);
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// One row of the `GET /jobs` recent-job table.
struct JobRecord {
    job_id: JobId,
    op: &'static str,
    cache_hit: bool,
    latency_seconds: f64,
    /// `ok` | `failed` (SPMD failure, postmortem written) | `error`
    /// (compile or protocol error).
    status: &'static str,
    postmortem: Option<PathBuf>,
}

/// Shared daemon state: everything a connection thread touches.
struct ServerState {
    cache: Mutex<ArtifactCache>,
    gate: JobGate,
    /// `serve_*` families (cache traffic, latencies, job counts).
    metrics: Mutex<MetricsRegistry>,
    /// Merged per-job engine metrics (only jobs that asked for them).
    job_metrics: Mutex<MetricsSnapshot>,
    /// Recent jobs, oldest first (the `GET /jobs` table).
    jobs: Mutex<VecDeque<JobRecord>>,
    /// Chrome traces of recent `trace: true` runs, LRU order
    /// (back = most recently used).
    traces: Mutex<Vec<(JobId, String)>>,
    /// The daemon's own flight recorder: one event per handled
    /// request, served by the `logs` op.
    flight: Mutex<FlightRecorder>,
    /// Where postmortem bundles of failed jobs land.
    postmortem_dir: PathBuf,
    /// Wall-clock origin of the `flight` ring's event clocks.
    started: Instant,
    stop: AtomicBool,
}

impl ServerState {
    /// The full exposition: `serve_*` families plus cache gauges plus
    /// any merged job metrics.
    fn exposition(&self) -> String {
        let mut snap = self.metrics.lock().unwrap().snapshot();
        {
            let cache = self.cache.lock().unwrap();
            let mut reg = MetricsRegistry::new();
            reg.inc("serve_cache_hits_total", &[], cache.hits());
            reg.inc("serve_cache_misses_total", &[], cache.misses());
            reg.inc("serve_cache_evictions_total", &[], cache.evictions());
            reg.gauge_max("serve_cache_entries", &[], cache.len() as f64);
            reg.gauge_max("serve_workers_total", &[], self.gate.total() as f64);
            snap.merge_from(&reg.snapshot());
        }
        snap.merge_from(&self.job_metrics.lock().unwrap());
        expo(&snap)
    }

    /// Append a row to the recent-job table, evicting the oldest past
    /// capacity.
    fn push_job(&self, record: JobRecord) {
        let mut jobs = self.jobs.lock().unwrap();
        if jobs.len() == RECENT_JOBS_CAP {
            jobs.pop_front();
        }
        jobs.push_back(record);
    }

    /// The `GET /jobs` body: recent jobs as a JSON array, newest
    /// first.
    fn jobs_json(&self) -> String {
        let jobs = self.jobs.lock().unwrap();
        let rows: Vec<Json> = jobs
            .iter()
            .rev()
            .map(|j| {
                Json::Obj(vec![
                    ("job_id".to_string(), Json::Str(j.job_id.to_string())),
                    ("op".to_string(), Json::Str(j.op.to_string())),
                    ("cache_hit".to_string(), Json::Bool(j.cache_hit)),
                    ("latency_seconds".to_string(), Json::Num(j.latency_seconds)),
                    ("status".to_string(), Json::Str(j.status.to_string())),
                    (
                        "postmortem".to_string(),
                        match &j.postmortem {
                            Some(p) => Json::Str(p.display().to_string()),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(SERVE_SCHEMA.to_string())),
            ("jobs".to_string(), Json::Arr(rows)),
        ])
        .to_string()
    }

    /// Retain a completed run's Chrome trace for `GET /trace/<id>`.
    fn retain_trace(&self, job_id: JobId, trace: String) {
        let mut traces = self.traces.lock().unwrap();
        traces.retain(|(id, _)| *id != job_id);
        traces.push((job_id, trace));
        if traces.len() > TRACE_LRU_CAP {
            traces.remove(0);
        }
    }

    /// Look up a retained trace, refreshing its LRU position.
    fn trace_for(&self, job_id: JobId) -> Option<String> {
        let mut traces = self.traces.lock().unwrap();
        let idx = traces.iter().position(|(id, _)| *id == job_id)?;
        let entry = traces.remove(idx);
        let body = entry.1.clone();
        traces.push(entry);
        Some(body)
    }

    /// Record one handled request in the daemon flight recorder.
    fn log_request(&self, level: LogLevel, code: &'static str, a: u64, b: u64) {
        let clock = self.started.elapsed().as_secs_f64();
        self.flight.lock().unwrap().record(level, code, a, b, clock);
    }
}

/// A flight-recorder event in the wire/bundle JSON shape.
fn flight_event_json(ev: &FlightEvent) -> Json {
    Json::Obj(vec![
        ("seq".to_string(), Json::Num(ev.seq as f64)),
        ("clock".to_string(), Json::Num(ev.clock)),
        (
            "level".to_string(),
            Json::Str(ev.level.as_str().to_string()),
        ),
        ("code".to_string(), Json::Str(ev.code.to_string())),
        ("a".to_string(), Json::Num(ev.a as f64)),
        ("b".to_string(), Json::Num(ev.b as f64)),
    ])
}

/// An error response that still carries correlation fields (`job_id`,
/// `postmortem`) alongside the message.
fn err_response_with(message: String, mut extra: Vec<(String, Json)>) -> Json {
    let mut all = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("schema".to_string(), Json::Str(SERVE_SCHEMA.to_string())),
        ("error".to_string(), Json::Str(message)),
    ];
    all.append(&mut extra);
    Json::Obj(all)
}

/// A handle for stopping a running server (from a signal handler's
/// flag, a test, or the `shutdown` op itself).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Ask the accept loop to wind down; `Server::run` returns soon
    /// after.
    pub fn request_stop(&self) {
        self.state.stop.store(true, Ordering::SeqCst);
    }

    /// True once a stop was requested.
    pub fn stopping(&self) -> bool {
        self.state.stop.load(Ordering::SeqCst)
    }
}

/// A bound (but not yet running) daemon.
pub struct Server {
    cfg: ServeConfig,
    listener: UnixListener,
    http: Option<std::net::TcpListener>,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the job socket (replacing a stale socket file) and the
    /// optional HTTP stats listener.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        if cfg.socket.exists() {
            std::fs::remove_file(&cfg.socket)?;
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        let http = match &cfg.metrics_addr {
            Some(addr) => {
                let l = std::net::TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let state = Arc::new(ServerState {
            cache: Mutex::new(ArtifactCache::new(cfg.cache_capacity)),
            gate: JobGate::new(cfg.workers),
            metrics: Mutex::new(MetricsRegistry::new()),
            job_metrics: Mutex::new(MetricsSnapshot::default()),
            jobs: Mutex::new(VecDeque::with_capacity(RECENT_JOBS_CAP)),
            traces: Mutex::new(Vec::new()),
            flight: Mutex::new(FlightRecorder::with_capacity(SERVE_RECORDER_CAPACITY)),
            postmortem_dir: cfg.postmortem_dir.clone(),
            started: Instant::now(),
            stop: AtomicBool::new(false),
        });
        Ok(Server {
            cfg,
            listener,
            http,
            state,
        })
    }

    /// The bound HTTP stats address (useful when the config asked for
    /// port 0).
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.http.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The job socket path.
    pub fn socket(&self) -> &PathBuf {
        &self.cfg.socket
    }

    /// A stop handle (clone freely; see [`ServerHandle`]).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Accept connections until a stop is requested, then remove the
    /// socket file and return. Connection threads run detached; the
    /// protocol is request/response, so in-flight jobs finish their
    /// write before noticing the closed listener.
    pub fn run(self) -> std::io::Result<()> {
        loop {
            if self.state.stop.load(Ordering::SeqCst) {
                break;
            }
            let mut idle = true;
            match self.listener.accept() {
                Ok((stream, _)) => {
                    idle = false;
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || handle_connection(stream, &state));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
            if let Some(http) = &self.http {
                match http.accept() {
                    Ok((stream, _)) => {
                        idle = false;
                        let state = Arc::clone(&self.state);
                        std::thread::spawn(move || handle_http(stream, &state));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
            }
            if idle {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let _ = std::fs::remove_file(&self.cfg.socket);
        Ok(())
    }
}

/// One job-socket session: lines in, lines out.
fn handle_connection(stream: UnixStream, state: &Arc<ServerState>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let response = match Json::parse(&line).map_err(|e| format!("bad JSON: {e}")) {
            Err(e) => err_response(e),
            Ok(json) => match Request::from_json(&json) {
                Err(e) => err_response(e),
                Ok(req) => dispatch(&req, state),
            },
        };
        let mut text = response.to_string();
        text.push('\n');
        if writer.write_all(text.as_bytes()).is_err() || writer.flush().is_err() {
            return;
        }
    }
}

/// Execute one request against the shared state. Compile and run
/// requests mint a [`JobId`] at ingress: the same key then appears in
/// the response, the recent-job table, any retained trace, any
/// postmortem bundle, and the engine's own flight recorders.
fn dispatch(req: &Request, state: &Arc<ServerState>) -> Json {
    let job_started = Instant::now();
    state
        .metrics
        .lock()
        .unwrap()
        .inc("serve_jobs_total", &[("op", req.op())], 1);
    let (response, job_id) = match req {
        Request::Ping => (ok_response(vec![]), None),
        Request::Shutdown => {
            state.stop.store(true, Ordering::SeqCst);
            (
                ok_response(vec![("stopping".to_string(), Json::Bool(true))]),
                None,
            )
        }
        Request::Metrics => (
            ok_response(vec![("text".to_string(), Json::Str(state.exposition()))]),
            None,
        ),
        Request::Logs { level } => {
            let events = state.flight.lock().unwrap().filtered(*level);
            (
                ok_response(vec![(
                    "events".to_string(),
                    Json::Arr(events.iter().map(flight_event_json).collect()),
                )]),
                None,
            )
        }
        Request::Stats => {
            let cache = state.cache.lock().unwrap();
            let fields = vec![
                ("cache_entries".to_string(), Json::Num(cache.len() as f64)),
                ("cache_hits".to_string(), Json::Num(cache.hits() as f64)),
                ("cache_misses".to_string(), Json::Num(cache.misses() as f64)),
                (
                    "cache_evictions".to_string(),
                    Json::Num(cache.evictions() as f64),
                ),
                (
                    "workers_total".to_string(),
                    Json::Num(state.gate.total() as f64),
                ),
                (
                    "workers_available".to_string(),
                    Json::Num(state.gate.available() as f64),
                ),
            ];
            drop(cache);
            (ok_response(fields), None)
        }
        Request::Compile { source, options } => {
            let job_id = JobId::mint();
            let response = match compile_cached(state, source, options) {
                Err(e) => err_response_with(
                    e,
                    vec![("job_id".to_string(), Json::Str(job_id.to_string()))],
                ),
                Ok((artifact, mut fields)) => {
                    fields.push(("job_id".to_string(), Json::Str(job_id.to_string())));
                    fields.push(spans_field(job_id, &["compile"]));
                    fields.push((
                        "ir_instrs".to_string(),
                        Json::Num(artifact.compiled().ir.instr_count() as f64),
                    ));
                    ok_response(fields)
                }
            };
            (response, Some(job_id))
        }
        Request::Run {
            source,
            options,
            machine,
            ranks,
            workers,
        } => {
            let job_id = JobId::mint();
            (
                run_job(state, source, options, machine, *ranks, *workers, job_id),
                Some(job_id),
            )
        }
    };
    let latency_seconds = job_started.elapsed().as_secs_f64();
    state.metrics.lock().unwrap().observe(
        "serve_job_seconds",
        &[("op", req.op())],
        latency_seconds,
    );
    let ok = matches!(response.get("ok"), Some(Json::Bool(true)));
    if let Some(job_id) = job_id {
        let postmortem = response
            .get("postmortem")
            .and_then(Json::as_str)
            .map(PathBuf::from);
        let status = if ok {
            "ok"
        } else if postmortem.is_some() {
            "failed"
        } else {
            "error"
        };
        state.push_job(JobRecord {
            job_id,
            op: req.op(),
            cache_hit: matches!(response.get("cache_hit"), Some(Json::Bool(true))),
            latency_seconds,
            status,
            postmortem,
        });
    }
    let (level, code): (LogLevel, &'static str) = match (req, ok) {
        (Request::Compile { .. }, true) => (LogLevel::Info, "serve.compile"),
        (Request::Compile { .. }, false) => (LogLevel::Error, "serve.compile_error"),
        (Request::Run { .. }, true) => (LogLevel::Info, "serve.run"),
        (Request::Run { .. }, false) => (LogLevel::Error, "serve.run_failed"),
        (_, false) => (LogLevel::Warn, "serve.request_error"),
        (Request::Shutdown, true) => (LogLevel::Info, "serve.shutdown"),
        (_, true) => (LogLevel::Debug, "serve.request"),
    };
    state.log_request(
        level,
        code,
        job_id.map_or(0, |id| id.0),
        (latency_seconds * 1e6) as u64,
    );
    response
}

/// The `spans` response field: per-phase [`otter_log::SpanId`]s chained
/// off the job's root span, so clients can attribute phase timings to
/// one correlation key without any server-side span table. Span 0 is
/// always the request itself; `phases` name the spans after it, in
/// order.
fn spans_field(job_id: JobId, phases: &[&str]) -> (String, Json) {
    let mut span = otter_log::SpanId::root(job_id);
    let mut obj = vec![("request".to_string(), Json::Str(span.to_string()))];
    for phase in phases {
        span = span.next();
        obj.push((phase.to_string(), Json::Str(span.to_string())));
    }
    ("spans".to_string(), Json::Obj(obj))
}

/// Compile through the shared cache; returns the artifact plus the
/// response fields every compile-bearing op shares.
#[allow(clippy::type_complexity)]
fn compile_cached(
    state: &Arc<ServerState>,
    source: &str,
    options: &crate::proto::JobOptions,
) -> Result<(otter_core::CompiledArtifact, Vec<(String, Json)>), String> {
    let eopts = options.to_engine_options();
    let (artifact, outcome) = state
        .cache
        .lock()
        .unwrap()
        .get_or_compile(source, &eopts)
        .map_err(|e| e.to_string())?;
    let hit_label = if outcome.cache_hit { "true" } else { "false" };
    state.metrics.lock().unwrap().observe(
        "serve_compile_seconds",
        &[("cache_hit", hit_label)],
        outcome.compile_seconds,
    );
    Ok((
        artifact.clone(),
        vec![
            ("cache_hit".to_string(), Json::Bool(outcome.cache_hit)),
            (
                "compile_seconds".to_string(),
                Json::Num(outcome.compile_seconds),
            ),
            (
                "source_hash".to_string(),
                Json::Str(format!("{:016x}", artifact.source_hash())),
            ),
            (
                "options_fingerprint".to_string(),
                Json::Str(format!("{:016x}", artifact.options_fingerprint())),
            ),
        ],
    ))
}

/// A full compile-and-run job, correlated under `job_id`.
#[allow(clippy::too_many_arguments)]
fn run_job(
    state: &Arc<ServerState>,
    source: &str,
    options: &crate::proto::JobOptions,
    machine: &str,
    ranks: usize,
    workers: Option<usize>,
    job_id: JobId,
) -> Json {
    let id_field = ("job_id".to_string(), Json::Str(job_id.to_string()));
    let machine = match machine_by_name(machine) {
        Ok(m) => m,
        Err(e) => return err_response_with(e, vec![id_field]),
    };
    let (artifact, mut fields) = match compile_cached(state, source, options) {
        Ok(pair) => pair,
        Err(e) => return err_response_with(e, vec![id_field]),
    };
    fields.push(id_field.clone());
    fields.push(spans_field(job_id, &["compile", "run"]));
    // Admission: take workers from the shared budget for the duration
    // of the run (released on drop, even if the job fails). The wait
    // for them, behind other clients' runs, is reported on its own.
    let admit_started = Instant::now();
    let permit = state.gate.admit(workers.unwrap_or(ranks));
    let run_started = Instant::now();
    let admit_seconds = (run_started - admit_started).as_secs_f64();
    let mut req = RunRequest::on(machine, ranks)
        .with_workers(permit.workers())
        .with_job_id(job_id);
    let sink = if options.trace {
        let sink = Arc::new(MemorySink::new());
        req = req.with_trace(Arc::clone(&sink));
        Some(sink)
    } else {
        None
    };
    let outcome = try_run(&artifact, &req);
    let run_seconds = run_started.elapsed().as_secs_f64();
    drop(permit);
    // Whatever the outcome, retain the Chrome trace (on failure it
    // shows the run right up to the fatal event).
    if let Some(sink) = sink {
        state.retain_trace(job_id, otter_trace::chrome_trace(&sink.take()));
    }
    {
        let mut metrics = state.metrics.lock().unwrap();
        metrics.observe("serve_admit_seconds", &[], admit_seconds);
        metrics.observe("serve_run_seconds", &[], run_seconds);
    }
    fields.push(("admit_seconds".to_string(), Json::Num(admit_seconds)));
    fields.push(("run_seconds".to_string(), Json::Num(run_seconds)));
    match outcome {
        Err(e) => err_response_with(e.to_string(), vec![id_field]),
        Ok(Err(failure)) => {
            // Assemble and persist the postmortem bundle; a disk error
            // must not mask the job failure itself.
            let bundle = build_postmortem(&artifact, &failure);
            let mut extra = vec![id_field];
            match write_postmortem(&state.postmortem_dir, &bundle) {
                Ok(path) => extra.push((
                    "postmortem".to_string(),
                    Json::Str(path.display().to_string()),
                )),
                Err(e) => extra.push((
                    "postmortem_error".to_string(),
                    Json::Str(format!("failed to write postmortem bundle: {e}")),
                )),
            }
            err_response_with(format!("SPMD job failed: {}", failure.report), extra)
        }
        Ok(Ok(report)) => {
            if let Some(m) = &report.metrics {
                state.job_metrics.lock().unwrap().merge_from(m);
            }
            let mut scalars: Vec<(String, Json)> = report
                .workspace
                .keys()
                .filter_map(|name| report.scalar(name).map(|v| (name.clone(), Json::Num(v))))
                .collect();
            scalars.sort_by(|a, b| a.0.cmp(&b.0));
            fields.push((
                "modeled_seconds".to_string(),
                Json::Num(report.modeled_seconds),
            ));
            fields.push(("messages".to_string(), Json::Num(report.messages as f64)));
            fields.push(("bytes".to_string(), Json::Num(report.bytes as f64)));
            fields.push(("output".to_string(), Json::Str(report.output.clone())));
            fields.push(("scalars".to_string(), Json::Obj(scalars)));
            ok_response(fields)
        }
    }
}

/// Minimal HTTP, enough for `curl` and a scraper:
/// `GET /metrics` (Prometheus exposition), `GET /jobs` (recent-job
/// table), `GET /trace/<job_id>` (retained Chrome trace); everything
/// else gets a 404.
fn handle_http(mut stream: std::net::TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 4096];
    let n = match stream.read(&mut buf) {
        Ok(n) => n,
        Err(_) => return,
    };
    let request = String::from_utf8_lossy(&buf[..n]);
    let first = request.lines().next().unwrap_or("");
    let response = if first.starts_with("GET /metrics") || first.starts_with("GET / ") {
        http_ok("text/plain; version=0.0.4", state.exposition())
    } else if first.starts_with("GET /jobs") {
        http_ok("application/json", state.jobs_json())
    } else if let Some(rest) = first.strip_prefix("GET /trace/") {
        let id = rest.split_whitespace().next().unwrap_or("");
        match otter_log::JobId::parse(id).and_then(|id| state.trace_for(id)) {
            Some(trace) => http_ok("application/json", trace),
            None => http_404(format!(
                "{SERVE_SCHEMA}: no trace retained for job `{id}`\n"
            )),
        }
    } else {
        http_404(format!(
            "{SERVE_SCHEMA}: GET /metrics, /jobs, or /trace/<job_id>\n"
        ))
    };
    let _ = stream.write_all(response.as_bytes());
}

fn http_ok(content_type: &str, body: String) -> String {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        content_type,
        body.len(),
        body
    )
}

fn http_404(body: String) -> String {
    format!(
        "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )
}
