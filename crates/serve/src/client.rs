//! A blocking client for the `otter-serve/v1` socket.
//!
//! One [`ServeClient`] is one session: a `UnixStream` carrying
//! newline-delimited request/response pairs. The harness load
//! generator, the CI smoke test, and ad-hoc scripting all go through
//! this; anything it can do, a `printf | nc -U` one-liner can do too.

use crate::proto::{JobOptions, Request};
use otter_metrics::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// A connected serve session.
pub struct ServeClient {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

/// One job's client-visible result (a decoded `compile`/`run`
/// response).
#[derive(Debug, Clone)]
pub struct JobReply {
    /// The daemon-minted correlation key: the same id appears in the
    /// `GET /jobs` table, any retained trace, and any postmortem
    /// bundle of this job. Empty only against pre-`job_id` daemons.
    pub job_id: String,
    /// Whether the daemon served the compile from its artifact cache.
    pub cache_hit: bool,
    /// Daemon-side seconds spent in (or skipping) compilation.
    pub compile_seconds: f64,
    /// Daemon-side seconds spent waiting for workers behind other
    /// jobs' runs (0 for `compile` jobs).
    pub admit_seconds: f64,
    /// Daemon-side seconds spent running (0 for `compile` jobs).
    pub run_seconds: f64,
    /// The full response object for op-specific fields.
    pub body: Json,
}

impl ServeClient {
    /// Connect to a daemon's job socket.
    pub fn connect(socket: &Path) -> std::io::Result<ServeClient> {
        let stream = UnixStream::connect(socket)?;
        let writer = stream.try_clone()?;
        Ok(ServeClient {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Connect, retrying until the socket appears (for tests and
    /// scripts racing a daemon they just spawned).
    pub fn connect_with_retry(socket: &Path, timeout: Duration) -> std::io::Result<ServeClient> {
        let deadline = Instant::now() + timeout;
        loop {
            match ServeClient::connect(socket) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Send one request, read one response. Protocol-level failures
    /// (`ok: false`) are returned as `Err` with the daemon's message.
    pub fn request(&mut self, req: &Request) -> Result<Json, String> {
        let json = self.request_raw(req)?;
        match json.get("ok") {
            Some(Json::Bool(true)) => Ok(json),
            _ => Err(json
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("server reported failure with no error message")
                .to_string()),
        }
    }

    /// Send one request, read one response, and return the response
    /// object whether or not the daemon reported success — for callers
    /// that need the correlation fields (`job_id`, `postmortem`) an
    /// error response still carries. Only transport-level problems are
    /// `Err`.
    pub fn request_raw(&mut self, req: &Request) -> Result<Json, String> {
        let mut line = req.to_json().to_string();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv failed: {e}"))?;
        if reply.is_empty() {
            return Err("server closed the connection".to_string());
        }
        Json::parse(&reply).map_err(|e| format!("bad response JSON: {e}"))
    }

    /// Round-trip liveness check.
    pub fn ping(&mut self) -> Result<(), String> {
        self.request(&Request::Ping).map(|_| ())
    }

    /// Compile (or re-use) `source`; no run.
    pub fn compile(&mut self, source: &str, options: JobOptions) -> Result<JobReply, String> {
        let body = self.request(&Request::Compile {
            source: source.to_string(),
            options,
        })?;
        Ok(decode_job(body))
    }

    /// Compile-and-run `source` on `machine` with `ranks` logical
    /// ranks (and an optional worker override).
    pub fn run(
        &mut self,
        source: &str,
        options: JobOptions,
        machine: &str,
        ranks: usize,
        workers: Option<usize>,
    ) -> Result<JobReply, String> {
        let body = self.request(&Request::Run {
            source: source.to_string(),
            options,
            machine: machine.to_string(),
            ranks,
            workers,
        })?;
        Ok(decode_job(body))
    }

    /// Cache and worker-gate counters.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.request(&Request::Stats)
    }

    /// The Prometheus text exposition, fetched over the job socket.
    pub fn metrics_text(&mut self) -> Result<String, String> {
        let body = self.request(&Request::Metrics)?;
        body.get("text")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "metrics response missing `text`".to_string())
    }

    /// Recent daemon flight-recorder events at or above `level`
    /// (`"error"`/`"warn"`/`"info"`/`"debug"`).
    pub fn logs(&mut self, level: &str) -> Result<Vec<Json>, String> {
        let level = otter_log::LogLevel::parse(level)
            .ok_or_else(|| format!("bad level `{level}` (expected error|warn|info|debug)"))?;
        let body = self.request(&Request::Logs { level })?;
        match body.get("events") {
            Some(Json::Arr(events)) => Ok(events.clone()),
            _ => Err("logs response missing `events`".to_string()),
        }
    }

    /// Ask the daemon to stop accepting and exit.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}

fn decode_job(body: Json) -> JobReply {
    let num = |k: &str| body.get(k).and_then(Json::as_num).unwrap_or(0.0);
    JobReply {
        job_id: body
            .get("job_id")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        cache_hit: matches!(body.get("cache_hit"), Some(Json::Bool(true))),
        compile_seconds: num("compile_seconds"),
        admit_seconds: num("admit_seconds"),
        run_seconds: num("run_seconds"),
        body,
    }
}
