//! End-to-end serve tests over a real Unix socket: an in-process
//! [`Server`] on its own thread, a [`ServeClient`] session driving
//! the `otter-serve/v1` protocol, all four benchmark apps submitted
//! twice (round two must be all cache hits), the stats and metrics
//! ops, the HTTP scrape endpoint (`/metrics`, `/jobs`,
//! `/trace/<job_id>`), the `logs` op, the postmortem path of a
//! crashed job, hostile requests (invalid pass names, pathological
//! nesting in the script and in the request line itself), and a
//! protocol-level shutdown.

use otter_metrics::Json;
use otter_serve::{JobOptions, Request, ServeClient, ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A script whose matrix multiply and column reduction keep all ranks
/// talking — enough traffic for crash injection to strand peers.
const COMM_HEAVY: &str = "a = ones(32, 32);\nb = a * a;\ns = sum(b(:, 1));";

/// One plain HTTP GET against the daemon's stats listener.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("tcp connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
        .expect("send GET");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

struct Daemon {
    socket: PathBuf,
    postmortem_dir: PathBuf,
    metrics_addr: Option<std::net::SocketAddr>,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

fn spawn_daemon(metrics: bool) -> Daemon {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let cfg = ServeConfig {
        socket: std::env::temp_dir().join(format!("otter-e2e-{}-{}.sock", std::process::id(), seq)),
        workers: 4,
        cache_capacity: 16,
        metrics_addr: metrics.then(|| "127.0.0.1:0".to_string()),
        postmortem_dir: std::env::temp_dir().join(format!(
            "otter-e2e-{}-{}-postmortem",
            std::process::id(),
            seq
        )),
    };
    let postmortem_dir = cfg.postmortem_dir.clone();
    let server = Server::bind(cfg).expect("bind");
    Daemon {
        socket: server.socket().clone(),
        postmortem_dir,
        metrics_addr: server.metrics_addr(),
        handle: server.handle(),
        thread: Some(std::thread::spawn(move || server.run())),
    }
}

impl Daemon {
    fn client(&self) -> ServeClient {
        ServeClient::connect_with_retry(&self.socket, Duration::from_secs(5)).expect("connect")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.request_stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        // Only the daemon writes here, so after the join nothing does.
        let _ = std::fs::remove_dir_all(&self.postmortem_dir);
    }
}

#[test]
fn four_apps_twice_second_round_is_all_hits() {
    let daemon = spawn_daemon(false);
    let mut client = daemon.client();
    client.ping().expect("ping");
    let apps = otter_apps::test_apps();
    assert_eq!(apps.len(), 4);
    // What a direct run of the same artifact reports; the wire prints
    // f64s round-trip-exactly, so every reply must match bit for bit.
    let direct: Vec<_> = apps
        .iter()
        .map(|app| {
            let artifact =
                otter_core::compile(&app.script, &JobOptions::default().to_engine_options())
                    .expect("compile");
            otter_core::run(
                &artifact,
                &otter_core::RunRequest::on(otter_machine::meiko_cs2(), 4),
            )
            .expect("direct run")
        })
        .collect();
    for round in 0..2 {
        for (app, want) in apps.iter().zip(&direct) {
            let reply = client
                .run(&app.script, JobOptions::default(), "meiko", 4, None)
                .unwrap_or_else(|e| panic!("{} round {round}: {e}", app.id));
            assert_eq!(
                reply.cache_hit,
                round == 1,
                "{} round {round}: first sight compiles, second round must hit",
                app.id
            );
            let num = |k: &str| reply.body.get(k).and_then(Json::as_num).expect(k);
            assert_eq!(
                num("modeled_seconds").to_bits(),
                want.modeled_seconds.to_bits(),
                "{} round {round}: modeled_seconds",
                app.id
            );
            assert_eq!(
                num("messages") as u64,
                want.messages,
                "{} round {round}",
                app.id
            );
            assert_eq!(num("bytes") as u64, want.bytes, "{} round {round}", app.id);
        }
    }
    let stats = client.stats().expect("stats");
    let num = |k: &str| {
        stats
            .get(k)
            .and_then(otter_metrics::Json::as_num)
            .unwrap_or(-1.0)
    };
    assert_eq!(num("cache_hits"), 4.0);
    assert_eq!(num("cache_misses"), 4.0);
    assert_eq!(num("cache_entries"), 4.0);
}

#[test]
fn metrics_exposition_has_the_serve_families() {
    let daemon = spawn_daemon(true);
    let mut client = daemon.client();
    client
        .run("x = 1 + 1;", JobOptions::default(), "meiko", 2, None)
        .expect("cold job");
    client
        .run("x = 1 + 1;", JobOptions::default(), "meiko", 2, None)
        .expect("warm job");
    let text = client.metrics_text().expect("metrics op");
    for family in [
        "otter_serve_jobs_total",
        "otter_serve_cache_hits_total",
        "otter_serve_cache_misses_total",
        "otter_serve_compile_seconds",
        "otter_serve_run_seconds",
        "otter_serve_job_seconds",
        "otter_serve_workers_total",
    ] {
        assert!(text.contains(family), "missing family {family} in:\n{text}");
    }
    assert!(
        text.contains(r#"otter_serve_compile_seconds_count{cache_hit="true"}"#),
        "warm compiles must be labeled cache_hit=\"true\":\n{text}"
    );

    // The same exposition over plain HTTP, as a scraper (or curl)
    // would fetch it.
    let addr = daemon.metrics_addr.expect("http listener");
    let response = http_get(addr, "/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(
        response.contains("Content-Type: text/plain; version=0.0.4"),
        "Prometheus scrapers key on the versioned text content type:\n{response}"
    );
    assert!(response.contains("otter_serve_jobs_total"), "{response}");
}

#[test]
fn crashed_job_yields_postmortem_bundle_jobs_row_and_error_log() {
    let daemon = spawn_daemon(true);
    let mut client = daemon.client();
    // A healthy run first, so the jobs table carries both outcomes.
    let healthy = client
        .run(COMM_HEAVY, JobOptions::default(), "meiko", 4, None)
        .expect("healthy job");
    assert!(!healthy.job_id.is_empty(), "run replies carry a job_id");
    // Now the same script with rank 3 crashing at its 2nd comm op.
    let body = client
        .request_raw(&Request::Run {
            source: COMM_HEAVY.to_string(),
            options: JobOptions {
                metrics: true,
                crash: Some((3, 2)),
                ..JobOptions::default()
            },
            machine: "meiko".to_string(),
            ranks: 8,
            workers: None,
        })
        .expect("transport");
    assert!(matches!(body.get("ok"), Some(Json::Bool(false))), "{body}");
    let job_id = body
        .get("job_id")
        .and_then(Json::as_str)
        .expect("failure responses still carry the job_id")
        .to_string();
    let path = body
        .get("postmortem")
        .and_then(Json::as_str)
        .expect("failed runs must point at their postmortem bundle")
        .to_string();
    // The bundle on disk parses, carries the same correlation key, and
    // names the injected crash as root cause.
    let text = std::fs::read_to_string(&path).expect("bundle on disk");
    let summary = otter_core::parse_postmortem(&text).expect("valid otter-postmortem/v1");
    assert_eq!(summary.job_id.to_string(), job_id);
    assert_eq!(summary.root_cause_rank, 3);
    assert_eq!(summary.root_cause_code, "injected_crash");
    assert!(summary.has_metrics, "metrics: true runs bundle a snapshot");
    // The recent-job table knows both jobs; the failed row links the
    // bundle.
    let jobs = http_get(daemon.metrics_addr.expect("http"), "/jobs");
    assert!(jobs.starts_with("HTTP/1.1 200 OK"), "{jobs}");
    assert!(jobs.contains("Content-Type: application/json"), "{jobs}");
    assert!(jobs.contains(&job_id), "{jobs}");
    assert!(jobs.contains(&healthy.job_id), "{jobs}");
    assert!(jobs.contains("\"status\":\"failed\""), "{jobs}");
    assert!(jobs.contains("\"status\":\"ok\""), "{jobs}");
    assert!(jobs.contains(&path), "{jobs}");
    // The daemon's own flight recorder saw the failure; level
    // filtering separates it from routine traffic.
    let errors = client.logs("error").expect("logs op");
    assert!(
        errors.iter().any(|e| {
            e.get("code").and_then(Json::as_str) == Some("serve.run_failed")
                && e.get("a").and_then(Json::as_num)
                    == Some(u64::from_str_radix(&job_id, 16).expect("hex id") as f64)
        }),
        "{errors:?}"
    );
    let everything = client.logs("debug").expect("logs op");
    assert!(everything.len() > errors.len(), "debug must include more");
}

#[test]
fn trace_endpoint_serves_retained_chrome_traces() {
    let daemon = spawn_daemon(true);
    let mut client = daemon.client();
    let traced = client
        .run(
            COMM_HEAVY,
            JobOptions {
                trace: true,
                ..JobOptions::default()
            },
            "meiko",
            4,
            None,
        )
        .expect("traced job");
    // Per-phase spans chain off the job's root span — one correlation
    // key from the request through compile and run.
    let spans = traced.body.get("spans").expect("run replies carry spans");
    assert_eq!(
        spans.get("request").and_then(Json::as_str),
        Some(format!("{}/0", traced.job_id).as_str())
    );
    assert_eq!(
        spans.get("compile").and_then(Json::as_str),
        Some(format!("{}/1", traced.job_id).as_str())
    );
    assert_eq!(
        spans.get("run").and_then(Json::as_str),
        Some(format!("{}/2", traced.job_id).as_str())
    );
    let plain = client
        .run(COMM_HEAVY, JobOptions::default(), "meiko", 4, None)
        .expect("untraced job");
    let addr = daemon.metrics_addr.expect("http listener");
    let got = http_get(addr, &format!("/trace/{}", traced.job_id));
    assert!(got.starts_with("HTTP/1.1 200 OK"), "{got}");
    assert!(got.contains("traceEvents"), "{got}");
    // Untraced runs retain nothing; unknown ids 404 likewise.
    let missing = http_get(addr, &format!("/trace/{}", plain.job_id));
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    let bogus = http_get(addr, "/trace/not-a-job-id");
    assert!(bogus.starts_with("HTTP/1.1 404"), "{bogus}");
}

#[test]
fn errors_are_replies_not_disconnects() {
    let daemon = spawn_daemon(false);
    let mut client = daemon.client();
    let err = client
        .run("x = 1;", JobOptions::default(), "cray", 2, None)
        .expect_err("unknown machine must fail");
    assert!(err.contains("unknown machine"), "{err}");
    let err = client
        .run("x = ][;", JobOptions::default(), "meiko", 2, None)
        .expect_err("syntax error must fail");
    assert!(!err.is_empty());
    // The session survives both failures.
    client.ping().expect("session still alive");
}

/// ROADMAP 4c: requests built to break the daemon get an `ok:false`
/// reply each, and nothing else happens — the session stays usable,
/// later sessions work, the shared cache is not wedged, and the job
/// table records the failures.
#[test]
fn hostile_requests_are_replies_and_the_daemon_survives() {
    let daemon = spawn_daemon(true);
    let mut client = daemon.client();
    let mut failed_jobs = Vec::new();
    let mut expect_error = |client: &mut ServeClient, req: Request, needles: &[&str]| {
        let body = client.request_raw(&req).expect("one reply per request");
        assert!(matches!(body.get("ok"), Some(Json::Bool(false))), "{body}");
        let error = body.get("error").and_then(Json::as_str).unwrap_or("");
        for needle in needles {
            assert!(error.contains(needle), "`{needle}` not named in: {error}");
        }
        let job_id = body.get("job_id").and_then(Json::as_str).expect("job_id");
        failed_jobs.push(job_id.to_string());
        // The session survived the request.
        client.ping().expect("session still alive");
    };

    // (a) Pass names that are mandatory or unknown, on both job ops.
    for (pass, needles) in [
        ("parse", ["`parse`", "mandatory"]),
        ("emit-c", ["`emit-c`", "mandatory"]),
        ("nope", ["unknown pass `nope`", "registered: parse,"]),
    ] {
        let options = JobOptions {
            disabled_passes: vec![pass.to_string()],
            ..JobOptions::default()
        };
        let compile = Request::Compile {
            source: "x = 2;".to_string(),
            options: options.clone(),
        };
        expect_error(&mut client, compile, &needles);
        let run = Request::Run {
            source: "x = 2;".to_string(),
            options,
            machine: "meiko".to_string(),
            ranks: 2,
            workers: None,
        };
        expect_error(&mut client, run, &needles);
    }

    // (b) A script nested far past any stack.
    let deep = Request::Run {
        source: format!("x = {}1{};", "(".repeat(10_000), ")".repeat(10_000)),
        options: JobOptions::default(),
        machine: "meiko".to_string(),
        ranks: 2,
        workers: None,
    };
    expect_error(&mut client, deep, &["error[parse]", "nesting deeper than"]);

    // (c) A request line that is itself nested far past any stack. It
    // never parses as a request, so it is answered but mints no job.
    let mut raw = std::os::unix::net::UnixStream::connect(&daemon.socket).expect("connect");
    raw.write_all(format!("{}\n", "[".repeat(10_000)).as_bytes())
        .expect("send raw line");
    raw.write_all(b"{\"op\":\"ping\"}\n").expect("send ping");
    let mut lines = std::io::BufRead::lines(std::io::BufReader::new(raw));
    let reply = Json::parse(&lines.next().expect("a reply").expect("read")).expect("JSON reply");
    assert!(
        matches!(reply.get("ok"), Some(Json::Bool(false))),
        "{reply}"
    );
    let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("bad JSON"), "{error}");
    assert!(error.contains("nesting deeper than"), "{error}");
    assert!(reply.get("job_id").is_none(), "{reply}");
    // Exactly one reply: the next line answers the ping.
    let pong = Json::parse(&lines.next().expect("a reply").expect("read")).expect("JSON reply");
    assert!(matches!(pong.get("ok"), Some(Json::Bool(true))), "{pong}");

    // Afterwards: a fresh session runs a normal job, stats answers
    // (the cache mutex is not poisoned), and the job table lists every
    // failed job as an error.
    let mut fresh = daemon.client();
    let ok = fresh
        .run("x = 2;", JobOptions::default(), "meiko", 2, None)
        .expect("normal job after the hostile ones");
    assert_eq!(
        ok.body
            .get("scalars")
            .and_then(|s| s.get("x"))
            .and_then(Json::as_num),
        Some(2.0)
    );
    let stats = fresh.stats().expect("stats");
    assert_eq!(stats.get("cache_entries").and_then(Json::as_num), Some(1.0));
    let jobs = http_get(daemon.metrics_addr.expect("http"), "/jobs");
    let jobs = Json::parse(jobs.split("\r\n\r\n").nth(1).expect("body")).expect("jobs JSON");
    let rows = jobs.get("jobs").and_then(Json::as_arr).expect("rows");
    assert_eq!(failed_jobs.len(), 7);
    for job_id in &failed_jobs {
        let row = rows
            .iter()
            .find(|r| r.get("job_id").and_then(Json::as_str) == Some(job_id))
            .unwrap_or_else(|| panic!("job {job_id} missing from /jobs"));
        assert_eq!(row.get("status").and_then(Json::as_str), Some("error"));
    }
    assert_eq!(
        rows.len(),
        failed_jobs.len() + 1,
        "the raw line minted no job"
    );
}

#[test]
fn shutdown_op_stops_the_accept_loop_and_removes_the_socket() {
    let daemon = spawn_daemon(false);
    let mut client = daemon.client();
    client.shutdown().expect("shutdown op");
    let thread = {
        // Take the thread out so Drop doesn't double-join.
        let mut d = daemon;
        d.thread.take().expect("thread")
    };
    let result = thread.join().expect("no panic");
    assert!(result.is_ok(), "{result:?}");
}

#[test]
fn concurrent_sessions_share_the_cache() {
    let daemon = spawn_daemon(false);
    let script = otter_apps::test_apps().remove(0).script;
    // Warm the cache once, then hammer it from several sessions.
    daemon
        .client()
        .run(&script, JobOptions::default(), "meiko", 4, None)
        .expect("warm-up job");
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let script = &script;
            let daemon = &daemon;
            scope.spawn(move || {
                let mut session = daemon.client();
                for _ in 0..2 {
                    let reply = session
                        .run(script, JobOptions::default(), "meiko", 4, None)
                        .expect("job");
                    assert!(reply.cache_hit, "all post-warm-up jobs must hit");
                }
            });
        }
    });
}
