//! The `otter-serve/v1` wire protocol.
//!
//! Newline-delimited JSON over a Unix-domain socket: each request is
//! one JSON object on one line, answered by one JSON object on one
//! line. Every response carries `"schema": "otter-serve/v1"` and
//! `"ok"`; errors come back as `{"ok": false, "error": "..."}` rather
//! than closing the connection, so a client can keep a session open
//! across bad requests.
//!
//! Operations (`"op"`):
//!
//! | op         | request fields                                        | response fields |
//! |------------|-------------------------------------------------------|-----------------|
//! | `ping`     | —                                                     | `schema` |
//! | `compile`  | `source`, `options?`                                  | `cache_hit`, `compile_seconds`, `source_hash`, `options_fingerprint`, `ir_instrs` |
//! | `run`      | `source`, `options?`, `machine?`, `ranks?`, `workers?`| compile fields + `admit_seconds`, `run_seconds`, `modeled_seconds`, `messages`, `bytes`, `output`, `scalars` |
//! | `stats`    | —                                                     | cache/gate counters |
//! | `metrics`  | —                                                     | `text`: the Prometheus exposition |
//! | `logs`     | `level?`                                              | `events`: recent daemon flight-recorder events at or above `level` |
//! | `shutdown` | —                                                     | `stopping: true` |
//!
//! `options` is the compile-relevant [`EngineOptions`] subset that
//! makes sense over a wire: `disabled_passes` (array of pass names),
//! `metrics` (bool), `crash` (`{"rank": R, "op": N}`, non-negative
//! integers: inject a rank crash to exercise the failure path), plus
//! the run-time-only `trace` (bool: retain a Chrome trace for
//! `GET /trace/<job_id>`). Any other key, or a value of the wrong
//! type, is an error naming the key. The hashes echo the
//! artifact's cache key so
//! clients can correlate jobs with cache entries; `compile` and `run`
//! responses additionally carry the daemon-minted `job_id` correlation
//! key (also the row key of `GET /jobs`).

use otter_core::EngineOptions;
use otter_log::LogLevel;
use otter_metrics::Json;

/// The `"schema"` tag on every response.
pub const SERVE_SCHEMA: &str = "otter-serve/v1";

/// Compile-relevant options as they travel on the wire.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobOptions {
    /// Optional passes to skip (e.g. `"peephole"`).
    pub disabled_passes: Vec<String>,
    /// Collect per-job metrics (merged into the daemon's exposition).
    pub metrics: bool,
    /// Retain a Chrome trace of the run, served afterwards by
    /// `GET /trace/<job_id>`. Run-time-only: the daemon attaches the
    /// sink to the [`otter_core::RunRequest`], so the artifact-cache
    /// key is unaffected.
    pub trace: bool,
    /// Inject a rank crash: `(rank, op_index)` terminates `rank` at
    /// its `op_index`-th communication operation. The one
    /// fault-injection knob exposed over the wire, for exercising the
    /// failure path (postmortem bundles, the `/jobs` table) against a
    /// live daemon. Enters the fingerprint like any fault plan.
    pub crash: Option<(usize, u64)>,
}

impl JobOptions {
    /// The [`EngineOptions`] these wire options denote. Anything not
    /// wire-expressible (general fault plans, trace sinks, M-file
    /// providers) stays at its default — the service compiles
    /// self-contained scripts.
    pub fn to_engine_options(&self) -> EngineOptions {
        let mut b = EngineOptions::builder().metrics(self.metrics);
        for pass in &self.disabled_passes {
            b = b.disable_pass(pass.clone());
        }
        if let Some((rank, op)) = self.crash {
            b = b.faults(otter_mpi::FaultPlan::new().crash(rank, op));
        }
        b.build()
    }

    /// Parse the `options` object of a request (absent or `null` →
    /// defaults). Unknown keys and ill-typed values are errors that
    /// name the key: an option the daemon would ignore must not look
    /// accepted.
    pub fn from_json(json: Option<&Json>) -> Result<JobOptions, String> {
        let mut opts = JobOptions::default();
        let fields = match json {
            None | Some(Json::Null) => return Ok(opts),
            Some(Json::Obj(fields)) => fields,
            Some(_) => return Err("options must be an object".to_string()),
        };
        let flag = |key: &str, v: &Json| v.as_bool().ok_or(format!("{key} must be a boolean"));
        for (key, value) in fields {
            match key.as_str() {
                "disabled_passes" => {
                    let err = || "disabled_passes must be an array of strings".to_string();
                    for p in value.as_arr().ok_or_else(err)? {
                        opts.disabled_passes
                            .push(p.as_str().ok_or_else(err)?.to_string());
                    }
                }
                "metrics" => opts.metrics = flag(key, value)?,
                "trace" => opts.trace = flag(key, value)?,
                "crash" => {
                    let rank = value.get("rank").and_then(as_index);
                    let op = value.get("op").and_then(as_index);
                    let (Some(rank), Some(op)) = (rank, op) else {
                        return Err("crash must be an object with non-negative integer \
                                    `rank` and `op`"
                            .to_string());
                    };
                    opts.crash = Some((rank as usize, op));
                }
                other => {
                    return Err(format!(
                        "unknown option `{other}` (expected disabled_passes|metrics|trace|crash)"
                    ))
                }
            }
        }
        Ok(opts)
    }

    /// The wire form (for clients building requests).
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if !self.disabled_passes.is_empty() {
            fields.push((
                "disabled_passes".to_string(),
                Json::Arr(
                    self.disabled_passes
                        .iter()
                        .map(|p| Json::Str(p.clone()))
                        .collect(),
                ),
            ));
        }
        if self.metrics {
            fields.push(("metrics".to_string(), Json::Bool(true)));
        }
        if self.trace {
            fields.push(("trace".to_string(), Json::Bool(true)));
        }
        if let Some((rank, op)) = self.crash {
            fields.push((
                "crash".to_string(),
                Json::Obj(vec![
                    ("rank".to_string(), Json::Num(rank as f64)),
                    ("op".to_string(), Json::Num(op as f64)),
                ]),
            ));
        }
        Json::Obj(fields)
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Ping,
    Compile {
        source: String,
        options: JobOptions,
    },
    Run {
        source: String,
        options: JobOptions,
        /// Machine model name (`meiko`/`cluster`/`smp`/`workstation`).
        machine: String,
        ranks: usize,
        workers: Option<usize>,
    },
    Stats,
    Metrics,
    /// Recent daemon-side flight-recorder events at or above `level`
    /// (`Error` is the most selective filter, `Debug` returns
    /// everything retained).
    Logs {
        level: LogLevel,
    },
    Shutdown,
}

impl Request {
    /// Parse one request line.
    pub fn from_json(json: &Json) -> Result<Request, String> {
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request needs a string `op` field")?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "logs" => {
                let level = match json.get("level") {
                    None => LogLevel::Info,
                    Some(l) => l
                        .as_str()
                        .and_then(LogLevel::parse)
                        .ok_or("level must be error|warn|info|debug")?,
                };
                Ok(Request::Logs { level })
            }
            "compile" => Ok(Request::Compile {
                source: required_source(json)?,
                options: JobOptions::from_json(json.get("options"))?,
            }),
            "run" => {
                let ranks = match json.get("ranks") {
                    None => 1,
                    Some(j) => as_count(j).ok_or("ranks must be a positive integer")?,
                };
                let workers = match json.get("workers") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(as_count(j).ok_or("workers must be a positive integer")?),
                };
                let machine = json
                    .get("machine")
                    .map(|m| {
                        m.as_str()
                            .map(str::to_string)
                            .ok_or("machine must be a string")
                    })
                    .transpose()?
                    .unwrap_or_else(|| "meiko".to_string());
                Ok(Request::Run {
                    source: required_source(json)?,
                    options: JobOptions::from_json(json.get("options"))?,
                    machine,
                    ranks,
                    workers,
                })
            }
            other => Err(format!(
                "unknown op `{other}` (expected ping|compile|run|stats|metrics|logs|shutdown)"
            )),
        }
    }

    /// The wire form (for clients).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => op_obj("ping", vec![]),
            Request::Stats => op_obj("stats", vec![]),
            Request::Metrics => op_obj("metrics", vec![]),
            Request::Shutdown => op_obj("shutdown", vec![]),
            Request::Logs { level } => op_obj(
                "logs",
                vec![("level".to_string(), Json::Str(level.as_str().to_string()))],
            ),
            Request::Compile { source, options } => op_obj(
                "compile",
                vec![
                    ("source".to_string(), Json::Str(source.clone())),
                    ("options".to_string(), options.to_json()),
                ],
            ),
            Request::Run {
                source,
                options,
                machine,
                ranks,
                workers,
            } => {
                let mut fields = vec![
                    ("source".to_string(), Json::Str(source.clone())),
                    ("options".to_string(), options.to_json()),
                    ("machine".to_string(), Json::Str(machine.clone())),
                    ("ranks".to_string(), Json::Num(*ranks as f64)),
                ];
                if let Some(w) = workers {
                    fields.push(("workers".to_string(), Json::Num(*w as f64)));
                }
                op_obj("run", fields)
            }
        }
    }

    /// The `op` label used by the `serve_jobs_total` metric.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Compile { .. } => "compile",
            Request::Run { .. } => "run",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Logs { .. } => "logs",
            Request::Shutdown => "shutdown",
        }
    }
}

fn required_source(json: &Json) -> Result<String, String> {
    json.get("source")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "request needs a string `source` field".to_string())
}

fn as_count(j: &Json) -> Option<usize> {
    as_index(j).filter(|&n| n >= 1).map(|n| n as usize)
}

/// A non-negative integer.
fn as_index(j: &Json) -> Option<u64> {
    let n = j.as_num()?;
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

fn op_obj(op: &str, mut rest: Vec<(String, Json)>) -> Json {
    let mut fields = vec![("op".to_string(), Json::Str(op.to_string()))];
    fields.append(&mut rest);
    Json::Obj(fields)
}

/// Build a success response: `ok`/`schema` plus op-specific fields.
pub fn ok_response(mut fields: Vec<(String, Json)>) -> Json {
    let mut all = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("schema".to_string(), Json::Str(SERVE_SCHEMA.to_string())),
    ];
    all.append(&mut fields);
    Json::Obj(all)
}

/// Build an error response.
pub fn err_response(message: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("schema".to_string(), Json::Str(SERVE_SCHEMA.to_string())),
        ("error".to_string(), Json::Str(message.into())),
    ])
}

/// Resolve a wire machine name to its model.
pub fn machine_by_name(name: &str) -> Result<otter_machine::Machine, String> {
    match name {
        "meiko" => Ok(otter_machine::meiko_cs2()),
        "cluster" => Ok(otter_machine::sparc20_cluster()),
        "smp" => Ok(otter_machine::enterprise_smp()),
        "workstation" => Ok(otter_machine::workstation()),
        other => Err(format!(
            "unknown machine `{other}` (expected meiko|cluster|smp|workstation)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Logs {
                level: LogLevel::Warn,
            },
            Request::Compile {
                source: "x = 1;\n".to_string(),
                options: JobOptions {
                    disabled_passes: vec!["peephole".to_string()],
                    metrics: true,
                    trace: false,
                    crash: None,
                },
            },
            Request::Run {
                source: "x = 1;\n".to_string(),
                options: JobOptions {
                    trace: true,
                    crash: Some((3, 2)),
                    ..JobOptions::default()
                },
                machine: "cluster".to_string(),
                ranks: 8,
                workers: Some(2),
            },
        ];
        for req in reqs {
            let wire = req.to_json().to_string();
            let parsed = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(parsed, req, "{wire}");
        }
    }

    #[test]
    fn run_defaults_fill_in() {
        let json = Json::parse(r#"{"op":"run","source":"x = 1;"}"#).unwrap();
        match Request::from_json(&json).unwrap() {
            Request::Run {
                machine,
                ranks,
                workers,
                ..
            } => {
                assert_eq!(machine, "meiko");
                assert_eq!(ranks, 1);
                assert_eq!(workers, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_requests_are_typed_errors() {
        for (line, needle) in [
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"compile"}"#, "source"),
            (r#"{"op":"run","source":"x=1;","ranks":0}"#, "ranks"),
            (
                r#"{"op":"run","source":"x=1;","options":{"collective_algo":"ring"}}"#,
                "collective_algo",
            ),
            (r#"{"op":"logs","level":"verbose"}"#, "level"),
            (
                r#"{"op":"run","source":"x=1;","options":{"crash":{"rank":1}}}"#,
                "crash",
            ),
            (
                r#"{"op":"run","source":"x=1;","options":{"crash":{"rank":1,"op":-1}}}"#,
                "crash",
            ),
            (
                r#"{"op":"run","source":"x=1;","options":{"crash":{"rank":1,"op":2.5}}}"#,
                "crash",
            ),
            (
                r#"{"op":"run","source":"x=1;","options":{"collective_algo":"linear"}}"#,
                "collective_algo",
            ),
            (
                r#"{"op":"compile","source":"x=1;","options":{"metrics":"yes"}}"#,
                "metrics",
            ),
            (
                r#"{"op":"run","source":"x=1;","options":{"trace":1}}"#,
                "trace",
            ),
            (
                r#"{"op":"compile","source":"x=1;","options":{"disabled_passes":"peephole"}}"#,
                "disabled_passes",
            ),
            (
                r#"{"op":"compile","source":"x=1;","options":[]}"#,
                "options",
            ),
        ] {
            let err = Request::from_json(&Json::parse(line).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn logs_level_defaults_to_info() {
        let json = Json::parse(r#"{"op":"logs"}"#).unwrap();
        assert_eq!(
            Request::from_json(&json).unwrap(),
            Request::Logs {
                level: LogLevel::Info
            }
        );
    }

    #[test]
    fn unknown_machines_are_rejected() {
        assert!(machine_by_name("meiko").is_ok());
        assert!(machine_by_name("cray").is_err());
    }
}
