//! Postmortem bundles: everything known about a failed SPMD job,
//! serialized to one self-contained JSON document.
//!
//! When a job dies, the in-process [`SpmdJobFailure`] is rich — typed
//! per-rank errors, the wait-for snapshot, every rank's flight-recorder
//! tail, merged metrics — but it dies with the process. A bundle
//! ([`build_postmortem`]) freezes all of it under the
//! `otter-postmortem/v1` schema, keyed by the job's [`JobId`] and the
//! artifact's content hashes, so `harness postmortem <file>` can
//! pretty-print the failure and re-run the deadlock-cycle diagnosis
//! offline — with no live job, no source, and no server.
//!
//! The bundle is deliberately plain JSON built on `otter_metrics::Json`
//! (the workspace's only JSON substrate): everything in it is also
//! reachable by generic tooling.

use crate::artifact::CompiledArtifact;
use crate::engines::SpmdJobFailure;
use otter_log::{FlightEvent, JobId, LogLevel};
use otter_metrics::Json;
use otter_mpi::{CommError, WaitEdge};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every bundle.
pub const POSTMORTEM_SCHEMA: &str = "otter-postmortem/v1";

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn edge_json(e: &WaitEdge) -> Json {
    Json::Obj(vec![
        ("waiter".into(), Json::Num(e.waiter as f64)),
        ("waiting_on".into(), Json::Num(e.waiting_on as f64)),
    ])
}

fn event_json(e: &FlightEvent) -> Json {
    Json::Obj(vec![
        ("seq".into(), Json::Num(e.seq as f64)),
        ("clock".into(), Json::Num(e.clock)),
        ("level".into(), Json::Str(e.level.as_str().into())),
        ("code".into(), Json::Str(e.code.into())),
        ("a".into(), Json::Num(e.a as f64)),
        ("b".into(), Json::Num(e.b as f64)),
    ])
}

/// Build the `otter-postmortem/v1` bundle for a failed run of
/// `artifact`. Pure serialization: no I/O, no clock reads — the same
/// failure always produces the same bundle.
pub fn build_postmortem(artifact: &CompiledArtifact, failure: &SpmdJobFailure) -> Json {
    let report = &failure.report;
    let root = report.root_cause();
    let failures: Vec<Json> = report
        .failures
        .iter()
        .map(|f| {
            let mut obj = vec![
                ("rank".into(), Json::Num(f.rank as f64)),
                ("code".into(), Json::Str(f.error.code().into())),
                ("message".into(), Json::Str(f.error.to_string())),
                (
                    "waiting_on".into(),
                    f.error
                        .waiting_on()
                        .map_or(Json::Null, |w| Json::Num(w as f64)),
                ),
                (
                    "blocked_peers".into(),
                    Json::Arr(
                        f.blocked_peers
                            .iter()
                            .map(|&p| Json::Num(p as f64))
                            .collect(),
                    ),
                ),
                ("clock".into(), Json::Num(f.clock)),
                (
                    "stats".into(),
                    Json::Obj(vec![
                        ("messages".into(), Json::Num(f.stats.messages_sent as f64)),
                        ("bytes".into(), Json::Num(f.stats.bytes_sent as f64)),
                        ("compute_seconds".into(), Json::Num(f.stats.compute_time)),
                        ("send_seconds".into(), Json::Num(f.stats.send_time)),
                        ("wait_seconds".into(), Json::Num(f.stats.wait_time)),
                    ]),
                ),
            ];
            if let CommError::Deadlock { cycle, .. } = &f.error {
                obj.push((
                    "cycle".into(),
                    Json::Arr(cycle.iter().map(edge_json).collect()),
                ));
            }
            Json::Obj(obj)
        })
        .collect();
    // The final wait-for snapshot: one edge per failed rank that died
    // blocked. `harness postmortem` re-runs the cycle search over
    // exactly these edges.
    let wait_for: Vec<Json> = report
        .failures
        .iter()
        .filter_map(|f| {
            f.error.waiting_on().map(|on| {
                edge_json(&WaitEdge {
                    waiter: f.rank,
                    waiting_on: on,
                })
            })
        })
        .collect();
    let flight: Vec<Json> = failure
        .flight
        .iter()
        .map(|(rank, events)| {
            Json::Obj(vec![
                ("rank".into(), Json::Num(*rank as f64)),
                (
                    "events".into(),
                    Json::Arr(events.iter().map(event_json).collect()),
                ),
            ])
        })
        .collect();
    let survivors: Vec<Json> = failure
        .survivors
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("rank".into(), Json::Num(s.rank as f64)),
                ("messages".into(), Json::Num(s.messages as f64)),
                ("bytes".into(), Json::Num(s.bytes as f64)),
                ("clock".into(), Json::Num(s.clock)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str(POSTMORTEM_SCHEMA.into())),
        ("job_id".into(), Json::Str(failure.job_id.to_string())),
        ("source_hash".into(), hex(artifact.source_hash())),
        (
            "options_fingerprint".into(),
            hex(artifact.options_fingerprint()),
        ),
        ("size".into(), Json::Num(report.size as f64)),
        (
            "failure".into(),
            Json::Obj(vec![
                ("summary".into(), Json::Str(report.to_string())),
                (
                    "root_cause".into(),
                    Json::Obj(vec![
                        ("rank".into(), Json::Num(root.rank as f64)),
                        ("code".into(), Json::Str(root.error.code().into())),
                        ("message".into(), Json::Str(root.error.to_string())),
                    ]),
                ),
                ("failures".into(), Json::Arr(failures)),
                (
                    "survivor_ranks".into(),
                    Json::Arr(
                        report
                            .survivor_ranks
                            .iter()
                            .map(|&r| Json::Num(r as f64))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("wait_for".into(), Json::Arr(wait_for)),
        ("flight".into(), Json::Arr(flight)),
        (
            "metrics".into(),
            failure.metrics.as_ref().map_or(Json::Null, |m| m.to_json()),
        ),
        ("survivors".into(), Json::Arr(survivors)),
    ])
}

/// Write a bundle to `dir` (created if missing) as
/// `postmortem-<job_id>.json`; returns the path.
pub fn write_postmortem(dir: &Path, bundle: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let job = bundle
        .get("job_id")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let path = dir.join(format!("postmortem-{job}.json"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{bundle}")?;
    Ok(path)
}

/// One rank's flight tail, decoded from a bundle.
#[derive(Debug, Clone)]
pub struct PostmortemFlight {
    pub rank: usize,
    pub events: Vec<DecodedEvent>,
}

/// A flight event read back from a bundle. The `code` is owned (the
/// `&'static str` identity is gone after serialization).
#[derive(Debug, Clone)]
pub struct DecodedEvent {
    pub seq: u64,
    pub clock: f64,
    pub level: LogLevel,
    pub code: String,
    pub a: u64,
    pub b: u64,
}

/// The decoded, typed view of a bundle that `harness postmortem` (and
/// the tests) work from.
#[derive(Debug, Clone)]
pub struct PostmortemSummary {
    pub job_id: JobId,
    pub source_hash: String,
    pub options_fingerprint: String,
    pub size: usize,
    pub summary: String,
    pub root_cause_rank: usize,
    pub root_cause_code: String,
    pub root_cause_message: String,
    /// `(rank, code, message, blocked_peers)` per failed rank.
    pub failures: Vec<(usize, String, String, Vec<usize>)>,
    pub survivor_ranks: Vec<usize>,
    /// The final wait-for snapshot.
    pub wait_for: Vec<WaitEdge>,
    pub flight: Vec<PostmortemFlight>,
    pub has_metrics: bool,
}

impl PostmortemSummary {
    /// The wait-for cycle re-diagnosed offline from the serialized
    /// snapshot — independent of what the live detector concluded.
    pub fn diagnose_cycle(&self) -> Option<Vec<WaitEdge>> {
        otter_mpi::find_wait_cycle(&self.wait_for)
    }
}

fn num_field(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("postmortem: missing numeric field `{key}`"))
}

fn str_field(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("postmortem: missing string field `{key}`"))
}

fn ranks_arr(j: &Json, key: &str) -> Vec<usize> {
    j.get(key)
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_num)
                .map(|n| n as usize)
                .collect()
        })
        .unwrap_or_default()
}

/// Parse and validate a serialized bundle. Rejects unknown schemas so
/// a v2 writer cannot be silently misread by a v1 reader.
pub fn parse_postmortem(text: &str) -> Result<PostmortemSummary, String> {
    let j = Json::parse(text)?;
    let schema = str_field(&j, "schema")?;
    if schema != POSTMORTEM_SCHEMA {
        return Err(format!(
            "postmortem: schema `{schema}` is not `{POSTMORTEM_SCHEMA}`"
        ));
    }
    let job_id = JobId::parse(&str_field(&j, "job_id")?)
        .ok_or_else(|| "postmortem: bad job_id".to_string())?;
    let failure = j
        .get("failure")
        .ok_or_else(|| "postmortem: missing `failure`".to_string())?;
    let root = failure
        .get("root_cause")
        .ok_or_else(|| "postmortem: missing `root_cause`".to_string())?;
    let failures = failure
        .get("failures")
        .and_then(Json::as_arr)
        .ok_or_else(|| "postmortem: missing `failures`".to_string())?
        .iter()
        .map(|f| {
            Ok((
                num_field(f, "rank")? as usize,
                str_field(f, "code")?,
                str_field(f, "message")?,
                ranks_arr(f, "blocked_peers"),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let wait_for = j
        .get("wait_for")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|e| {
            Ok(WaitEdge {
                waiter: num_field(e, "waiter")? as usize,
                waiting_on: num_field(e, "waiting_on")? as usize,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let flight = j
        .get("flight")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|r| {
            let events = r
                .get("events")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|e| {
                    Ok(DecodedEvent {
                        seq: num_field(e, "seq")? as u64,
                        clock: num_field(e, "clock")?,
                        level: LogLevel::parse(&str_field(e, "level")?)
                            .ok_or_else(|| "postmortem: bad event level".to_string())?,
                        code: str_field(e, "code")?,
                        a: num_field(e, "a")? as u64,
                        b: num_field(e, "b")? as u64,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(PostmortemFlight {
                rank: num_field(r, "rank")? as usize,
                events,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(PostmortemSummary {
        job_id,
        source_hash: str_field(&j, "source_hash")?,
        options_fingerprint: str_field(&j, "options_fingerprint")?,
        size: num_field(&j, "size")? as usize,
        summary: str_field(failure, "summary")?,
        root_cause_rank: num_field(root, "rank")? as usize,
        root_cause_code: str_field(root, "code")?,
        root_cause_message: str_field(root, "message")?,
        failures,
        survivor_ranks: ranks_arr(failure, "survivor_ranks"),
        wait_for,
        flight,
        has_metrics: !matches!(j.get("metrics"), None | Some(Json::Null)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{try_run, RunRequest};
    use crate::compile::compile;
    use crate::engines::EngineOptions;
    use otter_machine::meiko_cs2;
    use otter_mpi::FaultPlan;

    fn crashed_failure(p: usize) -> (CompiledArtifact, SpmdJobFailure) {
        let src = otter_apps_src();
        let opts = EngineOptions::builder()
            .metrics(true)
            .faults(FaultPlan::new().crash(1, 2))
            .build();
        let artifact = compile(&src, &opts).unwrap();
        let failure = try_run(&artifact, &RunRequest::on(meiko_cs2(), p))
            .unwrap()
            .unwrap_err();
        (artifact, failure)
    }

    /// A small message-heavy script: a ring of sends via gather-style
    /// matrix ops (every statement is SPMD-compiled).
    fn otter_apps_src() -> String {
        "a = ones(32, 32);\nb = a * a;\ns = sum(b(:, 1));".to_string()
    }

    #[test]
    fn bundle_round_trips_through_json() {
        let (artifact, failure) = crashed_failure(4);
        let bundle = build_postmortem(&artifact, &failure);
        let text = bundle.to_string();
        let summary = parse_postmortem(&text).expect("bundle parses");
        assert_eq!(summary.job_id, failure.job_id);
        assert_eq!(summary.size, 4);
        assert_eq!(summary.root_cause_rank, 1);
        assert_eq!(summary.root_cause_code, "injected_crash");
        assert!(summary.has_metrics);
        assert_eq!(
            summary.source_hash,
            format!("{:016x}", artifact.source_hash())
        );
        // Every rank contributed a flight tail, and the dead rank's
        // tail ends with its crash.
        assert_eq!(summary.flight.len(), 4);
        let dead = summary.flight.iter().find(|f| f.rank == 1).unwrap();
        let last_codes: Vec<&str> = dead.events.iter().map(|e| e.code.as_str()).collect();
        assert!(
            last_codes.contains(&"fault.crash"),
            "dead rank's tail must contain the crash event: {last_codes:?}"
        );
        assert_eq!(dead.events.last().unwrap().code, "rank.failed");
    }

    #[test]
    fn bundle_carries_one_job_id_everywhere() {
        let (artifact, failure) = crashed_failure(4);
        let bundle = build_postmortem(&artifact, &failure);
        let id = failure.job_id.to_string();
        assert_eq!(
            bundle.get("job_id").and_then(Json::as_str),
            Some(id.as_str())
        );
        // The id in the bundle is the id the engine stamped on the
        // failure — one key, end to end.
        assert_ne!(failure.job_id.0, 0, "engine must mint a real id");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let err = parse_postmortem(r#"{"schema":"otter-postmortem/v2"}"#).unwrap_err();
        assert!(err.contains("otter-postmortem/v1"), "{err}");
        assert!(parse_postmortem("not json").is_err());
    }

    #[test]
    fn write_creates_file_named_by_job_id() {
        let (artifact, failure) = crashed_failure(2);
        let bundle = build_postmortem(&artifact, &failure);
        let dir = std::env::temp_dir().join(format!("otter-pm-test-{}", std::process::id()));
        let path = write_postmortem(&dir, &bundle).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .contains(&failure.job_id.to_string()));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(parse_postmortem(&text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
