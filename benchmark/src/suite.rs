//! The suite drivers: `run` (every workload untraced then traced) and
//! `repeat-check` (the untraced suite twice, compared within bounds).
//!
//! Each workload runs in a process of its own — this binary re-executed
//! with the contract's flags — so `peak_rss_mb` never carries another
//! workload's high-water mark.

use crate::host;
use crate::host::out_dir;
use crate::metrics::{RunResult, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::Flags;
use otter_metrics::Json;
use std::process::{Command, Stdio};

pub const DEFAULT_SEED: u64 = 1998;

fn benchmark_json() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// `run_seconds` of `BENCHMARK.json`, so a bare run measures what the
/// driver measures.
pub fn default_seconds() -> f64 {
    benchmark_json()
        .ok()
        .and_then(|j| j.get("run_seconds")?.as_num())
        .unwrap_or(20.0)
}

/// `(name, better, bound)` of every end-to-end metric.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let json = benchmark_json()?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no `end_to_end` array")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_num);
            match (name, better, bound) {
                (Some(n), Some(b), Some(bound)) => Ok((n.to_string(), b == "lower", bound)),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// Re-execute this binary for one run; its stderr passes through, its
/// last stdout line is the result.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} (trace {trace}): {}", output.status));
    }
    let line = stdout.lines().last().unwrap_or_default();
    let declared = if trace { PER_LAYER } else { END_TO_END };
    Json::parse(line)
        .ok()
        .and_then(|j| RunResult::from_json(&j, declared))
        .ok_or_else(|| format!("{workload} (trace {trace}): bad result line `{line}`"))
}

fn selected(flags: &Flags) -> Result<Vec<&'static str>, String> {
    let mut all = WORKLOADS.iter().map(|(n, _)| *n);
    match &flags.workload {
        None => Ok(all.collect()),
        Some(w) => all
            .find(|n| n == w)
            .map(|n| vec![n])
            .ok_or_else(|| format!("unknown workload `{w}`")),
    }
}

/// Every metric by name with its unit, then the failure count.
pub fn print_result(workload: &str, r: &RunResult) {
    for &(name, value, unit) in &r.metrics {
        println!("{workload:<12} {name:<28} {value:>16.4} {unit}");
    }
    println!(
        "{workload:<12} {:<28} {:>16} of {} jobs{}",
        "failed",
        r.failed,
        r.attempted,
        if r.correct { "" } else { "  ** NOT CORRECT **" }
    );
}

/// `run`: untraced then traced, per workload; prints every metric by
/// name with its unit and writes `benchmark/out/results.json`.
pub fn run(flags: &Flags) -> Result<(), String> {
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let seconds = flags.seconds.unwrap_or_else(default_seconds);
    let mut rows = Vec::new();
    let mut all_correct = true;
    for workload in selected(flags)? {
        let untraced = child(workload, seed, seconds, false)?;
        print_result(workload, &untraced);
        let traced = child(workload, seed, seconds, true)?;
        print_result(workload, &traced);
        all_correct &= untraced.correct && traced.correct;
        rows.push((
            workload.to_string(),
            Json::Obj(vec![
                ("end_to_end".to_string(), untraced.to_json()),
                ("per_layer".to_string(), traced.to_json()),
            ]),
        ));
    }
    let results = Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str("otter-benchmark/v1".to_string()),
        ),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("host".to_string(), host::describe()),
        ("workloads".to_string(), Json::Obj(rows)),
    ]);
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    std::fs::write(&path, results.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("results -> {}", path.display());
    if all_correct {
        Ok(())
    } else {
        Err("a run was not correct".to_string())
    }
}

/// By how much of `first` the `second` value is worse, in the metric's
/// direction (negative: better).
fn worse_by(first: f64, second: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (second - first) / first
    } else {
        (first - second) / first
    }
}

/// `repeat-check`: the untraced suite twice in one invocation. Fails,
/// naming metric and workload, if any end-to-end metric differs between
/// the two sets by more than its bound in either direction.
pub fn repeat_check(flags: &Flags) -> Result<(), String> {
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let seconds = flags.seconds.unwrap_or_else(default_seconds);
    let bounds = bounds()?;
    let workloads = selected(flags)?;
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for &workload in &workloads {
            let r = child(workload, seed, seconds, false)?;
            if !r.correct {
                return Err(format!(
                    "{workload}: {} of {} jobs failed",
                    r.failed, r.attempted
                ));
            }
            set.push(r);
        }
        sets.push(set);
    }
    let mut misses = Vec::new();
    for (w, workload) in workloads.iter().enumerate() {
        for (i, (name, lower, bound)) in bounds.iter().enumerate() {
            let (a, b) = (sets[0][w].metrics[i].1, sets[1][w].metrics[i].1);
            let moved = worse_by(a, b, *lower).max(worse_by(b, a, *lower));
            let verdict = if moved > *bound { "MISS" } else { "ok" };
            println!(
                "{workload:<12} {name:<16} {a:>12.4} {b:>12.4}  moved {:>6.2}% (bound {:.0}%)  {verdict}",
                moved * 100.0,
                bound * 100.0
            );
            if moved > *bound {
                misses.push(format!("{name} on {workload}"));
            }
        }
    }
    if misses.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "moved by more than the bound: {}",
            misses.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 110.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) - 0.1).abs() < 1e-12);
        assert!(worse_by(100.0, 90.0, true) < 0.0);
    }

    #[test]
    fn workload_selection() {
        let all = selected(&Flags::default()).unwrap();
        assert_eq!(all, ["kernel-p1", "dispatch-p1", "spmd-p4", "serve-mix"]);
        let one = Flags {
            workload: Some("spmd-p4".to_string()),
            ..Flags::default()
        };
        assert_eq!(selected(&one).unwrap(), ["spmd-p4"]);
        let none = Flags {
            workload: Some("x".to_string()),
            ..Flags::default()
        };
        assert!(selected(&none).is_err());
    }
}
