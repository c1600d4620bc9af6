//! `otter-benchmark`: the repo's wall-clock benchmark.
//!
//! ```text
//! otter-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload; the last stdout line is the result
//!     object (end-to-end metrics with --trace 0, per-layer with 1)
//! otter-benchmark run [--seed N] [--seconds S] [--workload NAME]
//!     every workload untraced then traced, each in a process of its
//!     own; writes benchmark/out/results.json
//! otter-benchmark repeat-check [--seed N] [--seconds S]
//!     the untraced suite twice; non-zero exit if any end-to-end
//!     metric moves by more than its bound
//! ```
//!
//! Run from the repo root, so `.cargo/config.toml` (`target-cpu=native`)
//! applies; see `benchmark/README.md`.

mod host;
mod jobs;
mod metrics;
mod probes;
mod run;
mod serve;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::time::Instant;

/// `--flag value` pairs after the optional subcommand.
#[derive(Debug, Default, PartialEq)]
pub struct Flags {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub trace: bool,
}

pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => flags.seconds = Some(value.parse().map_err(|_| bad("a number"))?),
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(flags)
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| suite::run(&f)),
        Some("repeat-check") => parse_flags(&args[1..]).and_then(|f| suite::repeat_check(&f)),
        _ => parse_flags(&args).and_then(|f| {
            let cli = run::Cli {
                workload: f.workload.ok_or("`--workload NAME` is required")?,
                seed: f.seed.unwrap_or(suite::DEFAULT_SEED),
                seconds: f.seconds.unwrap_or_else(suite::default_seconds),
                trace: f.trace,
            };
            let result = run::single(&cli, process_start)?;
            suite::print_result(&cli.workload, &result);
            println!("{}", result.to_json());
            Ok(())
        }),
    };
    // Exit explicitly: after a hung job its thread is still running.
    std::process::exit(match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("otter-benchmark: {e}");
            1
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_parse_the_contract_command_line() {
        let f = parse_flags(&args("--workload spmd-p4 --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            f,
            Flags {
                workload: Some("spmd-p4".to_string()),
                seed: Some(7),
                seconds: Some(20.0),
                trace: true,
            }
        );
        assert_eq!(parse_flags(&[]).unwrap(), Flags::default());
        assert!(parse_flags(&args("--trace 2")).is_err());
        assert!(parse_flags(&args("--seed")).is_err());
        assert!(parse_flags(&args("--bogus 1")).is_err());
    }

    /// Every metric in `BENCHMARK.json` is emitted by a run: a short
    /// untraced and a short traced run emit exactly the declared sets
    /// (`Metrics::finish` would fail otherwise), with no failed job.
    #[test]
    fn short_runs_emit_every_declared_metric() {
        // Runs write under benchmark/out relative to the repo root.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
        for (trace, declared) in [(false, metrics::END_TO_END), (true, metrics::PER_LAYER)] {
            let cli = run::Cli {
                workload: "dispatch-p1".to_string(),
                seed: 3,
                seconds: 1.5,
                trace,
            };
            let result = run::single(&cli, Instant::now()).unwrap();
            assert!(result.correct && result.failed == 0 && result.attempted >= 1);
            let names: Vec<&str> = result.metrics.iter().map(|m| m.0).collect();
            let want: Vec<&str> = declared.iter().map(|m| m.0).collect();
            assert_eq!(names, want);
        }
        let trace = std::fs::read_to_string("benchmark/out/dispatch-p1.trace.json").unwrap();
        let trace = otter_metrics::Json::parse(&trace).unwrap();
        assert!(!trace.get("spans").unwrap().as_arr().unwrap().is_empty());
    }
}
