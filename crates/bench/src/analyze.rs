//! `harness analyze` — the static communication-volume oracle against
//! the modeled run.
//!
//! For each benchmark app this compiles once with the analyze knob on,
//! reads the oracle's per-site `messages(p)` / `bytes(p)` predictions
//! off the artifact, then executes the deterministic modeled run at
//! each requested rank count and compares *exactly*: at every leaf
//! site, `per-exec model × measured execution count` must equal the
//! executor's instrumented totals, message for message and byte for
//! byte. There is no tolerance anywhere — the oracle's claim is
//! identity, not approximation. Statically provable trip counts are
//! additionally checked against the measured counts.
//!
//! The report renders as a per-site table and exports as
//! [`ANALYZE_SCHEMA`] JSON for CI smoke checks.

use crate::figures::Scale;
use otter_core::analysis::{Execs, SitePrediction};
use otter_core::{compile, run, EngineOptions, OtterError, RunRequest};
use otter_machine::meiko_cs2;
use otter_metrics::Json;

/// Schema tag on every JSON export of an [`AnalyzeReport`].
pub const ANALYZE_SCHEMA: &str = "otter-analyze/v1";

/// What to analyze.
#[derive(Debug, Clone)]
pub struct AnalyzeSpec {
    pub scale: Scale,
    /// `cg|ocean|nbody|tc|all`.
    pub app_id: String,
    /// Rank counts to evaluate and verify at.
    pub ranks: Vec<usize>,
}

impl Default for AnalyzeSpec {
    fn default() -> Self {
        AnalyzeSpec {
            scale: Scale::Test,
            app_id: "all".to_string(),
            ranks: vec![1, 2, 4, 8],
        }
    }
}

/// The oracle's verdict for one site at one rank count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteCheck {
    pub ranks: usize,
    /// Measured executions of the site (rank 0's count).
    pub execs: u64,
    /// Predicted totals: per-exec model × measured execs. `None` when
    /// the model could not resolve (no such site exists today — kept
    /// honest in the schema).
    pub predicted_messages: Option<u64>,
    pub predicted_bytes: Option<u64>,
    /// Instrumented totals from the modeled run.
    pub measured_messages: u64,
    pub measured_bytes: u64,
}

impl SiteCheck {
    /// Exact equality — the oracle's contract.
    pub fn matched(&self) -> bool {
        self.predicted_messages == Some(self.measured_messages)
            && self.predicted_bytes == Some(self.measured_bytes)
    }
}

/// One leaf site: the static prediction plus its per-p verification.
#[derive(Debug, Clone)]
pub struct SiteRow {
    pub prediction: SitePrediction,
    pub checks: Vec<SiteCheck>,
}

/// One app's full analysis.
#[derive(Debug, Clone)]
pub struct AppAnalysis {
    pub app: String,
    pub sites: Vec<SiteRow>,
    /// Variables the SSA-web interference analysis proved in-place
    /// updatable, scope-qualified (`main: x` / `f: y`).
    pub in_place: Vec<String>,
    /// Compile-time shape-safety errors (must be 0 for the paper apps).
    pub shape_errors: usize,
}

impl AppAnalysis {
    /// Every site matched at every rank count.
    pub fn matched(&self) -> bool {
        self.sites
            .iter()
            .all(|s| s.checks.iter().all(SiteCheck::matched))
    }
}

/// The full `harness analyze` result.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    pub scale: String,
    pub machine: String,
    pub ranks: Vec<usize>,
    pub apps: Vec<AppAnalysis>,
}

impl AnalyzeReport {
    pub fn matched(&self) -> bool {
        self.apps.iter().all(AppAnalysis::matched)
    }

    /// Render the per-site tables.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for app in &self.apps {
            let _ = writeln!(
                out,
                "== {} — {} site(s), {} shape error(s), oracle {} ==",
                app.app,
                app.sites.len(),
                app.shape_errors,
                if app.matched() { "EXACT" } else { "MISMATCH" },
            );
            let _ = writeln!(
                out,
                "{:>4} {:<8} {:<15} {:>6} {:>24} {:>24}  checks",
                "site", "scope", "opcode", "execs", "messages(p)", "bytes(p)"
            );
            for row in &app.sites {
                let p = &row.prediction;
                let execs = match p.execs {
                    Execs::Static(n) => n.to_string(),
                    Execs::Dynamic => "dyn".to_string(),
                };
                let checks: Vec<String> = row
                    .checks
                    .iter()
                    .map(|c| format!("p{}:{}", c.ranks, if c.matched() { "ok" } else { "FAIL" }))
                    .collect();
                let _ = writeln!(
                    out,
                    "{:>4} {:<8} {:<15} {:>6} {:>24} {:>24}  {}",
                    p.site,
                    p.func.as_deref().unwrap_or("main"),
                    p.opcode,
                    execs,
                    p.model.messages_formula(),
                    p.model.bytes_formula(),
                    checks.join(" "),
                );
            }
            if !app.in_place.is_empty() {
                let _ = writeln!(out, "in-place updatable: {}", app.in_place.join(", "));
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(
            out,
            "analyze: {} app(s) at p={{{}}}: oracle {}",
            self.apps.len(),
            self.ranks
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
            if self.matched() { "EXACT" } else { "MISMATCH" },
        );
        out
    }

    /// Export as [`ANALYZE_SCHEMA`] JSON.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(ANALYZE_SCHEMA.to_string())),
            ("scale".to_string(), Json::Str(self.scale.clone())),
            ("machine".to_string(), Json::Str(self.machine.clone())),
            (
                "ranks".to_string(),
                Json::Arr(self.ranks.iter().map(|&p| Json::Num(p as f64)).collect()),
            ),
            ("matched".to_string(), Json::Bool(self.matched())),
            (
                "apps".to_string(),
                Json::Arr(self.apps.iter().map(app_json).collect()),
            ),
        ])
    }
}

fn app_json(app: &AppAnalysis) -> Json {
    Json::Obj(vec![
        ("app".to_string(), Json::Str(app.app.clone())),
        ("matched".to_string(), Json::Bool(app.matched())),
        (
            "shape_errors".to_string(),
            Json::Num(app.shape_errors as f64),
        ),
        (
            "in_place".to_string(),
            Json::Arr(app.in_place.iter().map(|v| Json::Str(v.clone())).collect()),
        ),
        (
            "sites".to_string(),
            Json::Arr(
                app.sites
                    .iter()
                    .map(|row| {
                        let p = &row.prediction;
                        Json::Obj(vec![
                            ("site".to_string(), Json::Num(f64::from(p.site))),
                            (
                                "scope".to_string(),
                                Json::Str(p.func.clone().unwrap_or_else(|| "main".to_string())),
                            ),
                            ("opcode".to_string(), Json::Str(p.opcode.to_string())),
                            ("loop_depth".to_string(), Json::Num(f64::from(p.loop_depth))),
                            (
                                "static_execs".to_string(),
                                match p.execs {
                                    Execs::Static(n) => Json::Num(n as f64),
                                    Execs::Dynamic => Json::Null,
                                },
                            ),
                            (
                                "messages_formula".to_string(),
                                Json::Str(p.model.messages_formula()),
                            ),
                            (
                                "bytes_formula".to_string(),
                                Json::Str(p.model.bytes_formula()),
                            ),
                            (
                                "checks".to_string(),
                                Json::Arr(row.checks.iter().map(check_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn check_json(c: &SiteCheck) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, |n| Json::Num(n as f64));
    Json::Obj(vec![
        ("ranks".to_string(), Json::Num(c.ranks as f64)),
        ("execs".to_string(), Json::Num(c.execs as f64)),
        ("predicted_messages".to_string(), opt(c.predicted_messages)),
        ("predicted_bytes".to_string(), opt(c.predicted_bytes)),
        (
            "measured_messages".to_string(),
            Json::Num(c.measured_messages as f64),
        ),
        (
            "measured_bytes".to_string(),
            Json::Num(c.measured_bytes as f64),
        ),
        ("matched".to_string(), Json::Bool(c.matched())),
    ])
}

/// Compile each selected app with the oracle on, run the modeled
/// execution at every requested rank count, and verify site by site.
pub fn run_analyze(spec: &AnalyzeSpec) -> Result<AnalyzeReport, OtterError> {
    let machine = meiko_cs2();
    let apps: Vec<_> = spec
        .scale
        .apps()
        .into_iter()
        .filter(|a| spec.app_id == "all" || a.id == spec.app_id)
        .collect();

    let mut out = Vec::with_capacity(apps.len());
    for app in &apps {
        let opts = EngineOptions::builder().analyze(true).build();
        let artifact = compile(&app.script, &opts)?;
        let compiled = artifact.compiled();

        let mut sites: Vec<SiteRow> = compiled
            .analysis
            .iter()
            .map(|p| SiteRow {
                prediction: p.clone(),
                checks: Vec::with_capacity(spec.ranks.len()),
            })
            .collect();

        for &p in &spec.ranks {
            let report = run(&artifact, &RunRequest::on(machine.clone(), p))?;
            assert_eq!(
                report.comm_sites.len(),
                sites.len(),
                "{}: executor and oracle disagree on the site count",
                app.id
            );
            for (row, measured) in sites.iter_mut().zip(&report.comm_sites) {
                let per_exec = row.prediction.model.per_exec(p);
                row.checks.push(SiteCheck {
                    ranks: p,
                    execs: measured.execs,
                    predicted_messages: per_exec.map(|c| c.messages * measured.execs),
                    predicted_bytes: per_exec.map(|c| c.bytes * measured.execs),
                    measured_messages: measured.messages,
                    measured_bytes: measured.bytes,
                });
            }
        }

        let mut in_place: Vec<String> = compiled
            .ir
            .in_place
            .iter()
            .map(|v| format!("main: {v}"))
            .collect();
        for (name, f) in &compiled.ir.functions {
            in_place.extend(f.in_place.iter().map(|v| format!("{name}: {v}")));
        }
        let shape_errors = compiled
            .lint
            .warnings
            .iter()
            .filter(|w| w.pass == "shape")
            .count();

        out.push(AppAnalysis {
            app: app.id.to_string(),
            sites,
            in_place,
            shape_errors,
        });
    }

    Ok(AnalyzeReport {
        scale: spec.scale.name().to_string(),
        machine: machine.name.to_string(),
        ranks: spec.ranks.clone(),
        apps: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_oracle_is_exact_and_exports_schema() {
        let spec = AnalyzeSpec {
            app_id: "cg".to_string(),
            ranks: vec![1, 4],
            ..AnalyzeSpec::default()
        };
        let report = run_analyze(&spec).expect("analyze runs");
        assert_eq!(report.apps.len(), 1);
        assert!(report.matched(), "{}", report.render());
        assert_eq!(report.apps[0].shape_errors, 0);
        let json = report.to_json();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some(ANALYZE_SCHEMA)
        );
        assert_eq!(json.get("matched").and_then(Json::as_bool), Some(true));
    }
}
