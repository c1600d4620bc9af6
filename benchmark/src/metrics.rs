//! Metric names and units, and the result line of one run.
//!
//! `BENCHMARK.json` lists the same names with direction and bound; a
//! unit test keeps the two in step, and [`Metrics::finish`] refuses a
//! run that emitted any other set.

use otter_metrics::Json;

/// End-to-end metrics `(name, unit)`, measured with tracing off and
/// emitted by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("jobs_per_s", "1/s"),
    ("compile_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, emitted by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // otter-frontend, otter-analysis, otter-codegen, otter-lint: the
    // workload's script set through the passes, called one by one.
    ("frontend.parse_us", "us"),
    ("frontend.tokens_per_s", "1/s"),
    ("analysis.resolve_us", "us"),
    ("analysis.ssa_infer_us", "us"),
    ("codegen.lower_us", "us"),
    ("codegen.peephole_us", "us"),
    ("codegen.frees_us", "us"),
    ("codegen.fusion_us", "us"),
    ("codegen.emit_c_us", "us"),
    ("codegen.ir_instrs", "count"),
    ("codegen.fused_ops", "count"),
    ("codegen.temps_eliminated", "count"),
    ("codegen.c_bytes", "bytes"),
    ("lint.us", "us"),
    // otter-core
    ("core.compile_self_us", "us"),
    ("core.run_floor_us.p1", "us"),
    ("core.run_floor_us.p4", "us"),
    ("core.dispatch_ns_per_op", "ns"),
    ("core.ew_ns_per_elem", "ns"),
    ("core.ew_overhead_ratio", "ratio"),
    ("core.ops_total", "count"),
    ("core.spmd_wall_ratio", "ratio"),
    // otter-rt, against the host roofline measured in the same run
    ("rt.matmul_gflops", "GFLOP/s"),
    ("rt.matvec_gbps", "GB/s"),
    ("rt.ew_ns_per_elem.5k", "ns"),
    ("rt.ew_ns_per_elem.1m", "ns"),
    ("rt.reduce_gbps", "GB/s"),
    ("rt.dist_matvec_us.p4", "us"),
    ("rt.dist_matmul_ms.p4", "ms"),
    ("rt.transpose_us.p4", "us"),
    ("rt.gather_all_us.p4", "us"),
    ("rt.kernel_share", "ratio"),
    ("host.triad_gbps", "GB/s"),
    ("host.fma_gflops", "GFLOP/s"),
    ("rt.matvec_roofline_share", "ratio"),
    ("rt.matmul_roofline_share", "ratio"),
    // otter-mpi
    ("mpi.spawn_us_per_rank", "us"),
    ("mpi.pingpong_us", "us"),
    ("mpi.bandwidth_gbps", "GB/s"),
    ("mpi.allreduce_us.p4", "us"),
    ("mpi.bcast_us.p4", "us"),
    ("mpi.barrier_us.p4", "us"),
    ("mpi.messages", "count"),
    ("mpi.bytes", "bytes"),
    // otter-machine
    ("machine.modeled_s", "s"),
    // otter-interp
    ("interp.run_ms_p50", "ms"),
    ("interp.speedup_geomean", "ratio"),
    // otter-serve
    ("serve.ping_us_p50", "us"),
    ("serve.overhead_us_p50", "us"),
    ("serve.warm_job_ms_p50", "ms"),
    ("serve.cold_job_ms_p50", "ms"),
    ("serve.run_ms_p50.r1", "ms"),
    ("serve.run_ms_p50.r2", "ms"),
    ("serve.run_ms_p50.r4", "ms"),
    ("serve.job_ms_p99", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    // otter-trace / otter-metrics, and the benchmark's own recorder
    ("obs.trace_overhead_share", "ratio"),
    ("obs.metrics_overhead_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    ("trace.run_share", "ratio"),
    ("trace.verify_share", "ratio"),
    ("trace.glue_share", "ratio"),
];

/// Metrics emitted so far by one run.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| n == name),
            "metric `{name}` emitted twice"
        );
        self.0.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Attach units in declaration order; an emitted set that differs
    /// from `declared`, or a non-finite value, is an error.
    pub fn finish(
        self,
        declared: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        if let Some((n, _)) = self
            .0
            .iter()
            .find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
        {
            return Err(format!("metric `{n}` is not declared"));
        }
        declared
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(v) if v.is_finite() => Ok((name, v, unit)),
                Some(v) => Err(format!("metric `{name}` is not finite: {v}")),
                None => Err(format!("metric `{name}` was not emitted")),
            })
            .collect()
    }
}

/// What one run of one workload reports.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The contract's result object (printed as the last stdout line).
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(value)),
                        ("unit".to_string(), Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }

    /// Parse a result line back (the suite driver reads its children).
    pub fn from_json(json: &Json, declared: &[(&'static str, &'static str)]) -> Option<Self> {
        let metrics = declared
            .iter()
            .map(|&(name, unit)| {
                let value = json.get("metrics")?.get(name)?.get("value")?.as_num()?;
                Some((name, value, unit))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunResult {
            correct: json.get("correct")?.as_bool()?,
            attempted: json.get("attempted")?.as_num()? as u64,
            failed: json.get("failed")?.as_num()? as u64,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("`{key}` array"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let mut seen = Vec::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(valid_unit(unit), "bad unit `{unit}` on `{name}`");
            assert!(!seen.contains(&name), "`{name}` declared twice");
            seen.push(name);
        }
        for (name, _) in crate::workloads::WORKLOADS {
            assert!(valid_name(name));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// Every run emits exactly the declared sets ([`Metrics::finish`]),
    /// so `BENCHMARK.json` equal to the declarations means every
    /// metric in it is emitted by a run.
    #[test]
    fn benchmark_json_lists_exactly_the_declared_metrics_and_workloads() {
        let json = benchmark_json();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&json, "per_layer"), own(PER_LAYER));
        let workloads: Vec<(String, String)> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        assert_eq!(workloads, own(&crate::workloads::WORKLOADS));
        for m in json.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_num).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = &json.get("end_to_end").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    }

    #[test]
    fn finish_refuses_missing_undeclared_and_non_finite_metrics() {
        let declared: &[(&'static str, &'static str)] = &[("a", "s"), ("b", "ms")];
        let mut m = Metrics::default();
        m.put("b", 2.0);
        m.put("a", 1.0);
        assert_eq!(
            m.finish(declared).unwrap(),
            vec![("a", 1.0, "s"), ("b", 2.0, "ms")]
        );
        let mut m = Metrics::default();
        m.put("a", 1.0);
        assert!(m
            .finish(declared)
            .unwrap_err()
            .contains("`b` was not emitted"));
        let mut m = Metrics::default();
        m.put("a", 1.0);
        m.put("b", f64::NAN);
        assert!(m.finish(declared).unwrap_err().contains("not finite"));
        let mut m = Metrics::default();
        m.put("zzz", 1.0);
        assert!(m.finish(declared).unwrap_err().contains("not declared"));
    }

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![("a", 1.2034, "ms")],
        };
        let line = r.to_json().to_string();
        assert!(line.starts_with(r#"{"correct":true,"attempted":1000,"failed":0,"#));
        let back = RunResult::from_json(&Json::parse(&line).unwrap(), &[("a", "ms")]).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!((back.attempted, back.failed, back.correct), (1000, 0, true));
    }
}
