//! End-to-end pipeline tests: compile → SPMD-execute → compare against
//! the interpreter oracle at several processor counts.

use crate::*;
use otter_frontend::MapProvider;
use otter_machine::{enterprise_smp, meiko_cs2, sparc20_cluster, workstation};
use otter_rt::Dense;

/// Compile a script and execute on `p` CPUs; panic on any failure.
fn otter(src: &str, p: usize) -> EngineReport {
    let compiled = compile_str(src).unwrap_or_else(|e| panic!("compile: {e}\n{src}"));
    run(&compiled, &RunRequest::on(meiko_cs2(), p))
        .unwrap_or_else(|e| panic!("exec(p={p}): {e}\n{src}"))
}

/// Oracle comparison: compiled result equals interpreter result for
/// every listed variable, at several processor counts.
fn check_matches_interpreter(src: &str, vars: &[&str]) {
    let base = run_engine(
        Engine::Interpreter,
        src,
        &EngineOptions::default(),
        &workstation(),
        1,
    )
    .unwrap_or_else(|e| panic!("interp: {e}\n{src}"));
    for p in [1usize, 2, 3, 4, 8] {
        let run = otter(src, p);
        for v in vars {
            let a = base
                .workspace
                .get(*v)
                .unwrap_or_else(|| panic!("interp lacks {v}"));
            let b = run
                .workspace
                .get(*v)
                .unwrap_or_else(|| panic!("otter lacks {v}"));
            match (a.to_matrix(), b.to_matrix()) {
                (Some(ma), Some(mb)) => {
                    assert_eq!(
                        (ma.rows(), ma.cols()),
                        (mb.rows(), mb.cols()),
                        "{v} shape, p={p}"
                    );
                    for (x, y) in ma.data().iter().zip(mb.data()) {
                        assert!(
                            (x - y).abs() <= 1e-9 * (1.0 + x.abs()),
                            "{v}: {x} vs {y} (p={p})"
                        );
                    }
                }
                _ => panic!("{v} not numeric"),
            }
        }
    }
}

#[test]
fn scalar_pipeline() {
    let run = otter("x = 2 + 3 * 4;\ny = x ^ 2;", 2);
    assert_eq!(run.scalar("x"), Some(14.0));
    assert_eq!(run.scalar("y"), Some(196.0));
}

#[test]
fn paper_example_compiles_and_runs() {
    // a = b * c + d(i,j) — the §3 running example, end to end.
    let src = "n = 6;\nb = ones(n, n);\nc = ones(n, n);\nd = eye(n);\ni = 1;\nj = 1;\na = b * c + d(i, j);\ns = sum(sum(a));";
    check_matches_interpreter(src, &["a", "s"]);
}

#[test]
fn paper_owner_store_example() {
    let src = "n = 5;\na = ones(n, n);\nb = ones(n, n);\nb(2, 3) = 4;\ni = 2;\nj = 3;\na(i, j) = a(i, j) / b(j, i);\ns = sum(sum(a));";
    check_matches_interpreter(src, &["a", "s"]);
}

#[test]
fn elementwise_fusion_matches() {
    let src = "n = 7;\nx = ones(n, 1);\ny = 2 * x + x .* x - x / 4;\ns = sum(y);";
    check_matches_interpreter(src, &["y", "s"]);
}

#[test]
fn matvec_and_dot() {
    let src = "n = 8;\nA = eye(n);\nv = ones(n, 1);\nw = A * v;\nd = v' * w;";
    check_matches_interpreter(src, &["w", "d"]);
}

#[test]
fn transpose_roundtrip() {
    let src = "a = [1, 2, 3; 4, 5, 6];\nb = a';\nc = b';\ns = sum(sum(c - a));";
    check_matches_interpreter(src, &["b", "s"]);
}

#[test]
fn control_flow_loops() {
    let src = "s = 0;\nfor i = 1:50\nif mod(i, 3) == 0\ns = s + i;\nend\nend\nk = 0;\nwhile k < 10\nk = k + 2;\nend";
    check_matches_interpreter(src, &["s", "k"]);
}

#[test]
fn ranges_and_reductions() {
    let src = "v = 1:100;\ns = sum(v);\nm = mean(v);\nx = max(v);\nn2 = norm(v);";
    check_matches_interpreter(src, &["s", "m", "x", "n2"]);
}

#[test]
fn row_and_column_slices() {
    let src = "a = [1, 2, 3; 4, 5, 6; 7, 8, 9];\nr = a(2, :);\nc = a(:, 3);\na(1, :) = r;\na(:, 2) = c;\ns = sum(sum(a));";
    check_matches_interpreter(src, &["r", "c", "a", "s"]);
}

#[test]
fn vector_range_extraction() {
    let src = "v = 10:10:100;\nw = v(3:7);\ns = sum(w);";
    check_matches_interpreter(src, &["w", "s"]);
}

#[test]
fn circshift_compiled() {
    let src = "v = 1:9;\nw = circshift(v, 2);\nu = circshift(v, -4);\ns = sum(w .* u);";
    check_matches_interpreter(src, &["w", "u", "s"]);
}

#[test]
fn trapz_compiled() {
    let src = "x = 0:10;\ny = x .* x;\na = trapz(y);\nb = trapz2(x, y);";
    check_matches_interpreter(src, &["a", "b"]);
}

#[test]
fn user_functions_compiled() {
    let m = MapProvider::new()
        .with("scale2", "function y = scale2(v, s)\ny = v .* s;\n")
        .with(
            "norm_diff",
            "function d = norm_diff(a, b)\nd = norm(a - b);\n",
        );
    let src = "v = ones(6, 1);\nw = scale2(v, 3);\nd = norm_diff(w, v);";
    let opts = EngineOptions {
        m_files: Some(m.clone()),
        ..Default::default()
    };
    let base = run_engine(Engine::Interpreter, src, &opts, &workstation(), 1).unwrap();
    let run = run_engine(Engine::Otter, src, &opts, &meiko_cs2(), 3).unwrap();
    assert_eq!(base.scalar("d"), run.scalar("d"));
    assert!((run.scalar("d").unwrap() - (2.0f64 * 2.0 * 6.0).sqrt()).abs() < 1e-12);
}

#[test]
fn outer_product_compiled() {
    let src = "u = [1; 2; 3];\nv = [4, 5];\nm = u * v;\ns = sum(sum(m));";
    check_matches_interpreter(src, &["m", "s"]);
}

#[test]
fn matrix_sum_columns() {
    let src = "a = [1, 2; 3, 4; 5, 6];\ncs = sum(a);\ncm = mean(a);";
    check_matches_interpreter(src, &["cs", "cm"]);
}

#[test]
fn ssa_rank_change_through_pipeline() {
    let src = "x = 2;\ny = x + 1;\nx = [1, 2, 3];\nz = x(2) + y;";
    check_matches_interpreter(src, &["z"]);
}

#[test]
fn end_keyword_in_compiled_code() {
    let src = "v = 1:10;\na = v(end);\nb = v(end - 3);\nw = v(2:end);\ns = sum(w);";
    check_matches_interpreter(src, &["a", "b", "s"]);
}

#[test]
fn display_output_on_root_only() {
    let compiled = compile_str("x = 41 + 1\n").unwrap();
    let run = run(&compiled, &RunRequest::on(meiko_cs2(), 4)).unwrap();
    assert!(run.output.contains("x ="), "{}", run.output);
    assert!(run.output.contains("42"), "{}", run.output);
}

#[test]
fn c_source_contains_runtime_calls() {
    let compiled = compile_str(
        "n = 4;\nb = ones(n, n);\nc = ones(n, n);\nd = eye(n);\ni = 2;\nj = 2;\na = b * c + d(i, j);",
    )
    .unwrap();
    let c = &compiled.compiled().c_source;
    assert!(c.contains("ML_matrix_multiply"), "{c}");
    assert!(c.contains("ML_broadcast"), "{c}");
    assert!(c.contains("realbase["), "{c}");
    assert!(c.contains("int main(int argc, char **argv)"), "{c}");
}

#[test]
fn peephole_reduces_instruction_count() {
    let src = "n = 32;\nv = ones(n, 1);\nw = ones(n, 1);\nd = sum(v .* w);";
    let with = compile_str(src).unwrap();
    let without = compile(
        src,
        &EngineOptions::builder().disable_pass("peephole").build(),
    )
    .unwrap();
    let stats = with.compiled().peephole_stats;
    assert!(stats.dots_fused >= 1, "{stats:?}");
    assert!(with.compiled().ir.instr_count() < without.compiled().ir.instr_count());
    // Same answer either way.
    let a = run(&with, &RunRequest::on(meiko_cs2(), 4)).unwrap();
    let b = run(&without, &RunRequest::on(meiko_cs2(), 4)).unwrap();
    assert_eq!(a.scalar("d"), b.scalar("d"));
    assert_eq!(a.scalar("d"), Some(32.0));
}

#[test]
fn modeled_speedup_on_compute_bound_code() {
    // A big matmul should speed up with more CPUs on the Meiko.
    let src = "n = 64;\na = ones(n, n);\nb = ones(n, n);\nc = a * b;\ns = sum(sum(c));";
    let compiled = compile_str(src).unwrap();
    let t1 = run(&compiled, &RunRequest::on(meiko_cs2(), 1))
        .unwrap()
        .modeled_seconds;
    let t8 = run(&compiled, &RunRequest::on(meiko_cs2(), 8))
        .unwrap()
        .modeled_seconds;
    assert!(t8 < t1 / 3.0, "t1={t1} t8={t8}");
}

#[test]
fn interpreter_slower_than_compiled_modeled() {
    let src = "n = 50;\ns = 0;\nfor i = 1:n\ns = s + i * i;\nend";
    let opts = EngineOptions::default();
    let interp = run_engine(Engine::Interpreter, src, &opts, &workstation(), 1).unwrap();
    let matcom = run_engine(Engine::Matcom, src, &opts, &workstation(), 1).unwrap();
    let compiled = compile_str(src).unwrap();
    let otter = run(&compiled, &RunRequest::on(workstation(), 1)).unwrap();
    assert!(interp.modeled_seconds > matcom.modeled_seconds);
    assert!(matcom.modeled_seconds > otter.modeled_seconds * 0.1);
    assert_eq!(interp.scalar("s"), otter.scalar("s"));
}

#[test]
fn cluster_flattens_on_fine_grain_code() {
    // O(n) work with reductions every iteration: the Ethernet cluster
    // should benefit far less than the Meiko.
    let src = "n = 2000;\nv = ones(n, 1);\ns = 0;\nfor it = 1:5\ns = s + sum(v);\nend";
    let compiled = compile_str(src).unwrap();
    let meiko_1 = run(&compiled, &RunRequest::on(meiko_cs2(), 1))
        .unwrap()
        .modeled_seconds;
    let meiko_8 = run(&compiled, &RunRequest::on(meiko_cs2(), 8))
        .unwrap()
        .modeled_seconds;
    let cl_1 = run(&compiled, &RunRequest::on(sparc20_cluster(), 1))
        .unwrap()
        .modeled_seconds;
    let cl_8 = run(&compiled, &RunRequest::on(sparc20_cluster(), 8))
        .unwrap()
        .modeled_seconds;
    let meiko_speedup = meiko_1 / meiko_8;
    let cluster_speedup = cl_1 / cl_8;
    assert!(
        meiko_speedup > cluster_speedup,
        "meiko {meiko_speedup} vs cluster {cluster_speedup}"
    );
}

#[test]
fn smp_limits_enforced() {
    let compiled = compile_str("x = 1;").unwrap();
    assert!(run(&compiled, &RunRequest::on(enterprise_smp(), 8)).is_ok());
}

#[test]
fn if_elseif_chain_compiled() {
    for (x, expect) in [(-3.0, -1.0), (0.0, 0.0), (9.0, 1.0)] {
        let src = format!("x = {x};\nif x < 0\ny = -1;\nelseif x == 0\ny = 0;\nelse\ny = 1;\nend");
        let run = otter(&src, 2);
        assert_eq!(run.scalar("y"), Some(expect), "x={x}");
    }
}

#[test]
fn load_through_pipeline() {
    let dir = std::env::temp_dir().join(format!("otter_core_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let m = Dense::from_vec(4, 3, (0..12).map(f64::from).collect());
    otter_rt::io::write_matrix_file(&dir.join("input.dat"), &m).unwrap();
    let src = "d = load('input.dat');\ns = sum(sum(d));";
    let opts = EngineOptions {
        data_dir: Some(dir.clone()),
        ..Default::default()
    };
    let run = run_engine(Engine::Otter, src, &opts, &meiko_cs2(), 3).unwrap();
    assert_eq!(run.scalar("s"), Some(66.0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn matlab_column_reduction_conventions() {
    // max/min/prod/any/all follow sum's vector-vs-matrix conventions
    // in both engines.
    let src = "\
a = [1, 5; 3, 2; 4, 9];
cmax = max(a);
cmin = min(a);
cprod = prod(a);
cany = any(a - 1);
call_ = all(a - 1);
v = [2, 0, 7];
vmax = max(v);
vprod = prod(v);
vany = any(v);
vall = all(v);
s1 = sum(cmax) + sum(cmin) + sum(cprod);
s2 = sum(cany) + sum(call_);
";
    check_matches_interpreter(src, &["vmax", "vprod", "vany", "vall", "s1", "s2"]);
    let run = otter(src, 3);
    assert_eq!(run.matrix("cmax").unwrap().data(), &[4.0, 9.0]);
    assert_eq!(run.matrix("cmin").unwrap().data(), &[1.0, 2.0]);
    assert_eq!(run.matrix("cprod").unwrap().data(), &[12.0, 90.0]);
    assert_eq!(run.scalar("vmax"), Some(7.0));
    assert_eq!(run.scalar("vprod"), Some(0.0));
    assert_eq!(run.scalar("vany"), Some(1.0));
    assert_eq!(run.scalar("vall"), Some(0.0));
}

#[test]
fn any_all_on_predicates() {
    let src = "\
v = 1:10;
bigv = any(v > 8);
allpos = all(v > 0);
nonebig = any(v > 100);
";
    check_matches_interpreter(src, &["bigv", "allpos", "nonebig"]);
    let run = otter(src, 4);
    assert_eq!(run.scalar("bigv"), Some(1.0));
    assert_eq!(run.scalar("allpos"), Some(1.0));
    assert_eq!(run.scalar("nonebig"), Some(0.0));
}

#[test]
fn strided_indexing_compiled() {
    let src = "\
v = 1:20;
odds = v(1:2:end);
rev = v(end:-3:1);
s1 = sum(odds);
s2 = sum(rev);
";
    check_matches_interpreter(src, &["odds", "rev", "s1", "s2"]);
}

#[test]
fn scalar_slice_fills_compiled() {
    let src = "\
a = ones(5, 4);
a(2, :) = 0;
a(:, 3) = 7;
v = 1:10;
v(3:6) = -1;
w = 1:10;
w(4:7) = [40, 50, 60, 70];
s = sum(sum(a)) + sum(v) + sum(w);
";
    check_matches_interpreter(src, &["a", "v", "w", "s"]);
}

#[test]
fn linear_indexing_on_matrices_is_column_major() {
    let src = "\
a = [1, 4; 2, 5; 3, 6];
x = a(2);
y = a(5);
a(6) = 99;
s = sum(sum(a));
";
    check_matches_interpreter(src, &["x", "y", "s"]);
    let run = otter(src, 3);
    assert_eq!(run.scalar("x"), Some(2.0), "column-major linear index");
    assert_eq!(run.scalar("y"), Some(5.0));
}

#[test]
fn nested_function_calls_compiled() {
    let m = MapProvider::new()
        .with("double_it", "function y = double_it(x)\ny = x * 2;\n")
        .with(
            "quadruple",
            "function y = quadruple(x)\ny = double_it(double_it(x));\n",
        );
    let src = "v = ones(5, 1);\nw = quadruple(v);\ns = sum(w);";
    let opts = EngineOptions {
        m_files: Some(m),
        ..Default::default()
    };
    let run = run_engine(Engine::Otter, src, &opts, &meiko_cs2(), 3).unwrap();
    assert_eq!(run.scalar("s"), Some(20.0));
}

#[test]
fn function_with_control_flow_compiled() {
    let m = MapProvider::new().with(
        "clampv",
        "function y = clampv(v, lo, hi)\ny = min(max(v, lo), hi);\n",
    );
    let src = "v = -3:3;\nw = clampv(v, -1, 2);\ns = sum(w);";
    let opts = EngineOptions {
        m_files: Some(m.clone()),
        ..Default::default()
    };
    let base = run_engine(Engine::Interpreter, src, &opts, &workstation(), 1).unwrap();
    let run = run_engine(Engine::Otter, src, &opts, &meiko_cs2(), 4).unwrap();
    assert_eq!(base.scalar("s"), run.scalar("s"));
    assert_eq!(run.scalar("s"), Some(2.0)); // -1 + -1 + -1 + 0 + 1 + 2 + 2
}

#[test]
fn deeply_nested_control_flow() {
    let src = "\
total = 0;
for i = 1:4
  for j = 1:4
    if mod(i + j, 2) == 0
      for k = 1:3
        if k == 2
          continue;
        end
        total = total + i * 100 + j * 10 + k;
      end
    else
      while total < 0
        total = total + 1;
      end
    end
  end
end
";
    check_matches_interpreter(src, &["total"]);
}

#[test]
fn function_called_with_two_shapes() {
    // The signature must widen to cover both call sites (a bug the
    // property tests caught: re-inference previously used only the
    // second call's shapes).
    let m = MapProvider::new().with("total", "function s = total(v)\ns = sum(v);\n");
    let src = "a = total(ones(6, 1));\nb = total(ones(9, 1));\nc = a + b;";
    let opts = EngineOptions {
        m_files: Some(m),
        ..Default::default()
    };
    let run = run_engine(Engine::Otter, src, &opts, &meiko_cs2(), 3).unwrap();
    assert_eq!(run.scalar("c"), Some(15.0));
}

#[test]
fn while_with_reduction_condition_through_pipeline() {
    // Regression for the DCE-vs-while-condition liveness bug: the
    // pre-block reduction feeding the loop test must survive pass 6.
    let src = "\
n = 64;
r = ones(n, 1);
it = 0;
while norm(r) > 0.04 * n
  r = r / 2;
  it = it + 1;
end
final = norm(r);
";
    check_matches_interpreter(src, &["it", "final"]);
    let run = otter(src, 4);
    assert!(run.scalar("it").unwrap() >= 1.0);
}

#[test]
fn per_rank_memory_shrinks_with_p() {
    // Paper §7: "a parallel computer may have far more primary memory
    // than an individual workstation" — each rank holds ~1/p of every
    // matrix.
    let src =
        "n = 128;\nu = (1:n) / n;\nA = u' * u + n * eye(n);\nb = A * ones(n, 1);\ns = norm(b);";
    let compiled = compile_str(src).unwrap();
    let p1 = run(&compiled, &RunRequest::on(meiko_cs2(), 1))
        .unwrap()
        .peak_rank_bytes;
    let p8 = run(&compiled, &RunRequest::on(meiko_cs2(), 8))
        .unwrap()
        .peak_rank_bytes;
    let ratio = p1 as f64 / p8 as f64;
    assert!(
        (6.0..10.0).contains(&ratio),
        "peak per-rank memory must scale ~1/p: p1={p1} p8={p8} ratio={ratio}"
    );
}

#[test]
fn temporaries_are_freed() {
    // Sequential temporary-heavy code must not accumulate temps: peak
    // stays near one live matrix, not the sum of all intermediates.
    let n = 64usize;
    let src = format!(
        "n = {n};\na = ones(n, n);\nfor it = 1:10\na = a + ones(n, n) * 0.1;\nend\ns = sum(sum(a));"
    );
    let compiled = compile_str(&src).unwrap();
    assert!(
        compiled.compiled().ir_text().contains("free "),
        "frees must be inserted:\n{}",
        compiled.compiled().ir_text()
    );
    let run = run(&compiled, &RunRequest::on(meiko_cs2(), 1)).unwrap();
    let one_matrix = n * n * 8;
    assert!(
        run.peak_rank_bytes < 4 * one_matrix,
        "peak {} should be a few matrices, not 11+ ({})",
        run.peak_rank_bytes,
        11 * one_matrix
    );
}

#[test]
fn engine_reports_are_consistent() {
    // All three engines agree numerically and report sane counters on
    // the same script.
    let src = "n = 16;\na = ones(n, n);\nb = a * a;\ns = sum(sum(b));";
    let mut reports = Vec::new();
    for engine in Engine::ALL {
        let r = run_engine(engine, src, &EngineOptions::default(), &meiko_cs2(), 4).unwrap();
        assert_eq!(r.scalar("s"), Some((16 * 16 * 16) as f64), "{}", r.engine);
        assert!(r.total_ops() > 0, "{}: op_counts empty", r.engine);
        assert!(r.modeled_seconds > 0.0, "{}", r.engine);
        assert!(!r.per_rank.is_empty(), "{}", r.engine);
        reports.push(r);
    }
    let otter = reports.iter().find(|r| r.engine == "otter").unwrap();
    assert!(otter.messages > 0, "matmul on 4 ranks must communicate");
    assert!(otter.bytes > 0);
    assert_eq!(otter.per_rank.len(), 4);
    let per_rank_total: u64 = otter.per_rank.iter().map(|r| r.messages).sum();
    assert_eq!(per_rank_total, otter.messages, "per-rank sums to total");
    for r in &reports {
        if r.engine != "otter" {
            assert_eq!(r.messages, 0, "{} is sequential", r.engine);
            assert_eq!(r.per_rank.len(), 1);
        }
    }
}

#[test]
fn otter_counts_per_ir_opcode() {
    let src = "n = 8;\na = ones(n, n);\nb = a * a;\ns = sum(sum(b));";
    let compiled = compile_str(src).unwrap();
    let run = run(&compiled, &RunRequest::on(meiko_cs2(), 2)).unwrap();
    assert!(
        run.op_counts.get("matmul").copied().unwrap_or(0) >= 1,
        "{:?}",
        run.op_counts
    );
    assert!(
        run.op_counts.get("init-matrix").copied().unwrap_or(0) >= 1,
        "{:?}",
        run.op_counts
    );
}

#[test]
fn peak_temp_bytes_reported() {
    let src = "n = 32;\na = ones(n, n);\nb = a + a;\ns = sum(sum(b));";
    let compiled = compile_str(src).unwrap();
    let run = run(&compiled, &RunRequest::on(meiko_cs2(), 1)).unwrap();
    // At least one full n×n matrix was live at peak.
    assert!(
        run.peak_temp_bytes >= 32 * 32 * 8,
        "peak_temp={}",
        run.peak_temp_bytes
    );
    assert!(run.peak_temp_bytes >= run.peak_rank_bytes / 2);
}

#[test]
fn traced_engines_emit_statement_and_phase_events() {
    use otter_trace::{EventKind, MemorySink, TraceSink};
    use std::sync::Arc;
    let src = "n = 16;\na = ones(n, n);\nb = a * a;\ns = sum(sum(b));";

    // Sequential engines (interpreter + matcom) span every MATLAB
    // statement on rank 0.
    for engine in [Engine::Interpreter, Engine::Matcom] {
        let style = engine.name();
        let sink = Arc::new(MemorySink::new());
        let opts = EngineOptions::builder().trace(Arc::clone(&sink)).build();
        run_engine(engine, src, &opts, &meiko_cs2(), 1).unwrap();
        let events = sink.snapshot().unwrap();
        assert!(!events.is_empty(), "{style}: no events");
        assert!(
            events
                .iter()
                .all(|e| e.rank == 0 && matches!(e.kind, EventKind::Statement { .. })),
            "{style}: sequential traces are rank-0 statement spans"
        );
        // Four top-level statements, executed once each.
        assert_eq!(events.len(), 4, "{style}");
    }

    // The SPMD engine layers IR-statement spans, runtime phases, and
    // collective/primitive events.
    let sink = Arc::new(MemorySink::new());
    let opts = EngineOptions::builder().trace(Arc::clone(&sink)).build();
    run_engine(Engine::Otter, src, &opts, &meiko_cs2(), 4).unwrap();
    let events = sink.snapshot().unwrap();
    let has = |pred: &dyn Fn(&otter_trace::TraceEvent) -> bool| events.iter().any(pred);
    assert!(has(&|e| matches!(e.kind, EventKind::Statement { .. })));
    assert!(has(
        &|e| matches!(e.kind, EventKind::Phase { name } if name == "ML_matrix_multiply")
    ));
    assert!(has(&|e| matches!(e.kind, EventKind::Collective { .. })));
    assert!(has(&|e| matches!(e.kind, EventKind::Send { .. })));
}

#[test]
fn disabled_tracing_changes_nothing() {
    use otter_trace::{MemorySink, TraceSink};
    use std::sync::Arc;
    // A traced run and an untraced run of the same program model the
    // exact same time and counters: tracing is observation only.
    let src = "n = 16;\na = ones(n, n);\nb = a * a;\ns = sum(sum(b));";
    let plain = otter(src, 4);
    let sink = Arc::new(MemorySink::new());
    let opts = EngineOptions::builder().trace(Arc::clone(&sink)).build();
    let traced = run_engine(Engine::Otter, src, &opts, &meiko_cs2(), 4).unwrap();
    assert_eq!(plain.modeled_seconds, traced.modeled_seconds);
    assert_eq!(plain.messages, traced.messages);
    assert_eq!(plain.bytes, traced.bytes);
    assert!(plain.critical_path.is_none());
    assert!(traced.critical_path.is_some());
    assert!(sink.snapshot().unwrap().len() > 100);
}

/// Every pass recurses over the tree the parser built; the parser's
/// depth cap must leave all of them room on the 2 MiB stack of an
/// `otterd` connection thread, in this unoptimised build.
#[test]
fn nesting_at_the_parser_cap_compiles_end_to_end() {
    let compile_on_small_stack = |src: String| {
        let opts = EngineOptions::builder().analyze(true).build();
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || compile(&src, &opts))
            .unwrap()
            .join()
            .expect("no pass may overflow its stack")
    };
    let cap = otter_frontend::parser::MAX_NESTING;
    let wrap = |open: &str, close: &str, n: usize| {
        format!(
            "v = ones(4, 1);\nx = {}v{};",
            open.repeat(n),
            close.repeat(n)
        )
    };
    for (open, close) in [("abs(", ")"), ("-", ""), ("", " + v"), ("", "'")] {
        let at_cap = compile_on_small_stack(wrap(open, close, cap - 1));
        at_cap.unwrap_or_else(|e| panic!("{open}…{close} at the cap: {e}"));
        let err = compile_on_small_stack(wrap(open, close, 10_000)).unwrap_err();
        let expected = format!("nesting deeper than {cap}");
        assert!(err.to_string().starts_with("error[parse] 2:"), "{err}");
        assert!(err.to_string().ends_with(&expected), "{err}");
    }
    // Blocks around `x + 1`, itself two levels.
    let blocks = format!(
        "x = 0;\n{}x = x + 1;\n{}",
        "if x < 1\n".repeat(cap - 2),
        "end\n".repeat(cap - 2)
    );
    compile_on_small_stack(blocks).expect("blocks at the cap");
}
