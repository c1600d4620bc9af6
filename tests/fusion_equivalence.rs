//! Loop fusion is a pure optimization: for a fixed processor count it
//! may not change a single result bit, and it may only ever *lower*
//! the temporary-memory high-water mark. These properties let the
//! fusion pass default to on without invalidating any figure, golden
//! file, or cached artifact result. (Kernel tiling has the same
//! contract; `otter-rt`'s `kernels::tests::tile_size_never_changes_a_bit`
//! and `linalg::tests::matmul_bits_stable_across_tile_sizes` check it.)

use otter_core::engines::EngineOptionsBuilder;
use otter_core::{compile, run, EngineOptions, EngineReport, RunRequest};
use otter_machine::meiko_cs2;

/// An options builder with the loop-fusion pass on or off.
fn fusion(on: bool) -> EngineOptionsBuilder {
    let b = EngineOptions::builder();
    if on {
        b
    } else {
        b.disable_pass("fusion")
    }
}

/// FNV-1a over every result variable's dimensions and element bits —
/// byte-identical runs hash identically, any flipped bit does not.
fn result_fingerprint(app: &otter_apps::App, report: &EngineReport) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for v in &app.result_vars {
        eat(v.as_bytes());
        let m = report
            .workspace
            .get(*v)
            .and_then(|val| val.to_matrix())
            .unwrap_or_else(|| panic!("{}: missing result `{v}`", app.id));
        eat(&(m.rows() as u64).to_le_bytes());
        eat(&(m.cols() as u64).to_le_bytes());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                eat(&m.get(r, c).to_bits().to_le_bytes());
            }
        }
    }
    h
}

fn run_with(app: &otter_apps::App, opts: &EngineOptions, p: usize) -> EngineReport {
    let compiled =
        compile(&app.script, opts).unwrap_or_else(|e| panic!("{}: compile: {e}", app.id));
    run(&compiled, &RunRequest::on(meiko_cs2(), p))
        .unwrap_or_else(|e| panic!("{}: p={p}: {e}", app.id))
}

#[test]
fn fusion_never_changes_a_result_bit() {
    // Fusion off against fusion on (the default) at every processor
    // count, on all four benchmark apps: one fingerprint per (app, p).
    for app in otter_apps::test_apps() {
        for p in [1usize, 2, 4, 8] {
            let reference = result_fingerprint(&app, &run_with(&app, &EngineOptions::default(), p));
            let got = result_fingerprint(&app, &run_with(&app, &fusion(false).build(), p));
            assert_eq!(
                got, reference,
                "{} p={p}: fusion off changed result bits",
                app.id
            );
        }
    }
}

/// Shape and element bits of each of `names` in the workspace.
fn workspace_bits(report: &EngineReport, names: &[&str]) -> Vec<(usize, usize, Vec<u64>)> {
    names
        .iter()
        .map(|name| {
            let m = report.workspace[*name].to_matrix().expect("numeric");
            let bits = (0..m.rows())
                .flat_map(|r| (0..m.cols()).map(move |c| (r, c)))
                .map(|(r, c)| m.get(r, c).to_bits())
                .collect();
            (m.rows(), m.cols(), bits)
        })
        .collect()
}

#[test]
fn a_thousand_link_fused_chain_runs_and_matches_unfused_bits() {
    // Fusion folds an SSA-renamed chain into one 2 000-deep expression,
    // which the executor must run on a rank's stack (the caller's at
    // p = 1, a 1 MiB carrier at p = 4) in this unoptimised build, with
    // the unfused program's exact bits. The compile passes recurse over
    // that tree, so they get the 8 MiB of a main thread (`otterc`).
    // `x .* 0.5 + 1` converges to 2 within ~60 links; the second chain
    // adds one per pair and keeps every link's rounding in the bits.
    let chains = [
        "x = x .* 0.5 + 1;\n".repeat(1000),
        "x = x .* 0.5 + 1;\nx = x .* 2 - 1;\n".repeat(500),
    ];
    for chain in chains {
        let src = format!("x = (1:600) / 7;\n{chain}y = x;\n");
        let build = |on: bool| {
            let src = src.clone();
            std::thread::Builder::new()
                .stack_size(8 << 20)
                .spawn(move || compile(&src, &fusion(on).build()))
                .unwrap()
                .join()
                .expect("compile thread")
                .unwrap_or_else(|e| panic!("fusion={on}: {e}"))
        };
        let (fused, unfused) = (build(true), build(false));
        let chains = fused.compiled().fusion_stats.elemwise_chains;
        assert!(chains >= 999, "only {chains} links fused");
        for p in [1usize, 4] {
            let bits = |a| {
                let report = run(a, &RunRequest::on(meiko_cs2(), p));
                workspace_bits(
                    &report.unwrap_or_else(|e| panic!("p={p}: {e}")),
                    &["x", "y"],
                )
            };
            assert_eq!(bits(&fused), bits(&unfused), "p={p}");
        }
    }
}

#[test]
fn fusion_never_raises_the_workspace_peak() {
    // Fusion eliminates full-matrix temporaries; the per-rank
    // allocator high-water mark must never grow because of it.
    for app in otter_apps::test_apps() {
        for p in [1usize, 4] {
            let peak = |on: bool| {
                let opts = fusion(on).metrics(true).build();
                let report = run_with(&app, &opts, p);
                report
                    .metrics
                    .as_ref()
                    .and_then(|m| m.gauge("workspace_peak_bytes", &[]))
                    .unwrap_or_else(|| panic!("{}: no workspace_peak_bytes gauge", app.id))
            };
            let (fused, unfused) = (peak(true), peak(false));
            assert!(
                fused <= unfused,
                "{} p={p}: fusion raised the peak ({fused} > {unfused})",
                app.id
            );
        }
    }
}

/// `sum`/`mean`/`prod`/`max`/`min` of `a .* b` for three operand
/// pairs: a 7×5 matrix (7 rows leave remainder blocks at p = 3 and 4)
/// holding NaN, ±inf, ±0.0, subnormals, a product that overflows and
/// a column whose sum cancels differently in any other order, and
/// 1×5 and 5×1 vectors cut from that column. The vectors' shapes
/// hang on a value the compiler cannot fold, so they lower to column
/// reductions and take the run-time vector path.
fn col_reduce_script() -> (String, Vec<String>) {
    let mut src = String::from(
        "x = [1.5, 1e16, NaN, 0.1, 3; -2, 3, 4, -Inf, -0; 1e300, -1e16, -7, 2, 0.3; \
         0.7, 1, 5, 1, 1e-310; -0, 3, -1, 6, 9; 2.5, -8, 0.125, -3, 4; 1, 1, 1, 1, 1];\n\
         y = [2, 1, 1, 0.2, -1; -0, 1, -2, 2, 7; 1e300, 1, 0.5, -0, 2; \
         3, 1, 1e-10, -6, 0.5; 1, 0.1, 2, 2, -3; -1, 0.7, 8, 1e-310, 2; 0.3, 0.3, -4, 3, 0.1];\n\
         r = rand(1, 1);\n\
         k = 1 + floor(r(1) * 0);\n\
         xr = zeros(k, 5);\n yr = zeros(k, 5);\n xc = zeros(5, k);\n yc = zeros(5, k);\n\
         for j = 1:5\n\
           xr(1, j) = x(j, 2);\n yr(1, j) = y(j, 5);\n\
           xc(j, 1) = x(j, 2);\n yc(j, 1) = y(j, 2);\n\
         end\n",
    );
    let mut results = Vec::new();
    for (a, b) in [("x", "y"), ("xr", "yr"), ("xc", "yc")] {
        for op in ["sum", "mean", "prod", "max", "min"] {
            let name = format!("{op}_{a}");
            src.push_str(&format!("{name} = {op}({a} .* {b});\n"));
            results.push(name);
        }
    }
    (src, results)
}

#[test]
fn fused_column_reductions_keep_every_bit_and_message() {
    // F4 folds `a .* b` into per-column partials instead of
    // materializing it; the results, and the traffic, must not move.
    let (src, results) = col_reduce_script();
    let names: Vec<&str> = results.iter().map(String::as_str).collect();
    let fused = compile(&src, &EngineOptions::default()).unwrap_or_else(|e| panic!("{e}"));
    let unfused = compile(&src, &fusion(false).build()).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(fused.compiled().fusion_stats.col_reduce_epilogues, 15);
    for p in [1usize, 3, 4] {
        let go =
            |a| run(a, &RunRequest::on(meiko_cs2(), p)).unwrap_or_else(|e| panic!("p={p}: {e}"));
        let (f, u) = (go(&fused), go(&unfused));
        assert_eq!(
            workspace_bits(&f, &names),
            workspace_bits(&u, &names),
            "p={p}"
        );
        assert_eq!((f.messages, f.bytes), (u.messages, u.bytes), "p={p}");
        assert_eq!(f.op_counts["col-reduce-ew"], 15, "p={p}");
    }
}

#[test]
fn paper_ocean_materializes_one_field_not_two() {
    // `sum(sum(field .* field))` at paper scale: F4 never allocates the
    // nz×nt square, so the p = 1 allocator peak drops by a whole block.
    let params = otter_apps::ocean::Params::paper();
    let app = otter_apps::ocean::ocean_engineering(params);
    let peak = |on: bool| run_with(&app, &fusion(on).build(), 1).peak_temp_bytes;
    let (fused, unfused) = (peak(true), peak(false));
    let block = params.nz * params.nt * 8;
    assert!(
        fused + block <= unfused,
        "fused peak {fused} B is not a {block} B block below unfused {unfused} B"
    );
}

/// Fusion rule F5's shapes for an `n` only the run time knows: cg's
/// system matrix (two outer products and a scaled identity, with no
/// aligned operand), tc's `a + eye(n)`, and an outer product whose left
/// factor holds NaN, ±inf, −0.0 and a subnormal.
fn generator_script(n: usize) -> String {
    format!(
        "r = rand(1, 1);\n\
         n = {n} + floor(r(1) * 0);\n\
         s = 1.5 + floor(r(1) * 0);\n\
         u = (1:n) / n;\n\
         v = cos(u * 3);\n\
         w = sin(u * 5) - 0.25;\n\
         z = (n:-1:1) / 3;\n\
         g = u' * v + w' * z + s * eye(n);\n\
         a = rand(n, n);\n\
         c = a + eye(n);\n\
         e = u;\n\
         e(1) = NaN;\n\
         e(2) = Inf;\n\
         e(3) = -Inf;\n\
         e(4) = -0;\n\
         e(5) = 1e-310;\n\
         h = -(e' * v);\n"
    )
}

/// NaN's sign and payload after arithmetic are unspecified (the
/// optimizer may turn `-(a * b)` into `a * -b`), so a host-side
/// reference compares every NaN as one canonical NaN.
fn canonical(mut bits: Vec<(usize, usize, Vec<u64>)>) -> Vec<(usize, usize, Vec<u64>)> {
    for (_, _, m) in &mut bits {
        for b in m.iter_mut().filter(|b| f64::from_bits(**b).is_nan()) {
            *b = f64::NAN.to_bits();
        }
    }
    bits
}

/// `g`, `c` and `h` of [`generator_script`] recomputed on the host,
/// element by element, from the vectors and matrix in the workspace:
/// the unfused library calls and the generated lanes must both match.
fn generator_reference(report: &EngineReport) -> Vec<(usize, usize, Vec<u64>)> {
    let m = |name: &str| report.workspace[name].to_matrix().expect("numeric");
    let (u, v, w, z, e, a) = (m("u"), m("v"), m("w"), m("z"), m("e"), m("a"));
    let s = m("s").get(0, 0);
    let n = u.cols();
    let eye = |i: usize, j: usize| f64::from(i == j);
    let square = |f: &dyn Fn(usize, usize) -> f64| {
        let bits = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| f(i, j).to_bits())
            .collect();
        (n, n, bits)
    };
    canonical(vec![
        square(&|i, j| (u.get(0, i) * v.get(0, j) + w.get(0, i) * z.get(0, j)) + s * eye(i, j)),
        square(&|i, j| a.get(i, j) + eye(i, j)),
        square(&|i, j| -(e.get(0, i) * v.get(0, j))),
    ])
}

#[test]
fn generated_outer_products_and_identities_keep_every_bit_and_message() {
    // F5 computes `u[i] * v[j]` and `(i == j)` inside the consuming
    // loop; the bits, and the gathers of each `v`, must not move. Seven
    // and nine rows leave uneven row blocks at p = 3 and 4.
    for n in [7usize, 9] {
        let src = generator_script(n);
        let fused = compile(&src, &EngineOptions::default()).unwrap_or_else(|e| panic!("{e}"));
        let unfused = compile(&src, &fusion(false).build()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(fused.compiled().fusion_stats.generator_leaves, 5);
        for p in [1usize, 3, 4] {
            let go = |a| {
                run(a, &RunRequest::on(meiko_cs2(), p))
                    .unwrap_or_else(|e| panic!("n={n} p={p}: {e}"))
            };
            let (f, u) = (go(&fused), go(&unfused));
            let bits = workspace_bits(&f, &["g", "c", "h"]);
            assert_eq!(bits, workspace_bits(&u, &["g", "c", "h"]), "n={n} p={p}");
            assert_eq!(canonical(bits), generator_reference(&f), "n={n} p={p}");
            assert_eq!((f.messages, f.bytes), (u.messages, u.bytes), "n={n} p={p}");
            assert_eq!(f.op_counts.get("outer"), None, "n={n} p={p}");
        }
    }
}

#[test]
fn generator_loops_compose_with_folds_and_products() {
    // A generator loop takes a column fold as its tail, a matmul head's
    // loop holds a generated identity, and product loops take folds as
    // their tails: each is one fused loop, with the unfused bits and
    // messages and a lower allocator peak.
    for n in [7usize, 9] {
        let src = format!(
            "n = {n};\n\
             u = (1:n) / 3;\n\
             v = cos(u * 2);\n\
             w = rand(n, n);\n\
             b = rand(n, n);\n\
             t = sum(w * b .* w);\n\
             d = norm(w * v' - 1);\n\
             s = sum(sum(u' * v .* w));\n\
             c = w * b + n * eye(n);\n"
        );
        let fused = compile(&src, &EngineOptions::default()).unwrap_or_else(|e| panic!("{e}"));
        let unfused = compile(&src, &fusion(false).build()).unwrap_or_else(|e| panic!("{e}"));
        for p in [1usize, 3, 4] {
            let go = |a| {
                run(a, &RunRequest::on(meiko_cs2(), p))
                    .unwrap_or_else(|e| panic!("n={n} p={p}: {e}"))
            };
            let (f, u) = (go(&fused), go(&unfused));
            let names = ["s", "c", "t", "d"];
            assert_eq!(
                workspace_bits(&f, &names),
                workspace_bits(&u, &names),
                "n={n} p={p}"
            );
            assert_eq!((f.messages, f.bytes), (u.messages, u.bytes), "n={n} p={p}");
            // `t` and `d` are product loops with a fold for a tail.
            for (op, count) in [("col-reduce-ew", 1), ("matmul-ew", 2), ("matvec-ew", 1)] {
                assert_eq!(f.op_counts.get(op), Some(&count), "{op}: n={n} p={p}");
            }
            // No product or loop result is stored beside its operands
            // and `c`: the peak falls by two of rank 0's row blocks.
            let block = n.div_ceil(p) * n * 8;
            assert!(
                f.peak_temp_bytes + 2 * block <= u.peak_temp_bytes,
                "n={n} p={p}: fused peak {} B, unfused {} B",
                f.peak_temp_bytes,
                u.peak_temp_bytes
            );
        }
    }
}

#[test]
fn large_cg_materializes_one_matrix_not_four() {
    // `A = u' * u + w' * w + n * eye(n)` at large scale: F5 allocates
    // neither outer product nor the identity, so the p = 1 allocator
    // peak is `A` plus the solver's vectors, where the unfused build
    // holds four n×n blocks at once. (The fused peak is the CG loop's,
    // nine vectors beside `A`, so it is not a clean three blocks lower.)
    let params = otter_apps::cg::Params::large();
    let app = otter_apps::cg::conjugate_gradient(params);
    let peak = |on: bool| run_with(&app, &fusion(on).build(), 1).peak_temp_bytes;
    let (fused, unfused) = (peak(true), peak(false));
    let (block, vector) = (params.n * params.n * 8, params.n * 8);
    assert!(
        fused <= block + 16 * vector,
        "fused peak {fused} B is more than one {block} B block plus vectors"
    );
    assert!(
        unfused >= 4 * block,
        "unfused peak {unfused} B is under four {block} B blocks"
    );
}

#[test]
fn fig2_with_knobs_off_is_byte_identical_to_the_prechange_figure() {
    // With fusion disabled, the kernels must reproduce the committed
    // Figure 2 CSV byte for byte — the knob plumbing is invisible to
    // every modeled number and op count.
    use otter_bench::figures::{fig2_with, Scale};
    use otter_bench::render::render_fig2_csv;
    let fixture = include_str!("fixtures/fig2_test.csv");
    let csv = render_fig2_csv(&fig2_with(Scale::Test, &fusion(false).build()));
    assert_eq!(csv, fixture, "fig2 CSV drifted with fusion off");
}
