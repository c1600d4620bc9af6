//! Loop fusion and kernel tiling are pure optimizations: for a fixed
//! processor count they may not change a single result bit, and fusion
//! may only ever *lower* the temporary-memory high-water mark. These
//! properties let the fusion pass default to on without invalidating
//! any figure, golden file, or cached artifact result.

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
fn fusion_and_tiling_never_change_a_result_bit() {
    // Every knob combination — fusion on/off crossed with degenerate,
    // small, and default k-tiles — at every processor count, on all
    // four benchmark apps: one fingerprint per (app, p).
    for app in otter_apps::test_apps() {
        for p in [1usize, 2, 4, 8] {
            let reference = result_fingerprint(&app, &run_with(&app, &EngineOptions::default(), p));
            for on in [true, false] {
                for tile in [1usize, 8, 64] {
                    let opts = fusion(on).tile_size(tile).build();
                    let got = result_fingerprint(&app, &run_with(&app, &opts, p));
                    assert_eq!(
                        got, reference,
                        "{} p={p}: fusion={on} tile={tile} changed result bits",
                        app.id
                    );
                }
            }
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

#[test]
fn fig2_with_knobs_off_is_byte_identical_to_the_prechange_figure() {
    // With fusion disabled, the new kernels and knobs must reproduce
    // the committed Figure 2 CSV byte for byte — tiling and the knob
    // plumbing are invisible to every modeled number and op count.
    use otter_bench::figures::{fig2_with, Scale};
    use otter_bench::render::render_fig2_csv;
    let fixture = include_str!("fixtures/fig2_test.csv");
    for tile in [8usize, 64] {
        let opts = fusion(false).tile_size(tile).build();
        let csv = render_fig2_csv(&fig2_with(Scale::Test, &opts));
        assert_eq!(
            csv, fixture,
            "fig2 CSV drifted with fusion off, tile={tile}"
        );
    }
}
