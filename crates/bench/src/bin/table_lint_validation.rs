//! Regenerates the **static-analyzer cross-validation**: `gpu_sim::analyze`
//! predicts per-launch global transaction counts from per-lane symbolic
//! addresses; this table checks that prediction against the timed executor's
//! dynamic coalescer on the real membench kernels, per layout × driver.
//!
//! The second table covers the interval fragment: on the Barnes–Hut
//! traversal the analyzer cannot be exact, so its `[best, worst]`
//! transaction interval must *enclose* the dynamic measurement instead.
//!
//! Also times the analyzer + synthesizer per kernel × driver across all
//! families, so analysis-cost regressions show up in review; `--json PATH`
//! writes those timings (in the shape of `BENCH_analyze.json`) to `PATH`,
//! and without it no report is written. With `--check-against PATH`, any
//! kernel whose wall time regressed more than 2x over that baseline (plus a
//! small absolute slack for sub-ms rows) fails the run — the CI
//! `verify-kernels` job gates on this.
//!
//! Usage: `table_lint_validation [--bh-n BODIES] [--json PATH]
//!         [--check-against PATH]`.
use bench::cli::Args;
use bench::report::{emit, write_json};
use bench::tables::{bh_bounds_validation, lint_cross_validation};
use gpu_kernels::synthset::synth_targets;
use gpu_sim::DriverModel;
use serde::{Deserialize, Serialize};
use simcore::Table;

const USAGE: &str =
    "usage: table_lint_validation [--bh-n BODIES] [--json PATH] [--check-against PATH]";

#[derive(Serialize, Deserialize)]
struct AnalyzeTime {
    kernel: String,
    driver: String,
    analyze_ms: f64,
    exact: bool,
}

#[derive(Serialize, Deserialize)]
struct AnalyzeReport {
    bench: String,
    bh_n: u32,
    kernels: Vec<AnalyzeTime>,
}

/// Maximum tolerated wall-time growth over the committed baseline: 2x,
/// with 5 ms of absolute slack so scheduler jitter on sub-millisecond
/// rows cannot trip the gate.
fn regressed(baseline_ms: f64, new_ms: f64) -> bool {
    new_ms > 2.0 * baseline_ms + 5.0
}

/// Compare the fresh timings against a committed baseline report; returns
/// the number of per-kernel regressions (each printed as it is found).
fn check_against(baseline: &AnalyzeReport, times: &[AnalyzeTime]) -> usize {
    let mut regressions = 0usize;
    for t in times {
        let Some(b) = baseline
            .kernels
            .iter()
            .find(|b| b.kernel == t.kernel && b.driver == t.driver)
        else {
            continue; // new kernel: no baseline to regress against
        };
        if regressed(b.analyze_ms, t.analyze_ms) {
            println!(
                "[FAIL] {} under {}: {:.3} ms vs committed {:.3} ms (> 2x + 5 ms)",
                t.kernel, t.driver, t.analyze_ms, b.analyze_ms
            );
            regressions += 1;
        }
    }
    regressions
}

fn main() {
    let args = Args::from_env_or_exit(USAGE, &["--bh-n", "--json", "--check-against"], &[]);
    let bh_n: u32 = args
        .value("--bh-n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(192);
    // Load the baseline first: `--json` may name the same file.
    let baseline: Option<AnalyzeReport> = args.value("--check-against").map(|p| {
        let text =
            std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("--check-against {p}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("--check-against {p}: {e}"))
    });

    let rows = lint_cross_validation();
    let mut t = Table::new(
        "Static transaction prediction vs dynamic coalescer — membench kernels",
        &["layout", "driver", "static", "measured", "match"],
    );
    let mut mismatches = 0usize;
    let mut times = Vec::new();
    for r in &rows {
        if r.predicted != r.measured {
            mismatches += 1;
        }
        t.row(vec![
            r.layout.label().to_string(),
            r.driver.label().to_string(),
            r.predicted.to_string(),
            r.measured.to_string(),
            if r.predicted == r.measured {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
        times.push(AnalyzeTime {
            kernel: format!("membench_{}", r.layout.label()),
            driver: r.driver.label().to_string(),
            analyze_ms: r.analyze_ms,
            exact: r.exact,
        });
    }
    emit(&t, "table_lint_validation");

    let bh_rows = bh_bounds_validation(bh_n);
    let mut bt = Table::new(
        "Interval transaction bounds vs dynamic coalescer — Barnes-Hut traversal",
        &[
            "kernel",
            "driver",
            "static lo",
            "static hi",
            "measured",
            "enclosed",
        ],
    );
    let mut escapes = 0usize;
    for r in &bh_rows {
        if !r.enclosed {
            escapes += 1;
        }
        bt.row(vec![
            r.kernel.clone(),
            r.driver.label().to_string(),
            r.tx_lo.to_string(),
            r.tx_hi.to_string(),
            r.measured.to_string(),
            if r.enclosed { "yes" } else { "NO" }.to_string(),
        ]);
        times.push(AnalyzeTime {
            kernel: r.kernel.clone(),
            driver: r.driver.label().to_string(),
            analyze_ms: r.analyze_ms,
            exact: false,
        });
    }
    emit(&bt, "table_bh_bounds");

    // The synthesis targets: whole-pipeline wall time (summary extraction,
    // candidate pricing, translation-validation proofs) per kernel ×
    // driver. Best of three runs — synthesis is deterministic, so the min
    // is the honest cost and a transient load spike cannot trip the gate.
    for driver in DriverModel::ALL {
        for target in synth_targets(driver) {
            let mut best_ms = f64::INFINITY;
            let mut suggested = false;
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                let report = target
                    .synthesize()
                    .unwrap_or_else(|e| panic!("{}: synthesis must price: {e}", target.name));
                best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                suggested = !report.suggestions.is_empty();
            }
            times.push(AnalyzeTime {
                kernel: format!("synth_{}", target.name),
                driver: driver.label().to_string(),
                analyze_ms: best_ms,
                exact: suggested,
            });
        }
    }

    let regressions = baseline.as_ref().map_or(0, |b| check_against(b, &times));
    if let Some(b) = &baseline {
        println!(
            "checked {} timings against committed baseline ({} kernels): {} regression(s)",
            times.len(),
            b.kernels.len(),
            regressions
        );
    }

    write_json(
        args.value("--json").as_deref(),
        &AnalyzeReport {
            bench: "analyze".into(),
            bh_n,
            kernels: times,
        },
    );

    if regressions > 0 {
        println!("[FAIL] {regressions} analyze/synth wall-time regressions > 2x over baseline");
        std::process::exit(1);
    }
    if mismatches == 0 && escapes == 0 {
        println!("The analyzer's symbolic coalescer agrees with the executor on every");
        println!("layout and driver, and the Barnes-Hut interval bounds enclose the");
        println!("dynamic traversal; `kernel-lint` findings rest on sound counts.");
    } else {
        if mismatches > 0 {
            println!("[FAIL] {mismatches} static/dynamic transaction mismatches");
        }
        if escapes > 0 {
            println!("[FAIL] {escapes} dynamic measurements escaped the static interval");
        }
        std::process::exit(1);
    }
}
