//! The repository benchmark: four workloads over the simulator stack, with
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced run. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when every
//! correctness gate held.

mod catalog;
mod fleet;
mod frame;
mod ladder;
mod layers;
mod report;
mod single_run;
mod stats;
mod trace;

use catalog::WORKLOADS;
use report::{render_table, result_json, Outcome};
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the timed region runs for.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Where to write the full result (and, traced, the spans).
    pub out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]\n\
         \n\
         workloads: {}\n\
         --seed N      input seed (default 1)\n\
         --seconds S   length of the timed region (default 20)\n\
         --trace 0|1   0: end-to-end metrics, tracing off; 1: per-layer metrics (default 0)\n\
         --out PATH    also write the full result (and traced spans) to PATH\n",
        names.join(", ")
    )
}

/// Parse `argv` (without the program name). `Err` carries the message and
/// whether it is a request for help rather than a mistake.
fn parse(argv: &[String]) -> Result<Args, (String, bool)> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err((usage(), true));
        }
        if !["--workload", "--seed", "--seconds", "--trace", "--out"].contains(&flag.as_str()) {
            return Err((format!("unknown flag {flag}\n{}", usage()), false));
        }
        let value = it
            .next()
            .ok_or_else(|| (format!("{flag} needs a value\n{}", usage()), false))?;
        let bad = |what: &str| (format!("bad {what} value {value:?}\n{}", usage()), false);
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("--seed"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| bad("--seconds"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            "--out" => args.out = Some(value.clone()),
            _ => unreachable!("flags are checked above"),
        }
    }
    if !WORKLOADS.iter().any(|w| w.0 == args.workload) {
        return Err((
            format!(
                "unknown or missing --workload {:?}\n{}",
                args.workload,
                usage()
            ),
            false,
        ));
    }
    Ok(args)
}

/// Executor threads and pool devices of a workload.
fn host_shape(workload: &str) -> (usize, usize) {
    match workload {
        "single_run" => (single_run::THREADS, 0),
        "fleet_quiet" => (1, fleet::Kind::Quiet.devices()),
        "fleet_chaos" => (1, fleet::Kind::Chaos.devices()),
        _ => (1, 0),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err((msg, help)) => {
            return if help {
                print!("{msg}");
                ExitCode::SUCCESS
            } else {
                eprint!("{msg}");
                ExitCode::from(2)
            };
        }
    };
    let (threads, devices) = host_shape(&args.workload);
    // The executor reads its thread count once per process, on first use;
    // nothing has run yet, so this sets it for the whole run.
    std::env::set_var("GPU_SIM_THREADS", threads.to_string());

    let mut out: Outcome = match args.workload.as_str() {
        "single_run" => single_run::run(&args),
        "fleet_quiet" => fleet::run(&args, fleet::Kind::Quiet),
        "fleet_chaos" => fleet::run(&args, fleet::Kind::Chaos),
        "paper_ladder" => ladder::run(&args),
        _ => unreachable!("parse accepts only catalogued workloads"),
    };

    // Host context, recorded with every result and gating nothing.
    let calib = stats::host_calib_ms();
    let host = [
        ("host.nproc", stats::nproc() as f64),
        ("host.exec_threads", threads as f64),
        ("host.pool_devices", devices as f64),
        ("host.calib_ms", calib),
    ];
    let failed_ratio = out.failed_ratio();
    out.table.push(("failed_ratio", failed_ratio, "fraction"));
    for (k, v) in host {
        out.table.push((k, v, ""));
    }
    if args.trace {
        out.layers.extend(host);
        out.layers.insert("failed_ratio", failed_ratio);
    }

    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    let table = render_table(&args.workload, &out, args.trace);
    let line = result_json(&out, args.trace);
    if let Some(path) = &args.out {
        let mut body = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {}}}\n",
            args.workload, args.seed, args.seconds, args.trace, line
        );
        if args.trace {
            body.push_str(&out.spans_jsonl);
        }
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{table}");
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
