//! Bench binaries honour `--help` and reject unknown flags before doing any
//! work: `--help` exits 0 and writes no file, an unknown flag exits 2. A
//! report is written only where `--json PATH` names it, so a gate run never
//! rewrites the baseline it checks against.

use std::path::PathBuf;
use std::process::Command;

fn fresh_temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn simperf_help_prints_usage_and_writes_nothing() {
    let dir = fresh_temp_dir("help");
    let out = Command::new(env!("CARGO_BIN_EXE_simperf"))
        .arg("--help")
        .current_dir(&dir)
        .output()
        .expect("run simperf");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: simperf"));
    let written: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
    assert!(written.is_empty(), "--help wrote {written:?}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    let dir = fresh_temp_dir("unknown");
    for bin in [
        env!("CARGO_BIN_EXE_simperf"),
        env!("CARGO_BIN_EXE_pressure"),
    ] {
        let out = Command::new(bin)
            .arg("--bogus")
            .current_dir(&dir)
            .output()
            .expect("run bench binary");
        assert_eq!(out.status.code(), Some(2), "{bin}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown flag `--bogus`") && err.contains("usage:"),
            "{err}"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
    assert!(
        written.is_empty(),
        "a rejected command line wrote {written:?}"
    );
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn check_against_leaves_the_baseline_untouched_and_writes_nothing() {
    let dir = fresh_temp_dir("check");
    let committed = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fleet.json"
    ))
    .expect("read committed BENCH_fleet.json");
    std::fs::write(dir.join("BENCH_fleet.json"), &committed).expect("copy baseline");
    // The cheapest gate run: no soak, a two-job throughput batch of one step.
    let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["--skip-soak", "--jobs", "2", "--steps", "1"])
        .args(["--check-against", "BENCH_fleet.json"])
        .current_dir(&dir)
        .output()
        .expect("run fleet");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(written, ["BENCH_fleet.json"], "the gate run wrote files");
    assert_eq!(
        std::fs::read(dir.join("BENCH_fleet.json")).expect("read baseline"),
        committed,
        "the gate run rewrote its baseline"
    );
    std::fs::remove_dir_all(&dir).expect("clean up");
}
