//! Bench binaries honour `--help` and reject unknown flags before doing any
//! work: `--help` exits 0 and writes no file, an unknown flag exits 2.

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
