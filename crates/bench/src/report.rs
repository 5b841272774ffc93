//! Result output: markdown to stdout, CSV into `results/`, and JSON
//! reports where `--json PATH` names them.

use serde::Serialize;
use simcore::Table;
use std::path::PathBuf;

/// Directory experiment CSVs are written to (workspace-relative `results/`,
/// overridable via `REPRO_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    if let Ok(d) = std::env::var("REPRO_RESULTS_DIR") {
        return PathBuf::from(d);
    }
    // The bench binaries run from the workspace root under `cargo run`; fall
    // back to CARGO_MANIFEST_DIR's parent workspace when invoked elsewhere.
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("Cargo.toml").exists() {
        cwd.join("results")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }
}

/// Write `report` as pretty JSON to `path`, when one is given. A bench
/// binary has no default report path, so a gate run never rewrites the
/// committed baseline it checks against.
pub fn write_json<T: Serialize>(path: Option<&str>, report: &T) {
    if let Some(path) = path {
        let text = serde_json::to_string_pretty(report).expect("serialize");
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// Print the table as markdown and persist it as `results/<slug>.csv`.
pub fn emit(table: &Table, slug: &str) {
    print!("{}", table.to_markdown());
    let path = results_dir().join(format!("{slug}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("[wrote {}]\n", path.display()),
        Err(e) => eprintln!("[warn] could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_env_override() {
        std::env::set_var("REPRO_RESULTS_DIR", "/tmp/repro-test-results");
        assert_eq!(results_dir(), PathBuf::from("/tmp/repro-test-results"));
        std::env::remove_var("REPRO_RESULTS_DIR");
    }
}
