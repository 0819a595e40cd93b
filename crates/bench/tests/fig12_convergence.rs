//! Process-level test of the `fig12_convergence` binary: two runs with
//! the same flags write byte-identical curves CSV and summary JSON, and the
//! summary covers both the SA and the DPSO ensemble.

#[path = "support/json.rs"]
mod json;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const CURVES: &str = "fig12_convergence_curves.csv";
const SUMMARY: &str = "fig12_convergence_summary.json";

/// Run the binary with its default output paths under `dir`.
fn record(dir: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_fig12_convergence"))
        .args(["--sizes", "10", "--iters", "80", "--stride", "2"])
        .env("CDD_RESULTS_DIR", dir)
        .output()
        .expect("spawn fig12_convergence");
    assert!(out.status.success(), "{}\n{}", out.status, String::from_utf8_lossy(&out.stderr));
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn two_runs_write_byte_identical_curves_and_summary() {
    let root = std::env::temp_dir().join(format!("cdd-fig12-{}", std::process::id()));
    let (a, b) = (root.join("a"), root.join("b"));
    record(&a);
    record(&b);

    let curves = read(a.join(CURVES));
    assert!(curves.lines().count() > 1, "curves CSV has rows:\n{curves}");
    assert_eq!(curves, read(b.join(CURVES)), "curves CSV must be byte-identical across runs");
    let summary = read(a.join(SUMMARY));
    assert_eq!(summary, read(b.join(SUMMARY)), "summary JSON must be byte-identical across runs");

    let parsed = Json::parse(&summary).unwrap_or_else(|e| panic!("summary is not JSON: {e}"));
    let runs = parsed.get("runs").arr();
    let mut algorithms: Vec<&str> = runs.iter().map(|r| r.get("algorithm").str()).collect();
    algorithms.sort_unstable();
    assert_eq!(algorithms, ["dpso", "sa"]);
    assert!(runs.iter().all(|r| r.get("samples").num() > 0.0), "{runs:?}");
    let _ = std::fs::remove_dir_all(&root);
}
