//! Every workload at `--smoke` scale, in both modes: the run is correct,
//! nothing fails, and it reports exactly the metrics `BENCHMARK.json`
//! declares.

use cdd_e2e_bench::report::Report;
use cdd_e2e_bench::spans::Spans;
use cdd_e2e_bench::workloads::{self, Scale};
use cdd_e2e_bench::{layers, run};

/// Metric names listed under `section` of the repository's
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let body = &text[text.find(&format!("\"{section}\"")).unwrap()..];
    let body = &body[..body.find(']').unwrap()];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).unwrap().to_string())
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.to_string()).collect()
}

fn check(report: &Report, section: &str) {
    assert!(report.correct(), "failures: {:?}", report.failures);
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0);
    assert_eq!(names(report), declared(section));
}

/// Each test binds its own ports, below the ephemeral range: tests run in
/// parallel.
fn smoke(name: &str, port_base: u16) {
    let scale = Scale::smoke();
    let w = workloads::find(name).unwrap().at(&scale);
    let started = std::time::Instant::now();
    check(
        &run::end_to_end(&w, 11, &scale, port_base).unwrap(),
        "end_to_end",
    );
    let mut spans = Spans::new();
    check(
        &layers::per_layer(&w, 11, &scale, port_base, &mut spans).unwrap(),
        "per_layer",
    );
    assert!(!spans.is_empty());
    eprintln!("{name}: both smoke runs took {:?}", started.elapsed());
}

#[test]
fn small_open_smoke() {
    smoke("small-open", 29_700);
}

#[test]
fn small_closed_smoke() {
    smoke("small-closed", 29_710);
}

#[test]
fn large_paper_smoke() {
    smoke("large-paper", 29_720);
}

#[test]
fn sim_referee_smoke() {
    smoke("sim-referee", 29_730);
}
