//! `cdd-client` — drive a workload file through a `cdd-node` or
//! `cdd-router` socket and write the sorted outcome CSV.
//!
//! ```text
//! cargo run --release -p cdd-net --bin cdd-client -- \
//!     --addr 127.0.0.1:4100 [--workload results/workload.txt] \
//!     [--connections 2] [--window 8] [--secret cdd-net-dev-secret] \
//!     [--out results/net_outcomes.csv] [--trace] \
//!     [--trace-out results/fleet_trace.json] \
//!     [--fleet-metrics-out results/fleet_metrics.prom] [--shutdown]
//! ```
//!
//! The outcome CSV is the network path's determinism artifact: sorted
//! `(request, fitness, degraded)` rows, byte-identical for a fixed
//! workload across shard counts, routings and node restarts. `--shutdown`
//! sends a `Shutdown` frame after the workload (a router forwards it to
//! its nodes), which tears the whole fleet down.
//!
//! Observability flags: `--trace` attaches a sampled trace context to
//! every request; `--trace-out` (implies `--trace`) writes the fleet-merged
//! Chrome trace assembled from the returned flight records;
//! `--fleet-metrics-out` asks the peer for a full registry snapshot
//! (fleet-merged when the peer is a router) and renders it as Prometheus
//! text — both before any `--shutdown` frame is sent.
//!
//! Any flag outside the block above is refused with the usage line and
//! exit status 2, before the client connects.

use cdd_bench::workload;
use cdd_bench::{results_dir, Args};
use cdd_net::client::{
    flight_records, run_workload, shutdown, sorted_outcome_csv, stats_envelope, ClientOptions,
};
use cdd_metrics::fleet_trace;
use std::path::PathBuf;

/// Every flag `cdd-client` reads.
const FLAGS: &[&str] = &[
    "addr", "workload", "connections", "window", "secret", "out", "trace", "trace-out",
    "fleet-metrics-out", "shutdown",
];

fn main() {
    let args = Args::parse_known("cdd-client", FLAGS);
    let addr = args.get("addr").expect("--addr host:port is required").to_string();
    let workload_path = args
        .get("workload")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("workload.txt"));
    let connections = args.get_or("connections", 1usize);
    let window = args.get_or("window", 8usize);
    let secret = args.get("secret").unwrap_or(cdd_net::auth::DEFAULT_SECRET).to_string();
    let out = args
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("net_outcomes.csv"));
    let trace_out = args.get("trace-out").map(PathBuf::from);
    let fleet_metrics_out = args.get("fleet-metrics-out").map(PathBuf::from);
    let opts = ClientOptions { trace: args.flag("trace") || trace_out.is_some() };

    let entries = workload::load(&workload_path).expect("workload file readable");
    let started = std::time::Instant::now();
    let outcomes = run_workload(&addr, &entries, connections, window, &secret, opts)
        .expect("workload completed");
    let wall = started.elapsed().as_secs_f64();

    let csv = sorted_outcome_csv(&outcomes);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("out dir");
    }
    std::fs::write(&out, &csv).expect("write outcome csv");

    if let Some(trace_path) = &trace_out {
        let records = flight_records(&outcomes);
        let json = fleet_trace(&records).render_chrome_json();
        if let Some(dir) = trace_path.parent() {
            std::fs::create_dir_all(dir).expect("trace dir");
        }
        std::fs::write(trace_path, json).expect("write fleet trace");
        println!(
            "cdd-client: fleet trace ({} flight records) at {}",
            records.len(),
            trace_path.display()
        );
    }
    if let Some(metrics_path) = &fleet_metrics_out {
        let env = stats_envelope(&addr, true).expect("fleet stats");
        let rendered =
            env.registry.as_ref().map(|r| r.render_prometheus()).unwrap_or_default();
        if let Some(dir) = metrics_path.parent() {
            std::fs::create_dir_all(dir).expect("metrics dir");
        }
        std::fs::write(metrics_path, rendered).expect("write fleet metrics");
        match env.health {
            Some(h) => println!(
                "cdd-client: fleet metrics ({} upstreams alive, {} unreachable) at {}",
                h.upstreams_alive,
                h.upstreams_unreachable,
                metrics_path.display()
            ),
            None => println!("cdd-client: fleet metrics at {}", metrics_path.display()),
        }
    }

    let ok = outcomes.iter().filter(|o| o.response.is_some()).count();
    let errs = outcomes.len() - ok;
    let cache_hits =
        outcomes.iter().filter(|o| o.response.as_ref().is_some_and(|r| r.cache_hit)).count();
    let degraded =
        outcomes.iter().filter(|o| o.response.as_ref().is_some_and(|r| r.degraded)).count();
    let retried = outcomes.iter().filter(|o| o.attempts > 1).count();
    println!(
        "cdd-client: {}/{} ok ({errs} errors), {cache_hits} cache/coalesced hits, \
         {degraded} degraded, {retried} retried, {:.2}s wall, {:.1} req/s; outcomes at {}",
        ok,
        outcomes.len(),
        wall,
        outcomes.len() as f64 / wall.max(1e-9),
        out.display()
    );

    if args.flag("shutdown") {
        shutdown(&addr).expect("shutdown acknowledged");
        println!("cdd-client: shutdown delivered to {addr}");
    }
    assert!(errs == 0, "{errs} requests ended in terminal errors");
}
