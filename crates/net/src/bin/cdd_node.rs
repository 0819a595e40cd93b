//! `cdd-node` — one solver service behind a framed TCP listener.
//!
//! ```text
//! cargo run --release -p cdd-net --bin cdd-node -- \
//!     [--addr 127.0.0.1:0] [--backend sim|native] \
//!     [--devices 2] [--blocks 2] [--block-size 64] \
//!     [--queue 64] [--cache 128] [--rate 0] [--burst 8] \
//!     [--secret cdd-net-dev-secret] [--metrics-out results/node_metrics.prom] \
//!     [--label node-a] [--slow-log results/slow.jsonl] [--slow-threshold-ms 250]
//! ```
//!
//! Prints `cdd-node listening on <addr>` once bound (scripts parse this
//! line to discover a port-0 assignment), serves until a `Shutdown`
//! frame, drains, then writes metrics and a one-line summary. Any flag
//! outside the block above is refused with the usage line and exit
//! status 2, before the listener binds.

use cdd_bench::{results_dir, Args};
use cdd_net::node::{serve, NodeConfig};
use cdd_service::{Backend, ServiceConfig};
use std::io::Write as _;
use std::path::PathBuf;

/// Every flag `cdd-node` reads.
const FLAGS: &[&str] = &[
    "addr", "backend", "devices", "blocks", "block-size", "queue", "cache", "rate", "burst",
    "secret", "metrics-out", "label", "slow-log", "slow-threshold-ms",
];

fn main() {
    let args = Args::parse_known("cdd-node", FLAGS);
    let config = NodeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        service: ServiceConfig {
            // Native execution skips the modeled clock and fault machinery;
            // the service routes requests that need sim-only features
            // (fault plans, telemetry, traces) to the simulator instead.
            backend: args
                .get("backend")
                .map(|s| s.parse::<Backend>().expect("--backend: `sim` or `native`"))
                .unwrap_or_default(),
            devices: args.get_or("devices", 2usize),
            blocks: args.get_or("blocks", 2usize),
            block_size: args.get_or("block-size", 64usize),
            queue_capacity: args.get_or("queue", 64usize),
            cache_capacity: args.get_or("cache", 128usize),
            ..ServiceConfig::default()
        },
        secret: args.get("secret").unwrap_or(cdd_net::auth::DEFAULT_SECRET).to_string(),
        rate_per_sec: args.get_or("rate", 0u64),
        burst: args.get_or("burst", 8u64),
        label: args.get("label").unwrap_or("node").to_string(),
        slow_log: args.get("slow-log").map(PathBuf::from),
        slow_threshold_ms: args.get_or("slow-threshold-ms", 0u64),
    };
    let metrics_out = args
        .get("metrics-out")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("node_metrics.prom"));

    let handle = serve(config).expect("bind node listener");
    println!("cdd-node listening on {}", handle.addr);
    std::io::stdout().flush().expect("flush stdout");

    let report = handle.join();
    let mut rendered = report.service.metrics.render_prometheus();
    rendered.push_str(&report.net_metrics.render_prometheus());
    if let Some(dir) = metrics_out.parent() {
        std::fs::create_dir_all(dir).expect("metrics dir");
    }
    std::fs::write(&metrics_out, rendered).expect("write metrics");
    println!(
        "cdd-node done: {} connections, {} completed, {} degraded, cache {}/{} hits/coalesced; metrics at {}",
        report.connections,
        report.service.completed,
        report.service.degraded,
        report.service.cache.hits,
        report.service.cache.coalesced,
        metrics_out.display()
    );
}
