//! `cdd-router` — content-key-sharded front for N `cdd-node` upstreams.
//!
//! ```text
//! cargo run --release -p cdd-net --bin cdd-router -- \
//!     --upstreams 127.0.0.1:4101,127.0.0.1:4102 \
//!     [--addr 127.0.0.1:0] [--secret cdd-net-dev-secret] \
//!     [--health-interval 100] [--metrics-out results/router_metrics.prom]
//! ```
//!
//! Prints `cdd-router listening on <addr>` once bound. A client
//! `Shutdown` frame drains the upstreams too. Any flag outside the block
//! above is refused with the usage line and exit status 2, before the
//! listener binds.

use cdd_bench::Args;
use cdd_net::router::{serve, RouterConfig};
use std::io::Write as _;

/// Every flag `cdd-router` reads.
const FLAGS: &[&str] = &["upstreams", "addr", "secret", "health-interval", "metrics-out"];

fn main() {
    let args = Args::parse_known("cdd-router", FLAGS);
    let upstreams: Vec<String> = args
        .get("upstreams")
        .expect("--upstreams host:port[,host:port...] is required")
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let config = RouterConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        upstreams,
        secret: args.get("secret").unwrap_or(cdd_net::auth::DEFAULT_SECRET).to_string(),
        health_interval_ms: args.get_or("health-interval", 100u64),
    };
    let handle = serve(config).expect("bind router listener");
    println!("cdd-router listening on {}", handle.addr);
    std::io::stdout().flush().expect("flush stdout");

    let report = handle.join();
    if let Some(out) = args.get("metrics-out").map(std::path::PathBuf::from) {
        if let Some(dir) = out.parent() {
            std::fs::create_dir_all(dir).expect("metrics dir");
        }
        std::fs::write(&out, report.net_metrics.render_prometheus()).expect("write metrics");
        println!("cdd-router metrics at {}", out.display());
    }
    println!(
        "cdd-router done: {} routed, {} re-routed after upstream deaths",
        report.routed, report.reroutes
    );
}
