//! End-to-end tests for the observability PR: distributed request
//! tracing (trace context → stitched flight records → fleet-merged
//! Chrome trace), fleet-wide metrics aggregation (full registry
//! snapshots over `Stats`/`StatsReply`), dead-upstream health reporting,
//! and the node's threshold-gated slow-request log.
//!
//! The determinism contract under test: with tracing enabled, the fleet
//! trace and the `service_*` slice of the fleet Prometheus snapshot are
//! byte-identical across two runs of the same workload on a fresh fleet;
//! with tracing disabled, outcomes are byte-identical to a traced run's.

#[path = "../../bench/tests/support/json.rs"]
mod json;

use cdd_bench::workload::{generate_mixed_tenants, WorkloadEntry};
use cdd_core::{Algorithm, Priority};
use cdd_instances::InstanceId;
use cdd_metrics::fleet_trace;
use cdd_net::auth::DEFAULT_SECRET;
use cdd_net::client::{
    self, flight_records, run_workload, sorted_outcome_csv, stats_envelope, ClientOptions,
};
use cdd_net::node::{serve as serve_node, NodeConfig, NodeHandle};
use cdd_net::router::{serve as serve_router, RouterConfig};
use cdd_service::ServiceConfig;
use json::Json;
use std::collections::BTreeSet;

/// One-device nodes so worker attempts always land on device 0: a
/// requirement for byte-stable traces (device assignment in a pool is
/// timing-dependent).
fn node_config(label: &str) -> NodeConfig {
    NodeConfig {
        service: ServiceConfig {
            devices: 1,
            blocks: 2,
            block_size: 64,
            queue_capacity: 128,
            cache_capacity: 256,
            ..ServiceConfig::default()
        },
        label: label.to_string(),
        ..NodeConfig::default()
    }
}

/// A workload with pairwise-distinct content keys (distinct seeds), so
/// no run-dependent cache/coalesce variation can leak into flight hops.
fn unique_workload(requests: usize) -> Vec<WorkloadEntry> {
    (0..requests)
        .map(|i| WorkloadEntry {
            id: InstanceId::cdd(10, 1 + (i as u32 % 10), 0.6),
            algorithm: Algorithm::Sa,
            iterations: 60,
            seed: 1000 + i as u64,
            tenant: format!("tenant-{}", i % 3),
            priority: Priority::Normal,
        })
        .collect()
}

#[test]
fn traced_flights_are_stitched_across_router_node_and_service() {
    let entries = generate_mixed_tenants(12, 2016, 60, &[10], 3);
    let nodes: Vec<NodeHandle> = ["node-a", "node-b"]
        .iter()
        .map(|l| serve_node(node_config(l)).expect("bind node"))
        .collect();
    let router = serve_router(RouterConfig {
        upstreams: nodes.iter().map(|n| n.addr.to_string()).collect(),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.addr.to_string();

    let traced = run_workload(&addr, &entries, 2, 4, DEFAULT_SECRET, ClientOptions { trace: true })
        .expect("traced workload");

    let mut seen_ids = Vec::new();
    for outcome in &traced {
        let response = outcome.response.as_ref().expect("answered");
        let flight = response.flight.as_ref().expect("traced request returns a flight");
        seen_ids.push(flight.trace_id);
        assert!(
            flight.node == "node-a" || flight.node == "node-b",
            "serving node stamps its label, got {:?}",
            flight.node
        );
        // Path order: router hops first, then node admission, then the
        // service-side story.
        assert_eq!(flight.hops.first().expect("non-empty").name, "route");
        assert_eq!(flight.hops[0].layer, "router");
        for name in ["auth", "limit", "validate"] {
            let hop = flight.hop(name).unwrap_or_else(|| panic!("missing node hop {name}"));
            assert_eq!(hop.layer, "node");
        }
        let served = flight.hop("attempt").is_some()
            || flight.hop("cache_hit").is_some()
            || flight.hop("coalesced").is_some();
        assert!(served, "flight must show how the request was served: {flight:?}");
        if let Some(wait) = flight.hop("queue_wait") {
            assert!(wait.detail.iter().any(|(k, v)| k == "breaker" && !v.is_empty()));
        }
        if let Some(attempt) = flight.hop("attempt") {
            assert_eq!(attempt.device, Some(0), "one-device nodes serve on device 0");
            assert!(attempt.modeled_us > 0.0, "attempts consume modeled time");
        }
        // Acceptance check: hop wall spans are sub-intervals of the
        // request's service wall time, up to the node-side admission
        // micro-spans measured outside the service clock (generous 50 ms
        // slack keeps this robust on loaded CI machines).
        assert!(
            flight.total_wall_us() <= response.wall_ms * 1000.0 + 50_000.0,
            "hop wall spans ({} us) must sum consistently with wall_ms ({} ms)",
            flight.total_wall_us(),
            response.wall_ms
        );
    }
    // Trace ids are the 1-based global workload indices: unique and
    // complete even across sharded connections and coalesced duplicates.
    seen_ids.sort_unstable();
    assert_eq!(seen_ids, (1..=entries.len() as u64).collect::<Vec<_>>());

    // Tracing off on the same fleet: no flights, identical outcomes.
    let untraced =
        run_workload(&addr, &entries, 2, 4, DEFAULT_SECRET, ClientOptions { trace: false })
            .expect("untraced workload");
    assert!(
        untraced.iter().all(|o| o.response.as_ref().is_some_and(|r| r.flight.is_none())),
        "untraced requests must not carry flight records"
    );
    assert_eq!(
        sorted_outcome_csv(&untraced),
        sorted_outcome_csv(&traced),
        "tracing must not change outcomes"
    );

    client::shutdown(&addr).expect("fleet shutdown");
    router.join();
    for n in nodes {
        n.join();
    }
}

/// One full traced run on a fresh fixed-port fleet; returns the
/// byte-compared artifacts (fleet trace JSON, `service_*` slice of the
/// fleet Prometheus snapshot, outcome CSV).
fn traced_run(entries: &[WorkloadEntry]) -> (String, String, String) {
    // Fixed ports: rendezvous hashing weighs upstreams by address, so
    // identical addresses across runs are required for identical shard
    // choices (std's TcpListener sets SO_REUSEADDR, making sequential
    // rebinds safe).
    let node_addrs = ["127.0.0.1:46221", "127.0.0.1:46222"];
    let nodes: Vec<NodeHandle> = node_addrs
        .iter()
        .zip(["node-a", "node-b"])
        .map(|(addr, label)| {
            let mut cfg = node_config(label);
            cfg.addr = (*addr).to_string();
            serve_node(cfg).expect("bind node on fixed port")
        })
        .collect();
    let router = serve_router(RouterConfig {
        addr: "127.0.0.1:46220".to_string(),
        upstreams: node_addrs.iter().map(|a| (*a).to_string()).collect(),
        ..RouterConfig::default()
    })
    .expect("bind router on fixed port");
    let addr = router.addr.to_string();

    let outcomes =
        run_workload(&addr, entries, 2, 4, DEFAULT_SECRET, ClientOptions { trace: true })
            .expect("traced workload");
    let trace_json = fleet_trace(&flight_records(&outcomes)).render_chrome_json();

    let env = stats_envelope(&addr, true).expect("fleet stats");
    let health = env.health.expect("router attaches health");
    assert_eq!(health.upstreams_alive, 2);
    assert_eq!(health.upstreams_unreachable, 0);
    let prom = env.registry.expect("full snapshot requested").render_prometheus();
    // The deterministic slice of the fleet snapshot: service_* counters.
    // (The full registry also aggregates timing-shaped series such as
    // net_frames_total, which count run-dependent health pings.)
    let service_slice: String =
        prom.lines().filter(|l| l.starts_with("service_")).fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        });
    assert!(!service_slice.is_empty(), "fleet snapshot carries service_ series:\n{prom}");
    assert!(
        prom.lines().any(|l| l.starts_with("# HELP service_requests_submitted_total ")),
        "{prom}"
    );
    assert!(
        prom.lines().any(|l| l.starts_with("net_")),
        "fleet snapshot carries net_ series:\n{prom}"
    );

    client::shutdown(&addr).expect("fleet shutdown");
    router.join();
    for n in nodes {
        n.join();
    }
    (trace_json, service_slice, sorted_outcome_csv(&outcomes))
}

#[test]
fn fleet_trace_and_metrics_snapshots_are_byte_stable_across_runs() {
    let entries = unique_workload(10);
    let (trace_a, prom_a, csv_a) = traced_run(&entries);
    let (trace_b, prom_b, csv_b) = traced_run(&entries);
    assert_eq!(trace_a, trace_b, "fleet trace must be byte-stable across runs");
    // One process per fleet member, and spans from every layer a request
    // crosses.
    let trace = Json::parse(&trace_a).unwrap_or_else(|e| panic!("fleet trace is not JSON: {e}"));
    let events = trace.get("traceEvents").arr();
    let processes: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").str() == "process_name")
        .map(|e| e.get("args").get("name").str())
        .collect();
    assert_eq!(processes, ["router", "node node-a", "node node-b"]);
    let layers: BTreeSet<&str> =
        events.iter().filter(|e| e.get("ph").str() == "X").map(|e| e.get("cat").str()).collect();
    for layer in ["router", "node", "queue", "worker"] {
        assert!(layers.contains(layer), "no {layer} spans in the fleet trace: {layers:?}");
    }
    assert_eq!(prom_a, prom_b, "service_ fleet snapshot must be byte-stable across runs");
    assert_eq!(csv_a, csv_b, "outcomes must be byte-stable across runs");
}

#[test]
fn router_stats_distinguish_dead_upstreams() {
    // Reserve a port that nothing listens on: bind, read the address,
    // drop the listener.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
        l.local_addr().expect("addr").to_string()
    };
    let node = serve_node(node_config("survivor")).expect("bind node");
    let router = serve_router(RouterConfig {
        upstreams: vec![node.addr.to_string(), dead_addr],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.addr.to_string();

    let entries = generate_mixed_tenants(6, 7, 60, &[10], 2);
    let outcomes = run_workload(&addr, &entries, 1, 4, DEFAULT_SECRET, ClientOptions::default())
        .expect("workload routes around the dead upstream");
    assert!(outcomes.iter().all(|o| o.response.is_some()));

    let env = stats_envelope(&addr, true).expect("router stats");
    let health = env.health.expect("router always attaches health");
    assert_eq!(health.upstreams_alive, 1, "the live node answered the poll");
    assert_eq!(health.upstreams_unreachable, 1, "the dead upstream is counted, not hidden");
    assert_eq!(env.stats.completed, entries.len() as u64, "flat counters still aggregate");
    let fleet = env.registry.expect("full snapshot");
    let prom = fleet.render_prometheus();
    assert!(prom.contains("service_requests_submitted_total"), "{prom}");
    assert!(
        prom.contains("# HELP service_requests_submitted_total"),
        "HELP lines survive the merge:\n{prom}"
    );
    assert!(prom.contains("net_router_routed_total") || prom.contains("net_router_"), "{prom}");

    // A node-level poll: flat reply has no extensions, full reply carries
    // both the service and net namespaces but never health.
    let node_addr = node.addr.to_string();
    let flat = stats_envelope(&node_addr, false).expect("flat node stats");
    assert!(flat.health.is_none() && flat.registry.is_none());
    let full = stats_envelope(&node_addr, true).expect("full node stats");
    assert!(full.health.is_none(), "nodes never attach router health");
    let node_prom = full.registry.expect("node snapshot").render_prometheus();
    assert!(node_prom.contains("service_requests_submitted_total"), "{node_prom}");
    assert!(node_prom.contains("net_frames_total"), "{node_prom}");

    client::shutdown(&addr).expect("fleet shutdown");
    router.join();
    node.join();
}

#[test]
fn slow_request_log_is_threshold_gated_jsonl() {
    let dir = std::env::temp_dir().join(format!("cdd-slowlog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let slow_path = dir.join("slow.jsonl");
    let mut cfg = node_config("slow-node");
    cfg.slow_log = Some(slow_path.clone());
    cfg.slow_threshold_ms = 0; // everything traced is "slow"
    let node = serve_node(cfg).expect("bind node");
    let addr = node.addr.to_string();

    let entries = unique_workload(4);
    let outcomes =
        run_workload(&addr, &entries, 1, 2, DEFAULT_SECRET, ClientOptions { trace: true })
            .expect("traced workload");
    assert_eq!(outcomes.len(), entries.len());

    let log = std::fs::read_to_string(&slow_path).expect("slow log written");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), entries.len(), "threshold 0 logs every traced request:\n{log}");
    for line in &lines {
        assert!(line.starts_with("{\"slow_request\":true,\"trace_id\":\""), "{line}");
        assert!(line.contains("\"node\":\"slow-node\""), "{line}");
        assert!(line.contains("\"hops\":["), "{line}");
    }

    // Untraced requests never reach the slow log, whatever the threshold.
    run_workload(&addr, &entries, 1, 2, DEFAULT_SECRET, ClientOptions::default())
        .expect("untraced workload");
    let after = std::fs::read_to_string(&slow_path).expect("slow log re-read");
    assert_eq!(after.lines().count(), entries.len(), "untraced requests are not logged");

    client::shutdown(&addr).expect("shutdown");
    node.join();
    let _ = std::fs::remove_dir_all(&dir);
}
