//! In-process integration tests for the framed TCP path: a real
//! `SolverService` behind real sockets, driven by the real client.
//!
//! The central assertion is the network determinism contract: the sorted
//! `(request, fitness, degraded)` outcome CSV produced through any fleet
//! shape — direct node, 1/2/3-shard router, router with a dying upstream
//! — is byte-identical to the one a plain in-process service produces
//! for the same workload.

use cdd_bench::workload::{generate_mixed_tenants, WorkloadEntry};
use cdd_core::JobSequence;
use cdd_net::auth::{token_for, DEFAULT_SECRET};
use cdd_net::client::{self, run_workload, sorted_outcome_csv, ClientOptions, ClientOutcome};
use cdd_net::frame::{
    read_frame, write_frame, ErrorCode, Frame, NetRequest, WorkSpec, MID_FRAME_STALL,
};
use cdd_net::node::{serve as serve_node, NodeConfig, NodeHandle};
use cdd_net::router::{serve as serve_router, RouterConfig};
use cdd_service::{ServiceConfig, SolverService};
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Shared solver geometry: objectives depend on (blocks, block_size), so
/// every fleet shape in these tests must agree on it.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        devices: 2,
        blocks: 2,
        block_size: 64,
        queue_capacity: 128,
        cache_capacity: 256,
        ..ServiceConfig::default()
    }
}

fn node_config() -> NodeConfig {
    NodeConfig { service: service_config(), ..NodeConfig::default() }
}

fn small_workload(requests: usize) -> Vec<WorkloadEntry> {
    generate_mixed_tenants(requests, 2016, 60, &[10], 3)
}

/// Drive `entries` through `connections` untraced sockets to `addr`.
fn drive(
    addr: &str,
    entries: &[WorkloadEntry],
    connections: usize,
    window: usize,
) -> Vec<ClientOutcome> {
    run_workload(addr, entries, connections, window, DEFAULT_SECRET, ClientOptions::default())
        .expect("workload")
}

/// The ground truth: solve every entry on a plain in-process service and
/// render the same sorted CSV the network client renders.
fn baseline_csv(entries: &[WorkloadEntry]) -> String {
    let service = SolverService::start(service_config());
    let outcomes: Vec<ClientOutcome> = entries
        .iter()
        .map(|e| {
            let out = service.solve(e.to_request()).expect("baseline solve");
            ClientOutcome {
                entry: e.clone(),
                response: Some(cdd_net::frame::NetResponse {
                    id: 0,
                    objective: out.objective,
                    modeled_seconds: out.modeled_seconds,
                    evaluations: out.evaluations,
                    cache_hit: out.cache_hit,
                    device: out.device.map(|d| d as u64),
                    cpu_fallback: out.cpu_fallback,
                    degraded: out.degraded,
                    wall_ms: 0.0,
                    flight: None,
                }),
                sequence: out.sequence.as_slice().to_vec(),
                error: None,
                attempts: 1,
            }
        })
        .collect();
    service.shutdown();
    sorted_outcome_csv(&outcomes)
}

#[test]
fn single_node_socket_path_matches_in_process_service() {
    let entries = small_workload(12);
    let expected = baseline_csv(&entries);

    let node = serve_node(node_config()).expect("bind node");
    let addr = node.addr.to_string();
    let outcomes = drive(&addr, &entries, 1, 4);
    assert_eq!(sorted_outcome_csv(&outcomes), expected, "socket path changed the outcome set");

    // Streamed sequences reassemble into valid permutations of the right
    // size.
    for o in &outcomes {
        assert_eq!(o.sequence.len(), o.entry.id.n);
        JobSequence::from_vec(o.sequence.clone()).expect("valid permutation");
    }

    client::shutdown(&addr).expect("shutdown ack");
    let report = node.join();
    assert_eq!(report.service.completed, 12, "node drained every request");
    assert!(report.connections >= 2, "workload + shutdown connections");
    // net_* namespace is populated, and every request was admitted once.
    let rendered = report.net_metrics.render_prometheus();
    let admitted: u64 = rendered
        .lines()
        .filter(|l| l.starts_with("net_admitted_total{"))
        .map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok()).expect("counter value"))
        .sum();
    assert_eq!(admitted, 12, "{rendered}");
    assert!(rendered.contains("net_frames_total"), "{rendered}");
    assert!(rendered.contains("net_frame_bytes"), "{rendered}");
    assert!(rendered.contains("net_connection_requests"), "{rendered}");
}

#[test]
fn bad_tokens_are_rejected_with_auth_errors() {
    let node = serve_node(node_config()).expect("bind node");
    let mut stream = TcpStream::connect(node.addr).expect("connect");
    let entry = &small_workload(1)[0];
    write_frame(
        &mut stream,
        &Frame::Request(NetRequest {
            id: 5,
            tenant: entry.tenant.clone(),
            token: "not-the-token".to_string(),
            priority: entry.priority,
            deadline_ms: None,
            algorithm: entry.algorithm,
            iterations: entry.iterations,
            seed: entry.seed,
            work: WorkSpec::ById { n: entry.id.n as u64, k: entry.id.k, h: entry.id.h },
            trace: None,
        }),
    )
    .expect("write");
    match read_frame(&mut stream).expect("reply") {
        Some(Frame::Error(e)) => {
            assert_eq!(e.code, ErrorCode::Auth);
            assert_eq!(e.id, 5);
        }
        other => panic!("expected auth error, got {other:?}"),
    }
    drop(stream);
    node.begin_shutdown();
    let report = node.join();
    assert_eq!(report.service.submitted, 0, "unauthenticated work never reaches the service");
    assert!(
        report.net_metrics.render_prometheus().contains("reason=\"auth\""),
        "shed counter labels the auth rejection"
    );
}

#[test]
fn rate_limits_shed_with_retry_hints() {
    let node = serve_node(NodeConfig {
        rate_per_sec: 1,
        burst: 1,
        ..node_config()
    })
    .expect("bind node");
    let mut stream = TcpStream::connect(node.addr).expect("connect");
    let entry = &small_workload(1)[0];
    let request = |id: u64| {
        Frame::Request(NetRequest {
            id,
            tenant: "burst-tenant".to_string(),
            token: token_for("burst-tenant", DEFAULT_SECRET),
            priority: entry.priority,
            deadline_ms: None,
            algorithm: entry.algorithm,
            iterations: entry.iterations,
            seed: entry.seed,
            work: WorkSpec::ById { n: entry.id.n as u64, k: entry.id.k, h: entry.id.h },
            trace: None,
        })
    };
    // Burst of 3 back-to-back: bucket holds 1, so at least one is shed
    // with a retry hint (the refill rate is 1/s and the writes land
    // within milliseconds).
    for id in 1..=3 {
        write_frame(&mut stream, &request(id)).expect("write");
    }
    let mut limited = 0;
    let mut answered = 0;
    while answered + limited < 3 {
        match read_frame(&mut stream).expect("reply") {
            Some(Frame::Error(e)) => {
                assert_eq!(e.code, ErrorCode::RateLimited, "{e:?}");
                assert!(e.retry_after_ms >= 1, "hint must be actionable");
                limited += 1;
            }
            Some(Frame::Response(_)) => answered += 1,
            Some(Frame::Chunk(_)) => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(limited >= 1, "burst of 3 against bucket of 1 must shed");
    assert!(answered >= 1, "the first request is admitted");
    drop(stream);
    node.begin_shutdown();
    let report = node.join();
    assert!(
        report.net_metrics.render_prometheus().contains("reason=\"rate_limited\""),
        "shed counter labels the rate limit"
    );
}

#[test]
fn router_sharding_is_outcome_invariant_and_dedups_across_connections() {
    let entries = small_workload(18);
    let expected = baseline_csv(&entries);

    for shards in [1usize, 2, 3] {
        let nodes: Vec<NodeHandle> =
            (0..shards).map(|_| serve_node(node_config()).expect("bind node")).collect();
        let router = serve_router(RouterConfig {
            upstreams: nodes.iter().map(|n| n.addr.to_string()).collect(),
            ..RouterConfig::default()
        })
        .expect("bind router");
        let addr = router.addr.to_string();

        // Duplicates are spread across 3 client connections, so dedup can
        // only come from content-key sharding, not connection affinity.
        let outcomes = drive(&addr, &entries, 3, 4);
        assert_eq!(
            sorted_outcome_csv(&outcomes),
            expected,
            "{shards}-shard outcome set diverged from the in-process baseline"
        );

        let stats = client::stats(&addr).expect("router stats");
        assert_eq!(stats.completed, entries.len() as u64);
        assert!(
            stats.cache_hits + stats.coalesced >= 1,
            "duplicate content keys through {shards} shard(s) must hit the fleet cache \
             (hits={}, coalesced={})",
            stats.cache_hits,
            stats.coalesced
        );

        client::shutdown(&addr).expect("fleet shutdown");
        router.join();
        let mut completed = 0;
        for n in nodes {
            completed += n.join().service.completed;
        }
        assert_eq!(completed, entries.len() as u64, "shards partition the workload exactly");
    }
}

/// A "node" that accepts the router's connection, then drops dead the
/// moment real work arrives — and refuses all reconnects. Everything
/// routed to it must be re-routed to the survivor.
fn doomed_upstream() -> (String, std::thread::JoinHandle<bool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind doomed upstream");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("router connects");
        drop(listener); // no reconnects: stay dead after the first kill
        let mut saw_request = false;
        let mut buf = [0u8; 4096];
        // Swallow pings; die on the first byte of a request frame.
        loop {
            match read_frame(&mut stream) {
                Ok(Some(Frame::Request(_))) => {
                    saw_request = true;
                    break; // connection dropped with the request unanswered
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    // Drain whatever confused the codec and keep waiting.
                    if stream.read(&mut buf).unwrap_or(0) == 0 {
                        break;
                    }
                }
            }
        }
        saw_request
    });
    (addr, handle)
}

#[test]
fn upstream_death_reroutes_without_losing_or_changing_outcomes() {
    let entries = small_workload(16);
    let expected = baseline_csv(&entries);

    let survivor = serve_node(node_config()).expect("bind node");
    let (doomed_addr, doomed) = doomed_upstream();
    let router = serve_router(RouterConfig {
        upstreams: vec![doomed_addr, survivor.addr.to_string()],
        health_interval_ms: 50,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.addr.to_string();

    let outcomes = drive(&addr, &entries, 1, 8);
    assert!(outcomes.iter().all(|o| o.response.is_some()), "no request may be stranded");
    assert_eq!(
        sorted_outcome_csv(&outcomes),
        expected,
        "node death changed the outcome set"
    );
    assert!(
        doomed.join().expect("doomed upstream thread"),
        "rendezvous sharding routed at least one request to the doomed upstream"
    );

    client::shutdown(&addr).expect("fleet shutdown");
    let report = router.join();
    assert!(report.reroutes >= 1, "the doomed upstream's work was re-routed");
    assert_eq!(survivor.join().service.completed, entries.len() as u64);
}

#[test]
fn ping_stats_and_aggregation_work_end_to_end() {
    let nodes: Vec<NodeHandle> =
        (0..2).map(|_| serve_node(node_config()).expect("bind node")).collect();
    let router = serve_router(RouterConfig {
        upstreams: nodes.iter().map(|n| n.addr.to_string()).collect(),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.addr.to_string();

    assert!(client::ping(&nodes[0].addr.to_string(), 7).expect("node ping"));
    assert!(client::ping(&addr, 9).expect("router ping"));

    let entries = small_workload(6);
    drive(&addr, &entries, 1, 4);
    let agg = client::stats(&addr).expect("router stats");
    let per_node: u64 = nodes
        .iter()
        .map(|n| client::stats(&n.addr.to_string()).expect("node stats").completed)
        .sum();
    assert_eq!(agg.completed, per_node, "router stats are the sum of its nodes");
    assert_eq!(agg.completed, entries.len() as u64);

    client::shutdown(&addr).expect("fleet shutdown");
    router.join();
    for n in nodes {
        n.join();
    }
}

#[test]
fn concurrent_clients_see_a_drained_shutdown() {
    // Satellite 6 seen from the wire: shutdown drains the queue — work
    // submitted before the drain completes is answered, the service's
    // final report is consistent, and the node joins deterministically.
    let node = serve_node(node_config()).expect("bind node");
    let addr = node.addr.to_string();
    let entries = small_workload(10);
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    let addr2 = addr.clone();
    let worker = std::thread::spawn(move || {
        let outs = drive(&addr2, &entries, 1, 4);
        flag.store(true, Ordering::SeqCst);
        outs
    });
    let outcomes = worker.join().expect("client thread");
    assert!(done.load(Ordering::SeqCst));
    client::shutdown(&addr).expect("shutdown ack");
    let report = node.join();
    assert_eq!(report.service.completed, outcomes.len() as u64);
    assert_eq!(report.service.failed, 0);
    assert_eq!(
        u64::try_from(outcomes.iter().filter(|o| o.response.is_some()).count()).unwrap(),
        report.service.completed
    );
}

#[test]
fn inbound_frame_bytes_sum_to_what_the_client_wrote() {
    let node = serve_node(node_config()).expect("bind node");
    let mut stream = TcpStream::connect(node.addr).expect("connect");
    let entry = &small_workload(1)[0];
    let inst = cdd_instances::cdd_instance(12, 1, 0.4);
    let frames = [
        Frame::Ping { nonce: 1 },
        Frame::Request(NetRequest {
            id: 7,
            tenant: entry.tenant.clone(),
            token: token_for(&entry.tenant, DEFAULT_SECRET),
            priority: entry.priority,
            deadline_ms: None,
            algorithm: entry.algorithm,
            iterations: 20,
            seed: 3,
            work: WorkSpec::Inline {
                ucddcp: false,
                due_date: inst.due_date(),
                jobs: inst.jobs().to_vec(),
            },
            trace: None,
        }),
        Frame::Stats { full: false },
    ];
    let mut wrote = 0;
    for f in &frames {
        let bytes = f.encode();
        stream.write_all(&bytes).expect("write frame");
        wrote += bytes.len();
    }
    let (mut pong, mut response, mut stats) = (false, false, false);
    while !(pong && response && stats) {
        match read_frame(&mut stream).expect("reply").expect("open connection") {
            Frame::Pong { .. } => pong = true,
            Frame::Response(_) => response = true,
            Frame::StatsReply(_) => stats = true,
            Frame::Chunk(_) => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
    drop(stream);
    node.begin_shutdown();
    let report = node.join();
    let read = report.net_metrics.histogram("net_frame_bytes", &[("dir", "in")]).expect("inbound");
    assert_eq!(read.count(), frames.len() as u64);
    assert_eq!(read.sum(), wrote as f64, "the bytes read are the bytes written");
}

#[test]
fn a_stalled_half_frame_cannot_hang_node_shutdown() {
    // A peer that starts a frame and stalls pins only its own reader, and
    // only until `MID_FRAME_STALL` passes without a byte: then the reader
    // answers with a protocol error and closes, so the drain completes.
    let node = serve_node(node_config()).expect("bind node");
    let mut stream = TcpStream::connect(node.addr).expect("connect");
    // A ping round trip proves the node has accepted this connection.
    write_frame(&mut stream, &Frame::Ping { nonce: 3 }).expect("write ping");
    assert!(matches!(read_frame(&mut stream), Ok(Some(Frame::Pong { nonce: 3 }))));
    stream.write_all(&[64, 0]).expect("two bytes of a length prefix");
    // The reader's next read takes both bytes; stop only after that, so
    // the reader is mid-frame, not between frames, when it sees the stop.
    std::thread::sleep(Duration::from_millis(100));

    node.begin_shutdown();
    let (done, joined) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        let _ = done.send(node.join());
    });
    // Without the bound the join never returns; the test fails here.
    let report = joined
        .recv_timeout(MID_FRAME_STALL + Duration::from_secs(1))
        .expect("node shutdown is not pinned by a stalled half-frame");
    joiner.join().expect("joiner thread");
    assert_eq!(report.connections, 1);
    match read_frame(&mut stream) {
        Ok(Some(Frame::Error(e))) => {
            assert_eq!(e.code, ErrorCode::Protocol);
            assert!(e.detail.contains("mid length prefix"), "{}", e.detail);
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
}
