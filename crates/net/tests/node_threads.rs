//! The node's thread budget: the accept loop plus two threads per open
//! connection (its reader and its writer), however many requests the
//! connection has in flight. Admitted requests hold a queued reply, not
//! a thread.
//!
//! This is its own test binary so that `/proc/self/task` holds no other
//! test's node threads.

#![cfg(target_os = "linux")]

use cdd_core::{Algorithm, Priority};
use cdd_net::auth::{token_for, DEFAULT_SECRET};
use cdd_net::frame::{read_frame, write_frame, Frame, NetRequest, WorkSpec};
use cdd_net::node::{serve, NodeConfig};
use cdd_service::ServiceConfig;
use std::net::TcpStream;

/// Requests held in flight on the one connection.
const IN_FLIGHT: u64 = 16;

/// Names of this process's node threads (Linux truncates them to 15
/// bytes), sorted.
fn node_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with("cdd-node-"))
        .collect();
    names.sort();
    names
}

fn request(id: u64, n: u64, iterations: u64) -> Frame {
    Frame::Request(NetRequest {
        id,
        tenant: "t0".to_string(),
        token: token_for("t0", DEFAULT_SECRET),
        priority: Priority::Normal,
        deadline_ms: None,
        algorithm: Algorithm::Sa,
        iterations,
        seed: id,
        work: WorkSpec::ById { n, k: 1, h: Some(0.6) },
        trace: None,
    })
}

#[test]
fn a_connection_is_two_threads_whatever_its_in_flight_count() {
    let node = serve(NodeConfig {
        service: ServiceConfig { devices: 1, blocks: 1, block_size: 32, ..Default::default() },
        ..NodeConfig::default()
    })
    .expect("bind node");
    let mut stream = TcpStream::connect(node.addr).expect("connect");
    // A long request holds the one device; the rest queue behind it.
    write_frame(&mut stream, &request(0, 50, 4000)).expect("write blocker");
    for id in 1..IN_FLIGHT {
        write_frame(&mut stream, &request(id, 10, 20)).expect("write request");
    }
    // The reader handles frames in order, so once the stats reply is out
    // every request before it has been admitted.
    write_frame(&mut stream, &Frame::Stats { full: false }).expect("write stats probe");
    let mut answered = 0;
    let stats = loop {
        match read_frame(&mut stream).expect("read") {
            Some(Frame::StatsReply(envelope)) => break envelope.stats,
            Some(Frame::Response(_)) => answered += 1,
            Some(Frame::Chunk(_)) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    };
    let threads = node_threads();
    assert_eq!(stats.submitted, IN_FLIGHT, "every request was admitted");
    assert!(stats.completed < IN_FLIGHT, "requests are still in flight");
    assert_eq!(
        threads,
        ["cdd-node-accept", "cdd-node-conn-0", "cdd-node-out-0"],
        "the accept loop and one reader and one writer for the connection, \
         with {} of {IN_FLIGHT} requests unanswered",
        IN_FLIGHT - stats.completed
    );

    // Every answer still arrives, on the same connection.
    while answered < IN_FLIGHT {
        match read_frame(&mut stream).expect("read") {
            Some(Frame::Response(_)) => answered += 1,
            Some(Frame::Chunk(_)) => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    drop(stream);
    node.begin_shutdown();
    let report = node.join();
    assert_eq!(report.service.completed, IN_FLIGHT);
    assert!(node_threads().is_empty(), "the drain joined every node thread");
}
