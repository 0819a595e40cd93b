//! Open-loop latency runs from each request's due time: a server stall
//! shows in every request due while it lasts, where a closed loop would
//! record it only once.

use cdd_e2e_bench::loadgen::{closed_loop, open_loop, ClosedLoop, Phase};
use cdd_e2e_bench::workloads;
use cdd_net::frame::{read_frame, write_frame, Frame, NetResponse, StreamChunk};
use std::net::TcpListener;
use std::time::Duration;

const REQUESTS: usize = 40;
const GAP_S: f64 = 0.01;
const STALLED: u64 = 6;
const STALL: Duration = Duration::from_millis(300);

/// A server that answers every request at once, except that it stalls
/// before answering the `STALLED`-th request of each connection.
fn stub_server(connections: usize) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        for _ in 0..connections {
            let (mut stream, _) = listener.accept().unwrap();
            let mut seen = 0;
            while let Ok(Some(frame)) = read_frame(&mut stream) {
                let Frame::Request(r) = frame else { continue };
                seen += 1;
                if seen == STALLED {
                    std::thread::sleep(STALL);
                }
                let chunk = StreamChunk {
                    id: r.id,
                    index: 0,
                    total: 1,
                    data: vec![0; 4],
                };
                write_frame(&mut stream, &Frame::Chunk(chunk)).unwrap();
                let response = NetResponse {
                    id: r.id,
                    objective: 0,
                    modeled_seconds: 0.0,
                    evaluations: 0,
                    cache_hit: false,
                    device: None,
                    cpu_fallback: false,
                    degraded: false,
                    wall_ms: 0.0,
                    flight: None,
                };
                write_frame(&mut stream, &Frame::Response(response)).unwrap();
            }
        }
    });
    (addr, server)
}

fn slow(phase: &Phase) -> usize {
    phase.latencies_ms().iter().filter(|&&l| l >= 100.0).count()
}

#[test]
fn a_stall_shows_in_every_request_due_during_it() {
    let entries = workloads::find("small-open").unwrap().entries(1, REQUESTS);
    let schedule: Vec<f64> = (0..REQUESTS).map(|i| i as f64 * GAP_S).collect();
    let (addr, server) = stub_server(2);

    let open = open_loop(&addr, &entries, &schedule, false).unwrap();
    assert_eq!((open.attempted, open.answered()), (REQUESTS, REQUESTS));
    // Every latency starts at the request's due time, wherever the sender
    // happened to be: the starts sit exactly on the schedule.
    let first = &open.exchanges[0];
    for x in &open.exchanges {
        let offset = x.start.duration_since(first.start).as_secs_f64();
        assert!(
            (offset - schedule[x.idx]).abs() < 1e-6,
            "request {} starts {offset} s in, due at {} s",
            x.idx,
            schedule[x.idx]
        );
    }
    // The stalled request was due at 50 ms and the stall ends about 350 ms
    // in: every request due in between waits for it, and its latency,
    // counted from its due time, reaches (nearly) to the stall's end.
    let stalled = &open.exchanges[STALLED as usize - 1];
    let stall_end_ms = 1e3 * schedule[stalled.idx] + stalled.latency_ms();
    assert!(stall_end_ms >= 340.0, "stall ended at {stall_end_ms} ms");
    for x in &open.exchanges[STALLED as usize..] {
        let due_ms = 1e3 * schedule[x.idx];
        if due_ms + 20.0 < stall_end_ms {
            let expected = stall_end_ms - due_ms;
            assert!(
                (x.latency_ms() - expected).abs() < 20.0,
                "request {} due at {due_ms} ms: latency {} ms, expected about {expected} ms",
                x.idx,
                x.latency_ms()
            );
        }
    }
    assert!(slow(&open) >= 20, "{} slow requests", slow(&open));
    assert!(
        open.lags_ms.iter().all(|&l| l < 50.0),
        "the sender kept to its schedule"
    );

    // A closed loop with one request in flight records the stall once.
    let cfg = ClosedLoop {
        connections: 1,
        window: 1,
        traced: false,
    };
    let closed = closed_loop(&addr, &entries, &cfg).unwrap();
    assert_eq!(closed.answered(), REQUESTS);
    assert_eq!(slow(&closed), 1);
    server.join().unwrap();
}
