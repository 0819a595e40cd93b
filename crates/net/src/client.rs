//! Synchronous framed-protocol client.
//!
//! [`run_workload`] drives each of its TCP connections with a bounded
//! in-flight window, reassembles streamed sequence chunks, and absorbs the
//! protocol's flow-control verbs so callers see only terminal outcomes:
//! `RateLimited`/`Rejected` replies are resubmitted after the server's
//! retry hint, `Unavailable` retries with exponential backoff, and a
//! dropped connection reconnects and resubmits everything still in
//! flight. Because every retry carries the identical work, the set of
//! `(request, fitness, degraded)` outcomes a workload produces is
//! independent of how often the transport stuttered — the client is part
//! of the determinism contract, not an exception to it (DESIGN.md §13).
//!
//! Several connections split the workload round-robin, which is how the
//! tests demonstrate cross-connection and cross-node cache deduplication.

use crate::auth;
use crate::frame::{
    assemble_sequence, read_frame, write_frame, ErrorCode, Frame, NetError, NetRequest,
    NetResponse, NodeStats, StatsEnvelope, WorkSpec,
};
use cdd_bench::workload::WorkloadEntry;
use cdd_core::{SuiteError, TraceContext};
use cdd_metrics::FlightRecord;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::Duration;

/// Give-up threshold for one entry: reconnects, rate-limit waits and
/// re-routes all count.
pub const MAX_ATTEMPTS: u32 = 64;

/// Client-side behavior switches beyond the transport basics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientOptions {
    /// Attach a sampled [`TraceContext`] to every request and collect the
    /// per-request [`FlightRecord`]s the fleet returns. Trace ids derive
    /// from workload entry positions, so they are stable across runs,
    /// resubmissions and reconnects — which is what keeps traced
    /// artifacts byte-comparable.
    pub trace: bool,
}

/// Terminal result of one workload entry driven through the socket.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// The submitted work.
    pub entry: WorkloadEntry,
    /// Terminal response, if the request succeeded.
    pub response: Option<NetResponse>,
    /// Reassembled job sequence (empty when `response` is `None`).
    pub sequence: Vec<u32>,
    /// Terminal error, if the request failed permanently.
    pub error: Option<NetError>,
    /// Submissions performed (1 = first try succeeded).
    pub attempts: u32,
}

impl ClientOutcome {
    /// One line of the sorted outcome CSV (see [`sorted_outcome_csv`]).
    #[must_use]
    pub fn csv_row(&self) -> String {
        let (kind, h) = match self.entry.id.h {
            Some(h) => ("cdd", format!("{h}")),
            None => ("ucddcp", "-".to_string()),
        };
        let (objective, degraded) = match &self.response {
            Some(r) => (r.objective.to_string(), r.degraded.to_string()),
            None => ("error".to_string(), "-".to_string()),
        };
        format!(
            "{kind},{},{},{h},{},{},{},{},{},{objective},{degraded}",
            self.entry.id.n,
            self.entry.id.k,
            self.entry.algorithm,
            self.entry.iterations,
            self.entry.seed,
            self.entry.tenant,
            self.entry.priority,
        )
    }
}

/// The determinism artifact: every outcome as a CSV row, sorted, with a
/// header. Byte-identical across shard counts, routings and node
/// restarts for a fixed workload (wall-clock columns are deliberately
/// excluded).
#[must_use]
pub fn sorted_outcome_csv(outcomes: &[ClientOutcome]) -> String {
    let mut rows: Vec<String> = outcomes.iter().map(ClientOutcome::csv_row).collect();
    rows.sort();
    let mut out =
        String::from("kind,n,k,h,algorithm,iterations,seed,tenant,priority,objective,degraded\n");
    for r in &rows {
        out.push_str(r);
        out.push('\n');
    }
    out
}

fn connect(addr: &str) -> Result<TcpStream, SuiteError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| SuiteError::protocol(format!("connect {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

fn entry_request(
    id: u64,
    entry: &WorkloadEntry,
    secret: &str,
    trace: Option<TraceContext>,
) -> NetRequest {
    NetRequest {
        id,
        tenant: entry.tenant.clone(),
        token: auth::token_for(&entry.tenant, secret),
        priority: entry.priority,
        deadline_ms: None,
        algorithm: entry.algorithm,
        iterations: entry.iterations,
        seed: entry.seed,
        work: WorkSpec::ById {
            n: entry.id.n as u64,
            k: entry.id.k,
            h: entry.id.h,
        },
        trace,
    }
}

struct Pending {
    entry_idx: usize,
    chunks: Vec<u8>,
    attempts: u32,
}

/// The workhorse: entries tagged with their *global* workload position,
/// which seeds the trace id (`position + 1`) — globally unique across
/// sharded connections and stable across runs, resubmissions and
/// reconnects.
fn run_indexed(
    addr: &str,
    entries: &[(u64, WorkloadEntry)],
    window: usize,
    secret: &str,
    opts: ClientOptions,
) -> Result<Vec<ClientOutcome>, SuiteError> {
    let window = window.max(1);
    let mut outcomes: Vec<Option<ClientOutcome>> = entries.iter().map(|_| None).collect();
    if entries.is_empty() {
        return Ok(Vec::new());
    }
    let mut stream = connect(addr)?;
    let mut next_id: u64 = 1;
    let mut next_entry: usize = 0;
    // BTreeMap: resubmission after a reconnect happens in a deterministic
    // (id) order.
    let mut pending: BTreeMap<u64, Pending> = BTreeMap::new();
    let mut reconnects: u32 = 0;

    let submit = |stream: &mut TcpStream,
                  pending: &mut BTreeMap<u64, Pending>,
                  next_id: &mut u64,
                  entry_idx: usize,
                  attempts: u32|
     -> Result<(), SuiteError> {
        let id = *next_id;
        *next_id += 1;
        let (global_idx, entry) = &entries[entry_idx];
        let trace = opts.trace.then(|| TraceContext::root(global_idx + 1));
        let req = entry_request(id, entry, secret, trace);
        write_frame(stream, &Frame::Request(req))?;
        pending.insert(id, Pending { entry_idx, chunks: Vec::new(), attempts: attempts + 1 });
        Ok(())
    };

    while next_entry < window.min(entries.len()) {
        submit(&mut stream, &mut pending, &mut next_id, next_entry, 0)?;
        next_entry += 1;
    }

    while !pending.is_empty() || next_entry < entries.len() {
        // Top the window back up (entries freed by completed requests).
        while pending.len() < window && next_entry < entries.len() {
            submit(&mut stream, &mut pending, &mut next_id, next_entry, 0)?;
            next_entry += 1;
        }
        let frame = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => {
                // Connection lost: reconnect and resubmit everything that
                // was in flight. Identical work ⇒ identical outcomes, so
                // the retry is invisible in the outcome set.
                reconnects += 1;
                if reconnects > MAX_ATTEMPTS {
                    return Err(SuiteError::protocol(format!(
                        "gave up after {reconnects} reconnects to {addr}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(u64::from(reconnects.min(20)) * 25));
                let Ok(s) = connect(addr) else { continue };
                stream = s;
                let inflight: Vec<(usize, u32)> =
                    pending.values().map(|p| (p.entry_idx, p.attempts)).collect();
                pending.clear();
                for (idx, attempts) in inflight {
                    submit(&mut stream, &mut pending, &mut next_id, idx, attempts)?;
                }
                continue;
            }
        };
        match frame {
            Frame::Chunk(c) => {
                if let Some(p) = pending.get_mut(&c.id) {
                    if c.index == 0 {
                        // A re-routed stream restarts from the top.
                        p.chunks.clear();
                    }
                    p.chunks.extend_from_slice(&c.data);
                }
            }
            Frame::Response(r) => {
                if let Some(p) = pending.remove(&r.id) {
                    let sequence = assemble_sequence(&p.chunks)?;
                    outcomes[p.entry_idx] = Some(ClientOutcome {
                        entry: entries[p.entry_idx].1.clone(),
                        response: Some(r),
                        sequence,
                        error: None,
                        attempts: p.attempts,
                    });
                }
            }
            Frame::Error(e) => {
                let Some(p) = pending.remove(&e.id) else { continue };
                let retryable = matches!(
                    e.code,
                    ErrorCode::RateLimited | ErrorCode::Rejected | ErrorCode::Unavailable
                );
                if retryable && p.attempts < MAX_ATTEMPTS {
                    let backoff = e
                        .retry_after_ms
                        .max(u64::from(p.attempts).saturating_mul(10))
                        .min(2000);
                    std::thread::sleep(Duration::from_millis(backoff.max(1)));
                    submit(&mut stream, &mut pending, &mut next_id, p.entry_idx, p.attempts)?;
                } else {
                    outcomes[p.entry_idx] = Some(ClientOutcome {
                        entry: entries[p.entry_idx].1.clone(),
                        response: None,
                        sequence: Vec::new(),
                        error: Some(e),
                        attempts: p.attempts,
                    });
                }
            }
            // Pongs / stats replies on this connection are not ours to
            // consume mid-workload; ignore.
            _ => {}
        }
    }
    Ok(outcomes.into_iter().map(|o| o.expect("every entry resolved")).collect())
}

/// Drive `entries` through `connections` sockets to `addr`, each on its
/// own thread with at most `window` requests in flight, and return one
/// outcome per entry, in entry order. Entries are split round-robin over
/// the connections, so duplicate content keys arriving on different
/// sockets must still hit the same node's cache (through the router's
/// content-key sharding). Trace ids keep their *global* workload positions
/// through the split, so a traced run produces the same flight-record set
/// whatever the connection count.
pub fn run_workload(
    addr: &str,
    entries: &[WorkloadEntry],
    connections: usize,
    window: usize,
    secret: &str,
    opts: ClientOptions,
) -> Result<Vec<ClientOutcome>, SuiteError> {
    let connections = connections.max(1);
    let mut slots: Vec<Vec<(usize, WorkloadEntry)>> = vec![Vec::new(); connections];
    for (i, e) in entries.iter().enumerate() {
        slots[i % connections].push((i, e.clone()));
    }
    let results: Vec<Result<Vec<(usize, ClientOutcome)>, SuiteError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = slots
                .iter()
                .map(|slot| {
                    scope.spawn(move || {
                        let local: Vec<(u64, WorkloadEntry)> =
                            slot.iter().map(|(i, e)| (*i as u64, e.clone())).collect();
                        let outs = run_indexed(addr, &local, window, secret, opts)?;
                        Ok(slot.iter().map(|(i, _)| *i).zip(outs).collect())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
    let mut merged: Vec<Option<ClientOutcome>> = entries.iter().map(|_| None).collect();
    for r in results {
        for (i, o) in r? {
            merged[i] = Some(o);
        }
    }
    Ok(merged.into_iter().map(|o| o.expect("every entry resolved")).collect())
}

/// Round-trip a `Ping` and return whether the matching `Pong` came back.
pub fn ping(addr: &str, nonce: u64) -> Result<bool, SuiteError> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &Frame::Ping { nonce })?;
    match read_frame(&mut stream)? {
        Some(Frame::Pong { nonce: n }) => Ok(n == nonce),
        other => Err(SuiteError::protocol(format!("expected pong, got {other:?}"))),
    }
}

/// Fetch a live counter snapshot from a node.
pub fn stats(addr: &str) -> Result<NodeStats, SuiteError> {
    Ok(stats_envelope(addr, false)?.stats)
}

/// Fetch a stats envelope, optionally asking for the full metrics
/// registry (`full: true`). Against a router, the envelope also carries
/// [`crate::frame::UpstreamHealth`] and the registry is the
/// deterministically merged fleet-wide aggregate.
pub fn stats_envelope(addr: &str, full: bool) -> Result<StatsEnvelope, SuiteError> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &Frame::Stats { full })?;
    match read_frame(&mut stream)? {
        Some(Frame::StatsReply(env)) => Ok(env),
        other => Err(SuiteError::protocol(format!("expected stats reply, got {other:?}"))),
    }
}

/// Extract the flight records a traced workload brought home, one per
/// successfully answered entry (order follows the outcome slice; the
/// fleet-trace builder orders internally, so callers need not sort).
#[must_use]
pub fn flight_records(outcomes: &[ClientOutcome]) -> Vec<FlightRecord> {
    outcomes
        .iter()
        .filter_map(|o| o.response.as_ref().and_then(|r| r.flight.clone()))
        .collect()
}

/// Ask a node (or router) to drain and exit; returns once the peer
/// acknowledges or closes the connection.
pub fn shutdown(addr: &str) -> Result<(), SuiteError> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &Frame::Shutdown)?;
    loop {
        match read_frame(&mut stream)? {
            Some(Frame::Shutdown) | None => return Ok(()),
            Some(_) => {}
        }
    }
}
