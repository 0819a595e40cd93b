//! `cdd-node`: a [`SolverService`] behind a framed TCP listener.
//!
//! Two threads per connection, no async runtime (DESIGN.md §13): the
//! accept loop hands each connection to a reader thread, which spawns the
//! connection's writer. The writer owns the socket's write half and drains
//! one channel: the reader queues its own replies there (Pong, StatsReply,
//! sheds, protocol errors, the Shutdown echo), and every admitted request
//! queues its answer there from [`SolverService::submit_with`]'s reply.
//! Answers therefore go out in completion order, each answer's frames
//! written together, and a slow campaign never blocks the connection's
//! other replies. No thread waits per request. A `Shutdown` frame drains
//! deterministically: stop accepting, finish every admitted request, then
//! [`SolverService::shutdown`] joins the supervisor and workers.
//!
//! All `net_*` metrics live in the node's own registry, separate from the
//! service's `service_*`/`timing_*` namespaces: per-tenant admitted and
//! shed counters are deterministic for a fixed workload *and* arrival
//! order, frame-size and per-connection histograms are traffic-shaped.

use crate::auth;
use crate::frame::{
    self, chunk_sequence, read_frame_sized, ErrorCode, Frame, NetError, NetRequest, NetResponse,
    NodeStats, StatsEnvelope,
};
use crate::limiter::TenantLimiter;
use cdd_metrics::{connection_requests_buckets, frame_bytes_buckets, FlightHop, MetricsRegistry};
use cdd_service::{RequestOutcome, ServiceConfig, ServiceReport, SolverService};
use cdd_core::SuiteError;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Bind address; port 0 asks the OS for a free port (the bound
    /// address is reported on the returned handle).
    pub addr: String,
    /// The wrapped solver service's configuration.
    pub service: ServiceConfig,
    /// Auth secret tokens are verified against.
    pub secret: String,
    /// Per-tenant admission rate, requests/second (0 disables limiting).
    pub rate_per_sec: u64,
    /// Per-tenant burst allowance.
    pub burst: u64,
    /// Label this node stamps on every flight record it ships (and on its
    /// slow-log lines). Fleet traces group by it, so give each node in a
    /// fleet a distinct label.
    pub label: String,
    /// Append threshold-gated slow-request JSONL lines to this file (only
    /// traced requests can be logged — the line is the flight record's
    /// latency attribution). `None` disables the log.
    pub slow_log: Option<PathBuf>,
    /// Wall-clock latency, milliseconds, at or above which a traced
    /// request is written to `slow_log`.
    pub slow_threshold_ms: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            addr: "127.0.0.1:0".to_string(),
            service: ServiceConfig::default(),
            secret: auth::DEFAULT_SECRET.to_string(),
            rate_per_sec: 0,
            burst: 8,
            label: "node".to_string(),
            slow_log: None,
            slow_threshold_ms: 0,
        }
    }
}

/// Everything a node run leaves behind.
#[derive(Debug)]
pub struct NodeReport {
    /// The wrapped service's final report (counters, cache, devices,
    /// folded `service_*`/`timing_*` metrics).
    pub service: ServiceReport,
    /// The node's own `net_*` metrics registry.
    pub net_metrics: MetricsRegistry,
    /// Connections accepted over the node's lifetime.
    pub connections: u64,
}

struct NodeShared {
    service: SolverService,
    limiter: Mutex<TenantLimiter>,
    metrics: Mutex<MetricsRegistry>,
    secret: String,
    label: String,
    slow_log: Option<Mutex<std::fs::File>>,
    slow_threshold_ms: u64,
    stop: AtomicBool,
    connections: AtomicU64,
    started: Instant,
}

/// The node's `net_*` registry with its deterministic `# HELP` table
/// pre-installed (descriptions render only for series that exist).
fn net_registry() -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for (name, help) in [
        ("net_frames_total", "Frames read and written, by direction and type."),
        ("net_frame_bytes", "Encoded frame sizes, bytes, by direction."),
        ("net_requests_total", "Request frames received, per tenant."),
        ("net_admitted_total", "Requests admitted into the service, per tenant."),
        ("net_shed_total", "Requests shed before admission, per tenant and reason."),
        ("net_connection_requests", "Requests handled per connection."),
    ] {
        m.describe(name, help);
    }
    m
}

impl NodeShared {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn count_frame(&self, dir: &str, f: &Frame, bytes: usize) {
        let mut m = self.metrics.lock().expect("net metrics lock");
        m.inc("net_frames_total", &[("dir", dir), ("type", f.label())], 1);
        #[allow(clippy::cast_precision_loss)]
        m.observe("net_frame_bytes", &[("dir", dir)], bytes as f64, frame_bytes_buckets());
    }
}

/// A running node: its bound address plus the join handle for the accept
/// loop (which returns the final [`NodeReport`] once drained).
pub struct NodeHandle {
    /// The address the listener actually bound (resolves port 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: std::thread::JoinHandle<NodeReport>,
}

impl NodeHandle {
    /// Ask the accept loop to stop without a `Shutdown` frame (used by
    /// embedders; remote peers send the frame instead).
    pub fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Wait for the node to drain and return its report.
    pub fn join(self) -> NodeReport {
        self.accept.join().expect("node accept loop panicked")
    }
}

/// Bind `config.addr` and serve until a `Shutdown` frame (or
/// [`NodeHandle::begin_shutdown`]) stops the accept loop; the returned
/// handle reports the bound address immediately.
pub fn serve(config: NodeConfig) -> std::io::Result<NodeHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let slow_log = match &config.slow_log {
        Some(path) => Some(Mutex::new(
            std::fs::OpenOptions::new().create(true).append(true).open(path)?,
        )),
        None => None,
    };
    let shared = Arc::new(NodeShared {
        service: SolverService::start(config.service),
        limiter: Mutex::new(TenantLimiter::new(config.rate_per_sec, config.burst)),
        metrics: Mutex::new(net_registry()),
        secret: config.secret,
        label: config.label,
        slow_log,
        slow_threshold_ms: config.slow_threshold_ms,
        stop: AtomicBool::new(false),
        connections: AtomicU64::new(0),
        started: Instant::now(),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let stop_in = Arc::clone(&stop);
    let accept = std::thread::Builder::new()
        .name("cdd-node-accept".to_string())
        .spawn(move || accept_loop(&listener, shared, &stop_in))
        .expect("spawn accept loop");
    Ok(NodeHandle { addr, stop, accept })
}

fn accept_loop(
    listener: &TcpListener,
    shared: Arc<NodeShared>,
    external_stop: &AtomicBool,
) -> NodeReport {
    let mut conns = Vec::new();
    loop {
        if external_stop.load(Ordering::SeqCst) {
            shared.stop.store(true, Ordering::SeqCst);
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let id = shared.connections.fetch_add(1, Ordering::SeqCst);
                let sh = Arc::clone(&shared);
                let h = std::thread::Builder::new()
                    .name(format!("cdd-node-conn-{id}"))
                    .spawn(move || handle_connection(&sh, stream, id))
                    .expect("spawn connection thread");
                conns.push(h);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for h in conns {
        let _ = h.join();
    }
    // Drain: every admitted request completes before the service joins
    // its workers, so a restart never strands work.
    while !shared.service.idle() {
        std::thread::sleep(Duration::from_millis(5));
    }
    let connections = shared.connections.load(Ordering::SeqCst);
    // Every connection thread has been joined, and each joined its
    // writer, so this node holds the last reference.
    let sh = Arc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("connection threads still hold the node state"));
    NodeReport {
        service: sh.service.shutdown(),
        net_metrics: sh.metrics.into_inner().expect("net metrics lock"),
        connections,
    }
}

/// Map a service-side failure to its wire error code and retry hint.
fn map_error(err: &SuiteError) -> (ErrorCode, u64) {
    match err {
        SuiteError::Rejected { .. } => (ErrorCode::Rejected, 25),
        SuiteError::DeadlineExceeded { .. } => (ErrorCode::DeadlineExceeded, 0),
        SuiteError::RateLimited { retry_after_ms, .. } => (ErrorCode::RateLimited, *retry_after_ms),
        SuiteError::Protocol { .. } => (ErrorCode::Protocol, 0),
        _ => (ErrorCode::Internal, 0),
    }
}

/// What a connection's writer thread sends.
enum Out {
    /// A frame the reader built (Pong, StatsReply, a shed, a protocol
    /// error, the Shutdown echo).
    Frame(Frame),
    /// An admitted request's answer: its frame id, the node's admission
    /// hops (empty unless traced) and the service's outcome.
    Answer { id: u64, hops: Vec<FlightHop>, outcome: RequestOutcome },
}

/// The writer thread: write everything queued for the connection until
/// every sender is gone — the reader's, and the reply of each request the
/// connection admitted. Write errors are ignored (the peer left), but the
/// queue still drains, so every answer is counted and slow-logged.
fn write_loop(shared: &NodeShared, mut stream: TcpStream, queue: &Receiver<Out>) {
    let mut bytes = Vec::new();
    for out in queue {
        bytes.clear();
        match out {
            Out::Frame(frame) => encode_out(shared, &mut bytes, &frame),
            Out::Answer { id, hops, outcome } => {
                encode_answer(shared, &mut bytes, id, hops, outcome)
            }
        }
        let _ = stream.write_all(&bytes);
    }
}

/// Append `frame`'s encoding to `bytes` and count it as sent.
fn encode_out(shared: &NodeShared, bytes: &mut Vec<u8>, frame: &Frame) {
    let encoded = frame.encode();
    shared.count_frame("out", frame, encoded.len());
    bytes.extend_from_slice(&encoded);
}

/// Encode one answer — the chunks then the `Response`, or an `Error` —
/// stitching the node's hops into the flight record and writing the slow
/// log line first.
fn encode_answer(
    shared: &NodeShared,
    bytes: &mut Vec<u8>,
    id: u64,
    mut hops: Vec<FlightHop>,
    outcome: RequestOutcome,
) {
    // Stitch the flight: node hops first (they happened first), then the
    // service-side hops, stamped with this node's label.
    let flight = outcome.flight.map(|mut f| {
        f.node = shared.label.clone();
        hops.append(&mut f.hops);
        f.hops = hops;
        f
    });
    if let (Some(f), Some(log)) = (&flight, &shared.slow_log) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let wall_ms = outcome.wall_ms.max(0.0) as u64;
        if wall_ms >= shared.slow_threshold_ms {
            let line = f.slow_log_json(wall_ms, shared.slow_threshold_ms);
            let mut w = log.lock().expect("slow log lock");
            let _ = writeln!(w, "{line}");
        }
    }
    match outcome.result {
        Ok(out) => {
            for chunk in chunk_sequence(id, out.sequence.as_slice()) {
                encode_out(shared, bytes, &Frame::Chunk(chunk));
            }
            encode_out(
                shared,
                bytes,
                &Frame::Response(NetResponse {
                    id,
                    objective: out.objective,
                    modeled_seconds: out.modeled_seconds,
                    evaluations: out.evaluations,
                    cache_hit: out.cache_hit,
                    device: out.device.map(|d| d as u64),
                    cpu_fallback: out.cpu_fallback,
                    degraded: out.degraded,
                    wall_ms: outcome.wall_ms,
                    flight,
                }),
            );
        }
        Err(e) => {
            let (code, retry) = map_error(&e);
            encode_out(
                shared,
                bytes,
                &Frame::Error(NetError { id, code, detail: e.to_string(), retry_after_ms: retry }),
            );
        }
    }
}

fn handle_connection(shared: &Arc<NodeShared>, stream: TcpStream, conn: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(write_half) = stream.try_clone() else { return };
    let (out, queue) = mpsc::channel();
    let sh = Arc::clone(shared);
    let writer = std::thread::Builder::new()
        .name(format!("cdd-node-out-{conn}"))
        .spawn(move || write_loop(&sh, write_half, &queue))
        .expect("spawn connection writer");
    let mut reader = stream;
    let mut requests_on_conn: u64 = 0;
    let send = |frame: Frame| {
        let _ = out.send(Out::Frame(frame));
    };

    loop {
        let (frame, bytes) = match read_frame_sized(&mut reader) {
            Ok(Some(read)) => read,
            Ok(None) => break,
            Err(e) if frame::is_idle_timeout(&e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) => {
                // Framing is damaged; report once and close.
                send(Frame::Error(NetError {
                    id: 0,
                    code: ErrorCode::Protocol,
                    detail: e.to_string(),
                    retry_after_ms: 0,
                }));
                break;
            }
        };
        shared.count_frame("in", &frame, bytes);
        match frame {
            Frame::Request(req) => {
                requests_on_conn += 1;
                handle_request(shared, &out, req);
            }
            Frame::Ping { nonce } => send(Frame::Pong { nonce }),
            Frame::Stats { full } => {
                let snap = shared.service.snapshot();
                let mut envelope = StatsEnvelope::flat(NodeStats {
                    submitted: snap.submitted,
                    completed: snap.completed,
                    failed: snap.failed,
                    expired: snap.expired,
                    degraded: snap.degraded,
                    rejected: snap.rejected,
                    retried: snap.retried,
                    restarts: snap.restarts,
                    queue_depth: snap.queue_depth as u64,
                    cache_hits: snap.cache.hits,
                    cache_misses: snap.cache.misses,
                    coalesced: snap.cache.coalesced,
                });
                if full {
                    // The full registry: the service's lifetime fold plus
                    // the node's own net_* namespace, one merged snapshot.
                    let mut registry = shared.service.metrics_snapshot();
                    registry.merge_from(&shared.metrics.lock().expect("net metrics lock"));
                    envelope.registry = Some(registry);
                }
                send(Frame::StatsReply(envelope));
            }
            Frame::Shutdown => {
                shared.stop.store(true, Ordering::SeqCst);
                // Echoed back as the acknowledgement: the node closes the
                // connection once this connection's answers are written.
                send(Frame::Shutdown);
                break;
            }
            other => send(Frame::Error(NetError {
                id: 0,
                code: ErrorCode::Protocol,
                detail: format!("unexpected {} frame from client", other.label()),
                retry_after_ms: 0,
            })),
        }
    }

    // The writer ends once the last admitted request's answer is written.
    drop(out);
    writer.join().expect("connection writer panicked");
    #[allow(clippy::cast_precision_loss)]
    shared.metrics.lock().expect("net metrics lock").observe(
        "net_connection_requests",
        &[],
        requests_on_conn as f64,
        connection_requests_buckets(),
    );
}

fn handle_request(shared: &NodeShared, out: &Sender<Out>, req: NetRequest) {
    let tenant = req.tenant.clone();
    shared
        .metrics
        .lock()
        .expect("net metrics lock")
        .inc("net_requests_total", &[("tenant", &tenant)], 1);

    let shed = |code: ErrorCode, detail: String, retry_after_ms: u64| {
        shared.metrics.lock().expect("net metrics lock").inc(
            "net_shed_total",
            &[("tenant", &tenant), ("reason", code.label())],
            1,
        );
        let _ = out.send(Out::Frame(Frame::Error(NetError {
            id: req.id,
            code,
            detail,
            retry_after_ms,
        })));
    };

    // Node-layer hop spans for the flight record: each admission step is a
    // logical decision (modeled 0), wall-timed for the slow log only.
    // Recorded only for sampled requests, so untraced traffic pays nothing.
    let sampled = req.trace.is_some_and(|t| t.sampled);
    let mut node_hops: Vec<FlightHop> = Vec::new();
    let mut step = Instant::now();

    if !auth::verify(&req.tenant, &req.token, &shared.secret) {
        shed(ErrorCode::Auth, format!("bad token for tenant {:?}", req.tenant), 0);
        return;
    }
    if sampled {
        node_hops.push(
            FlightHop::new("node", "auth", 0.0, step.elapsed().as_secs_f64() * 1e6)
                .with_detail("tenant", &tenant),
        );
        step = Instant::now();
    }
    let now = shared.now_ms();
    if let Err(hint) =
        shared.limiter.lock().expect("limiter lock").try_acquire(&req.tenant, now)
    {
        shed(
            ErrorCode::RateLimited,
            format!("tenant {:?} over rate budget", req.tenant),
            hint.retry_after_ms,
        );
        return;
    }
    if sampled {
        node_hops.push(FlightHop::new("node", "limit", 0.0, step.elapsed().as_secs_f64() * 1e6));
        step = Instant::now();
    }
    let solve_req = match req.to_solve_request() {
        Ok(r) => r,
        Err(e) => {
            shed(ErrorCode::Protocol, e.to_string(), 0);
            return;
        }
    };
    if sampled {
        node_hops
            .push(FlightHop::new("node", "validate", 0.0, step.elapsed().as_secs_f64() * 1e6));
    }
    // The answer joins the connection's writer queue; that send is all the
    // reply does, as `submit_with` asks.
    let (id, answers) = (req.id, out.clone());
    let reply = move |outcome| {
        let _ = answers.send(Out::Answer { id, hops: node_hops, outcome });
    };
    match shared.service.submit_with(solve_req, reply) {
        Ok(_) => {
            shared
                .metrics
                .lock()
                .expect("net metrics lock")
                .inc("net_admitted_total", &[("tenant", &tenant)], 1);
        }
        Err(e) => {
            let (code, retry) = map_error(&e);
            shed(code, e.to_string(), retry);
        }
    }
}
