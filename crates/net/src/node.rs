//! `cdd-node`: a [`SolverService`] behind a framed TCP listener.
//!
//! Thread-per-connection, no async runtime (DESIGN.md §13): the accept
//! loop hands each connection to a reader thread; each accepted request
//! spawns a short-lived waiter thread that blocks on
//! [`SolverService::wait`] and streams the result back through a shared
//! writer lock, so responses for a connection interleave at frame
//! granularity and a slow campaign never blocks the connection's other
//! replies. A `Shutdown` frame drains deterministically: stop accepting,
//! finish every admitted request, then [`SolverService::shutdown`] joins
//! the supervisor and workers.
//!
//! All `net_*` metrics live in the node's own registry, separate from the
//! service's `service_*`/`timing_*` namespaces: per-tenant admitted and
//! shed counters are deterministic for a fixed workload *and* arrival
//! order, frame-size and per-connection histograms are traffic-shaped.

use crate::auth;
use crate::frame::{
    self, chunk_sequence, read_frame, ErrorCode, Frame, NetError, NetRequest, NetResponse,
    NodeStats, StatsEnvelope,
};
use crate::limiter::TenantLimiter;
use cdd_metrics::{connection_requests_buckets, frame_bytes_buckets, FlightHop, MetricsRegistry};
use cdd_service::{ServiceConfig, ServiceReport, SolverService};
use cdd_core::SuiteError;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
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
                    .spawn(move || handle_connection(&sh, stream))
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
    // Every connection (and waiter) thread has been joined, so this node
    // holds the last reference.
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

fn send(shared: &NodeShared, writer: &Mutex<TcpStream>, frame: &Frame) {
    let bytes = frame.encode();
    shared.count_frame("out", frame, bytes.len());
    let mut w = writer.lock().expect("connection writer lock");
    let _ = w.write_all(&bytes).and_then(|()| w.flush());
}

fn handle_connection(shared: &Arc<NodeShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let writer = Arc::new(Mutex::new(match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    }));
    let mut reader = stream;
    let mut waiters = Waiters::default();
    let mut requests_on_conn: u64 = 0;

    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(e) if frame::is_idle_timeout(&e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) => {
                // Framing is damaged; report once and close.
                send(
                    shared,
                    &writer,
                    &Frame::Error(NetError {
                        id: 0,
                        code: ErrorCode::Protocol,
                        detail: e.to_string(),
                        retry_after_ms: 0,
                    }),
                );
                break;
            }
        };
        shared.count_frame("in", &frame, frame.encode().len());
        match frame {
            Frame::Request(req) => {
                requests_on_conn += 1;
                handle_request(shared, &writer, req, &mut waiters);
            }
            Frame::Ping { nonce } => send(shared, &writer, &Frame::Pong { nonce }),
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
                send(shared, &writer, &Frame::StatsReply(envelope));
            }
            Frame::Shutdown => {
                shared.stop.store(true, Ordering::SeqCst);
                // Echoed back as the acknowledgement: the node closes the
                // connection after draining this connection's waiters.
                send(shared, &writer, &Frame::Shutdown);
                break;
            }
            other => send(
                shared,
                &writer,
                &Frame::Error(NetError {
                    id: 0,
                    code: ErrorCode::Protocol,
                    detail: format!("unexpected {} frame from client", other.label()),
                    retry_after_ms: 0,
                }),
            ),
        }
    }

    waiters.join_all();
    #[allow(clippy::cast_precision_loss)]
    shared.metrics.lock().expect("net metrics lock").observe(
        "net_connection_requests",
        &[],
        requests_on_conn as f64,
        connection_requests_buckets(),
    );
}

/// A connection's waiter threads. Finished waiters are joined whenever a
/// new one is pushed, so a long-lived connection — a router's link to this
/// node carries every request routed here — holds only the threads of its
/// in-flight requests, not one finished thread's stack per request served.
#[derive(Default)]
struct Waiters(Vec<JoinHandle<()>>);

impl Waiters {
    /// Join every finished waiter, then track `waiter`.
    fn push(&mut self, waiter: JoinHandle<()>) {
        self.reap();
        self.0.push(waiter);
    }

    /// Join the waiters that have finished; the rest stay tracked.
    fn reap(&mut self) {
        for finished in self.0.extract_if(.., |h| h.is_finished()) {
            let _ = finished.join();
        }
    }

    /// Wait for every waiter (the connection is closing).
    fn join_all(self) {
        for h in self.0 {
            let _ = h.join();
        }
    }
}

fn handle_request(
    shared: &Arc<NodeShared>,
    writer: &Arc<Mutex<TcpStream>>,
    req: NetRequest,
    waiters: &mut Waiters,
) {
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
        send(
            shared,
            writer,
            &Frame::Error(NetError { id: req.id, code, detail, retry_after_ms }),
        );
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
    match shared.service.submit(solve_req) {
        Ok(ticket) => {
            shared
                .metrics
                .lock()
                .expect("net metrics lock")
                .inc("net_admitted_total", &[("tenant", &tenant)], 1);
            let sh = Arc::clone(shared);
            let wr = Arc::clone(writer);
            let id = req.id;
            let h = std::thread::Builder::new()
                .name(format!("cdd-node-wait-{ticket}"))
                .spawn(move || {
                    let outcome = sh.service.wait(ticket);
                    // Stitch the flight: node hops first (they happened
                    // first), then the service-side hops, stamped with this
                    // node's label.
                    let flight = outcome.flight.map(|mut f| {
                        f.node = sh.label.clone();
                        let mut hops = node_hops;
                        hops.append(&mut f.hops);
                        f.hops = hops;
                        f
                    });
                    if let (Some(f), Some(log)) = (&flight, &sh.slow_log) {
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        let wall_ms = outcome.wall_ms.max(0.0) as u64;
                        if wall_ms >= sh.slow_threshold_ms {
                            let line = f.slow_log_json(wall_ms, sh.slow_threshold_ms);
                            let mut w = log.lock().expect("slow log lock");
                            let _ = writeln!(w, "{line}");
                        }
                    }
                    match outcome.result {
                        Ok(out) => {
                            for chunk in chunk_sequence(id, out.sequence.as_slice()) {
                                send(&sh, &wr, &Frame::Chunk(chunk));
                            }
                            send(
                                &sh,
                                &wr,
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
                            send(
                                &sh,
                                &wr,
                                &Frame::Error(NetError {
                                    id,
                                    code,
                                    detail: e.to_string(),
                                    retry_after_ms: retry,
                                }),
                            );
                        }
                    }
                })
                .expect("spawn waiter thread");
            waiters.push(h);
        }
        Err(e) => {
            let (code, retry) = map_error(&e);
            shed(code, e.to_string(), retry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Waiters;
    use std::sync::mpsc;
    use std::thread::{self, JoinHandle};

    /// A waiter that has already run to completion.
    fn finished_waiter() -> JoinHandle<()> {
        let h = thread::spawn(|| {});
        while !h.is_finished() {
            thread::yield_now();
        }
        h
    }

    /// One connection serving a few hundred requests ends with only its
    /// in-flight waiters unjoined: every push joins the waiters that have
    /// finished. (Tracking them in a plain `Vec`, as the node once did,
    /// ends with all of them.)
    #[test]
    fn connection_keeps_only_in_flight_waiters() {
        const REQUESTS: usize = 300;
        const IN_FLIGHT: usize = 3;
        let mut waiters = Waiters::default();
        // In-flight requests: their waiters block until the channel
        // completes them.
        let mut complete = Vec::new();
        for _ in 0..IN_FLIGHT {
            let (tx, rx) = mpsc::channel::<()>();
            complete.push(tx);
            waiters.push(thread::spawn(move || rx.recv().expect("completion signal")));
        }
        for served in 0..REQUESTS {
            waiters.push(finished_waiter());
            // The request just pushed is the only finished waiter left.
            assert_eq!(waiters.0.len(), IN_FLIGHT + 1, "after {} requests", served + 1);
        }
        waiters.reap();
        assert_eq!(waiters.0.len(), IN_FLIGHT);
        assert!(waiters.0.iter().all(|h| !h.is_finished()));
        for tx in complete {
            tx.send(()).expect("waiter alive");
        }
        waiters.join_all();
    }
}
