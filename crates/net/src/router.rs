//! `cdd-router`: a framed-protocol front that shards requests across N
//! `cdd-node` upstreams by **content key**.
//!
//! Routing is rendezvous (highest-random-weight) hashing of the
//! request's [`cdd_core::SolveRequest::content_key`] against each
//! upstream's address: every duplicate of a piece of work — regardless
//! of tenant, priority, or which client connection it arrived on — lands
//! on the same node, so that node's LRU solution cache and in-flight
//! coalescing deduplicate across the whole fleet. Tenant identity is
//! deliberately *not* part of the routing key (it is not part of the
//! content key either; see `core/src/solve.rs`).
//!
//! Failure handling follows the PR-6 retry discipline: when an upstream
//! connection dies, its in-flight requests are re-routed to the next
//! rendezvous choice among the surviving nodes after a bounded,
//! deterministically-jittered backoff keyed by the request's content key
//! and attempt number. A health thread pings dead upstreams and re-admits
//! them on reconnect (restarted nodes rejoin the hash automatically).
//! Because nodes are deterministic in (request → objective) and retries
//! carry identical work, the sorted outcome set a workload produces is
//! byte-identical whatever the shard count, routing, or mid-campaign node
//! deaths (DESIGN.md §13).

use crate::auth;
use crate::client as netclient;
use crate::frame::{
    self, read_frame, ErrorCode, Frame, NetError, NetRequest, NodeStats, StatsEnvelope,
    UpstreamHealth,
};
use cdd_metrics::{FlightHop, MetricsRegistry};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (port 0 = OS-assigned).
    pub addr: String,
    /// Upstream `cdd-node` addresses. Order is irrelevant to routing —
    /// rendezvous hashing weighs each upstream by its address string.
    pub upstreams: Vec<String>,
    /// Auth secret; must match the upstreams' so forwarded tokens verify.
    pub secret: String,
    /// Dead-upstream reconnect probe cadence, milliseconds.
    pub health_interval_ms: u64,
}

/// Re-route attempts per request before answering `Unavailable`.
const MAX_ATTEMPTS: u32 = 8;

/// Base of the deterministic re-route backoff, milliseconds. An
/// `Unavailable` answer asks the client to wait four times this long.
const BACKOFF_BASE_MS: u64 = 10;

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            upstreams: Vec::new(),
            secret: auth::DEFAULT_SECRET.to_string(),
            health_interval_ms: 100,
        }
    }
}

/// What a router run leaves behind.
#[derive(Debug)]
pub struct RouterReport {
    /// The router's `net_*` metrics (routed/reroute/shed counters).
    pub net_metrics: MetricsRegistry,
    /// Requests forwarded upstream (first routes, not retries).
    pub routed: u64,
    /// Re-routes performed after upstream deaths.
    pub reroutes: u64,
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Rendezvous choice: the alive upstream whose `(content_key, addr)`
/// weight is highest. Pure in its inputs — every router instance (and
/// every restart) agrees on the winner.
#[must_use]
pub fn shard_for(content_key: u64, upstream_addrs: &[&str], alive: &[bool]) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for (i, addr) in upstream_addrs.iter().enumerate() {
        if !alive.get(i).copied().unwrap_or(false) {
            continue;
        }
        let w = mix(content_key, fnv64(addr.as_bytes()));
        if best.is_none_or(|(bw, _)| w > bw) {
            best = Some((w, i));
        }
    }
    best.map(|(_, i)| i)
}

/// Deterministic re-route backoff (PR-6 discipline): exponential in the
/// attempt with a splitmix-style jitter keyed by the content key, pure in
/// `(base, key, attempt)`.
#[must_use]
pub fn backoff_ms(base: u64, key: u64, attempt: u32) -> u64 {
    let base = base.max(1);
    let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(6));
    exp + mix(key, u64::from(attempt)) % base
}

struct Upstream {
    addr: String,
    writer: Mutex<Option<TcpStream>>,
    alive: AtomicBool,
}

struct ClientConn {
    writer: Mutex<TcpStream>,
}

struct PendingRoute {
    client: Arc<ClientConn>,
    client_frame_id: u64,
    request: NetRequest,
    content_key: u64,
    upstream: usize,
    attempts: u32,
    /// Router-layer hop spans (route decision, re-route sweeps) for a
    /// sampled request; prepended to the node's flight record when the
    /// response passes back through. Empty for untraced requests.
    hops: Vec<FlightHop>,
}

struct RouterShared {
    cfg: RouterConfig,
    upstreams: Vec<Upstream>,
    pending: Mutex<BTreeMap<u64, PendingRoute>>,
    next_route_id: AtomicU64,
    stop: AtomicBool,
    metrics: Mutex<MetricsRegistry>,
    routed: AtomicU64,
    reroutes: AtomicU64,
}

impl RouterShared {
    fn alive_mask(&self) -> Vec<bool> {
        self.upstreams.iter().map(|u| u.alive.load(Ordering::SeqCst)).collect()
    }

    fn upstream_addrs(&self) -> Vec<&str> {
        self.upstreams.iter().map(|u| u.addr.as_str()).collect()
    }

    /// Send a frame to upstream `idx`; on failure mark it dead and
    /// trigger the re-route sweep for everything routed there.
    fn forward(self: &Arc<Self>, idx: usize, frame: &Frame) -> bool {
        let bytes = frame.encode();
        let ok = {
            let mut guard = self.upstreams[idx].writer.lock().expect("upstream writer lock");
            match guard.as_mut() {
                Some(w) => w.write_all(&bytes).and_then(|()| w.flush()).is_ok(),
                None => false,
            }
        };
        if !ok {
            self.mark_dead(idx);
        }
        ok
    }

    fn mark_dead(self: &Arc<Self>, idx: usize) {
        if !self.upstreams[idx].alive.swap(false, Ordering::SeqCst) {
            return; // already dead; someone else is sweeping
        }
        *self.upstreams[idx].writer.lock().expect("upstream writer lock") = None;
        self.metrics.lock().expect("router metrics lock").inc(
            "net_router_upstream_deaths_total",
            &[("upstream", &self.upstreams[idx].addr)],
            1,
        );
        // Sweep this upstream's in-flight requests onto survivors from a
        // dedicated thread (the caller may be the dying reader itself).
        let sh = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("cdd-router-sweep-{idx}"))
            .spawn(move || sh.reroute_orphans(idx))
            .expect("spawn reroute sweep");
    }

    fn reroute_orphans(self: &Arc<Self>, dead_idx: usize) {
        let orphans: Vec<u64> = {
            let pending = self.pending.lock().expect("router pending lock");
            pending
                .iter()
                .filter(|(_, p)| p.upstream == dead_idx)
                .map(|(rid, _)| *rid)
                .collect()
        };
        for rid in orphans {
            self.reroute_one(rid);
        }
    }

    /// Move one pending request to its next shard (or fail it to the
    /// client once attempts are exhausted).
    fn reroute_one(self: &Arc<Self>, rid: u64) {
        loop {
            let (key, attempts, client, client_frame_id) = {
                let mut pending = self.pending.lock().expect("router pending lock");
                let Some(p) = pending.get_mut(&rid) else { return };
                p.attempts += 1;
                (p.content_key, p.attempts, Arc::clone(&p.client), p.client_frame_id)
            };
            let delay = backoff_ms(BACKOFF_BASE_MS, key, attempts);
            if attempts > MAX_ATTEMPTS {
                let removed = self.pending.lock().expect("router pending lock").remove(&rid);
                if removed.is_some() {
                    send_to_client(
                        &client,
                        &Frame::Error(NetError {
                            id: client_frame_id,
                            code: ErrorCode::Unavailable,
                            detail: format!("no upstream available after {attempts} attempts"),
                            retry_after_ms: BACKOFF_BASE_MS * 4,
                        }),
                    );
                    self.metrics
                        .lock()
                        .expect("router metrics lock")
                        .inc("net_router_unavailable_total", &[], 1);
                }
                return;
            }
            std::thread::sleep(Duration::from_millis(delay));
            let target = shard_for(key, &self.upstream_addrs(), &self.alive_mask());
            let Some(target) = target else { continue };
            let frame = {
                let mut pending = self.pending.lock().expect("router pending lock");
                let Some(p) = pending.get_mut(&rid) else { return };
                p.upstream = target;
                if p.request.trace.is_some_and(|t| t.sampled) {
                    p.hops.push(
                        // Shard is named by its index in the configured
                        // upstream list, not its address: OS-assigned
                        // ports vary run to run and would break the
                        // fleet trace's byte-stability contract.
                        FlightHop::new("router", "reroute", 0.0, 0.0)
                            .with_detail("attempt", attempts)
                            .with_detail("backoff_ms", delay)
                            .with_detail("shard", target),
                    );
                }
                let mut req = p.request.clone();
                req.id = rid;
                Frame::Request(req)
            };
            self.reroutes.fetch_add(1, Ordering::SeqCst);
            self.metrics.lock().expect("router metrics lock").inc(
                "net_router_reroutes_total",
                &[("upstream", &self.upstreams[target].addr)],
                1,
            );
            if self.forward(target, &frame) {
                return;
            }
            // Target died under us; loop and try the next survivor.
        }
    }

    /// (Re)connect upstream `idx` and spawn its reader thread.
    fn connect_upstream(self: &Arc<Self>, idx: usize) -> bool {
        let Ok(stream) = TcpStream::connect(&self.upstreams[idx].addr) else {
            return false;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let Ok(writer) = stream.try_clone() else { return false };
        *self.upstreams[idx].writer.lock().expect("upstream writer lock") = Some(writer);
        self.upstreams[idx].alive.store(true, Ordering::SeqCst);
        let sh = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("cdd-router-up-{idx}"))
            .spawn(move || sh.upstream_reader(idx, stream))
            .expect("spawn upstream reader");
        true
    }

    /// Pump replies from upstream `idx` back to the owning clients until
    /// the connection dies or the router stops.
    fn upstream_reader(self: &Arc<Self>, idx: usize, mut stream: TcpStream) {
        loop {
            match read_frame(&mut stream) {
                Ok(Some(Frame::Chunk(mut c))) => {
                    let dest = {
                        let pending = self.pending.lock().expect("router pending lock");
                        pending
                            .get(&c.id)
                            .map(|p| (Arc::clone(&p.client), p.client_frame_id))
                    };
                    if let Some((client, cid)) = dest {
                        c.id = cid;
                        send_to_client(&client, &Frame::Chunk(c));
                    }
                }
                Ok(Some(Frame::Response(mut r))) => {
                    let dest =
                        self.pending.lock().expect("router pending lock").remove(&r.id);
                    if let Some(p) = dest {
                        r.id = p.client_frame_id;
                        // Stitch the router's hops onto the front of the
                        // node's flight record (path order: the route
                        // decision happened before anything node-side).
                        if let Some(f) = r.flight.as_mut() {
                            if !p.hops.is_empty() {
                                let mut hops = p.hops;
                                hops.append(&mut f.hops);
                                f.hops = hops;
                            }
                        }
                        send_to_client(&p.client, &Frame::Response(r));
                    }
                }
                Ok(Some(Frame::Error(mut e))) => {
                    let dest =
                        self.pending.lock().expect("router pending lock").remove(&e.id);
                    if let Some(p) = dest {
                        e.id = p.client_frame_id;
                        send_to_client(&p.client, &Frame::Error(e));
                    }
                }
                // Pongs answer the health probes; anything else from a
                // node is noise we can safely drop.
                Ok(Some(_)) => {}
                Err(e) if frame::is_idle_timeout(&e) => {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Ok(None) | Err(_) => {
                    if !self.stop.load(Ordering::SeqCst) {
                        self.mark_dead(idx);
                    }
                    return;
                }
            }
        }
    }
}

fn send_to_client(client: &ClientConn, frame: &Frame) {
    let bytes = frame.encode();
    let mut w = client.writer.lock().expect("client writer lock");
    let _ = w.write_all(&bytes).and_then(|()| w.flush());
}

/// A running router: bound address plus the drain handle.
pub struct RouterHandle {
    /// The address the listener actually bound.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: std::thread::JoinHandle<RouterReport>,
}

impl RouterHandle {
    /// Stop the router without a `Shutdown` frame.
    pub fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Wait for the router to stop and return its report.
    pub fn join(self) -> RouterReport {
        self.accept.join().expect("router accept loop panicked")
    }
}

/// Bind `config.addr`, connect the upstreams, and route until stopped.
pub fn serve(config: RouterConfig) -> std::io::Result<RouterHandle> {
    assert!(!config.upstreams.is_empty(), "router needs at least one upstream");
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(RouterShared {
        upstreams: config
            .upstreams
            .iter()
            .map(|a| Upstream {
                addr: a.clone(),
                writer: Mutex::new(None),
                alive: AtomicBool::new(false),
            })
            .collect(),
        cfg: config,
        pending: Mutex::new(BTreeMap::new()),
        next_route_id: AtomicU64::new(1),
        stop: AtomicBool::new(false),
        metrics: Mutex::new(MetricsRegistry::new()),
        routed: AtomicU64::new(0),
        reroutes: AtomicU64::new(0),
    });
    for idx in 0..shared.upstreams.len() {
        shared.connect_upstream(idx);
    }
    // Health thread: probe live upstreams, reconnect dead ones (a
    // restarted node rejoins the rendezvous hash here).
    {
        let sh = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("cdd-router-health".to_string())
            .spawn(move || {
                let mut nonce = 0u64;
                while !sh.stop.load(Ordering::SeqCst) {
                    nonce += 1;
                    for idx in 0..sh.upstreams.len() {
                        if sh.upstreams[idx].alive.load(Ordering::SeqCst) {
                            sh.forward(idx, &Frame::Ping { nonce });
                        } else {
                            sh.connect_upstream(idx);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(sh.cfg.health_interval_ms.max(10)));
                }
            })
            .expect("spawn health thread");
    }
    let stop = Arc::new(AtomicBool::new(false));
    let stop_in = Arc::clone(&stop);
    let accept = std::thread::Builder::new()
        .name("cdd-router-accept".to_string())
        .spawn(move || accept_loop(&listener, &shared, &stop_in))
        .expect("spawn router accept loop");
    Ok(RouterHandle { addr, stop, accept })
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<RouterShared>,
    external_stop: &AtomicBool,
) -> RouterReport {
    let mut conns = Vec::new();
    loop {
        if external_stop.load(Ordering::SeqCst) {
            shared.stop.store(true, Ordering::SeqCst);
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let sh = Arc::clone(shared);
                let h = std::thread::Builder::new()
                    .name("cdd-router-conn".to_string())
                    .spawn(move || handle_client(&sh, stream))
                    .expect("spawn router connection thread");
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
    RouterReport {
        net_metrics: std::mem::take(&mut *shared.metrics.lock().expect("router metrics lock")),
        routed: shared.routed.load(Ordering::SeqCst),
        reroutes: shared.reroutes.load(Ordering::SeqCst),
    }
}

fn handle_client(shared: &Arc<RouterShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(writer) = stream.try_clone() else { return };
    let client = Arc::new(ClientConn { writer: Mutex::new(writer) });
    let mut reader = stream;
    loop {
        let fr = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(e) if frame::is_idle_timeout(&e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) => {
                send_to_client(
                    &client,
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
        match fr {
            Frame::Request(req) => route_request(shared, &client, req),
            Frame::Ping { nonce } => send_to_client(&client, &Frame::Pong { nonce }),
            Frame::Stats { full } => {
                // Aggregate over currently-alive upstreams via fresh
                // short-lived connections (the persistent ones belong to
                // the reader threads). The health extension makes a
                // partial aggregate distinguishable from a full one: an
                // upstream that is marked dead — or that fails the stats
                // round-trip right now — counts as unreachable and its
                // (unknown) counters are simply absent from the sums.
                let mut agg = NodeStats::default();
                let mut health = UpstreamHealth::default();
                let mut registry = full.then(MetricsRegistry::new);
                for u in &shared.upstreams {
                    if !u.alive.load(Ordering::SeqCst) {
                        health.upstreams_unreachable += 1;
                        continue;
                    }
                    match netclient::stats_envelope(&u.addr, full) {
                        Ok(env) => {
                            health.upstreams_alive += 1;
                            agg = add_stats(agg, env.stats);
                            if let (Some(fleet), Some(up)) =
                                (registry.as_mut(), env.registry.as_ref())
                            {
                                fleet.merge_from(up);
                            }
                        }
                        Err(_) => health.upstreams_unreachable += 1,
                    }
                }
                if let Some(fleet) = registry.as_mut() {
                    // The router's own net_router_* series join the fleet
                    // view.
                    fleet.merge_from(&shared.metrics.lock().expect("router metrics lock"));
                }
                let mut envelope = StatsEnvelope::flat(agg);
                envelope.health = Some(health);
                envelope.registry = registry;
                send_to_client(&client, &Frame::StatsReply(envelope));
            }
            Frame::Shutdown => {
                // A client's Shutdown drains the whole fleet: every live
                // upstream first, then the router itself.
                for u in &shared.upstreams {
                    if u.alive.load(Ordering::SeqCst) {
                        let _ = netclient::shutdown(&u.addr);
                    }
                }
                shared.stop.store(true, Ordering::SeqCst);
                send_to_client(&client, &Frame::Shutdown);
                break;
            }
            other => send_to_client(
                &client,
                &Frame::Error(NetError {
                    id: 0,
                    code: ErrorCode::Protocol,
                    detail: format!("unexpected {} frame from client", other.label()),
                    retry_after_ms: 0,
                }),
            ),
        }
    }
}

fn add_stats(a: NodeStats, b: NodeStats) -> NodeStats {
    NodeStats {
        submitted: a.submitted + b.submitted,
        completed: a.completed + b.completed,
        failed: a.failed + b.failed,
        expired: a.expired + b.expired,
        degraded: a.degraded + b.degraded,
        rejected: a.rejected + b.rejected,
        retried: a.retried + b.retried,
        restarts: a.restarts + b.restarts,
        queue_depth: a.queue_depth + b.queue_depth,
        cache_hits: a.cache_hits + b.cache_hits,
        cache_misses: a.cache_misses + b.cache_misses,
        coalesced: a.coalesced + b.coalesced,
    }
}

fn route_request(shared: &Arc<RouterShared>, client: &Arc<ClientConn>, req: NetRequest) {
    // Authenticate at the edge; the node re-verifies with the same secret.
    if !auth::verify(&req.tenant, &req.token, &shared.cfg.secret) {
        send_to_client(
            client,
            &Frame::Error(NetError {
                id: req.id,
                code: ErrorCode::Auth,
                detail: format!("bad token for tenant {:?}", req.tenant),
                retry_after_ms: 0,
            }),
        );
        return;
    }
    // Materialize to compute the true content key — the same bytes the
    // node's cache will key on.
    let content_key = match req.to_solve_request() {
        Ok(r) => r.content_key(),
        Err(e) => {
            send_to_client(
                client,
                &Frame::Error(NetError {
                    id: req.id,
                    code: ErrorCode::Protocol,
                    detail: e.to_string(),
                    retry_after_ms: 0,
                }),
            );
            return;
        }
    };
    let Some(target) = shard_for(content_key, &shared.upstream_addrs(), &shared.alive_mask())
    else {
        send_to_client(
            client,
            &Frame::Error(NetError {
                id: req.id,
                code: ErrorCode::Unavailable,
                detail: "no upstream alive".to_string(),
                retry_after_ms: BACKOFF_BASE_MS * 4,
            }),
        );
        shared.metrics.lock().expect("router metrics lock").inc(
            "net_router_unavailable_total",
            &[],
            1,
        );
        return;
    };
    let rid = shared.next_route_id.fetch_add(1, Ordering::SeqCst);
    // The route decision is a logical hop (modeled 0): its detail — which
    // shard rendezvous hashing picked — is deterministic in the content
    // key and the upstream set. The shard is named by its index in the
    // configured upstream list (addresses carry OS-assigned ports, which
    // would break trace byte-stability across runs).
    let hops = if req.trace.is_some_and(|t| t.sampled) {
        vec![FlightHop::new("router", "route", 0.0, 0.0).with_detail("shard", target)]
    } else {
        Vec::new()
    };
    let mut fwd = req.clone();
    fwd.id = rid;
    shared.pending.lock().expect("router pending lock").insert(
        rid,
        PendingRoute {
            client: Arc::clone(client),
            client_frame_id: req.id,
            request: req,
            content_key,
            upstream: target,
            attempts: 1,
            hops,
        },
    );
    shared.routed.fetch_add(1, Ordering::SeqCst);
    shared.metrics.lock().expect("router metrics lock").inc(
        "net_router_routed_total",
        &[("upstream", &shared.upstreams[target].addr)],
        1,
    );
    if !shared.forward(target, &Frame::Request(fwd)) {
        // forward() marked the target dead and kicked off the orphan
        // sweep, which will pick this request up; nothing else to do.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_is_stable_and_minimal_on_death() {
        let addrs = ["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"];
        let all = [true, true, true];
        let keys: Vec<u64> = (0..200u64).map(|i| mix(i, 0xABCD)).collect();
        let full: Vec<usize> =
            keys.iter().map(|&k| shard_for(k, &addrs, &all).unwrap()).collect();
        // Deterministic.
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(shard_for(k, &addrs, &all).unwrap(), full[i]);
        }
        // Spread: every node owns some keys.
        for node in 0..3 {
            assert!(full.contains(&node), "node {node} owns no keys");
        }
        // Kill node 1: only its keys move, others stay put.
        let degraded = [true, false, true];
        for (i, &k) in keys.iter().enumerate() {
            let s = shard_for(k, &addrs, &degraded).unwrap();
            if full[i] != 1 {
                assert_eq!(s, full[i], "key {k:#x} moved although its shard survived");
            } else {
                assert_ne!(s, 1);
            }
        }
        // No nodes alive.
        assert_eq!(shard_for(7, &addrs, &[false, false, false]), None);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let a = backoff_ms(10, 42, 1);
        assert_eq!(a, backoff_ms(10, 42, 1), "pure in (base, key, attempt)");
        assert!((10..20).contains(&a), "attempt 1: base + jitter < 2*base, got {a}");
        let late = backoff_ms(10, 42, 20);
        assert!(late <= 10 * 64 + 9, "exponent is capped, got {late}");
        assert!(backoff_ms(10, 42, 3) >= 40, "exponential growth");
        assert_ne!(backoff_ms(10, 1, 2), backoff_ms(10, 2, 2), "jitter is keyed");
    }
}
