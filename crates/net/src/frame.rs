//! The cdd-net frame vocabulary and its length-prefixed encoding.
//!
//! Every frame on the wire is `[u32 len LE][u8 version][u8 tag][payload]`,
//! where `len` counts the version byte, the tag byte and the payload. The
//! length prefix is capped at [`MAX_FRAME_LEN`] and checked **before** any
//! allocation, so a hostile prefix cannot drive memory growth; unknown
//! tags and versions decode to structured `Protocol` errors, never panics
//! (satellite 1's proptest suite in `tests/frame_properties.rs` holds the
//! codec to that contract).
//!
//! Nine frame kinds cover the protocol:
//!
//! | tag | frame        | direction        | purpose                              |
//! |-----|--------------|------------------|--------------------------------------|
//! | 1   | `Request`    | client → node    | authenticated solve submission       |
//! | 2   | `Response`   | node → client    | terminal outcome summary             |
//! | 3   | `Chunk`      | node → client    | streamed job-sequence bytes          |
//! | 4   | `Error`      | node → client    | structured failure with retry hint   |
//! | 5   | `Ping`       | any → any        | liveness probe                       |
//! | 6   | `Pong`       | any → any        | liveness echo                        |
//! | 7   | `Stats`      | client → node    | snapshot request                     |
//! | 8   | `StatsReply` | node → client    | live service counters                |
//! | 9   | `Shutdown`   | client → node    | drain queue, join workers, exit      |
//!
//! ## Frame extensions
//!
//! `Request`, `Response`, `Stats` and `StatsReply` may carry an optional
//! **extension block** after their legacy fields:
//! `[u8 count]([u8 ext_tag][u32 len][payload])*`. The block is written
//! only when at least one extension is present, so a frame without
//! extensions encodes byte-identically to protocol version 1 before
//! extensions existed — tracing off means bytes unchanged. Decoders skip
//! unknown extension tags (and tolerate bytes appended inside a known
//! extension's payload), so an old node still parses a new client's
//! frames and vice versa. Current extensions: trace context on `Request`
//! (tag 1), a [`FlightRecord`] on `Response` (tag 1), the full-snapshot
//! flag on `Stats` (tag 1), and a full [`MetricsRegistry`] snapshot
//! (tag 1) plus router [`UpstreamHealth`] (tag 2) on `StatsReply`.

use crate::snapshot::{decode_flight, decode_registry, encode_flight, encode_registry};
use crate::wire::{ByteReader, ByteWriter, WireError};
use cdd_core::{Algorithm, Instance, Job, Priority, SolveRequest, SuiteError, TraceContext};
use cdd_instances::InstanceId;
use cdd_metrics::{FlightRecord, MetricsRegistry};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Wire protocol version; bumped on any incompatible layout change.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard cap on a frame's `len` prefix (1 MiB). Large enough for a
/// 20 000-job inline instance plus headers, small enough that a hostile
/// prefix cannot make a node allocate unbounded memory.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Upper bound on inline job counts and catalog `n` accepted over the
/// wire; the solver's own campaign sizes top out at 1000 jobs.
pub const MAX_WIRE_JOBS: usize = 20_000;

/// `Request` extension: a propagated [`TraceContext`].
pub const EXT_REQUEST_TRACE: u8 = 1;

/// `Response` extension: the request's stitched [`FlightRecord`].
pub const EXT_RESPONSE_FLIGHT: u8 = 1;

/// `Stats` extension: ask for a full [`MetricsRegistry`] snapshot in the
/// reply, not just the flat counters (empty payload — presence is the
/// flag).
pub const EXT_STATS_FULL: u8 = 1;

/// `StatsReply` extension: a full [`MetricsRegistry`] snapshot.
pub const EXT_STATS_REPLY_REGISTRY: u8 = 1;

/// `StatsReply` extension: router-side [`UpstreamHealth`].
pub const EXT_STATS_REPLY_HEALTH: u8 = 2;

/// Append the extension block — only when non-empty, so extension-free
/// frames stay byte-identical to the pre-extension wire format.
fn write_extensions(w: &mut ByteWriter, exts: &[(u8, Vec<u8>)]) {
    if exts.is_empty() {
        return;
    }
    w.put_u8(u8::try_from(exts.len()).expect("extension count fits u8"));
    for (tag, payload) in exts {
        w.put_u8(*tag);
        w.put_bytes(payload);
    }
}

/// Parse the optional extension block (anything after the legacy fields).
/// Unknown tags are returned to the caller, which skips them — the
/// cross-version tolerance rule. Hostile counts/lengths fail through the
/// bounds-checked reader.
fn read_extensions(r: &mut ByteReader) -> Result<Vec<(u8, Vec<u8>)>, WireError> {
    if r.remaining() == 0 {
        return Ok(Vec::new());
    }
    let count = r.take_u8("extension count")? as usize;
    let mut exts = Vec::with_capacity(count.min(16));
    for _ in 0..count {
        let tag = r.take_u8("extension tag")?;
        let payload = r.take_bytes("extension payload")?;
        exts.push((tag, payload));
    }
    Ok(exts)
}

/// Encode a [`TraceContext`] extension payload: trace id, parent span id,
/// then a flags byte (bit 0 = sampled; other bits reserved).
fn encode_trace(t: &TraceContext) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(t.trace_id);
    w.put_u64(t.parent_span_id);
    w.put_u8(u8::from(t.sampled));
    w.into_bytes()
}

/// Decode a [`TraceContext`] payload; unknown flag bits and appended
/// future fields are tolerated.
fn decode_trace(payload: &[u8]) -> Result<TraceContext, WireError> {
    let mut r = ByteReader::new(payload);
    let trace_id = r.take_u64("trace id")?;
    let parent_span_id = r.take_u64("parent span id")?;
    let flags = r.take_u8("trace flags")?;
    Ok(TraceContext { trace_id, parent_span_id, sampled: flags & 1 == 1 })
}

fn decode_health(payload: &[u8]) -> Result<UpstreamHealth, WireError> {
    let mut r = ByteReader::new(payload);
    Ok(UpstreamHealth {
        upstreams_alive: r.take_u32("upstreams alive")?,
        upstreams_unreachable: r.take_u32("upstreams unreachable")?,
    })
}

/// Structured error codes carried by [`Frame::Error`]; stable numeric
/// values are part of the wire contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Token does not match the tenant.
    Auth,
    /// Per-tenant token bucket empty; retry after the carried hint.
    RateLimited,
    /// Admission control rejected the request (queue full / headroom).
    Rejected,
    /// The request's deadline expired before dispatch.
    DeadlineExceeded,
    /// Malformed frame or request content.
    Protocol,
    /// The service failed internally (solver error, worker loss).
    Internal,
    /// No upstream node can take the request (router-side).
    Unavailable,
}

impl ErrorCode {
    /// Stable wire value.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Auth => 1,
            ErrorCode::RateLimited => 2,
            ErrorCode::Rejected => 3,
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::Protocol => 5,
            ErrorCode::Internal => 6,
            ErrorCode::Unavailable => 7,
        }
    }

    /// Inverse of [`ErrorCode::as_u8`]; unknown values are a protocol
    /// violation, not a panic.
    pub fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => ErrorCode::Auth,
            2 => ErrorCode::RateLimited,
            3 => ErrorCode::Rejected,
            4 => ErrorCode::DeadlineExceeded,
            5 => ErrorCode::Protocol,
            6 => ErrorCode::Internal,
            7 => ErrorCode::Unavailable,
            other => return Err(WireError { detail: format!("unknown error code {other}"), at: 0 }),
        })
    }

    /// Short label used in metrics and log lines.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Auth => "auth",
            ErrorCode::RateLimited => "rate_limited",
            ErrorCode::Rejected => "rejected",
            ErrorCode::DeadlineExceeded => "deadline",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Internal => "internal",
            ErrorCode::Unavailable => "unavailable",
        }
    }
}

/// What to solve: either a catalog coordinate (the normal path — both
/// ends regenerate the identical instance from `(n, k, h)`) or a fully
/// inline instance for ad-hoc work.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkSpec {
    /// Benchmark-catalog instance; `h = None` selects the UCDDCP
    /// generator, `Some(h)` the Biskup–Feldmann CDD generator.
    ById {
        /// Job count.
        n: u64,
        /// Instance number within the size class.
        k: u32,
        /// Restrictive factor for CDD, `None` for UCDDCP.
        h: Option<f64>,
    },
    /// Explicit job data, validated on receipt exactly like locally
    /// constructed instances.
    Inline {
        /// `false` = CDD, `true` = UCDDCP.
        ucddcp: bool,
        /// Common due date.
        due_date: i64,
        /// Job parameter rows `(P, M, α, β, γ)`.
        jobs: Vec<Job>,
    },
}

/// An authenticated solve submission.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRequest {
    /// Caller-chosen correlation id, echoed on every reply frame.
    pub id: u64,
    /// Tenant name; the unit of auth, rate limiting and accounting.
    pub tenant: String,
    /// Auth token for `tenant` (see [`crate::auth`]).
    pub token: String,
    /// Queue priority class.
    pub priority: Priority,
    /// Optional deadline in modeled milliseconds (admission control).
    pub deadline_ms: Option<u64>,
    /// Metaheuristic to run.
    pub algorithm: Algorithm,
    /// Iteration budget.
    pub iterations: u64,
    /// RNG seed.
    pub seed: u64,
    /// The instance to solve.
    pub work: WorkSpec,
    /// Optional distributed-tracing context, carried as a frame extension
    /// (`None` encodes byte-identically to the pre-extension format).
    pub trace: Option<TraceContext>,
}

impl NetRequest {
    /// Materialize the wire request into a typed [`SolveRequest`],
    /// validating catalog coordinates and inline job data. The resulting
    /// request's `content_key` is what the router shards on.
    pub fn to_solve_request(&self) -> Result<SolveRequest, SuiteError> {
        let instance = match &self.work {
            WorkSpec::ById { n, k, h } => {
                let n = usize::try_from(*n)
                    .ok()
                    .filter(|n| (1..=MAX_WIRE_JOBS).contains(n))
                    .ok_or_else(|| {
                        SuiteError::protocol(format!("instance size n={} out of range", self.n()))
                    })?;
                if *k == 0 || *k > 10_000 {
                    return Err(SuiteError::protocol(format!("instance number k={k} out of range")));
                }
                if let Some(h) = h {
                    if !h.is_finite() || *h <= 0.0 || *h > 1.0 {
                        return Err(SuiteError::protocol(format!(
                            "restrictive factor h={h} outside (0, 1]"
                        )));
                    }
                }
                InstanceId { n, k: *k, h: *h }.instantiate()
            }
            WorkSpec::Inline { ucddcp, due_date, jobs } => {
                let build = if *ucddcp { Instance::ucddcp } else { Instance::cdd };
                build(jobs.clone(), *due_date)
                    .map_err(|e| SuiteError::protocol(format!("inline instance rejected: {e}")))?
            }
        };
        Ok(SolveRequest {
            deadline_ms: self.deadline_ms,
            tenant: self.tenant.clone(),
            priority: self.priority,
            trace: self.trace,
            ..SolveRequest::new(instance, self.algorithm, self.iterations, self.seed)
        })
    }

    fn n(&self) -> u64 {
        match &self.work {
            WorkSpec::ById { n, .. } => *n,
            WorkSpec::Inline { jobs, .. } => jobs.len() as u64,
        }
    }
}

/// Terminal outcome summary for one request (the job sequence itself
/// arrives beforehand in [`Frame::Chunk`] frames).
#[derive(Debug, Clone, PartialEq)]
pub struct NetResponse {
    /// Correlation id of the originating request.
    pub id: u64,
    /// Objective value (total penalty).
    pub objective: i64,
    /// Modeled device-seconds the campaign consumed.
    pub modeled_seconds: f64,
    /// Fitness evaluations performed.
    pub evaluations: u64,
    /// Served from the solution cache (or coalesced onto an in-flight
    /// duplicate).
    pub cache_hit: bool,
    /// Device that ran the campaign, if any.
    pub device: Option<u64>,
    /// Answered by the CPU oracle instead of a device.
    pub cpu_fallback: bool,
    /// Degraded-mode answer (see DESIGN.md §12).
    pub degraded: bool,
    /// Wall-clock milliseconds from submit to completion (timing-shaped,
    /// excluded from determinism comparisons).
    pub wall_ms: f64,
    /// Opt-in per-hop latency attribution for traced requests, carried as
    /// a frame extension (`None` encodes byte-identically to the
    /// pre-extension format).
    pub flight: Option<FlightRecord>,
}

/// One slice of a streamed job sequence. Chunks for a request arrive in
/// order; `index == 0` restarts reassembly (a router re-route after a
/// node death replays the stream from the top).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamChunk {
    /// Correlation id of the originating request.
    pub id: u64,
    /// Zero-based chunk index.
    pub index: u32,
    /// Total chunks in this stream.
    pub total: u32,
    /// Little-endian `u32` job indices, at most [`CHUNK_JOBS`] per chunk.
    pub data: Vec<u8>,
}

/// Job indices per stream chunk (256 × 4 bytes ≈ 1 KiB of payload).
pub const CHUNK_JOBS: usize = 256;

/// Structured failure reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetError {
    /// Correlation id of the originating request (0 for connection-level
    /// failures that cannot name a request).
    pub id: u64,
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
    /// For `RateLimited`/`Rejected`: how long the client should wait
    /// before retrying, in milliseconds (0 = no hint).
    pub retry_after_ms: u64,
}

/// Live service counters, the wire twin of
/// [`cdd_service::ServiceSnapshot`] plus cache internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Requests accepted into the service.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed terminally.
    pub failed: u64,
    /// Requests expired by deadline.
    pub expired: u64,
    /// Degraded (CPU-oracle) completions.
    pub degraded: u64,
    /// Admission-control rejections.
    pub rejected: u64,
    /// Supervisor retry dispatches.
    pub retried: u64,
    /// Worker restarts.
    pub restarts: u64,
    /// Current submission-queue depth.
    pub queue_depth: u64,
    /// Solution-cache hits.
    pub cache_hits: u64,
    /// Solution-cache misses.
    pub cache_misses: u64,
    /// Requests coalesced onto in-flight duplicates.
    pub coalesced: u64,
}

/// Router-side upstream reachability attached to an aggregated
/// `StatsReply`, so a partial fleet aggregate is distinguishable from a
/// full one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpstreamHealth {
    /// Upstreams that answered the stats poll.
    pub upstreams_alive: u32,
    /// Upstreams that were dead or unreachable when aggregating (their
    /// counters are missing from the aggregate).
    pub upstreams_unreachable: u32,
}

/// The `StatsReply` payload: the legacy flat counters, plus optional
/// extensions — a full registry snapshot and (from routers) upstream
/// health. A plain-counters envelope encodes byte-identically to the
/// pre-extension `StatsReply`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsEnvelope {
    /// Flat service counters (always present — the legacy payload).
    pub stats: NodeStats,
    /// Router aggregation health (routers always attach this; nodes never
    /// do).
    pub health: Option<UpstreamHealth>,
    /// Full metrics-registry snapshot (attached when the poll asked for
    /// `Stats { full: true }`).
    pub registry: Option<MetricsRegistry>,
}

impl StatsEnvelope {
    /// An envelope carrying only the flat counters.
    #[must_use]
    pub fn flat(stats: NodeStats) -> Self {
        StatsEnvelope { stats, health: None, registry: None }
    }
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Solve submission (tag 1).
    Request(NetRequest),
    /// Terminal outcome (tag 2).
    Response(NetResponse),
    /// Streamed sequence slice (tag 3).
    Chunk(StreamChunk),
    /// Structured failure (tag 4).
    Error(NetError),
    /// Liveness probe (tag 5).
    Ping {
        /// Echoed verbatim in the matching [`Frame::Pong`].
        nonce: u64,
    },
    /// Liveness echo (tag 6).
    Pong {
        /// The probe's nonce.
        nonce: u64,
    },
    /// Snapshot request (tag 7); `full` asks for a registry snapshot in
    /// the reply (carried as an extension — `full: false` encodes as the
    /// legacy empty payload).
    Stats {
        /// Whether the reply should include the full metrics registry.
        full: bool,
    },
    /// Snapshot reply (tag 8).
    StatsReply(StatsEnvelope),
    /// Drain-and-exit request (tag 9).
    Shutdown,
}

impl Frame {
    /// Wire tag for this frame kind.
    #[must_use]
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Request(_) => 1,
            Frame::Response(_) => 2,
            Frame::Chunk(_) => 3,
            Frame::Error(_) => 4,
            Frame::Ping { .. } => 5,
            Frame::Pong { .. } => 6,
            Frame::Stats { .. } => 7,
            Frame::StatsReply(_) => 8,
            Frame::Shutdown => 9,
        }
    }

    /// Short label used in `net_frames_total{type=…}` metrics.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Frame::Request(_) => "request",
            Frame::Response(_) => "response",
            Frame::Chunk(_) => "chunk",
            Frame::Error(_) => "error",
            Frame::Ping { .. } => "ping",
            Frame::Pong { .. } => "pong",
            Frame::Stats { .. } => "stats",
            Frame::StatsReply(_) => "stats_reply",
            Frame::Shutdown => "shutdown",
        }
    }

    /// Encode to the full wire form, length prefix included.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(PROTOCOL_VERSION);
        w.put_u8(self.tag());
        match self {
            Frame::Request(r) => {
                w.put_u64(r.id);
                w.put_str(&r.tenant);
                w.put_str(&r.token);
                w.put_u8(r.priority.as_u8());
                w.put_opt_u64(r.deadline_ms);
                w.put_str(&r.algorithm.to_string());
                w.put_u64(r.iterations);
                w.put_u64(r.seed);
                match &r.work {
                    WorkSpec::ById { n, k, h } => {
                        w.put_u8(0);
                        w.put_u64(*n);
                        w.put_u32(*k);
                        match h {
                            Some(h) => {
                                w.put_u8(1);
                                w.put_f64(*h);
                            }
                            None => w.put_u8(0),
                        }
                    }
                    WorkSpec::Inline { ucddcp, due_date, jobs } => {
                        w.put_u8(1);
                        w.put_bool(*ucddcp);
                        w.put_i64(*due_date);
                        w.put_u32(u32::try_from(jobs.len()).expect("job count fits u32"));
                        for j in jobs {
                            w.put_i64(j.processing);
                            w.put_i64(j.min_processing);
                            w.put_i64(j.earliness_penalty);
                            w.put_i64(j.tardiness_penalty);
                            w.put_i64(j.compression_penalty);
                        }
                    }
                }
                let mut exts = Vec::new();
                if let Some(t) = &r.trace {
                    exts.push((EXT_REQUEST_TRACE, encode_trace(t)));
                }
                write_extensions(&mut w, &exts);
            }
            Frame::Response(r) => {
                w.put_u64(r.id);
                w.put_i64(r.objective);
                w.put_f64(r.modeled_seconds);
                w.put_u64(r.evaluations);
                w.put_bool(r.cache_hit);
                w.put_opt_u64(r.device);
                w.put_bool(r.cpu_fallback);
                w.put_bool(r.degraded);
                w.put_f64(r.wall_ms);
                let mut exts = Vec::new();
                if let Some(f) = &r.flight {
                    exts.push((EXT_RESPONSE_FLIGHT, encode_flight(f)));
                }
                write_extensions(&mut w, &exts);
            }
            Frame::Chunk(c) => {
                w.put_u64(c.id);
                w.put_u32(c.index);
                w.put_u32(c.total);
                w.put_bytes(&c.data);
            }
            Frame::Error(e) => {
                w.put_u64(e.id);
                w.put_u8(e.code.as_u8());
                w.put_str(&e.detail);
                w.put_u64(e.retry_after_ms);
            }
            Frame::Ping { nonce } | Frame::Pong { nonce } => w.put_u64(*nonce),
            Frame::Shutdown => {}
            Frame::Stats { full } => {
                if *full {
                    write_extensions(&mut w, &[(EXT_STATS_FULL, Vec::new())]);
                }
            }
            Frame::StatsReply(env) => {
                let s = &env.stats;
                w.put_u64(s.submitted);
                w.put_u64(s.completed);
                w.put_u64(s.failed);
                w.put_u64(s.expired);
                w.put_u64(s.degraded);
                w.put_u64(s.rejected);
                w.put_u64(s.retried);
                w.put_u64(s.restarts);
                w.put_u64(s.queue_depth);
                w.put_u64(s.cache_hits);
                w.put_u64(s.cache_misses);
                w.put_u64(s.coalesced);
                let mut exts = Vec::new();
                if let Some(reg) = &env.registry {
                    exts.push((EXT_STATS_REPLY_REGISTRY, encode_registry(reg)));
                }
                if let Some(h) = &env.health {
                    let mut hw = ByteWriter::new();
                    hw.put_u32(h.upstreams_alive);
                    hw.put_u32(h.upstreams_unreachable);
                    exts.push((EXT_STATS_REPLY_HEALTH, hw.into_bytes()));
                }
                write_extensions(&mut w, &exts);
            }
        }
        let body = w.into_bytes();
        debug_assert!(body.len() <= MAX_FRAME_LEN, "encoded frame exceeds MAX_FRAME_LEN");
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&u32::try_from(body.len()).expect("frame length fits u32").to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decode a frame body (version byte onward, length prefix already
    /// stripped and validated). Never panics on any input.
    pub fn decode_body(body: &[u8]) -> Result<Frame, SuiteError> {
        let mut r = ByteReader::new(body);
        let wire = |e: WireError| SuiteError::protocol(e.to_string());
        let version = r.take_u8("version").map_err(wire)?;
        if version != PROTOCOL_VERSION {
            return Err(SuiteError::protocol(format!(
                "unsupported protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            )));
        }
        let tag = r.take_u8("frame tag").map_err(wire)?;
        let frame = match tag {
            1 => {
                let id = r.take_u64("request id").map_err(wire)?;
                let tenant = r.take_str("tenant").map_err(wire)?;
                let token = r.take_str("token").map_err(wire)?;
                let priority_raw = r.take_u8("priority").map_err(wire)?;
                let priority = Priority::from_u8(priority_raw)
                    .map_err(|_| SuiteError::protocol(format!("unknown priority class {priority_raw}")))?;
                let deadline_ms = r.take_opt_u64("deadline").map_err(wire)?;
                let algo_s = r.take_str("algorithm").map_err(wire)?;
                let algorithm: Algorithm = algo_s
                    .parse()
                    .map_err(|_| SuiteError::protocol(format!("unknown algorithm {algo_s:?}")))?;
                let iterations = r.take_u64("iterations").map_err(wire)?;
                let seed = r.take_u64("seed").map_err(wire)?;
                let work = match r.take_u8("work kind").map_err(wire)? {
                    0 => {
                        let n = r.take_u64("n").map_err(wire)?;
                        let k = r.take_u32("k").map_err(wire)?;
                        let h = match r.take_u8("h flag").map_err(wire)? {
                            0 => None,
                            1 => Some(r.take_f64("h").map_err(wire)?),
                            v => {
                                return Err(SuiteError::protocol(format!("invalid h flag {v}")));
                            }
                        };
                        WorkSpec::ById { n, k, h }
                    }
                    1 => {
                        let ucddcp = r.take_bool("ucddcp flag").map_err(wire)?;
                        let due_date = r.take_i64("due date").map_err(wire)?;
                        let count = r.take_count(40, "inline jobs").map_err(wire)?;
                        if count > MAX_WIRE_JOBS {
                            return Err(SuiteError::protocol(format!(
                                "inline job count {count} exceeds limit {MAX_WIRE_JOBS}"
                            )));
                        }
                        let mut jobs = Vec::with_capacity(count);
                        for _ in 0..count {
                            jobs.push(Job {
                                processing: r.take_i64("P").map_err(wire)?,
                                min_processing: r.take_i64("M").map_err(wire)?,
                                earliness_penalty: r.take_i64("alpha").map_err(wire)?,
                                tardiness_penalty: r.take_i64("beta").map_err(wire)?,
                                compression_penalty: r.take_i64("gamma").map_err(wire)?,
                            });
                        }
                        WorkSpec::Inline { ucddcp, due_date, jobs }
                    }
                    v => return Err(SuiteError::protocol(format!("unknown work kind {v}"))),
                };
                let mut trace = None;
                for (ext, payload) in read_extensions(&mut r).map_err(wire)? {
                    if ext == EXT_REQUEST_TRACE {
                        trace = Some(decode_trace(&payload).map_err(wire)?);
                    }
                }
                Frame::Request(NetRequest {
                    id,
                    tenant,
                    token,
                    priority,
                    deadline_ms,
                    algorithm,
                    iterations,
                    seed,
                    work,
                    trace,
                })
            }
            2 => {
                let mut resp = NetResponse {
                    id: r.take_u64("response id").map_err(wire)?,
                    objective: r.take_i64("objective").map_err(wire)?,
                    modeled_seconds: r.take_f64("modeled seconds").map_err(wire)?,
                    evaluations: r.take_u64("evaluations").map_err(wire)?,
                    cache_hit: r.take_bool("cache hit").map_err(wire)?,
                    device: r.take_opt_u64("device").map_err(wire)?,
                    cpu_fallback: r.take_bool("cpu fallback").map_err(wire)?,
                    degraded: r.take_bool("degraded").map_err(wire)?,
                    wall_ms: r.take_f64("wall ms").map_err(wire)?,
                    flight: None,
                };
                for (ext, payload) in read_extensions(&mut r).map_err(wire)? {
                    if ext == EXT_RESPONSE_FLIGHT {
                        resp.flight = Some(decode_flight(&payload).map_err(wire)?);
                    }
                }
                Frame::Response(resp)
            }
            3 => Frame::Chunk(StreamChunk {
                id: r.take_u64("chunk id").map_err(wire)?,
                index: r.take_u32("chunk index").map_err(wire)?,
                total: r.take_u32("chunk total").map_err(wire)?,
                data: r.take_bytes("chunk data").map_err(wire)?,
            }),
            4 => Frame::Error(NetError {
                id: r.take_u64("error id").map_err(wire)?,
                code: ErrorCode::from_u8(r.take_u8("error code").map_err(wire)?)
                    .map_err(|e| SuiteError::protocol(e.detail))?,
                detail: r.take_str("error detail").map_err(wire)?,
                retry_after_ms: r.take_u64("retry hint").map_err(wire)?,
            }),
            5 => Frame::Ping { nonce: r.take_u64("ping nonce").map_err(wire)? },
            6 => Frame::Pong { nonce: r.take_u64("pong nonce").map_err(wire)? },
            7 => {
                let exts = read_extensions(&mut r).map_err(wire)?;
                Frame::Stats { full: exts.iter().any(|(ext, _)| *ext == EXT_STATS_FULL) }
            }
            8 => {
                let stats = NodeStats {
                    submitted: r.take_u64("submitted").map_err(wire)?,
                    completed: r.take_u64("completed").map_err(wire)?,
                    failed: r.take_u64("failed").map_err(wire)?,
                    expired: r.take_u64("expired").map_err(wire)?,
                    degraded: r.take_u64("degraded").map_err(wire)?,
                    rejected: r.take_u64("rejected").map_err(wire)?,
                    retried: r.take_u64("retried").map_err(wire)?,
                    restarts: r.take_u64("restarts").map_err(wire)?,
                    queue_depth: r.take_u64("queue depth").map_err(wire)?,
                    cache_hits: r.take_u64("cache hits").map_err(wire)?,
                    cache_misses: r.take_u64("cache misses").map_err(wire)?,
                    coalesced: r.take_u64("coalesced").map_err(wire)?,
                };
                let mut env = StatsEnvelope::flat(stats);
                for (ext, payload) in read_extensions(&mut r).map_err(wire)? {
                    match ext {
                        EXT_STATS_REPLY_REGISTRY => {
                            env.registry = Some(decode_registry(&payload).map_err(wire)?);
                        }
                        EXT_STATS_REPLY_HEALTH => {
                            env.health = Some(decode_health(&payload).map_err(wire)?);
                        }
                        _ => {}
                    }
                }
                Frame::StatsReply(env)
            }
            9 => Frame::Shutdown,
            other => {
                return Err(SuiteError::protocol(format!("unknown frame tag {other}")));
            }
        };
        r.finish().map_err(wire)?;
        Ok(frame)
    }
}

/// Split a job sequence into ordered [`StreamChunk`]s of [`CHUNK_JOBS`]
/// indices each. An empty sequence still yields one (empty) chunk so the
/// receiver always sees a complete stream before the response.
#[must_use]
pub fn chunk_sequence(id: u64, order: &[u32]) -> Vec<StreamChunk> {
    let chunks: Vec<&[u32]> =
        if order.is_empty() { vec![&[][..]] } else { order.chunks(CHUNK_JOBS).collect() };
    let total = u32::try_from(chunks.len()).expect("chunk count fits u32");
    chunks
        .iter()
        .enumerate()
        .map(|(i, slice)| {
            let mut data = Vec::with_capacity(slice.len() * 4);
            for &j in *slice {
                data.extend_from_slice(&j.to_le_bytes());
            }
            StreamChunk { id, index: u32::try_from(i).expect("chunk index fits u32"), total, data }
        })
        .collect()
}

/// Reassemble chunk payloads back into the job-index sequence.
pub fn assemble_sequence(data: &[u8]) -> Result<Vec<u32>, SuiteError> {
    if !data.len().is_multiple_of(4) {
        return Err(SuiteError::protocol(format!(
            "sequence stream length {} is not a multiple of 4",
            data.len()
        )));
    }
    Ok(data.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))).collect())
}

/// Error detail reported when a read timeout fires before the first byte
/// of a frame arrives. Servers poll with a socket read timeout so they
/// can observe shutdown flags between frames; [`is_idle_timeout`] lets
/// them tell that benign case apart from real protocol damage.
pub const IDLE_TIMEOUT_DETAIL: &str = "frame read idled before any byte arrived";

/// Whether `err` is the benign between-frames read timeout.
#[must_use]
pub fn is_idle_timeout(err: &SuiteError) -> bool {
    matches!(err, SuiteError::Protocol { detail } if detail == IDLE_TIMEOUT_DETAIL)
}

fn is_wait(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// How long a frame that has begun may go without a byte before
/// [`read_frame`] gives up on it. A peer that sends part of a frame and
/// stalls would otherwise pin the reading thread, and with it every drain
/// that joins that thread.
pub const MID_FRAME_STALL: Duration = Duration::from_secs(2);

/// After a read timeout mid-frame: fail the read once no byte has arrived
/// for [`MID_FRAME_STALL`], otherwise let it retry.
fn stalled(last_byte: Instant, part: &str) -> Result<(), SuiteError> {
    if last_byte.elapsed() < MID_FRAME_STALL {
        return Ok(());
    }
    Err(SuiteError::protocol(format!(
        "no byte for {} ms mid {part}",
        last_byte.elapsed().as_millis()
    )))
}

/// How far a frame body's buffer may run ahead of the bytes received:
/// [`read_frame`] grows the buffer by at most this much per read, so a
/// length prefix alone pins no more than this, however much it announces.
pub const BODY_CHUNK: usize = 64 * 1024;

/// Read one frame from `r`. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection); a hostile or oversized
/// length prefix is rejected **before** any payload allocation, and the
/// body's buffer grows as its bytes arrive, at most [`BODY_CHUNK`] ahead of
/// them. If the stream has a read timeout and it fires with no frame
/// started, the error satisfies [`is_idle_timeout`]; once a frame has
/// begun, timeouts retry until no byte has arrived for
/// [`MID_FRAME_STALL`], then the read fails with a protocol error. Blocking
/// streams never time out.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, SuiteError> {
    Ok(read_frame_sized(r)?.map(|(frame, _)| frame))
}

/// [`read_frame`], also returning the bytes the frame took on the wire:
/// its 4-byte length prefix plus the body.
pub fn read_frame_sized<R: Read>(r: &mut R) -> Result<Option<(Frame, usize)>, SuiteError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    let mut last_byte = Instant::now();
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(SuiteError::protocol("connection closed mid length prefix")),
            Ok(n) => {
                filled += n;
                last_byte = Instant::now();
            }
            Err(e) if is_wait(e.kind()) && filled == 0 && e.kind() != std::io::ErrorKind::Interrupted => {
                return Err(SuiteError::protocol(IDLE_TIMEOUT_DETAIL));
            }
            Err(e) if is_wait(e.kind()) => stalled(last_byte, "length prefix")?,
            Err(e) => return Err(SuiteError::protocol(format!("read failed: {e}"))),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len < 2 {
        return Err(SuiteError::protocol(format!("frame length {len} below minimum of 2")));
    }
    if len > MAX_FRAME_LEN {
        return Err(SuiteError::protocol(format!(
            "frame length {len} exceeds limit {MAX_FRAME_LEN}"
        )));
    }
    let mut body = Vec::new();
    while body.len() < len {
        let have = body.len();
        let ahead = (len - have).min(BODY_CHUNK);
        body.reserve_exact(ahead);
        body.resize(have + ahead, 0);
        match r.read(&mut body[have..]) {
            Ok(0) => return Err(SuiteError::protocol("connection closed mid frame")),
            Ok(n) => {
                body.truncate(have + n);
                last_byte = Instant::now();
            }
            Err(e) if is_wait(e.kind()) => {
                body.truncate(have);
                stalled(last_byte, "frame")?;
            }
            Err(e) => return Err(SuiteError::protocol(format!("read failed mid frame: {e}"))),
        }
    }
    Ok(Some((Frame::decode_body(&body)?, 4 + len)))
}

/// Write one frame to `w` and flush it.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), SuiteError> {
    let bytes = frame.encode();
    w.write_all(&bytes)
        .and_then(|()| w.flush())
        .map_err(|e| SuiteError::protocol(format!("write failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_request() -> NetRequest {
        NetRequest {
            id: 42,
            tenant: "t0".into(),
            token: "deadbeef".into(),
            priority: Priority::Interactive,
            deadline_ms: Some(5000),
            algorithm: Algorithm::Sa,
            iterations: 100,
            seed: 7,
            work: WorkSpec::ById { n: 10, k: 1, h: Some(0.6) },
            trace: None,
        }
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let frames = vec![
            Frame::Request(sample_request()),
            Frame::Response(NetResponse {
                id: 42,
                objective: 1025,
                modeled_seconds: 0.25,
                evaluations: 76_800,
                cache_hit: false,
                device: Some(1),
                cpu_fallback: false,
                degraded: false,
                wall_ms: 12.5,
                flight: None,
            }),
            Frame::Chunk(StreamChunk { id: 42, index: 0, total: 1, data: vec![1, 0, 0, 0] }),
            Frame::Error(NetError {
                id: 9,
                code: ErrorCode::RateLimited,
                detail: "tenant t0 over budget".into(),
                retry_after_ms: 250,
            }),
            Frame::Ping { nonce: 77 },
            Frame::Pong { nonce: 77 },
            Frame::Stats { full: false },
            Frame::StatsReply(StatsEnvelope::flat(NodeStats {
                submitted: 3,
                completed: 2,
                ..Default::default()
            })),
            Frame::Shutdown,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut cursor = Cursor::new(wire);
        for f in &frames {
            let got = read_frame(&mut cursor).unwrap().expect("frame present");
            assert_eq!(&got, f);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF after last frame");
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut Cursor::new(wire)).unwrap_err();
        assert!(err.to_string().contains("exceeds limit"), "{err}");
    }

    /// Announces a `MAX_FRAME_LEN` body, sends `body` bytes of it, then
    /// reports EOF; records the largest buffer any read was offered.
    struct AnnounceThenHangUp {
        prefix: std::io::Cursor<[u8; 4]>,
        body: usize,
        largest: usize,
    }

    impl Read for AnnounceThenHangUp {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.prefix.position() < 4 {
                return self.prefix.read(buf);
            }
            self.largest = self.largest.max(buf.len());
            let n = buf.len().min(self.body).min(1000);
            buf[..n].fill(7);
            self.body -= n;
            Ok(n)
        }
    }

    #[test]
    fn a_frame_body_buffer_grows_only_as_its_bytes_arrive() {
        let prefix = (MAX_FRAME_LEN as u32).to_le_bytes();
        for body in [0, 3 * BODY_CHUNK + 17] {
            let mut peer = AnnounceThenHangUp { prefix: Cursor::new(prefix), body, largest: 0 };
            let err = read_frame(&mut peer).unwrap_err();
            assert!(err.to_string().contains("connection closed mid frame"), "{err}");
            assert!(peer.largest <= BODY_CHUNK, "a read was offered {} bytes", peer.largest);
            assert_eq!(peer.body, 0, "every byte sent was read");
        }
    }

    #[test]
    fn sized_reads_count_the_bytes_on_the_wire() {
        let frames = [
            Frame::Request(sample_request()),
            Frame::Ping { nonce: 3 },
            Frame::Chunk(StreamChunk { id: 1, index: 0, total: 1, data: vec![9; 3 * BODY_CHUNK] }),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let total = wire.len();
        let mut cursor = Cursor::new(wire);
        let mut counted = 0;
        for f in &frames {
            let (got, bytes) = read_frame_sized(&mut cursor).unwrap().expect("frame present");
            assert_eq!(&got, f);
            assert_eq!(bytes, f.encode().len());
            counted += bytes;
        }
        assert_eq!(counted, total);
        assert!(read_frame_sized(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn unknown_tag_is_a_structured_protocol_error() {
        let err = Frame::decode_body(&[PROTOCOL_VERSION, 200]).unwrap_err();
        assert!(err.to_string().contains("unknown frame tag 200"), "{err}");
    }

    #[test]
    fn unknown_version_is_rejected() {
        let err = Frame::decode_body(&[99, 5, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Frame::Ping { nonce: 1 }.encode()[4..].to_vec();
        body.push(0xFF);
        assert!(Frame::decode_body(&body).is_err());
    }

    #[test]
    fn traced_frames_round_trip_and_untraced_bytes_are_unchanged() {
        let untraced = Frame::Request(sample_request());
        let traced = Frame::Request(NetRequest {
            trace: Some(TraceContext { trace_id: 0xABCD, parent_span_id: 7, sampled: true }),
            ..sample_request()
        });
        assert_eq!(Frame::decode_body(&traced.encode()[4..]).unwrap(), traced);
        // The extension block appears only when an extension is present:
        // past the length prefix, the untraced body is a byte-identical
        // prefix of the traced one.
        let (traced_wire, untraced_wire) = (traced.encode(), untraced.encode());
        assert!(traced_wire.len() > untraced_wire.len());
        assert_eq!(
            &traced_wire[4..untraced_wire.len()],
            &untraced_wire[4..],
            "legacy fields are a byte-identical prefix"
        );

        let response = Frame::Response(NetResponse {
            id: 42,
            objective: 10,
            modeled_seconds: 0.5,
            evaluations: 100,
            cache_hit: false,
            device: Some(0),
            cpu_fallback: false,
            degraded: false,
            wall_ms: 3.25,
            flight: Some(FlightRecord {
                trace_id: 0xABCD,
                node: "a".into(),
                hops: vec![cdd_metrics::FlightHop::new("worker", "attempt", 500.0, 512.0)],
            }),
        });
        assert_eq!(Frame::decode_body(&response.encode()[4..]).unwrap(), response);
    }

    #[test]
    fn stats_frames_round_trip_with_extensions() {
        for frame in [Frame::Stats { full: false }, Frame::Stats { full: true }] {
            assert_eq!(Frame::decode_body(&frame.encode()[4..]).unwrap(), frame);
        }
        assert_eq!(
            Frame::Stats { full: false }.encode().len(),
            4 + 2,
            "plain stats poll is the legacy empty payload"
        );

        let mut reg = MetricsRegistry::new();
        reg.inc("net_requests_total", &[("tenant", "t0")], 3);
        let env = StatsEnvelope {
            stats: NodeStats { submitted: 3, ..Default::default() },
            health: Some(UpstreamHealth { upstreams_alive: 2, upstreams_unreachable: 1 }),
            registry: Some(reg),
        };
        let frame = Frame::StatsReply(env);
        assert_eq!(Frame::decode_body(&frame.encode()[4..]).unwrap(), frame);
    }

    #[test]
    fn unknown_extensions_are_skipped_not_errors() {
        // A frame from a *newer* peer: legacy fields, then an extension
        // block holding one unknown tag. This build must parse the known
        // shape and ignore the stranger.
        let mut body = Frame::Request(sample_request()).encode()[4..].to_vec();
        body.push(1); // extension count
        body.push(200); // unknown tag
        body.extend_from_slice(&3u32.to_le_bytes());
        body.extend_from_slice(&[1, 2, 3]);
        let decoded = Frame::decode_body(&body).expect("unknown extension tolerated");
        assert_eq!(decoded, Frame::Request(sample_request()));

        // Same for a stats reply carrying a future extension.
        let mut body =
            Frame::StatsReply(StatsEnvelope::flat(NodeStats::default())).encode()[4..].to_vec();
        body.push(1);
        body.push(250);
        body.extend_from_slice(&0u32.to_le_bytes());
        assert!(Frame::decode_body(&body).is_ok());

        // A truncated extension block is still an error.
        let mut body = Frame::Request(sample_request()).encode()[4..].to_vec();
        body.push(2); // claims two extensions, provides none
        assert!(Frame::decode_body(&body).is_err());
    }

    #[test]
    fn request_materializes_and_keys_like_a_local_request() {
        let wire_req = sample_request().to_solve_request().unwrap();
        let local = SolveRequest::new(
            InstanceId { n: 10, k: 1, h: Some(0.6) }.instantiate(),
            Algorithm::Sa,
            100,
            7,
        );
        assert_eq!(wire_req.content_key(), local.content_key());
        assert_eq!(wire_req.tenant, "t0");
        assert_eq!(wire_req.priority, Priority::Interactive);
    }

    #[test]
    fn hostile_by_id_parameters_are_protocol_errors() {
        for (n, k, h) in [
            (0u64, 1u32, Some(0.5)),
            (u64::MAX, 1, Some(0.5)),
            (10, 0, Some(0.5)),
            (10, 1, Some(f64::NAN)),
            (10, 1, Some(-0.5)),
            (10, 1, Some(7.0)),
        ] {
            let req =
                NetRequest { work: WorkSpec::ById { n, k, h }, ..sample_request() };
            assert!(req.to_solve_request().is_err(), "({n},{k},{h:?}) must be rejected");
        }
    }

    #[test]
    fn inline_work_is_validated_on_receipt() {
        let bad = NetRequest {
            work: WorkSpec::Inline {
                ucddcp: false,
                due_date: 10,
                jobs: vec![Job::cdd(0, 1, 1)], // zero processing time
            },
            ..sample_request()
        };
        assert!(bad.to_solve_request().is_err());

        let good = NetRequest {
            work: WorkSpec::Inline {
                ucddcp: false,
                due_date: 10,
                jobs: vec![Job::cdd(4, 1, 2), Job::cdd(6, 2, 1)],
            },
            ..sample_request()
        };
        assert!(good.to_solve_request().is_ok());
    }

    #[test]
    fn sequences_chunk_and_reassemble() {
        let order: Vec<u32> = (0..1000).collect();
        let chunks = chunk_sequence(5, &order);
        assert_eq!(chunks.len(), 4); // 256×3 + 232
        assert!(chunks.iter().all(|c| c.total == 4 && c.id == 5));
        let mut data = Vec::new();
        for c in &chunks {
            data.extend_from_slice(&c.data);
        }
        assert_eq!(assemble_sequence(&data).unwrap(), order);

        let empty = chunk_sequence(1, &[]);
        assert_eq!(empty.len(), 1);
        assert!(empty[0].data.is_empty());
        assert!(assemble_sequence(&[1, 2, 3]).is_err(), "ragged stream rejected");
    }
}
