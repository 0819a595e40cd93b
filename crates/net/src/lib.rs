//! # cdd-net
//!
//! The solver service's network front door (DESIGN.md §13): a
//! length-prefixed framed protocol over plain TCP — `std::net` and a
//! reader and a writer thread per connection, no async runtime —
//! carrying versioned request/response/stream-chunk/error frames with
//! per-tenant auth tokens, priority classes, and deadlines that map
//! directly onto the service's admission control.
//!
//! Three roles build on the same [`frame`] vocabulary:
//!
//! * [`node`] — `cdd-node`, a [`cdd_service::SolverService`] behind a
//!   listener with streaming result delivery and per-tenant token-bucket
//!   rate limits ([`limiter`]);
//! * [`router`] — `cdd-router`, fronting N nodes and sharding every
//!   request by its `content_key` via rendezvous hashing, so node-local
//!   LRU caches and in-flight coalescing deduplicate across the fleet;
//!   dead upstreams are health-checked, their in-flight work re-routed to
//!   the surviving shards with deterministic backoff;
//! * [`client`] — a synchronous windowed client that absorbs the
//!   protocol's flow control (rate limits, rejections, reconnects) so
//!   workloads always resolve to a complete outcome set.
//!
//! The determinism contract extends across the network path: for a fixed
//! workload, the sorted `(request, fitness, degraded)` outcome set —
//! [`client::sorted_outcome_csv`] — is byte-identical regardless of shard
//! count, routing, connection multiplexing, or mid-campaign node
//! kill/restart. Only wall-clock-shaped numbers (latency, frame-size
//! histograms) may differ between runs.

#![forbid(unsafe_code)]

pub mod auth;
pub mod client;
pub mod frame;
pub mod limiter;
pub mod node;
pub mod router;
pub mod snapshot;
pub mod wire;

pub use client::{run_workload, sorted_outcome_csv, ClientOutcome};
pub use frame::{
    read_frame, read_frame_sized, write_frame, ErrorCode, Frame, NetError, NetRequest,
    NetResponse, NodeStats, StatsEnvelope, StreamChunk, UpstreamHealth, WorkSpec, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
pub use snapshot::{decode_flight, decode_registry, encode_flight, encode_registry};
pub use limiter::TenantLimiter;
pub use node::{serve as serve_node, NodeConfig, NodeHandle, NodeReport};
pub use router::{serve as serve_router, RouterConfig, RouterHandle, RouterReport};
