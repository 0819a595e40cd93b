//! # cdd-service
//!
//! A multi-device **solver service** on top of the suite's simulated-GPU
//! pipelines: typed [`cdd_core::SolveRequest`]s enter a bounded submission
//! queue with admission control and per-request deadlines, idle device
//! workers steal jobs onto a pool of independent `cuda-sim` devices (one
//! in-flight campaign per device), and a content-addressed
//! [`SolutionCache`] answers repeated requests without re-dispatching.
//! Faults on one device degrade the requests routed to it — never the
//! service (see [`service`] module docs for the dataflow and the
//! determinism contract, and DESIGN.md §8 for the design rationale).
//!
//! Every accepted ticket is answered exactly once, by running the reply
//! its submitter handed to [`SolverService::submit_with`]; an embedding
//! such as `cdd-node` passes a reply that queues the answer for its
//! connection's writer. The crate also ships a synchronous client API
//! built on it ([`SolverService::submit`] returns a [`Ticket`] that
//! [`SolverService::wait`] receives on; [`SolverService::solve`] does
//! both) and the `cdd-serve` binary, which replays a workload file against
//! the service and reports throughput, latency percentiles, cache hit rate
//! and per-device utilization.
//!
//! PR 6 adds the **resilience layer**: a [`supervisor`] that detects dead
//! or stuck workers, restarts them with fresh devices and re-dispatches
//! their in-flight jobs with a bounded, deterministically-jittered retry
//! backoff; a per-device [`CircuitBreaker`] that sheds traffic away from
//! sick devices; and graceful degradation — requests the pool cannot
//! serve are answered from the CPU oracle with `degraded: true` instead
//! of erroring (see DESIGN.md §12 and the `--chaos` mode of `cdd-serve`).
//!
//! ```
//! use cdd_core::{Algorithm, Instance, SolveRequest};
//! use cdd_service::{ServiceConfig, SolverService};
//!
//! let service = SolverService::start(ServiceConfig {
//!     devices: 2,
//!     blocks: 1,
//!     block_size: 32,
//!     ..Default::default()
//! });
//! let request = SolveRequest::new(Instance::paper_example_cdd(), Algorithm::Sa, 100, 42);
//! let outcome = service.solve(request.clone()).unwrap();
//! let again = service.solve(request).unwrap();
//! assert_eq!(outcome.objective, again.objective); // bit-identical, served from cache
//! assert!(again.cache_hit);
//! let report = service.shutdown();
//! assert_eq!(report.completed, 2);
//! assert_eq!(report.cache.hits + report.cache.coalesced, 1);
//! ```

#![forbid(unsafe_code)]

pub mod breaker;
pub mod cache;
pub mod queue;
pub mod service;
pub mod supervisor;

pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
pub use cdd_gpu::Backend;
pub use cache::{CacheStats, SolutionCache};
pub use queue::QueueStats;
pub use service::{
    DeviceReport, RequestOutcome, ServiceConfig, ServiceReport, ServiceSnapshot, SolverService,
    Ticket,
};
pub use supervisor::SupervisorConfig;
