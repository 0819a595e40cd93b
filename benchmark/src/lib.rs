//! # cdd-e2e-bench
//!
//! One benchmark for the solver fleet's request path — client → router →
//! node → queue → worker → kernels — on an in-process fleet over loopback
//! TCP. An end-to-end run (`--trace 0`) reports what a user of the fleet
//! sees; a per-layer run (`--trace 1`) splits that time by layer. Every
//! layer is timed from outside through its public functions, and every
//! answer is checked. See `benchmark/README.md` for the metrics, the
//! workloads and the methods.

pub mod fleet;
pub mod layers;
pub mod loadgen;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod run;
pub mod schedule;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod verify;
pub mod workloads;
