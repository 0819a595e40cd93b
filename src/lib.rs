//! # cdd-suite
//!
//! Facade crate re-exporting the whole reproduction of *"GPGPU-based
//! Parallel Algorithms for Scheduling Against Due Date"* (Awasthi, Lässig,
//! Leuschner, Weise — IPDPSW/PCO 2016).
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `cdd-core` | problem model, O(n) fixed-sequence optimizers |
//! | [`lp`] | `cdd-lp` | simplex LP solver + fixed-sequence LP models |
//! | [`instances`] | `cdd-instances` | Biskup–Feldmann benchmark generation, OR-library I/O |
//! | [`cuda`] | `cuda-sim` | CUDA execution-model simulator + performance model |
//! | [`meta`] | `cdd-meta` | CPU metaheuristics (SA, DPSO, ES) and ensembles |
//! | [`gpu`] | `cdd-gpu` | GPU-parallel SA/DPSO pipelines (4 kernels) |
//! | [`service`] | `cdd-service` | multi-device solver service (queue, pool, cache) |
//! | [`net`] | `cdd-net` | framed TCP front door, multi-node router, net client |
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! system inventory and per-experiment index.

#![forbid(unsafe_code)]

pub use cdd_core as core;
pub use cdd_gpu as gpu;
pub use cdd_instances as instances;
pub use cdd_lp as lp;
pub use cdd_meta as meta;
pub use cdd_net as net;
pub use cdd_service as service;
pub use cuda_sim as cuda;

// Convenience re-exports of the types almost every user needs.
pub use cdd_core::{Algorithm, Instance, Job, JobSequence, ProblemKind, Schedule, SolveRequest};
