//! # cdd-core
//!
//! Problem model and fixed-sequence optimizers for two NP-hard single-machine
//! scheduling problems studied in *"GPGPU-based Parallel Algorithms for
//! Scheduling Against Due Date"* (Awasthi, Lässig, Leuschner, Weise —
//! IPDPSW/PCO 2016):
//!
//! * **CDD** — the Common Due-Date problem: sequence `n` jobs on a single
//!   machine against a common due date `d`, minimizing the total weighted
//!   earliness/tardiness penalty `Σ (αᵢ·Eᵢ + βᵢ·Tᵢ)`.
//! * **UCDDCP** — the Unrestricted CDD with Controllable Processing Times:
//!   additionally, each job's processing time may be *compressed* from `Pᵢ`
//!   down to `Mᵢ` at a cost of `γᵢ` per time unit, adding `Σ γᵢ·Xᵢ` to the
//!   objective. "Unrestricted" means `d ≥ Σ Pᵢ`.
//!
//! The paper's **two-layered approach** splits each problem into
//!
//! 1. a *sequence search* (NP-hard — handled by metaheuristics in the
//!    `cdd-meta` / `cdd-gpu` crates), and
//! 2. a *fixed-sequence subproblem* — given a job order, find optimal
//!    completion times (and compressions). This crate implements the
//!    **O(n) deterministic algorithms** for that subproblem:
//!    [`cdd_optimal::optimize_cdd_sequence`] (Lässig et al. 2014) and
//!    [`ucddcp_optimal::optimize_ucddcp_sequence`] (Awasthi et al. 2015).
//!
//! Brute-force reference solvers for validation live in [`exact`]; the
//! `cdd-lp` crate provides an independent simplex-LP cross-check.
//!
//! ## Quick example
//!
//! ```
//! use cdd_core::{Instance, JobSequence};
//!
//! // The 5-job illustrative example of the paper (Table I), d = 16.
//! let inst = Instance::cdd_from_arrays(
//!     &[6, 5, 2, 4, 4],       // processing times Pᵢ
//!     &[7, 9, 6, 9, 3],       // earliness penalties αᵢ
//!     &[9, 5, 4, 3, 2],       // tardiness penalties βᵢ
//!     16,                     // common due date d
//! ).unwrap();
//! let seq = JobSequence::identity(5);
//! let sol = cdd_core::optimize_cdd_sequence(&inst, &seq);
//! assert_eq!(sol.objective, 81); // the paper's worked result
//! ```

#![forbid(unsafe_code)]

pub mod cdd_optimal;
pub mod error;
pub mod eval;
pub mod exact;
pub mod heuristics;
pub mod instance;
pub mod job;
pub mod schedule;
pub mod sequence;
pub mod solve;
pub mod ucddcp_optimal;

pub use cdd_optimal::{optimize_cdd_sequence, CddSequenceSolution};
pub use error::{CoreError, SuiteError};
pub use eval::{CddEvaluator, SequenceEvaluator, UcddcpEvaluator};
pub use instance::{Instance, ProblemKind};
pub use job::Job;
pub use schedule::Schedule;
pub use sequence::JobSequence;
pub use solve::{degraded_outcome, Algorithm, Priority, SolveOutcome, SolveRequest, TraceContext};
pub use ucddcp_optimal::{optimize_ucddcp_sequence, UcddcpSequenceSolution};

/// Integer time/penalty scalar used throughout the suite.
///
/// The OR-library benchmark data is integral (processing times in `[1,20]`,
/// penalty rates in `[1,15]`), so all schedules, shifts and objectives are
/// exact integers. `i64` comfortably holds any objective arising from
/// `n ≤ 10⁶` jobs with these magnitudes.
pub type Time = i64;

/// Objective (total weighted penalty) scalar. Alias of [`Time`].
pub type Cost = i64;
