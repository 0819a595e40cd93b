//! # cdd-lp
//!
//! A self-contained dense **two-phase primal simplex** solver and the
//! fixed-sequence linear-programming models of the CDD and UCDDCP problems.
//!
//! Section III of the reproduced paper observes that once the job order is
//! fixed (all `δᵢⱼ` decided), the 0-1 integer program becomes a plain LP in
//! the completion times `Cᵢ` and compressions `Xᵢ` — but that "LP solvers
//! are quite slow when run iteratively" inside a metaheuristic, which is why
//! the O(n) algorithms of `cdd-core` exist. This crate provides that LP
//! baseline:
//!
//! * as an **independent correctness oracle** — the simplex solution of the
//!   continuous model must match the O(n) combinatorial optimum (this also
//!   validates the paper's Property 2: full-or-nothing compression), and
//! * as the **ablation baseline** for the "LP vs. linear algorithm" speed
//!   comparison (`cdd-bench`'s `ablation_lp_vs_linear`).
//!
//! ```
//! use cdd_core::{Instance, JobSequence};
//! use cdd_lp::cdd_model::solve_cdd_sequence_lp;
//!
//! let inst = Instance::paper_example_cdd();
//! let seq = JobSequence::identity(5);
//! let lp = solve_cdd_sequence_lp(&inst, &seq).unwrap();
//! assert!((lp.objective - 81.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]

pub mod cdd_model;
pub mod matrix;
pub mod model;
pub mod simplex;

pub use cdd_model::{solve_cdd_sequence_lp, solve_ucddcp_sequence_lp, LpSequenceSolution};
pub use matrix::Matrix;
pub use model::{ConstraintSense, Model, VarId};
pub use simplex::{solve, LpError, LpSolution};
