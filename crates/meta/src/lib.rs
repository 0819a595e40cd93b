//! # cdd-meta
//!
//! Layer (i) of the paper's two-layered approach: metaheuristics searching
//! the space of job sequences, with the O(n) optimizers of `cdd-core` as the
//! fitness function.
//!
//! CPU implementations (this crate):
//!
//! * [`sa`] — Simulated Annealing (the paper's Algorithm 1): metropolis
//!   acceptance, exponential cooling (μ = 0.88), initial temperature from
//!   the Salamon–Sibani–Frost rule ([`temperature`]), Fisher–Yates window
//!   perturbation ([`perturb`]). A long single chain of this SA is also the
//!   stand-in for the CPU reference of Lässig et al. \[7\].
//! * [`dpso`] — Discrete Particle Swarm Optimization (Algorithm 2, the
//!   update rule of Pan et al. with swap velocity F₁, one-point crossover F₂
//!   and two-point crossover F₃).
//! * [`es`] — a (μ+λ) evolution strategy on permutations, standing in for
//!   the Feldmann–Biskup metaheuristics \[18\] as the second CPU baseline.
//! * [`ensemble`] — the asynchronous (Fig. 7) and synchronous (Fig. 8)
//!   multi-chain parallel SA schemes of Ferreiro et al. \[12\], backed by
//!   CPU threads.
//!
//! The GPU versions of SA and DPSO live in `cdd-gpu`, mapped onto the
//! `cuda-sim` execution model.

#![forbid(unsafe_code)]

pub mod cooling;
pub mod dpso;
pub mod ensemble;
pub mod es;
pub mod perturb;
pub mod sa;
pub mod temperature;

pub use cooling::Cooling;
pub use dpso::{Dpso, DpsoParams};
pub use ensemble::{AsyncEnsemble, SyncEnsemble};
pub use es::{EsParams, EvolutionStrategy};
pub use sa::{SaParams, SimulatedAnnealing};
pub use temperature::{initial_temperature, initial_temperature_local};

use cdd_core::{Cost, JobSequence};

/// Outcome of one metaheuristic run.
#[derive(Debug, Clone)]
pub struct MetaResult {
    /// Best job sequence found.
    pub best: JobSequence,
    /// Its objective value (from the O(n) fixed-sequence optimizer).
    pub objective: Cost,
    /// Fitness evaluations performed.
    pub evaluations: u64,
}
