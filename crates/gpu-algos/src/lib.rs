//! # cdd-gpu
//!
//! The paper's GPU algorithms (Sections VI–VII) mapped onto the `cuda-sim`
//! execution model: **asynchronous parallel Simulated Annealing** and
//! **Discrete Particle Swarm Optimization** for the CDD and UCDDCP
//! scheduling problems.
//!
//! Per generation, the SA pipeline launches the paper's four kernels
//! (Fig. 10):
//!
//! 1. **perturbation** — each thread derives a candidate from its current
//!    sequence by Fisher–Yates-shuffling `Pert = 4` randomly selected
//!    positions, using its private XORWOW stream;
//! 2. **fitness** — each thread stages the penalty rates into shared memory
//!    (cooperatively, behind a `__syncthreads` barrier — phase-structured in
//!    the simulator), then runs the O(n) fixed-sequence optimizer of
//!    `cdd-core` on its candidate;
//! 3. **acceptance** — the metropolis rule at the current temperature, plus
//!    maintenance of each thread's personal best;
//! 4. **reduction** — an atomic argmin over the personal bests into the
//!    global best.
//!
//! The simulator runs exactly those launches; it is the referee whose
//! modeled clock, fault draws and timeline are per launch. The native
//! backend runs a whole SA run as one pass instead, chain-major: every
//! chain perturbs, scores, accepts and folds its own state through all its
//! generations back to back, through the same per-thread functions the
//! kernels call, and the pass counts the launches it stands for. DPSO runs
//! its position update, fitness, personal-best update and reduction as one
//! pass per generation, then launches the swarm-best broadcast, which
//! every particle reads.
//!
//! Data movement follows Fig. 9: job data, initial sequences and RNG states
//! are copied host→device once; `d` and `n` live in constant memory; only
//! the packed global best and the winning row come back at the end. All
//! timing is the simulator's modeled time (see `cuda-sim` docs).
//!
//! ```
//! use cdd_core::Instance;
//! use cdd_gpu::{GpuSaParams, run_gpu_sa};
//!
//! let inst = Instance::paper_example_cdd();
//! let result = run_gpu_sa(&inst, &GpuSaParams { blocks: 2, block_size: 32,
//!     iterations: 200, ..Default::default() }).unwrap();
//! assert!(result.objective <= 90); // near the 5-job optimum
//! assert!(result.modeled_seconds > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod dpso_pipeline;
pub mod init;
pub mod kernels;
pub mod layout;
pub mod recovery;
pub mod sa_pipeline;
pub mod solve;
pub mod sync_pipeline;
pub mod trajectory;

pub use dpso_pipeline::{run_gpu_dpso, GpuDpsoParams};
pub use init::{initial_ensemble, InitStrategy};
pub use kernels::fitness::CORRUPT_ENERGY;
pub use layout::ProblemDevice;
pub use recovery::{RecoveryPolicy, RecoveryStats};
pub use sa_pipeline::{run_gpu_sa, GpuRunResult, GpuSaParams};
pub use cuda_sim::{Backend, NativeGpu};
pub use solve::{run_gpu_solve, GpuSolveSpec};
pub use sync_pipeline::{run_gpu_sa_sync, BroadcastKernel};
pub use trajectory::{
    counter_trace_events, ConvergenceSummary, ConvergenceTrace, GenerationSample,
};
