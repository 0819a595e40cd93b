//! The device kernels of the paper's Fig. 10 pipeline.
//!
//! | kernel | paper section | module |
//! |---|---|---|
//! | fitness | VI-A | [`fitness`] |
//! | fused multi-request fitness | VI-A, batched | [`batch_fitness`] |
//! | perturbation | VI-B | [`perturb`] |
//! | acceptance | VI-C | [`accept`] |
//! | reduction | VI-D | `cuda_sim::reduce` (atomic argmin) |
//! | DPSO position update | VII | [`dpso_update`] |

pub mod accept;
pub mod batch_fitness;
pub mod dpso_update;
pub mod fitness;
pub mod perturb;

pub use accept::{AcceptKernel, SaProbe};
pub use batch_fitness::BatchFitnessKernel;
pub use dpso_update::{DpsoProbe, DpsoUpdateKernel, GbestCopyKernel, PbestKernel};
pub use fitness::FitnessKernel;
pub use perturb::PerturbKernel;
