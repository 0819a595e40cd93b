//! The device kernels of the paper's Fig. 10 pipeline.
//!
//! | kernel | paper section | module |
//! |---|---|---|
//! | fitness | VI-A | [`fitness`] |
//! | perturbation | VI-B | [`perturb`] |
//! | acceptance | VI-C | [`accept`] |
//! | reduction | VI-D | `cuda_sim::reduce` (atomic argmin) |
//! | DPSO position update | VII | [`dpso_update`] |

pub mod accept;
pub mod dpso_update;
pub mod fitness;
pub mod perturb;

pub use accept::{AcceptKernel, SaProbe};
pub use dpso_update::{DpsoProbe, DpsoUpdateKernel, GbestCopyKernel, PbestKernel};
pub use fitness::FitnessKernel;
pub use perturb::PerturbKernel;
