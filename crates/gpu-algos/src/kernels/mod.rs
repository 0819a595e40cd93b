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

#[cfg(test)]
mod tests {
    /// Kernel types stay `Sync` although both backends launch serially:
    /// callers may share one kernel across host threads (the end-to-end
    /// benchmark's launch helper bounds its kernels `Kernel + Sync`).
    #[test]
    fn kernel_types_are_sync() {
        fn sync<T: Sync>() {}
        sync::<super::AcceptKernel>();
        sync::<super::DpsoUpdateKernel>();
        sync::<super::FitnessKernel>();
        sync::<super::GbestCopyKernel>();
        sync::<super::PbestKernel>();
        sync::<super::PerturbKernel>();
        sync::<crate::sync_pipeline::BroadcastKernel>();
        sync::<cuda_sim::reduce::AtomicArgminKernel>();
    }
}
