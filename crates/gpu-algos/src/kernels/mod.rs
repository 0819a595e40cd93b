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
    use super::*;
    use crate::layout::ProblemDevice;
    use cdd_core::{Instance, JobSequence};
    use cuda_sim::{DeviceSpec, ExecBackend, Gpu, LaunchConfig, NativeGpu, XorWow};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BLOCKS: usize = 2;
    const THREADS: usize = BLOCKS * 8;
    const N: usize = 12;

    /// `THREADS` random job-id rows of `N`, flattened.
    fn rows(seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..THREADS).flat_map(|_| JobSequence::random(N, &mut rng).as_slice().to_vec()).collect()
    }

    /// `base`, or, with `Some(t)`, `other` with thread `t`'s row from `base`.
    fn keeping(t: Option<usize>, base: &[u32], other: &[u32]) -> Vec<u32> {
        let Some(t) = t else { return base.to_vec() };
        let mut mixed = other.to_vec();
        mixed[t * N..(t + 1) * N].copy_from_slice(&base[t * N..(t + 1) * N]);
        mixed
    }

    fn rng_words() -> Vec<u64> {
        (0..THREADS).flat_map(|t| XorWow::new(11, t as u64).pack()).collect()
    }

    /// Each thread's share of the buffers read back after a launch: every
    /// `(values, per_thread)` pair gives thread `t` its `t`-th chunk.
    fn per_thread(parts: &[(Vec<u64>, usize)]) -> Vec<Vec<u64>> {
        (0..THREADS)
            .map(|t| parts.iter().flat_map(|(v, w)| v[t * w..(t + 1) * w].to_vec()).collect())
            .collect()
    }

    fn widen(v: Vec<u32>) -> Vec<u64> {
        v.into_iter().map(u64::from).collect()
    }

    /// `setup` builds a kernel and its buffers on a device and returns its
    /// launcher: `launch(gpu, None)` runs the kernel on the base inputs and
    /// `launch(gpu, Some(t))` on inputs where every thread but `t` has new
    /// rows, both from the same RNG states. Thread `t`'s outputs must match
    /// a fresh kernel's on the base inputs. A thread that read a working
    /// vector it had not overwritten would see what an earlier thread or
    /// launch left there: the relaunches start with the last thread's rows,
    /// so even the first thread of the first relaunch sees other rows.
    fn assert_threads_independent<B, L>(setup: impl Fn(&mut B) -> L)
    where
        B: ExecBackend,
        L: FnMut(&mut B, Option<usize>) -> Vec<Vec<u64>>,
    {
        let mut fresh = B::from_spec(DeviceSpec::gt560m());
        let base = setup(&mut fresh)(&mut fresh, None);
        let gpu = &mut B::from_spec(DeviceSpec::gt560m());
        let mut launch = setup(gpu);
        for t in (0..THREADS).rev() {
            assert_eq!(launch(gpu, Some(t))[t], base[t], "{:?} thread {t}", gpu.kind());
        }
    }

    fn perturb<B: ExecBackend>(gpu: &mut B) -> impl FnMut(&mut B, Option<usize>) -> Vec<Vec<u64>> {
        let (base, other) = (rows(1), rows(2));
        let src = gpu.alloc::<u32>(THREADS * N);
        let dst = gpu.alloc::<u32>(THREADS * N);
        let rng = gpu.alloc::<u64>(THREADS * 3);
        let kernel = PerturbKernel::new(src, dst, rng, N, THREADS, 4);
        move |gpu: &mut B, keep| {
            gpu.h2d(src, &keeping(keep, &base, &other));
            gpu.h2d(rng, &rng_words());
            gpu.launch_kernel(&kernel, LaunchConfig::linear(BLOCKS, 8)).unwrap();
            per_thread(&[(widen(gpu.d2h(dst)), N), (gpu.d2h(rng), 3)])
        }
    }

    fn dpso_update<B: ExecBackend>(
        gpu: &mut B,
    ) -> impl FnMut(&mut B, Option<usize>) -> Vec<Vec<u64>> {
        let (base, other) = (rows(3), rows(4));
        let (pbest_base, pbest_other) = (rows(5), rows(6));
        let positions = gpu.alloc::<u32>(THREADS * N);
        let pbest = gpu.alloc::<u32>(THREADS * N);
        let gbest = gpu.alloc::<u32>(N);
        gpu.h2d(gbest, &base[..N]);
        let rng = gpu.alloc::<u64>(THREADS * 3);
        let kernel = DpsoUpdateKernel::new(positions, pbest, gbest, rng, N, THREADS, 0.9, 0.9, 0.9);
        move |gpu: &mut B, keep| {
            gpu.h2d(positions, &keeping(keep, &base, &other));
            gpu.h2d(pbest, &keeping(keep, &pbest_base, &pbest_other));
            gpu.h2d(rng, &rng_words());
            gpu.launch_kernel(&kernel, LaunchConfig::linear(BLOCKS, 8)).unwrap();
            per_thread(&[(widen(gpu.d2h(positions)), N), (gpu.d2h(rng), 3)])
        }
    }

    fn fitness<B: ExecBackend>(
        gpu: &mut B,
        inst: &Instance,
    ) -> impl FnMut(&mut B, Option<usize>) -> Vec<Vec<u64>> {
        let (base, other) = (rows(7), rows(8));
        let prob = ProblemDevice::upload(gpu, inst).unwrap();
        let seqs = gpu.alloc::<u32>(THREADS * N);
        let out = gpu.alloc::<i64>(THREADS);
        let kernel = FitnessKernel::new(prob, seqs, out, THREADS, BLOCKS);
        move |gpu: &mut B, keep| {
            gpu.h2d(seqs, &keeping(keep, &base, &other));
            gpu.launch_kernel(&kernel, LaunchConfig::linear(BLOCKS, 8)).unwrap();
            let energies = gpu.d2h(out).into_iter().map(|e| e as u64).collect();
            per_thread(&[(energies, 1)])
        }
    }

    fn all_kernels<B: ExecBackend>() {
        let cdd = cdd_instances::cdd_instance(N, 1, 0.4);
        let ucddcp = cdd_instances::ucddcp_instance(N, 1);
        assert_threads_independent(perturb::<B>);
        assert_threads_independent(dpso_update::<B>);
        assert_threads_independent(|gpu: &mut B| fitness(gpu, &cdd));
        assert_threads_independent(|gpu: &mut B| fitness(gpu, &ucddcp));
    }

    /// The threads of a launch share one working slot, so each must
    /// overwrite every working vector before it reads it.
    #[test]
    fn shared_working_slot_carries_nothing_between_threads() {
        all_kernels::<Gpu>();
        all_kernels::<NativeGpu>();
    }

    /// Kernel types stay `Sync` although both backends launch serially:
    /// callers may share one kernel across host threads (the end-to-end
    /// benchmark's launch helper bounds its kernels `Kernel + Sync`).
    #[test]
    fn kernel_types_are_sync() {
        fn sync<T: Sync>() {}
        sync::<AcceptKernel>();
        sync::<DpsoUpdateKernel>();
        sync::<FitnessKernel>();
        sync::<GbestCopyKernel>();
        sync::<PbestKernel>();
        sync::<PerturbKernel>();
        sync::<crate::sync_pipeline::BroadcastKernel>();
        sync::<cuda_sim::reduce::AtomicArgminKernel>();
    }
}
