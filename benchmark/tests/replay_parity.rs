//! The kernel replay must reproduce `run_gpu_solve` byte for byte, on both
//! backends and both problem kinds.

use cdd_core::Algorithm;
use cdd_e2e_bench::replay::replay_sa;
use cdd_gpu::{run_gpu_solve, Backend, GpuSolveSpec};
use cdd_instances::InstanceId;
use cuda_sim::{ExecBackend, Gpu, NativeGpu};

fn check<B: ExecBackend>(backend: Backend) {
    for n in [20, 200] {
        for id in [InstanceId::cdd(n, 3, 0.4), InstanceId::ucddcp(n, 3)] {
            let inst = id.instantiate();
            let spec = GpuSolveSpec {
                blocks: 2,
                block_size: 32,
                backend,
                ..GpuSolveSpec::default()
            };
            let (iterations, seed) = (15, 2016);
            let solved = run_gpu_solve(&inst, Algorithm::Sa, iterations, seed, &spec).unwrap();
            let replayed = replay_sa::<B>(&inst, iterations, seed, &spec).unwrap();
            assert_eq!(
                replayed.best,
                solved.best.as_slice(),
                "{id} on {backend}: best sequence"
            );
            assert_eq!(
                replayed.objective, solved.objective,
                "{id} on {backend}: objective"
            );
            assert_eq!(
                replayed.t0.to_bits(),
                solved.t0.to_bits(),
                "{id} on {backend}: T0"
            );
            assert_eq!(
                replayed.launches, solved.kernel_launches,
                "{id} on {backend}: launches"
            );
            assert_eq!(replayed.fitness_s.len() as u64, iterations + 1);
            for launches in [&replayed.perturb_s, &replayed.accept_s, &replayed.argmin_s] {
                assert_eq!(launches.len() as u64, iterations);
            }
            assert!(replayed.unaccounted_frac() < 1.0);
        }
    }
}

#[test]
fn replay_matches_run_gpu_solve_on_native() {
    check::<NativeGpu>(Backend::Native);
}

#[test]
fn replay_matches_run_gpu_solve_on_sim() {
    check::<Gpu>(Backend::Sim);
}
