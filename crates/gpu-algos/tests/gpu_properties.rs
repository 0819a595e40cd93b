//! Property-based tests of the GPU kernels: the device fitness function is
//! bit-identical to the host evaluator on arbitrary instances, and the
//! pipelines never leave the permutation space.

use cdd_core::eval::{evaluator_for, CddEvaluator, SequenceEvaluator};
use cdd_core::{Instance, JobSequence, Time};
use cdd_gpu::kernels::FitnessKernel;
use cdd_gpu::{run_gpu_sa, GpuSaParams, ProblemDevice};
use cuda_sim::{DeviceSpec, Gpu, LaunchConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cdd_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    (1..=max_n).prop_flat_map(|n| {
        (
            prop::collection::vec(1..=20i64, n),
            prop::collection::vec(0..=10i64, n),
            prop::collection::vec(0..=15i64, n),
            0.0..1.3f64,
        )
            .prop_map(|(p, a, b, h)| {
                let d = (p.iter().sum::<Time>() as f64 * h) as Time;
                Instance::cdd_from_arrays(&p, &a, &b, d).expect("valid")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Device fitness == host fitness for a batch of random sequences on a
    /// random instance (race detection armed).
    #[test]
    fn fitness_kernel_matches_host(inst in cdd_instance(24), seed in any::<u64>()) {
        let n = inst.n();
        let threads = 16usize;
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let prob = ProblemDevice::upload(&mut gpu, &inst).expect("fits");

        let mut rng = StdRng::seed_from_u64(seed);
        let seqs: Vec<JobSequence> =
            (0..threads).map(|_| JobSequence::random(n, &mut rng)).collect();
        let flat: Vec<u32> = seqs.iter().flat_map(|s| s.as_slice().iter().copied()).collect();
        let seq_buf = gpu.alloc::<u32>(threads * n);
        gpu.h2d(seq_buf, &flat);
        let out = gpu.alloc::<i64>(threads);

        let kernel = FitnessKernel::new(prob, seq_buf, out, threads, threads.div_ceil(8));
        gpu.launch(&kernel, LaunchConfig::cover(threads, 8)).expect("clean launch");

        let host = CddEvaluator::new(&inst);
        let device = gpu.d2h(out);
        for (t, s) in seqs.iter().enumerate() {
            prop_assert_eq!(device[t], host.evaluate(s.as_slice()));
        }
    }

    /// A short GPU SA run on a random instance returns a valid permutation
    /// whose host-evaluated objective equals the device's report, and which
    /// is no worse than the ensemble's random starting points.
    #[test]
    fn gpu_sa_output_is_consistent(inst in cdd_instance(16), seed in any::<u64>()) {
        let r = run_gpu_sa(
            &inst,
            &GpuSaParams {
                blocks: 1,
                block_size: 16,
                iterations: 30,
                t0: Some(50.0),
                seed,
                init: cdd_gpu::InitStrategy::Random,
                ..Default::default()
            },
        )
        .expect("valid launch");
        prop_assert!(r.best.is_valid_permutation());
        let host = evaluator_for(&inst);
        prop_assert_eq!(host.evaluate(r.best.as_slice()), r.objective);

        // Not worse than the best of the same 16 random starts.
        let mut rng = StdRng::seed_from_u64(seed);
        let start_best = (0..16)
            .map(|_| host.evaluate(JobSequence::random(inst.n(), &mut rng).as_slice()))
            .min()
            .expect("non-empty");
        prop_assert!(r.objective <= start_best,
            "SA ({}) worse than its own starting ensemble ({start_best})", r.objective);
    }
}
