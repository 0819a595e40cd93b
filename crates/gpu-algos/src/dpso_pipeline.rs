//! The full GPU **DPSO** pipeline (paper Section VII).
//!
//! One particle per thread; the swarm best is found by the same atomic
//! argmin reduction as the SA pipeline and broadcast by a one-thread copy
//! kernel. "Apart from the core aspect of the algorithm, the
//! parallelization approach remains the same as for SA."

use crate::init::{initial_ensemble, InitStrategy};
use crate::kernels::{DpsoProbe, DpsoUpdateKernel, FitnessKernel, GbestCopyKernel, PbestKernel};
use crate::layout::ProblemDevice;
use crate::recovery::{
    launch_with_retry, run_with_recovery, suite_device_error, verified_best, RecoveryPolicy,
    RecoveryStats,
};
use crate::sa_pipeline::{check_argmin_domain, check_native_capabilities, GpuRunResult};
use crate::trajectory::ConvergenceTrace;
use cdd_core::eval::{evaluator_for, SequenceEvaluator};
use cdd_core::{Cost, Instance, JobSequence, SuiteError};
use cdd_meta::{Dpso, DpsoParams};
use cuda_sim::reduce::{unpack_argmin, AtomicArgminKernel};
use cuda_sim::{
    Backend, DeviceSpec, ExecBackend, FaultPlan, Gpu, LaunchConfig, NativeGpu, TelemetryConfig,
    TelemetryRing, XorWow,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of one GPU DPSO run.
#[derive(Debug, Clone)]
pub struct GpuDpsoParams {
    /// Grid size (the paper fixes 4 blocks).
    pub blocks: usize,
    /// Block size (192 in the paper).
    pub block_size: usize,
    /// Generations (1000 or 5000 in the paper).
    pub iterations: u64,
    /// Velocity probability `w`.
    pub w: f64,
    /// Cognition probability `c₁`.
    pub c1: f64,
    /// Social probability `c₂`.
    pub c2: f64,
    /// Master seed.
    pub seed: u64,
    /// Starting-swarm strategy (default: V-shaped heuristic spread).
    pub init: InitStrategy,
    /// Simulated device.
    pub device: DeviceSpec,
    /// Optional fault-injection plan installed on the simulated device.
    pub fault: Option<FaultPlan>,
    /// Retry / re-attempt / fallback policy.
    pub recovery: RecoveryPolicy,
    /// Convergence-telemetry policy (disabled by default; sampling changes
    /// no result — see `cuda_sim::telemetry`).
    pub telemetry: TelemetryConfig,
    /// Execution backend: the simulator (default) or the native host path.
    pub backend: Backend,
}

impl Default for GpuDpsoParams {
    fn default() -> Self {
        GpuDpsoParams {
            blocks: 4,
            block_size: 192,
            iterations: 1000,
            w: 0.9,
            c1: 0.8,
            c2: 0.8,
            seed: 2016,
            init: InitStrategy::default(),
            device: DeviceSpec::gt560m(),
            fault: None,
            recovery: RecoveryPolicy::default(),
            telemetry: TelemetryConfig::disabled(),
            backend: Backend::default(),
        }
    }
}

impl GpuDpsoParams {
    /// The paper's `DPSO₁₀₀₀` configuration (768 particles).
    pub fn paper_1000() -> Self {
        Self::default()
    }

    /// The paper's `DPSO₅₀₀₀` configuration.
    pub fn paper_5000() -> Self {
        GpuDpsoParams { iterations: 5000, ..Self::default() }
    }

    /// Swarm size (total threads).
    pub fn ensemble(&self) -> usize {
        self.blocks * self.block_size
    }
}

/// Run the paper's parallel DPSO on the simulated GPU.
///
/// Wrapped in the same resilience layer as the SA pipelines: bounded launch
/// retries, reseeded device re-attempts, CPU-oracle validation of the
/// returned swarm best, and degradation to the CPU DPSO after repeated
/// device failures.
pub fn run_gpu_dpso(inst: &Instance, params: &GpuDpsoParams) -> Result<GpuRunResult, SuiteError> {
    assert!(params.iterations >= 1, "need at least one generation");
    check_argmin_domain(inst, params.ensemble())?;
    check_native_capabilities(params.backend, params.fault.as_ref(), &params.telemetry)?;
    let evaluator = evaluator_for(inst);
    let host_rng = StdRng::seed_from_u64(params.seed);

    match params.backend {
        Backend::Sim => run_with_recovery(
            &params.recovery,
            params.fault.as_ref(),
            |plan, stats| dpso_attempt::<Gpu>(inst, params, &*evaluator, &host_rng, plan, stats),
            || cpu_fallback_dpso(params, &*evaluator),
        ),
        Backend::Native => run_with_recovery(
            &params.recovery,
            params.fault.as_ref(),
            |plan, stats| {
                dpso_attempt::<NativeGpu>(inst, params, &*evaluator, &host_rng, plan, stats)
            },
            || cpu_fallback_dpso(params, &*evaluator),
        ),
    }
}

/// One complete device run of the DPSO pipeline, on either execution
/// backend.
fn dpso_attempt<B: ExecBackend>(
    inst: &Instance,
    params: &GpuDpsoParams,
    evaluator: &dyn SequenceEvaluator,
    host_rng: &StdRng,
    plan: Option<FaultPlan>,
    stats: &mut RecoveryStats,
) -> Result<GpuRunResult, SuiteError> {
    let n = inst.n();
    let ensemble = params.ensemble();
    let cfg = LaunchConfig::linear(params.blocks, params.block_size);
    let mut host_rng = host_rng.clone();
    let policy = &params.recovery;

    let mut gpu = B::from_spec(params.device.clone());
    gpu.set_fault_plan(plan);

    // Telemetry state lives outside the attempt closure so the ring can be
    // drained from `&gpu` once the closure's mutable borrow ends.
    let telem_cap = params.telemetry.effective_capacity(params.iterations.saturating_sub(1));
    let mut ring: Option<TelemetryRing> = None;
    let mut sample_headers: Vec<(u64, f64)> = Vec::new();

    let outcome = (|| -> Result<(JobSequence, Cost), SuiteError> {
        let prob = ProblemDevice::upload(&mut gpu, inst).map_err(|e| suite_device_error(&e))?;

        let positions = gpu.alloc::<u32>(ensemble * n);
        let flat = initial_ensemble(inst, ensemble, params.init, &mut host_rng);
        gpu.h2d(positions, &flat);
        let energies = gpu.alloc::<i64>(ensemble);
        let pbest = gpu.alloc::<u32>(ensemble * n);
        let pbest_energies = gpu.alloc::<i64>(ensemble);
        gpu.h2d(pbest_energies, &vec![i64::MAX; ensemble]);
        let gbest = gpu.alloc::<u32>(n);
        let packed_best = gpu.alloc::<i64>(1);
        gpu.h2d(packed_best, &[i64::MAX]);
        let rng_states = gpu.alloc::<u64>(ensemble * 3);
        let words: Vec<u64> =
            (0..ensemble).flat_map(|t| XorWow::new(params.seed, t as u64).pack()).collect();
        gpu.h2d(rng_states, &words);

        // Telemetry ring last, after every algorithm buffer, so buffer
        // handles match the telemetry-off run exactly (alloc itself records
        // no profiler event and models no cost).
        if params.telemetry.enabled() {
            ring = Some(TelemetryRing::alloc(&mut gpu, ensemble, telem_cap));
        }

        let fitness = FitnessKernel::new(prob, positions, energies, ensemble, params.blocks);
        // Init-time pbest seeding carries no probe: the improvement counter
        // counts in-loop generations only.
        let pbest_update = PbestKernel {
            positions,
            energies,
            pbest,
            pbest_energies,
            n,
            ensemble,
            telemetry: None,
        };
        let reduce = AtomicArgminKernel { values: pbest_energies, out: packed_best };
        let gbest_copy = GbestCopyKernel { packed: packed_best, pbest, gbest, n };
        let update = DpsoUpdateKernel::new(
            positions,
            pbest,
            gbest,
            rng_states,
            n,
            ensemble,
            params.w,
            params.c1,
            params.c2,
        );

        // Initialize: evaluate the random swarm, seed pbest/gbest
        // (Algorithm 2, lines 1–2 plus the first "find bests").
        launch_with_retry(&mut gpu, &fitness, cfg, policy, stats)
            .map_err(|e| suite_device_error(&e))?;
        launch_with_retry(&mut gpu, &pbest_update, cfg, policy, stats)
            .map_err(|e| suite_device_error(&e))?;
        launch_with_retry(&mut gpu, &reduce, cfg, policy, stats)
            .map_err(|e| suite_device_error(&e))?;
        launch_with_retry(&mut gpu, &gbest_copy, cfg, policy, stats)
            .map_err(|e| suite_device_error(&e))?;

        for gen in 0..params.iterations {
            // Span metadata is attached whether or not telemetry samples
            // this generation, so the timeline is stride-independent.
            gpu.span_begin_args("dpso-generation", || vec![("gen".to_string(), gen.to_string())]);
            let slot = ring.and_then(|_| params.telemetry.slot_for(gen, telem_cap));
            if slot.is_some() {
                sample_headers.push((gen, 0.0));
            }
            let gen_result = (|gpu: &mut B| -> Result<(), SuiteError> {
                launch_with_retry(gpu, &update, cfg, policy, stats)
                    .map_err(|e| suite_device_error(&e))?;
                launch_with_retry(gpu, &fitness, cfg, policy, stats)
                    .map_err(|e| suite_device_error(&e))?;
                let pbest_probe = PbestKernel {
                    positions,
                    energies,
                    pbest,
                    pbest_energies,
                    n,
                    ensemble,
                    telemetry: ring.map(|r| DpsoProbe { ring: r, slot, gbest }),
                };
                launch_with_retry(gpu, &pbest_probe, cfg, policy, stats)
                    .map_err(|e| suite_device_error(&e))?;
                launch_with_retry(gpu, &reduce, cfg, policy, stats)
                    .map_err(|e| suite_device_error(&e))?;
                launch_with_retry(gpu, &gbest_copy, cfg, policy, stats)
                    .map_err(|e| suite_device_error(&e))?;
                Ok(())
            })(&mut gpu);
            gpu.span_end("dpso-generation");
            gen_result?;
        }

        let key = gpu.d2h(packed_best)[0];
        let (claimed, winner) = unpack_argmin(key);
        verified_best(&mut gpu, pbest, n, ensemble, winner, claimed, evaluator, stats)
    })();

    stats.faults += gpu.fault_stats();
    let (best, objective) = outcome?;
    let convergence = ring.map(|r| {
        ConvergenceTrace::from_ring("dpso", params.telemetry.stride, 1, &sample_headers, &r, &gpu)
    });
    Ok(GpuRunResult {
        convergence,
        ..GpuRunResult::new(
            best,
            objective,
            ensemble as u64 * (params.iterations + 1),
            0.0,
            gpu.kernel_launches(),
            gpu.sim_profiler(),
        )
    })
}

/// CPU degradation target for the DPSO pipeline: the sequential `cdd-meta`
/// DPSO at the same swarm size, generations and operator probabilities.
fn cpu_fallback_dpso(params: &GpuDpsoParams, evaluator: &dyn SequenceEvaluator) -> GpuRunResult {
    let dpso = DpsoParams {
        particles: params.ensemble(),
        iterations: params.iterations,
        w: params.w,
        c1: params.c1,
        c2: params.c2,
    };
    let m = Dpso::new(evaluator, dpso).run(params.seed);
    GpuRunResult {
        profiler_summary: "cpu-fallback: sequential CPU DPSO".into(),
        ..GpuRunResult::new(m.best, m.objective, m.evaluations, 0.0, 0, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_core::exact::best_sequence_bruteforce;

    fn small_params(iterations: u64) -> GpuDpsoParams {
        GpuDpsoParams { blocks: 2, block_size: 32, iterations, ..Default::default() }
    }

    #[test]
    fn gpu_dpso_finds_paper_example_optimum() {
        let inst = Instance::paper_example_cdd();
        let (_, optimum) = best_sequence_bruteforce(&inst);
        let r = run_gpu_dpso(&inst, &small_params(200)).unwrap();
        assert_eq!(r.objective, optimum);
    }

    #[test]
    fn gpu_dpso_solves_ucddcp_example() {
        let inst = Instance::paper_example_ucddcp();
        let (_, optimum) = best_sequence_bruteforce(&inst);
        let r = run_gpu_dpso(&inst, &small_params(200)).unwrap();
        assert_eq!(r.objective, optimum);
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = Instance::paper_example_cdd();
        let a = run_gpu_dpso(&inst, &small_params(60)).unwrap();
        let b = run_gpu_dpso(&inst, &small_params(60)).unwrap();
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn timeline_counts_five_kernels_per_generation() {
        let inst = Instance::paper_example_cdd();
        let iters = 20;
        let r = run_gpu_dpso(&inst, &small_params(iters)).unwrap();
        // 4 init launches + 5 per generation.
        assert_eq!(r.kernel_launches as u64, 4 + 5 * iters);
        assert!(r.profiler_summary.contains("dpso_update"));
        assert!(r.profiler_summary.contains("gbest_copy"));
    }

    #[test]
    fn telemetry_traces_pbest_and_diversity_without_perturbing_the_swarm() {
        let inst = Instance::paper_example_cdd();
        let base = run_gpu_dpso(&inst, &small_params(30)).unwrap();
        let p = GpuDpsoParams { telemetry: TelemetryConfig::every(3), ..small_params(30) };
        let r = run_gpu_dpso(&inst, &p).unwrap();
        assert_eq!(r.best, base.best);
        assert_eq!(r.objective, base.objective);
        assert_eq!(r.modeled_seconds, base.modeled_seconds);
        let trace = r.convergence.expect("telemetry was on");
        assert_eq!(trace.algorithm, "dpso");
        assert_eq!(trace.samples.len(), 10, "gens 0, 3, …, 27");
        let curve = trace.ensemble_best_curve();
        assert!(curve.windows(2).all(|w| w[1].1 <= w[0].1), "swarm best never worsens");
        // Diversity (Hamming to gbest) is within range and not all-zero at
        // the start of a heuristically spread swarm.
        let first = &trace.samples[0];
        assert!(first.aux.iter().all(|&d| (0..=inst.n() as i64).contains(&d)));
        assert!(first.aux.iter().any(|&d| d > 0));
    }

    #[test]
    fn gbest_improves_monotonically_via_longer_runs() {
        let inst = Instance::paper_example_ucddcp();
        let short = run_gpu_dpso(&inst, &small_params(5)).unwrap();
        let long = run_gpu_dpso(&inst, &small_params(120)).unwrap();
        assert!(long.objective <= short.objective);
    }

    #[test]
    fn survives_fault_injection_with_oracle_verified_result() {
        let inst = Instance::paper_example_cdd();
        let p = GpuDpsoParams {
            fault: Some(cuda_sim::FaultPlan::with_rates(13, 0.05, 0.01, 0.02)),
            ..small_params(100)
        };
        let r = run_gpu_dpso(&inst, &p).unwrap();
        let eval = cdd_core::eval::evaluator_for(&inst);
        assert_eq!(eval.evaluate(r.best.as_slice()), r.objective, "oracle must confirm");
        assert!(r.best.is_valid_permutation());
        assert!(r.recovery.faults.bit_flips > 0);
    }

    #[test]
    fn degrades_to_cpu_dpso_when_device_unusable() {
        let inst = Instance::paper_example_cdd();
        let p = GpuDpsoParams {
            fault: Some(cuda_sim::FaultPlan::with_rates(2, 1.0, 0.0, 0.0)),
            ..small_params(50)
        };
        let r = run_gpu_dpso(&inst, &p).unwrap();
        assert!(r.recovery.cpu_fallback);
        assert!(r.profiler_summary.contains("cpu-fallback"));
        let eval = cdd_core::eval::evaluator_for(&inst);
        assert_eq!(eval.evaluate(r.best.as_slice()), r.objective);
    }
}
