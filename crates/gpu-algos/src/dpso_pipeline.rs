//! The full GPU **DPSO** pipeline (paper Section VII).
//!
//! One particle per thread; the swarm best is found by the same atomic
//! argmin reduction as the SA pipeline and broadcast by a one-thread copy
//! kernel. "Apart from the core aspect of the algorithm, the
//! parallelization approach remains the same as for SA."
//!
//! The simulator runs each generation as five launches: position update,
//! fitness, personal-best update, reduction, swarm-best broadcast. The
//! native backend runs the first four as one fused pass
//! ([`NativeGpu::run_fused`]), each particle updating, scoring, keeping its
//! personal best and folding it back to back, then launches the broadcast,
//! which must wait for the fold because every particle reads the swarm best
//! (DESIGN.md §11).

use crate::init::{initial_ensemble, InitStrategy};
use crate::kernels::dpso_update::Marks;
use crate::kernels::fitness::{score, Rates};
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
use cuda_sim::reduce::{pack_argmin, unpack_argmin, AtomicArgminKernel};
use cuda_sim::{
    Backend, Buf, DeviceCtx, DeviceSpec, ExecBackend, FaultPlan, Gpu, Kernel, LaunchConfig,
    LaunchError, NativeGpu, TelemetryConfig, TelemetryRing, XorWow,
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

/// The device state of one DPSO run and the kernels of its generation.
struct DpsoSwarm {
    cfg: LaunchConfig,
    prob: ProblemDevice,
    ensemble: usize,
    energies: Buf<i64>,
    pbest: Buf<u32>,
    gbest: Buf<u32>,
    packed_best: Buf<i64>,
    rng_states: Buf<u64>,
    update: DpsoUpdateKernel,
    fitness: FitnessKernel,
    pbest_update: PbestKernel,
    reduce: AtomicArgminKernel,
    gbest_copy: GbestCopyKernel,
}

impl DpsoSwarm {
    /// Upload `inst`, the initial swarm drawn from `host_rng` and the
    /// particles' RNG states, and allocate the working buffers.
    fn upload<B: ExecBackend>(
        gpu: &mut B,
        inst: &Instance,
        params: &GpuDpsoParams,
        host_rng: &mut StdRng,
    ) -> Result<DpsoSwarm, LaunchError> {
        let n = inst.n();
        let ensemble = params.ensemble();
        let prob = ProblemDevice::upload(gpu, inst)?;
        let positions = gpu.alloc::<u32>(ensemble * n);
        let flat = initial_ensemble(inst, ensemble, params.init, host_rng);
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
        let (w, c1, c2) = (params.w, params.c1, params.c2);
        Ok(DpsoSwarm {
            cfg: LaunchConfig::linear(params.blocks, params.block_size),
            prob,
            ensemble,
            energies,
            pbest,
            gbest,
            packed_best,
            rng_states,
            update: DpsoUpdateKernel::new(
                positions, pbest, gbest, rng_states, n, ensemble, w, c1, c2,
            ),
            fitness: FitnessKernel::new(prob, positions, energies, ensemble, params.blocks),
            // The personal-best update without a probe: init-time seeding
            // and the fused pass (native runs no telemetry) count nothing.
            pbest_update: PbestKernel {
                positions,
                energies,
                pbest,
                pbest_energies,
                n,
                ensemble,
                telemetry: None,
            },
            reduce: AtomicArgminKernel { values: pbest_energies, out: packed_best },
            gbest_copy: GbestCopyKernel { packed: packed_best, pbest, gbest, n },
        })
    }

    /// Evaluate the starting swarm and seed the personal and swarm bests
    /// (Algorithm 2, lines 1–2 plus the first "find bests").
    fn launch_init<B: ExecBackend>(
        &self,
        gpu: &mut B,
        policy: &RecoveryPolicy,
        stats: &mut RecoveryStats,
    ) -> Result<(), LaunchError> {
        launch_with_retry(gpu, &self.fitness, self.cfg, policy, stats)?;
        launch_with_retry(gpu, &self.pbest_update, self.cfg, policy, stats)?;
        launch_with_retry(gpu, &self.reduce, self.cfg, policy, stats)?;
        launch_with_retry(gpu, &self.gbest_copy, self.cfg, policy, stats)
    }

    /// One generation as five launches: position update, fitness,
    /// personal-best update (carrying `telemetry`), reduction, broadcast.
    fn launch_generation<B: ExecBackend>(
        &self,
        gpu: &mut B,
        telemetry: Option<DpsoProbe>,
        policy: &RecoveryPolicy,
        stats: &mut RecoveryStats,
    ) -> Result<(), LaunchError> {
        launch_with_retry(gpu, &self.update, self.cfg, policy, stats)?;
        launch_with_retry(gpu, &self.fitness, self.cfg, policy, stats)?;
        let pbest_probe = PbestKernel { telemetry, ..self.pbest_update };
        launch_with_retry(gpu, &pbest_probe, self.cfg, policy, stats)?;
        launch_with_retry(gpu, &self.reduce, self.cfg, policy, stats)?;
        launch_with_retry(gpu, &self.gbest_copy, self.cfg, policy, stats)
    }

    /// The same generation on the native backend: the first four launches
    /// as one fused pass, then the broadcast. A particle's update, scoring
    /// and personal-best step touch only its own rows, energies and RNG
    /// words, and read the swarm best that the previous broadcast wrote; the
    /// reduction is an order-independent atomic min. So every buffer the
    /// next generation reads ends as the five launches leave it. The
    /// particle's row of `positions` is updated and scored where it lies,
    /// beside its personal best and the swarm best read in place.
    fn fused_generation(&self, gpu: &mut NativeGpu, marks: &mut Marks) -> Result<(), LaunchError> {
        let launches: [&dyn Kernel; 4] =
            [&self.update, &self.fitness, &self.pbest_update, &self.reduce];
        let (positions, n) = (self.update.positions, self.prob.n);
        gpu.run_fused(self.cfg, &launches, |ctx| {
            let gid = ctx.global_id();
            if gid >= self.ensemble {
                return;
            }
            let mut rng = ctx.load_rng(self.rng_states, gid);
            let update = self.update.draw(&mut rng);
            ctx.store_rng(self.rng_states, gid, &rng);
            let [row, pbest, gbest] = ctx.windows_mut([
                (positions, gid * n, n),
                (self.pbest, gid * n, n),
                (self.gbest, 0, n),
            ]);
            update.apply(row, pbest, gbest, marks);
            let rates = Rates::native(&self.prob, ctx);
            let row = ctx.window(positions, gid * n, n);
            let energy = score(self.prob.kind, self.prob.d, &rates, row);
            ctx.write(self.energies, gid, energy);
            let (_, best) = self.pbest_update.improve(ctx, gid, energy);
            ctx.atomic_min_i64(self.packed_best, 0, pack_argmin(best, gid));
        })?;
        gpu.launch_kernel(&self.gbest_copy, self.cfg)
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
        let swarm = DpsoSwarm::upload(&mut gpu, inst, params, &mut host_rng)
            .map_err(|e| suite_device_error(&e))?;

        // Telemetry ring last, after every algorithm buffer, so buffer
        // handles match the telemetry-off run exactly (alloc itself records
        // no profiler event and models no cost).
        if params.telemetry.enabled() {
            ring = Some(TelemetryRing::alloc(&mut gpu, ensemble, telem_cap));
        }

        swarm.launch_init(&mut gpu, policy, stats).map_err(|e| suite_device_error(&e))?;

        // The fused pass's crossover marks: one set, reused by every
        // particle of every generation.
        let mut marks = Marks::default();
        for gen in 0..params.iterations {
            // Span metadata is attached whether or not telemetry samples
            // this generation, so the timeline is stride-independent.
            gpu.span_begin_args("dpso-generation", || vec![("gen".to_string(), gen.to_string())]);
            let slot = ring.and_then(|_| params.telemetry.slot_for(gen, telem_cap));
            if slot.is_some() {
                sample_headers.push((gen, 0.0));
            }
            let gen_result = match gpu.native() {
                Some(native) => swarm.fused_generation(native, &mut marks),
                None => {
                    let probe = ring.map(|r| DpsoProbe { ring: r, slot, gbest: swarm.gbest });
                    swarm.launch_generation(&mut gpu, probe, policy, stats)
                }
            };
            gpu.span_end("dpso-generation");
            gen_result.map_err(|e| suite_device_error(&e))?;
        }

        let key = gpu.d2h(swarm.packed_best)[0];
        let (claimed, winner) = unpack_argmin(key);
        verified_best(&mut gpu, swarm.pbest, n, ensemble, winner, claimed, evaluator, stats)
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

    /// Every buffer a DPSO generation reads, as bits: positions, energies,
    /// personal-best rows and energies, RNG words, packed best, swarm best.
    fn swarm_state(gpu: &NativeGpu, swarm: &DpsoSwarm) -> Vec<Vec<u64>> {
        let rows = |buf| gpu.peek(buf).into_iter().map(u64::from).collect();
        let energies = |buf| gpu.peek(buf).into_iter().map(|e: i64| e as u64).collect();
        vec![
            rows(swarm.update.positions),
            energies(swarm.energies),
            rows(swarm.pbest),
            energies(swarm.pbest_update.pbest_energies),
            gpu.peek(swarm.rng_states),
            energies(swarm.packed_best),
            rows(swarm.gbest),
        ]
    }

    /// The fused native generation must leave every buffer the next
    /// generation reads exactly as the five launches do, generation by
    /// generation, not just reach the same final best.
    #[test]
    fn fused_generation_leaves_the_launched_state() {
        const GENS: u64 = 5;
        let (policy, mut stats) = (RecoveryPolicy::default(), RecoveryStats::default());
        for inst in [cdd_instances::cdd_instance(40, 1, 0.4), cdd_instances::ucddcp_instance(40, 1)]
        {
            for (blocks, block_size) in [(1, 64), (4, 192)] {
                let params = GpuDpsoParams { blocks, block_size, ..small_params(GENS) };
                let host_rng = StdRng::seed_from_u64(params.seed);
                let start = |gpu: &mut NativeGpu| {
                    let swarm =
                        DpsoSwarm::upload(gpu, &inst, &params, &mut host_rng.clone()).unwrap();
                    swarm.launch_init(gpu, &policy, &mut RecoveryStats::default()).unwrap();
                    swarm
                };
                let mut launched = NativeGpu::new(params.device.clone());
                let mut fused = NativeGpu::new(params.device.clone());
                let (by_launch, by_pass) = (start(&mut launched), start(&mut fused));
                let initial = swarm_state(&fused, &by_pass);
                let mut marks = Marks::default();
                for gen in 0..GENS {
                    by_launch.launch_generation(&mut launched, None, &policy, &mut stats).unwrap();
                    by_pass.fused_generation(&mut fused, &mut marks).unwrap();
                    let case = format!("{:?} {blocks}x{block_size} generation {gen}", inst.kind());
                    assert_eq!(
                        swarm_state(&fused, &by_pass),
                        swarm_state(&launched, &by_launch),
                        "{case}"
                    );
                }
                assert_ne!(swarm_state(&fused, &by_pass), initial, "the swarm moved");
                for gpu in [&launched, &fused] {
                    assert_eq!(gpu.kernel_launches() as u64, 4 + 5 * GENS);
                }
            }
        }
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
