//! The full GPU **asynchronous parallel SA** pipeline (paper Figs. 9–10).
//!
//! Host side: estimate `T₀` (stddev of 5000 random fitness values), generate
//! the initial ensemble and RNG states, copy everything to the device, then
//! per generation launch *perturbation → fitness → acceptance → reduction*
//! and cool the temperature. At the end, copy back the packed global best
//! and the winning thread's personal-best row.
//!
//! The simulator runs every generation as those four launches. The native
//! backend runs it as one fused pass ([`NativeGpu::run_fused`]) in which
//! each thread perturbs, scores, accepts and folds its own chain back to
//! back, calling the same per-thread functions as the kernels; it leaves
//! every buffer the next generation reads exactly as the four launches
//! would (DESIGN.md §11).
//!
//! All reported times are the simulator's modeled device times, including
//! every host↔device transfer — matching the paper's accounting ("the total
//! runtime of our parallel algorithms incorporating all the memory transfers
//! between the host and the device").

use crate::init::{initial_ensemble, InitStrategy};
use crate::kernels::accept::Candidate;
use crate::kernels::fitness::{score, Rates, CORRUPT_ENERGY};
use crate::kernels::perturb::Swaps;
use crate::kernels::{AcceptKernel, FitnessKernel, PerturbKernel, SaProbe};
use crate::layout::ProblemDevice;
use crate::recovery::{
    launch_with_retry, run_with_recovery, suite_device_error, verified_best, RecoveryPolicy,
    RecoveryStats,
};
use crate::trajectory::ConvergenceTrace;
use cdd_core::eval::{evaluator_for, SequenceEvaluator};
use cdd_core::{Cost, Instance, JobSequence, SuiteError};
use cdd_meta::temperature::initial_temperature;
use cdd_meta::{AsyncEnsemble, Cooling, SaParams};
use cuda_sim::reduce::{pack_argmin, unpack_argmin, AtomicArgminKernel};
use cuda_sim::{
    Backend, Buf, DeviceCtx, DeviceSpec, ExecBackend, FaultPlan, Gpu, Kernel, LaunchConfig,
    LaunchError, NativeGpu, Profiler, TelemetryConfig, TelemetryRing, TimelineEvent, XorWow,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Native-backend admission check, shared by all three pipelines: fault
/// injection and convergence telemetry are sim-only capabilities, so a
/// request that needs either must route to [`Backend::Sim`] and is rejected
/// — never silently degraded — when aimed at the native backend
/// (DESIGN.md §16).
pub(crate) fn check_native_capabilities(
    backend: Backend,
    fault: Option<&FaultPlan>,
    telemetry: &TelemetryConfig,
) -> Result<(), SuiteError> {
    if backend != Backend::Native {
        return Ok(());
    }
    if fault.is_some_and(|p| p.is_active()) {
        return Err(SuiteError::rejected(
            "fault injection is sim-only: route fault-plan runs to backend=sim",
        ));
    }
    if telemetry.enabled() {
        return Err(SuiteError::rejected(
            "convergence telemetry is sim-only: route telemetry runs to backend=sim",
        ));
    }
    Ok(())
}

/// Validate, before any kernel runs, that every objective this instance can
/// produce — plus the fault-injection sentinel energy — fits the packed
/// argmin encoding, and that the ensemble fits its index field. The bound is
/// a deliberate over-approximation (every job maximally early *and* late);
/// see `cuda_sim::reduce::argmin_domain_check`.
pub(crate) fn check_argmin_domain(inst: &Instance, ensemble: usize) -> Result<(), SuiteError> {
    let horizon = inst.due_date() as i128 + inst.total_processing() as i128;
    let bound: i128 = inst
        .jobs()
        .iter()
        .map(|j| {
            let coeff = j.earliness_penalty.max(j.tardiness_penalty).max(j.compression_penalty);
            coeff as i128 * horizon
        })
        .sum();
    cuda_sim::reduce::argmin_domain_check(bound.max(CORRUPT_ENERGY as i128), ensemble)
        .map_err(SuiteError::rejected)
}

/// Parameters of one GPU SA run.
#[derive(Debug, Clone)]
pub struct GpuSaParams {
    /// Grid size (the paper fixes 4 blocks).
    pub blocks: usize,
    /// Block size (the paper found 192 best on its device).
    pub block_size: usize,
    /// Generations (1000 or 5000 in the paper).
    pub iterations: u64,
    /// Perturbation size `Pert`.
    pub pert: usize,
    /// Exponential cooling factor μ.
    pub cooling_rate: f64,
    /// Initial temperature; `None` applies the stddev-of-5000-samples rule.
    pub t0: Option<f64>,
    /// Samples for the `T₀` estimate.
    pub t0_samples: usize,
    /// Master seed (thread `t` uses XORWOW stream `t`).
    pub seed: u64,
    /// Starting-ensemble strategy (default: V-shaped heuristic spread).
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
    /// Both produce byte-identical [`GpuRunResult`]s for clean runs; fault
    /// injection and telemetry are sim-only and are rejected on native.
    pub backend: Backend,
}

impl Default for GpuSaParams {
    fn default() -> Self {
        GpuSaParams {
            blocks: 4,
            block_size: 192,
            iterations: 1000,
            pert: 4,
            cooling_rate: 0.88,
            t0: None,
            t0_samples: 5000,
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

impl GpuSaParams {
    /// The paper's `SA₁₀₀₀` configuration (768 threads = 4 × 192).
    pub fn paper_1000() -> Self {
        Self::default()
    }

    /// The paper's `SA₅₀₀₀` configuration.
    pub fn paper_5000() -> Self {
        GpuSaParams { iterations: 5000, ..Self::default() }
    }

    /// Ensemble size (total threads).
    pub fn ensemble(&self) -> usize {
        self.blocks * self.block_size
    }

    /// The initial temperature `T₀` for `inst`: `self.t0` when set, else
    /// drawn from `rng` by the rule `self.init` calls for. Randomly
    /// initialized chains use the paper's global rule (stddev of
    /// `t0_samples` random fitnesses); heuristically seeded chains calibrate
    /// to the local move scale so the good start survives the hot phase
    /// (see `cdd_meta::temperature::initial_temperature_local`).
    pub(crate) fn initial_temperature(
        &self,
        inst: &Instance,
        evaluator: &dyn SequenceEvaluator,
        rng: &mut StdRng,
    ) -> f64 {
        self.t0.unwrap_or_else(|| match self.init {
            InitStrategy::Random => initial_temperature(evaluator, self.t0_samples, rng),
            InitStrategy::VShapedSpread => cdd_meta::initial_temperature_local(
                evaluator,
                &cdd_core::heuristics::v_shaped_sequence(inst),
                self.pert,
                self.t0_samples.min(500),
                rng,
            ),
        })
    }
}

/// Result of a GPU pipeline run (SA or DPSO).
#[derive(Debug, Clone)]
pub struct GpuRunResult {
    /// Best sequence found by the ensemble.
    pub best: JobSequence,
    /// Its objective value.
    pub objective: Cost,
    /// Fitness evaluations across all threads.
    pub evaluations: u64,
    /// Initial temperature used (SA; 0 for DPSO).
    pub t0: f64,
    /// Total modeled device time (kernels + transfers), seconds.
    pub modeled_seconds: f64,
    /// Modeled kernel time, seconds.
    pub kernel_seconds: f64,
    /// Modeled transfer time, seconds.
    pub transfer_seconds: f64,
    /// Kernel launches performed.
    pub kernel_launches: usize,
    /// Per-kernel profiler summary (the Fig. 9/10 timeline evidence).
    pub profiler_summary: String,
    /// The raw profiler timeline of the winning device attempt: kernels,
    /// transfers, and the pipeline's per-generation spans. Consumed by the
    /// trace exporter (`cdd_metrics::trace`); empty for CPU fallbacks.
    pub timeline: Vec<TimelineEvent>,
    /// What the resilience layer did (retries, oracle repairs, fallback).
    pub recovery: RecoveryStats,
    /// Decoded search trajectory of the winning device attempt; `None` when
    /// telemetry is disabled or the run fell back to the CPU.
    pub convergence: Option<ConvergenceTrace>,
}

impl GpuRunResult {
    /// A run's result with its five diagnostic fields (modeled, kernel and
    /// transfer seconds, profiler summary, timeline) read from the
    /// simulator's profiler, or zeros and empties when there is none (the
    /// native backend, a CPU fallback). `recovery` starts at its default
    /// and `convergence` at `None`.
    pub(crate) fn new(
        best: JobSequence,
        objective: Cost,
        evaluations: u64,
        t0: f64,
        kernel_launches: usize,
        profiler: Option<&Profiler>,
    ) -> Self {
        GpuRunResult {
            best,
            objective,
            evaluations,
            t0,
            modeled_seconds: profiler.map_or(0.0, Profiler::total_seconds),
            kernel_seconds: profiler.map_or(0.0, Profiler::kernel_seconds),
            transfer_seconds: profiler.map_or(0.0, Profiler::transfer_seconds),
            kernel_launches,
            profiler_summary: profiler.map(Profiler::summary).unwrap_or_default(),
            timeline: profiler.map(|p| p.events().to_vec()).unwrap_or_default(),
            recovery: RecoveryStats::default(),
            convergence: None,
        }
    }
}

/// Run the paper's parallel asynchronous SA on the simulated GPU.
///
/// The run is wrapped in the resilience layer of [`crate::recovery`]:
/// transient launch failures are retried in place, a failed or
/// oracle-rejected device run is re-attempted (with a reseeded fault plan),
/// and after [`RecoveryPolicy::max_device_attempts`] failures the CPU
/// asynchronous ensemble produces the result. The returned objective is
/// always verified against the exact CPU evaluator.
pub fn run_gpu_sa(inst: &Instance, params: &GpuSaParams) -> Result<GpuRunResult, SuiteError> {
    assert!(params.iterations >= 1, "need at least one generation");
    check_argmin_domain(inst, params.ensemble())?;
    check_native_capabilities(params.backend, params.fault.as_ref(), &params.telemetry)?;

    // Host-side setup: T₀, then (in each attempt) the initial ensemble.
    let mut host_rng = StdRng::seed_from_u64(params.seed);
    let evaluator = evaluator_for(inst);
    let t0 = params.initial_temperature(inst, &*evaluator, &mut host_rng);

    match params.backend {
        Backend::Sim => run_with_recovery(
            &params.recovery,
            params.fault.as_ref(),
            |plan, stats| sa_attempt::<Gpu>(inst, params, &*evaluator, t0, &host_rng, plan, stats),
            || cpu_fallback_sa(params, &*evaluator, t0, params.iterations),
        ),
        Backend::Native => run_with_recovery(
            &params.recovery,
            params.fault.as_ref(),
            |plan, stats| {
                sa_attempt::<NativeGpu>(inst, params, &*evaluator, t0, &host_rng, plan, stats)
            },
            || cpu_fallback_sa(params, &*evaluator, t0, params.iterations),
        ),
    }
}

/// The device state of one SA run (Fig. 9) and the kernels of its
/// generation (Fig. 10).
struct SaRun {
    cfg: LaunchConfig,
    prob: ProblemDevice,
    ensemble: usize,
    current: Buf<u32>,
    candidate: Buf<u32>,
    energies: Buf<i64>,
    cand_energies: Buf<i64>,
    best_rows: Buf<u32>,
    best_energies: Buf<i64>,
    global_best: Buf<i64>,
    rng_states: Buf<u64>,
    perturb: PerturbKernel,
    fitness: FitnessKernel,
    reduce: AtomicArgminKernel,
}

impl SaRun {
    /// Fig. 9: upload `inst`, the initial ensemble drawn from `host_rng`
    /// and the chains' RNG states, and allocate the working buffers.
    fn upload<B: ExecBackend>(
        gpu: &mut B,
        inst: &Instance,
        params: &GpuSaParams,
        host_rng: &mut StdRng,
    ) -> Result<SaRun, LaunchError> {
        let n = inst.n();
        let ensemble = params.ensemble();
        let prob = ProblemDevice::upload(gpu, inst)?;
        let current = gpu.alloc::<u32>(ensemble * n);
        let flat = initial_ensemble(inst, ensemble, params.init, host_rng);
        gpu.h2d(current, &flat);
        let candidate = gpu.alloc::<u32>(ensemble * n);
        let energies = gpu.alloc::<i64>(ensemble);
        let cand_energies = gpu.alloc::<i64>(ensemble);
        let best_rows = gpu.alloc::<u32>(ensemble * n);
        let best_energies = gpu.alloc::<i64>(ensemble);
        gpu.h2d(best_energies, &vec![i64::MAX; ensemble]);
        let global_best = gpu.alloc::<i64>(1);
        gpu.h2d(global_best, &[i64::MAX]);
        let rng_states = gpu.alloc::<u64>(ensemble * 3);
        let words: Vec<u64> =
            (0..ensemble).flat_map(|t| XorWow::new(params.seed, t as u64).pack()).collect();
        gpu.h2d(rng_states, &words);
        Ok(SaRun {
            cfg: LaunchConfig::linear(params.blocks, params.block_size),
            prob,
            ensemble,
            current,
            candidate,
            energies,
            cand_energies,
            best_rows,
            best_energies,
            global_best,
            rng_states,
            perturb: PerturbKernel::new(current, candidate, rng_states, n, ensemble, params.pert),
            fitness: FitnessKernel::new(prob, candidate, cand_energies, ensemble, params.blocks),
            reduce: AtomicArgminKernel { values: best_energies, out: global_best },
        })
    }

    /// Score the starting ensemble.
    fn launch_initial_fitness<B: ExecBackend>(
        &self,
        gpu: &mut B,
        policy: &RecoveryPolicy,
        stats: &mut RecoveryStats,
    ) -> Result<(), LaunchError> {
        let blocks = self.cfg.num_blocks();
        let fitness =
            FitnessKernel::new(self.prob, self.current, self.energies, self.ensemble, blocks);
        launch_with_retry(gpu, &fitness, self.cfg, policy, stats)
    }

    /// The acceptance kernel at `temperature`.
    fn accept(&self, temperature: f64, telemetry: Option<SaProbe>) -> AcceptKernel {
        AcceptKernel {
            current: self.current,
            candidate: self.candidate,
            energies: self.energies,
            cand_energies: self.cand_energies,
            best_rows: self.best_rows,
            best_energies: self.best_energies,
            rng: self.rng_states,
            n: self.prob.n,
            ensemble: self.ensemble,
            temperature,
            segment_temps: None,
            telemetry,
            flags: None,
        }
    }

    /// One generation as the paper's four launches (Fig. 10): perturbation,
    /// fitness, acceptance at `temperature`, reduction.
    fn launch_generation<B: ExecBackend>(
        &self,
        gpu: &mut B,
        temperature: f64,
        telemetry: Option<SaProbe>,
        policy: &RecoveryPolicy,
        stats: &mut RecoveryStats,
    ) -> Result<(), LaunchError> {
        launch_with_retry(gpu, &self.perturb, self.cfg, policy, stats)?;
        launch_with_retry(gpu, &self.fitness, self.cfg, policy, stats)?;
        let accept = self.accept(temperature, telemetry);
        launch_with_retry(gpu, &accept, self.cfg, policy, stats)?;
        launch_with_retry(gpu, &self.reduce, self.cfg, policy, stats)
    }

    /// The same generation as one fused pass on the native backend. Each
    /// chain touches only its own rows, energies and RNG words, and the
    /// reduction is an order-independent atomic min, so running a chain's
    /// four steps back to back leaves every buffer the next generation
    /// reads as the four launches would. The chain's row of `current`
    /// takes the drawn swaps in place and is scored there, after the
    /// personal best has captured the pre-move state; a rejected move is
    /// undone swap by swap, and an accepted one copies nothing. The RNG
    /// words are loaded and stored once.
    fn fused_generation(
        &self,
        gpu: &mut NativeGpu,
        temperature: f64,
        swaps: &mut Swaps,
    ) -> Result<(), LaunchError> {
        let accept = self.accept(temperature, None);
        let launches: [&dyn Kernel; 4] = [&self.perturb, &self.fitness, &accept, &self.reduce];
        let n = self.prob.n;
        gpu.run_fused(self.cfg, &launches, |ctx| {
            let gid = ctx.global_id();
            if gid >= self.ensemble {
                return;
            }
            let mut rng = ctx.load_rng(self.rng_states, gid);
            self.perturb.draw(ctx, &mut rng, swaps);
            let energy = ctx.read(self.energies, gid);
            let pre = accept.before_move(ctx, gid, energy, &mut rng);
            let [row] = ctx.windows_mut([(self.current, gid * n, n)]);
            swaps.apply(row);
            let rates = Rates::native(&self.prob, ctx);
            let row = ctx.window(self.current, gid * n, n);
            let energy_new = score(self.prob.kind, self.prob.d, &rates, row);
            let (accepted, best) =
                accept.settle(ctx, gid, pre, Candidate::InPlace, energy, energy_new, temperature);
            if !accepted {
                let [row] = ctx.windows_mut([(self.current, gid * n, n)]);
                swaps.undo(row);
            }
            ctx.atomic_min_i64(self.global_best, 0, pack_argmin(best, gid));
            ctx.store_rng(self.rng_states, gid, &rng);
        })
    }
}

/// One complete device run of the asynchronous SA pipeline, on either
/// execution backend (the result is byte-identical across backends for a
/// clean run — the cross-backend parity contract).
fn sa_attempt<B: ExecBackend>(
    inst: &Instance,
    params: &GpuSaParams,
    evaluator: &dyn SequenceEvaluator,
    t0: f64,
    host_rng: &StdRng,
    plan: Option<FaultPlan>,
    stats: &mut RecoveryStats,
) -> Result<GpuRunResult, SuiteError> {
    let n = inst.n();
    let ensemble = params.ensemble();
    // Each attempt restarts from the same host RNG state, so a clean run is
    // byte-identical to the pre-recovery pipeline.
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
        // Fig. 9: problem data, initial sequences + cuRAND states host → device.
        let run = SaRun::upload(&mut gpu, inst, params, &mut host_rng)
            .map_err(|e| suite_device_error(&e))?;

        // Telemetry ring last, after every algorithm buffer, so buffer
        // handles match the telemetry-off run exactly (alloc itself records
        // no profiler event and models no cost).
        if params.telemetry.enabled() {
            ring = Some(TelemetryRing::alloc(&mut gpu, ensemble, telem_cap));
        }

        run.launch_initial_fitness(&mut gpu, policy, stats).map_err(|e| suite_device_error(&e))?;

        // The fused pass's drawn move: one, reused by every thread of
        // every generation.
        let mut swaps = Swaps::default();
        let mut temperature = t0;
        for gen in 0..params.iterations {
            // Span metadata is attached whether or not telemetry samples
            // this generation, so the timeline is stride-independent.
            gpu.span_begin_args("sa-generation", || {
                vec![
                    ("gen".to_string(), gen.to_string()),
                    ("temperature".to_string(), format!("{temperature:.6e}")),
                ]
            });
            let slot = ring.and_then(|_| params.telemetry.slot_for(gen, telem_cap));
            if slot.is_some() {
                sample_headers.push((gen, temperature));
            }
            let gen_result = match gpu.native() {
                Some(native) => run.fused_generation(native, temperature, &mut swaps),
                None => {
                    let probe = ring.map(|r| SaProbe { ring: r, slot });
                    run.launch_generation(&mut gpu, temperature, probe, policy, stats)
                }
            };
            gpu.span_end("sa-generation");
            gen_result.map_err(|e| suite_device_error(&e))?;
            temperature *= params.cooling_rate;
        }

        // Fig. 9: global best (and the winning row) device → host, oracle-
        // verified (a corrupted reduction is repaired on the host).
        let key = gpu.d2h(run.global_best)[0];
        let (claimed, winner) = unpack_argmin(key);
        verified_best(&mut gpu, run.best_rows, n, ensemble, winner, claimed, evaluator, stats)
    })();

    stats.faults += gpu.fault_stats();
    let (best, objective) = outcome?;
    let convergence = ring.map(|r| {
        ConvergenceTrace::from_ring("sa", params.telemetry.stride, 1, &sample_headers, &r, &gpu)
    });
    Ok(GpuRunResult {
        convergence,
        ..GpuRunResult::new(
            best,
            objective,
            ensemble as u64 * (params.iterations + 1),
            t0,
            gpu.kernel_launches(),
            gpu.sim_profiler(),
        )
    })
}

/// CPU degradation target for the SA pipelines: the asynchronous CPU
/// ensemble (`cdd-meta`) at the same chain count, iteration budget, T₀ and
/// cooling schedule. Used by both the async and sync GPU variants.
pub(crate) fn cpu_fallback_sa(
    params: &GpuSaParams,
    evaluator: &dyn SequenceEvaluator,
    t0: f64,
    iterations: u64,
) -> GpuRunResult {
    let sa = SaParams {
        iterations,
        t0: Some(t0),
        cooling: Cooling::Exponential { rate: params.cooling_rate },
        pert: params.pert,
        t0_samples: params.t0_samples,
    };
    let m = AsyncEnsemble::new(evaluator, params.ensemble(), sa).run(params.seed);
    GpuRunResult {
        profiler_summary: "cpu-fallback: asynchronous CPU ensemble".into(),
        ..GpuRunResult::new(m.best, m.objective, m.evaluations, t0, 0, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_core::exact::best_sequence_bruteforce;

    fn small_params(iterations: u64) -> GpuSaParams {
        GpuSaParams { blocks: 2, block_size: 32, iterations, ..Default::default() }
    }

    #[test]
    fn gpu_sa_finds_paper_example_optimum() {
        let inst = Instance::paper_example_cdd();
        let (_, optimum) = best_sequence_bruteforce(&inst);
        let r = run_gpu_sa(&inst, &small_params(300)).unwrap();
        assert_eq!(r.objective, optimum);
        assert!(r.best.is_valid_permutation());
    }

    #[test]
    fn gpu_sa_solves_ucddcp_example() {
        let inst = Instance::paper_example_ucddcp();
        let (_, optimum) = best_sequence_bruteforce(&inst);
        let r = run_gpu_sa(&inst, &small_params(300)).unwrap();
        assert_eq!(r.objective, optimum);
    }

    #[test]
    fn result_is_deterministic_per_seed() {
        let inst = Instance::paper_example_cdd();
        let a = run_gpu_sa(&inst, &small_params(100)).unwrap();
        let b = run_gpu_sa(&inst, &small_params(100)).unwrap();
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.best, b.best);
        assert_eq!(a.modeled_seconds, b.modeled_seconds);
    }

    #[test]
    fn timeline_matches_four_kernels_per_generation() {
        let inst = Instance::paper_example_cdd();
        let iters = 50;
        let r = run_gpu_sa(&inst, &small_params(iters)).unwrap();
        // 1 initial fitness + 4 kernels × generations.
        assert_eq!(r.kernel_launches as u64, 1 + 4 * iters);
        assert!(r.modeled_seconds > 0.0);
        assert!(r.kernel_seconds > 0.0);
        assert!(r.transfer_seconds > 0.0);
        assert!(r.profiler_summary.contains("fitness"));
        assert!(r.profiler_summary.contains("perturbation"));
        assert!(r.profiler_summary.contains("acceptance"));
        assert!(r.profiler_summary.contains("reduce_atomic_argmin"));
    }

    #[test]
    fn timeline_carries_one_span_per_generation() {
        let inst = Instance::paper_example_cdd();
        let iters = 20;
        let r = run_gpu_sa(&inst, &small_params(iters)).unwrap();
        let begins = r
            .timeline
            .iter()
            .filter(
                |e| matches!(e, TimelineEvent::SpanBegin { name, .. } if name == "sa-generation"),
            )
            .count();
        let ends = r
            .timeline
            .iter()
            .filter(|e| matches!(e, TimelineEvent::SpanEnd { name } if name == "sa-generation"))
            .count();
        assert_eq!(begins as u64, iters);
        assert_eq!(ends as u64, iters, "every span closes");
        let kernels =
            r.timeline.iter().filter(|e| matches!(e, TimelineEvent::Kernel { .. })).count();
        assert_eq!(kernels, r.kernel_launches, "timeline and counters agree");
    }

    #[test]
    fn spans_carry_generation_and_temperature_args() {
        let inst = Instance::paper_example_cdd();
        let r = run_gpu_sa(&inst, &small_params(3)).unwrap();
        let args: Vec<_> = r
            .timeline
            .iter()
            .filter_map(|e| match e {
                TimelineEvent::SpanBegin { name, args } if name == "sa-generation" => Some(args),
                _ => None,
            })
            .collect();
        assert_eq!(args.len(), 3);
        assert_eq!(args[0][0], ("gen".to_string(), "0".to_string()));
        assert_eq!(args[2][0], ("gen".to_string(), "2".to_string()));
        for a in &args {
            assert_eq!(a[1].0, "temperature");
            assert!(a[1].1.parse::<f64>().unwrap() > 0.0);
        }
    }

    #[test]
    fn telemetry_records_a_monotone_best_curve() {
        let inst = Instance::paper_example_cdd();
        let iters = 60;
        let p = GpuSaParams { telemetry: TelemetryConfig::every(5), ..small_params(iters) };
        let r = run_gpu_sa(&inst, &p).unwrap();
        let trace = r.convergence.expect("telemetry was on");
        assert_eq!(trace.algorithm, "sa");
        assert_eq!(trace.chains, 64);
        assert_eq!(trace.samples.len(), 12, "gens 0, 5, …, 55");
        assert_eq!(trace.samples[0].gen, 0);
        assert_eq!(trace.samples[11].gen, 55);
        let curve = trace.ensemble_best_curve();
        assert!(curve.windows(2).all(|w| w[1].1 <= w[0].1), "best-so-far never worsens");
        // Gens 56–59 run after the last sample, so the curve can only sit at
        // or above the final (oracle-verified) objective.
        assert!(curve.last().unwrap().1 >= r.objective);
        // Counters saw every generation, not just sampled ones.
        assert!(trace.counters.iter().any(|&c| c > 0));
        assert!(trace.counters.iter().all(|&c| c <= iters as i64));
    }

    #[test]
    fn telemetry_does_not_perturb_the_search() {
        let inst = Instance::paper_example_cdd();
        let base = run_gpu_sa(&inst, &small_params(40)).unwrap();
        let p = GpuSaParams { telemetry: TelemetryConfig::every(1), ..small_params(40) };
        let on = run_gpu_sa(&inst, &p).unwrap();
        assert_eq!(on.best, base.best);
        assert_eq!(on.objective, base.objective);
        assert_eq!(on.modeled_seconds, base.modeled_seconds);
        assert_eq!(on.timeline, base.timeline, "timelines byte-identical");
        assert!(base.convergence.is_none());
    }

    #[test]
    fn oversized_ensemble_is_rejected_at_setup() {
        let inst = Instance::paper_example_cdd();
        let p = GpuSaParams { blocks: 1 << 15, block_size: 64, ..small_params(1) };
        let err = run_gpu_sa(&inst, &p).unwrap_err();
        assert!(format!("{err}").contains("ensemble too large"), "{err}");
    }

    #[test]
    fn five_x_iterations_cost_about_five_x_modeled_time() {
        // The paper: "increasing the number of generations by a factor of
        // five also increases the runtime by a factor about five".
        let inst = Instance::paper_example_cdd();
        let r1 = run_gpu_sa(&inst, &small_params(100)).unwrap();
        let r5 = run_gpu_sa(&inst, &small_params(500)).unwrap();
        let ratio = r5.kernel_seconds / r1.kernel_seconds;
        assert!((4.0..6.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn evaluations_counted_across_ensemble() {
        let inst = Instance::paper_example_cdd();
        let r = run_gpu_sa(&inst, &small_params(10)).unwrap();
        assert_eq!(r.evaluations, 64 * 11);
    }

    #[test]
    fn clean_run_reports_empty_recovery() {
        let inst = Instance::paper_example_cdd();
        let r = run_gpu_sa(&inst, &small_params(20)).unwrap();
        assert_eq!(r.recovery.device_attempts, 1);
        assert_eq!(r.recovery.launch_retries, 0);
        assert_eq!(r.recovery.oracle_rejections, 0);
        assert!(!r.recovery.cpu_fallback);
        assert_eq!(r.recovery.faults.launches_attempted, 0, "no plan installed");
    }

    #[test]
    fn survives_fault_injection_with_oracle_verified_result() {
        // 5% launch failures, 1% read bit flips, 2% hangs — the acceptance
        // scenario. The returned cost must match the CPU oracle exactly.
        let inst = Instance::paper_example_cdd();
        let p = GpuSaParams {
            fault: Some(cuda_sim::FaultPlan::with_rates(99, 0.05, 0.01, 0.02)),
            ..small_params(150)
        };
        let r = run_gpu_sa(&inst, &p).unwrap();
        let eval = evaluator_for(&inst);
        assert_eq!(eval.evaluate(r.best.as_slice()), r.objective, "oracle must confirm");
        assert!(r.best.is_valid_permutation());
        let f = r.recovery.faults;
        assert!(f.launches_attempted > 0);
        assert!(f.bit_flips > 0, "1% per read over 150 generations must flip");
        assert!(r.recovery.launch_retries > 0, "5% launch failures must trigger retries");
    }

    #[test]
    fn fault_injected_run_is_deterministic() {
        let inst = Instance::paper_example_cdd();
        let p = GpuSaParams {
            fault: Some(cuda_sim::FaultPlan::with_rates(7, 0.03, 0.005, 0.01)),
            ..small_params(80)
        };
        let a = run_gpu_sa(&inst, &p).unwrap();
        let b = run_gpu_sa(&inst, &p).unwrap();
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.best, b.best);
        assert_eq!(a.recovery, b.recovery);
    }

    /// Every buffer an SA generation reads, as bits: current rows,
    /// energies, personal-best rows and energies, RNG words, packed best.
    fn chain_state(gpu: &NativeGpu, run: &SaRun) -> Vec<Vec<u64>> {
        let rows = |buf| gpu.peek(buf).into_iter().map(u64::from).collect();
        let energies = |buf| gpu.peek(buf).into_iter().map(|e: i64| e as u64).collect();
        vec![
            rows(run.current),
            energies(run.energies),
            rows(run.best_rows),
            energies(run.best_energies),
            gpu.peek(run.rng_states),
            energies(run.global_best),
        ]
    }

    /// The fused native generation must leave every buffer the next
    /// generation reads exactly as the four launches do, generation by
    /// generation, not just reach the same final best. Both of its exits
    /// must run: accepted moves, which stay in place, and rejected ones,
    /// which it undoes swap by swap.
    #[test]
    fn fused_generation_leaves_the_launched_state() {
        const GENS: u64 = 5;
        let (policy, mut stats) = (RecoveryPolicy::default(), RecoveryStats::default());
        for inst in [cdd_instances::cdd_instance(40, 1, 0.4), cdd_instances::ucddcp_instance(40, 1)]
        {
            let n = inst.n();
            for (blocks, block_size) in [(1, 64), (4, 192)] {
                let params = GpuSaParams { blocks, block_size, ..small_params(GENS) };
                let mut host_rng = StdRng::seed_from_u64(params.seed);
                let t0 = params.initial_temperature(&inst, &*evaluator_for(&inst), &mut host_rng);
                let start = |gpu: &mut NativeGpu| {
                    let run = SaRun::upload(gpu, &inst, &params, &mut host_rng.clone()).unwrap();
                    run.launch_initial_fitness(gpu, &policy, &mut RecoveryStats::default())
                        .unwrap();
                    run
                };
                let mut launched = NativeGpu::new(params.device.clone());
                let mut fused = NativeGpu::new(params.device.clone());
                let (by_launch, by_pass) = (start(&mut launched), start(&mut fused));
                let initial = chain_state(&fused, &by_pass);
                let mut swaps = Swaps::default();
                let mut temperature = t0;
                let (mut accepted, mut rejected) = (0, 0);
                for gen in 0..GENS {
                    let before = launched.peek(by_launch.current);
                    by_launch
                        .launch_generation(&mut launched, temperature, None, &policy, &mut stats)
                        .unwrap();
                    by_pass.fused_generation(&mut fused, temperature, &mut swaps).unwrap();
                    let case = format!("{:?} {blocks}x{block_size} generation {gen}", inst.kind());
                    assert_eq!(
                        chain_state(&fused, &by_pass),
                        chain_state(&launched, &by_launch),
                        "{case}"
                    );
                    // Each chain's move, from the launched run's candidate
                    // rows: kept if `current` became the candidate, else
                    // rejected, and the fused run's row matched either way.
                    let (moved, after) =
                        (launched.peek(by_launch.candidate), launched.peek(by_launch.current));
                    for t in 0..params.ensemble() {
                        let row = |rows: &[u32]| rows[t * n..(t + 1) * n].to_vec();
                        if row(&moved) == row(&before) {
                            continue; // the shuffle happened to keep every job in place
                        }
                        if row(&after) == row(&moved) {
                            accepted += 1;
                        } else {
                            assert_eq!(row(&after), row(&before), "{case} chain {t}");
                            rejected += 1;
                        }
                    }
                    temperature *= params.cooling_rate;
                }
                assert_ne!(chain_state(&fused, &by_pass), initial, "the chains moved");
                let case = format!("{:?} {blocks}x{block_size}", inst.kind());
                assert!(accepted > 0 && rejected > 0, "{case}: {accepted} kept, {rejected} undone");
                for gpu in [&launched, &fused] {
                    assert_eq!(gpu.kernel_launches() as u64, 1 + 4 * GENS);
                }
            }
        }
    }

    #[test]
    fn degrades_to_cpu_ensemble_when_device_unusable() {
        // Every launch fails: all retries and device attempts are consumed,
        // then the CPU ensemble supplies an oracle-exact result.
        let inst = Instance::paper_example_cdd();
        let p = GpuSaParams {
            fault: Some(cuda_sim::FaultPlan::with_rates(1, 1.0, 0.0, 0.0)),
            ..small_params(30)
        };
        let r = run_gpu_sa(&inst, &p).unwrap();
        assert!(r.recovery.cpu_fallback);
        assert_eq!(r.recovery.device_attempts, p.recovery.max_device_attempts);
        assert!(r.profiler_summary.contains("cpu-fallback"));
        let eval = evaluator_for(&inst);
        assert_eq!(eval.evaluate(r.best.as_slice()), r.objective);
    }
}
