//! Launch-by-launch replay of the SA pipeline from its public parts, timing
//! each host step and each kernel launch from outside.
//!
//! The replay performs the steps `run_gpu_solve` performs for a clean SA
//! request, in the same order and with the same defaults, so it must
//! reproduce that call's answer byte for byte; `tests/replay_parity.rs`
//! holds it to that.

use cdd_core::eval::evaluator_for;
use cdd_core::heuristics::v_shaped_sequence;
use cdd_core::{Instance, SuiteError};
use cdd_gpu::kernels::{AcceptKernel, FitnessKernel, PerturbKernel};
use cdd_gpu::recovery::{launch_with_retry, suite_device_error, verified_best, RecoveryStats};
use cdd_gpu::{initial_ensemble, GpuSaParams, GpuSolveSpec, InitStrategy, ProblemDevice};
use cdd_meta::{initial_temperature, initial_temperature_local};
use cuda_sim::reduce::{unpack_argmin, AtomicArgminKernel};
use cuda_sim::{ExecBackend, Kernel, LaunchConfig, XorWow};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// What one replay produced, and where its wall time went.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Best sequence found.
    pub best: Vec<u32>,
    /// Its objective.
    pub objective: i64,
    /// Initial temperature.
    pub t0: f64,
    /// Kernel launches performed.
    pub launches: usize,
    /// T₀, initial ensemble, problem upload and every initial host→device
    /// copy (RNG states included), seconds.
    pub setup_s: f64,
    /// The final device→host copies and their oracle check, seconds.
    pub transfer_s: f64,
    /// Wall time of every perturbation launch, seconds.
    pub perturb_s: Vec<f64>,
    /// Wall time of every fitness launch (the initial one included).
    pub fitness_s: Vec<f64>,
    /// Wall time of every acceptance launch.
    pub accept_s: Vec<f64>,
    /// Wall time of every argmin-reduction launch.
    pub argmin_s: Vec<f64>,
    /// Wall time of the whole replay, seconds.
    pub wall_s: f64,
}

impl Replay {
    /// Share of the replay's wall time outside set-up, transfers and
    /// kernel launches.
    #[must_use]
    pub fn unaccounted_frac(&self) -> f64 {
        let launches: f64 = [
            &self.perturb_s,
            &self.fitness_s,
            &self.accept_s,
            &self.argmin_s,
        ]
        .iter()
        .flat_map(|v| v.iter())
        .sum();
        1.0 - (self.setup_s + self.transfer_s + launches) / self.wall_s.max(f64::MIN_POSITIVE)
    }
}

fn timed_launch<B: ExecBackend, K: Kernel + Sync>(
    gpu: &mut B,
    kernel: &K,
    cfg: LaunchConfig,
    stats: &mut RecoveryStats,
    spec: &GpuSolveSpec,
    into: &mut Vec<f64>,
) -> Result<(), SuiteError> {
    let t = Instant::now();
    launch_with_retry(gpu, kernel, cfg, &spec.recovery, stats)
        .map_err(|e| suite_device_error(&e))?;
    into.push(t.elapsed().as_secs_f64());
    Ok(())
}

/// Replay a clean SA solve of `inst` under `spec` on backend `B`.
pub fn replay_sa<B: ExecBackend>(
    inst: &Instance,
    iterations: u64,
    seed: u64,
    spec: &GpuSolveSpec,
) -> Result<Replay, SuiteError> {
    let wall = Instant::now();
    // The pipeline's own defaults (perturbation size, cooling, T₀ rule,
    // initial ensemble), exactly as `run_gpu_solve` fills them in.
    let params = GpuSaParams {
        blocks: spec.blocks,
        block_size: spec.block_size,
        iterations,
        seed,
        device: spec.device.clone(),
        backend: spec.backend,
        ..GpuSaParams::default()
    };
    let (n, ensemble) = (inst.n(), params.ensemble());
    let cfg = LaunchConfig::linear(params.blocks, params.block_size);
    let mut out = Replay::default();
    let mut stats = RecoveryStats::default();

    let setup = Instant::now();
    let mut host_rng = StdRng::seed_from_u64(seed);
    let evaluator = evaluator_for(inst);
    out.t0 = match params.init {
        InitStrategy::Random => initial_temperature(&*evaluator, params.t0_samples, &mut host_rng),
        InitStrategy::VShapedSpread => initial_temperature_local(
            &*evaluator,
            &v_shaped_sequence(inst),
            params.pert,
            params.t0_samples.min(500),
            &mut host_rng,
        ),
    };
    let mut gpu = B::from_spec(params.device.clone());
    gpu.set_fault_plan(None);
    let prob = ProblemDevice::upload(&mut gpu, inst).map_err(|e| suite_device_error(&e))?;
    let current = gpu.alloc::<u32>(ensemble * n);
    let flat = initial_ensemble(inst, ensemble, params.init, &mut host_rng);
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
    let words: Vec<u64> = (0..ensemble)
        .flat_map(|t| XorWow::new(seed, t as u64).pack())
        .collect();
    gpu.h2d(rng_states, &words);
    out.setup_s = setup.elapsed().as_secs_f64();

    let initial = FitnessKernel::new(prob, current, energies, ensemble, params.blocks);
    timed_launch(
        &mut gpu,
        &initial,
        cfg,
        &mut stats,
        spec,
        &mut out.fitness_s,
    )?;
    let perturb = PerturbKernel::new(current, candidate, rng_states, n, ensemble, params.pert);
    let fitness = FitnessKernel::new(prob, candidate, cand_energies, ensemble, params.blocks);
    let reduce = AtomicArgminKernel {
        values: best_energies,
        out: global_best,
    };
    let mut temperature = out.t0;
    for _ in 0..iterations {
        timed_launch(
            &mut gpu,
            &perturb,
            cfg,
            &mut stats,
            spec,
            &mut out.perturb_s,
        )?;
        timed_launch(
            &mut gpu,
            &fitness,
            cfg,
            &mut stats,
            spec,
            &mut out.fitness_s,
        )?;
        let accept = AcceptKernel {
            current,
            candidate,
            energies,
            cand_energies,
            best_rows,
            best_energies,
            rng: rng_states,
            n,
            ensemble,
            temperature,
            segment_temps: None,
            telemetry: None,
            flags: None,
        };
        timed_launch(&mut gpu, &accept, cfg, &mut stats, spec, &mut out.accept_s)?;
        timed_launch(&mut gpu, &reduce, cfg, &mut stats, spec, &mut out.argmin_s)?;
        temperature *= params.cooling_rate;
    }

    let transfer = Instant::now();
    let key = gpu.d2h(global_best)[0];
    let (claimed, winner) = unpack_argmin(key);
    let (best, objective) = verified_best(
        &mut gpu,
        best_rows,
        n,
        ensemble,
        winner,
        claimed,
        &*evaluator,
        &mut stats,
    )?;
    out.transfer_s = transfer.elapsed().as_secs_f64();
    out.best = best.as_slice().to_vec();
    out.objective = objective;
    out.launches = gpu.kernel_launches();
    out.wall_s = wall.elapsed().as_secs_f64();
    Ok(out)
}
