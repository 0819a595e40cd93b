//! The **synchronous** parallel SA variant (paper Fig. 8) on the simulated
//! GPU — the scheme the paper evaluated and *rejected* in favour of the
//! asynchronous one ("due to the premature convergence of the latter
//! approach").
//!
//! Execution per temperature level: every thread simulates a Markov chain
//! of fixed length `M` at the level's constant temperature (the same
//! perturb → fitness → accept kernels as the asynchronous pipeline), then a
//! reduction finds the ensemble-best *current* state `s_j^min` and a
//! broadcast kernel restarts every chain from it at the next, cooler level.
//!
//! The broadcast is the scheme's cost and its weakness: one extra kernel +
//! the loss of ensemble diversity each level. Both effects are visible in
//! the pipeline's profiler timeline and in the ablation
//! (`ablation_async_vs_sync`).

use crate::init::initial_ensemble;
use crate::kernels::{AcceptKernel, FitnessKernel, PerturbKernel, SaProbe};
use crate::layout::ProblemDevice;
use crate::recovery::{
    launch_with_retry, run_with_recovery, suite_device_error, verified_best, RecoveryStats,
};
use crate::sa_pipeline::{
    check_argmin_domain, check_native_capabilities, cpu_fallback_sa, GpuRunResult, GpuSaParams,
};
use crate::trajectory::ConvergenceTrace;
use cdd_core::eval::{evaluator_for, SequenceEvaluator};
use cdd_core::{Cost, Instance, JobSequence, SuiteError};
use cdd_meta::initial_temperature;
use cuda_sim::reduce::{unpack_argmin, AtomicArgminKernel};
use cuda_sim::{
    Backend, Buf, DeviceCtx, ExecBackend, FaultPlan, Gpu, Kernel, LaunchConfig, NativeGpu,
    TelemetryRing, XorWow,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Broadcast kernel: every thread overwrites its current sequence and
/// energy with the reduction winner's (the `s_j^min` hand-off of Fig. 8).
pub struct BroadcastKernel {
    /// Packed `(value, thread)` argmin over the current energies.
    pub packed: Buf<i64>,
    /// Current sequences (every row overwritten with the winner's).
    pub current: Buf<u32>,
    /// Current energies (set to the winning value).
    pub energies: Buf<i64>,
    /// Jobs per sequence.
    pub n: usize,
    /// Live threads.
    pub ensemble: usize,
}

impl Kernel for BroadcastKernel {
    fn name(&self) -> &str {
        "broadcast_best"
    }

    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
        let gid = ctx.global_id();
        if gid >= self.ensemble {
            return;
        }
        let key = ctx.read(self.packed, 0);
        let (value, winner) = unpack_argmin(key);
        ctx.charge_alu(2);
        // A corrupted packed key can decode past the ensemble; skip the
        // restart rather than read out of bounds (the chain keeps its own
        // state for the next level). Cheap enough to keep unconditionally.
        if winner >= self.ensemble {
            return;
        }
        if winner != gid {
            ctx.copy_row(self.current, winner * self.n, self.current, gid * self.n, self.n);
            ctx.write(self.energies, gid, value);
        }
    }
}

/// Run the synchronous parallel SA: `levels` temperature levels of
/// `markov_len` generations each (total generations = `params.iterations`
/// when `levels × markov_len` matches; pass the split explicitly).
pub fn run_gpu_sa_sync(
    inst: &Instance,
    params: &GpuSaParams,
    levels: u64,
    markov_len: u64,
) -> Result<GpuRunResult, SuiteError> {
    assert!(levels >= 1 && markov_len >= 1, "need at least one level and one step");
    check_argmin_domain(inst, params.ensemble())?;
    check_native_capabilities(params.backend, params.fault.as_ref(), &params.telemetry)?;

    let mut host_rng = StdRng::seed_from_u64(params.seed);
    let evaluator = evaluator_for(inst);
    let t0 = params
        .t0
        .unwrap_or_else(|| initial_temperature(evaluator.as_ref(), params.t0_samples, &mut host_rng));

    match params.backend {
        Backend::Sim => run_with_recovery(
            &params.recovery,
            params.fault.as_ref(),
            |plan, stats| {
                sync_attempt::<Gpu>(
                    inst, params, levels, markov_len, &*evaluator, t0, &host_rng, plan, stats,
                )
            },
            || cpu_fallback_sa(params, &*evaluator, t0, levels * markov_len),
        ),
        Backend::Native => run_with_recovery(
            &params.recovery,
            params.fault.as_ref(),
            |plan, stats| {
                sync_attempt::<NativeGpu>(
                    inst, params, levels, markov_len, &*evaluator, t0, &host_rng, plan, stats,
                )
            },
            || cpu_fallback_sa(params, &*evaluator, t0, levels * markov_len),
        ),
    }
}

/// One complete device run of the synchronous SA pipeline, on either
/// execution backend.
#[allow(clippy::too_many_arguments)]
fn sync_attempt<B: ExecBackend>(
    inst: &Instance,
    params: &GpuSaParams,
    levels: u64,
    markov_len: u64,
    evaluator: &dyn SequenceEvaluator,
    t0: f64,
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
    // drained from `&gpu` once the closure's mutable borrow ends. The global
    // generation index is `level × markov_len + step`.
    let total_gens = levels.saturating_mul(markov_len);
    let telem_cap = params.telemetry.effective_capacity(total_gens.saturating_sub(1));
    let mut ring: Option<TelemetryRing> = None;
    let mut sample_headers: Vec<(u64, f64)> = Vec::new();

    let outcome = (|| -> Result<(JobSequence, Cost), SuiteError> {
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
        let packed = gpu.alloc::<i64>(1);
        let rng_states = gpu.alloc::<u64>(ensemble * 3);
        let words: Vec<u64> =
            (0..ensemble).flat_map(|t| XorWow::new(params.seed, t as u64).pack()).collect();
        gpu.h2d(rng_states, &words);

        // Telemetry ring last, after every algorithm buffer, so buffer
        // handles match the telemetry-off run exactly.
        if params.telemetry.enabled() {
            ring = Some(TelemetryRing::alloc(&mut gpu, ensemble, telem_cap));
        }

        let fitness_current = FitnessKernel::new(prob, current, energies, ensemble, params.blocks);
        launch_with_retry(&mut gpu, &fitness_current, cfg, policy, stats)
            .map_err(|e| suite_device_error(&e))?;

        let perturb = PerturbKernel::new(current, candidate, rng_states, n, ensemble, params.pert);
        let fitness = FitnessKernel::new(prob, candidate, cand_energies, ensemble, params.blocks);
        let reduce_current = AtomicArgminKernel { values: energies, out: packed };
        let broadcast = BroadcastKernel { packed, current, energies, n, ensemble };
        let reduce_best = AtomicArgminKernel { values: best_energies, out: packed };

        for level in 0..levels {
            let temperature = t0 * params.cooling_rate.powi(level.min(i32::MAX as u64) as i32);
            // Span metadata is attached whether or not telemetry samples
            // this level, so the timeline is stride-independent.
            gpu.span_begin_args("sync-sa-level", || {
                vec![
                    ("level".to_string(), level.to_string()),
                    ("temperature".to_string(), format!("{temperature:.6e}")),
                ]
            });
            let level_result = (|gpu: &mut B| -> Result<(), SuiteError> {
                for step in 0..markov_len {
                    let gen = level * markov_len + step;
                    let slot = ring.and_then(|_| params.telemetry.slot_for(gen, telem_cap));
                    if slot.is_some() {
                        sample_headers.push((gen, temperature));
                    }
                    launch_with_retry(gpu, &perturb, cfg, policy, stats)
                        .map_err(|e| suite_device_error(&e))?;
                    launch_with_retry(gpu, &fitness, cfg, policy, stats)
                        .map_err(|e| suite_device_error(&e))?;
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
                        telemetry: ring.map(|r| SaProbe { ring: r, slot }),
                        flags: None,
                    };
                    launch_with_retry(gpu, &accept, cfg, policy, stats)
                        .map_err(|e| suite_device_error(&e))?;
                }
                // Level barrier: reduce over the current states and broadcast
                // s_j^min as everyone's next start.
                gpu.h2d(packed, &[i64::MAX]);
                launch_with_retry(gpu, &reduce_current, cfg, policy, stats)
                    .map_err(|e| suite_device_error(&e))?;
                launch_with_retry(gpu, &broadcast, cfg, policy, stats)
                    .map_err(|e| suite_device_error(&e))?;
                Ok(())
            })(&mut gpu);
            gpu.span_end("sync-sa-level");
            level_result?;
        }

        // Final reduction over the personal bests (as in the async
        // pipeline), oracle-verified.
        gpu.h2d(packed, &[i64::MAX]);
        launch_with_retry(&mut gpu, &reduce_best, cfg, policy, stats)
            .map_err(|e| suite_device_error(&e))?;
        let key = gpu.d2h(packed)[0];
        let (claimed, winner) = unpack_argmin(key);
        verified_best(&mut gpu, best_rows, n, ensemble, winner, claimed, evaluator, stats)
    })();

    stats.faults += gpu.fault_stats();
    let (best, objective) = outcome?;
    let convergence = ring.map(|r| {
        ConvergenceTrace::from_ring(
            "sync-sa",
            params.telemetry.stride,
            markov_len,
            &sample_headers,
            &r,
            &gpu,
        )
    });
    Ok(GpuRunResult {
        convergence,
        ..GpuRunResult::new(
            best,
            objective,
            ensemble as u64 * (levels * markov_len + 1),
            t0,
            gpu.kernel_launches(),
            gpu.sim_profiler(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_gpu_sa;
    use cdd_core::exact::best_sequence_bruteforce;

    fn params() -> GpuSaParams {
        GpuSaParams { blocks: 2, block_size: 16, ..Default::default() }
    }

    #[test]
    fn sync_pipeline_solves_the_paper_example() {
        let inst = Instance::paper_example_cdd();
        let (_, optimum) = best_sequence_bruteforce(&inst);
        let r = run_gpu_sa_sync(&inst, &params(), 20, 10).unwrap();
        assert_eq!(r.objective, optimum);
        assert!(r.best.is_valid_permutation());
    }

    #[test]
    fn timeline_shows_broadcast_traffic() {
        let inst = Instance::paper_example_cdd();
        let r = run_gpu_sa_sync(&inst, &params(), 5, 4).unwrap();
        assert!(r.profiler_summary.contains("broadcast_best"));
        // 1 init fitness + levels×(3×markov + 2) + 1 final reduction.
        assert_eq!(r.kernel_launches as u64, 1 + 5 * (3 * 4 + 2) + 1);
    }

    #[test]
    fn telemetry_indexes_generations_globally_across_levels() {
        let inst = Instance::paper_example_cdd();
        let p = GpuSaParams {
            telemetry: cuda_sim::TelemetryConfig::every(4),
            ..params()
        };
        let r = run_gpu_sa_sync(&inst, &p, 3, 5).unwrap();
        let trace = r.convergence.expect("telemetry was on");
        assert_eq!(trace.algorithm, "sync-sa");
        assert_eq!(trace.gens_per_span, 5, "one span covers a whole Markov chain");
        let gens: Vec<u64> = trace.samples.iter().map(|s| s.gen).collect();
        assert_eq!(gens, vec![0, 4, 8, 12], "global index runs across levels");
        // Temperatures cool level by level: gen 4 is level 0, gen 8 level 1.
        assert!(trace.samples[2].temperature < trace.samples[1].temperature);
        // The broadcast makes every chain share a current state at the start
        // of the next level; gen 12 (level 2, step 2) best lanes are finite.
        assert!(trace.samples[3].best.iter().all(|&b| b < i64::MAX));
    }

    #[test]
    fn broadcast_collapses_diversity() {
        // After one level every chain holds the same current sequence.
        let inst = Instance::paper_example_cdd();
        let r = run_gpu_sa_sync(&inst, &params(), 1, 3).unwrap();
        // The run is consistent and returns the reduction winner.
        let eval = cdd_core::eval::evaluator_for(&inst);
        assert_eq!(eval.evaluate(r.best.as_slice()), r.objective);
    }

    #[test]
    fn async_and_sync_reach_comparable_quality_at_equal_budget() {
        // The paper preferred async for its convergence behaviour at its
        // budgets; which scheme wins is configuration-dependent (the
        // broadcast is pure exploitation), so the assertion here is
        // comparability — the empirical comparison lives in the
        // `ablation_async_vs_sync` binary. What is *not* configuration-
        // dependent: sync pays an extra broadcast launch per level.
        let inst = cdd_instances_like();
        let total = 300u64;
        let mut async_sum = 0i64;
        let mut sync_sum = 0i64;
        for seed in 0..5 {
            let p = GpuSaParams { seed, ..params() };
            sync_sum += run_gpu_sa_sync(&inst, &p, 30, total / 30).unwrap().objective;
            async_sum +=
                run_gpu_sa(&inst, &GpuSaParams { iterations: total, ..p }).unwrap().objective;
        }
        let (a, s) = (async_sum as f64 / 5.0, sync_sum as f64 / 5.0);
        assert!(
            (a - s).abs() / a.min(s) < 0.15,
            "schemes diverged unexpectedly far: async avg {a}, sync avg {s}"
        );
    }

    #[test]
    fn sync_survives_fault_injection_with_oracle_verified_result() {
        let inst = Instance::paper_example_cdd();
        let p = GpuSaParams {
            fault: Some(FaultPlan::with_rates(17, 0.05, 0.01, 0.02)),
            ..params()
        };
        let r = run_gpu_sa_sync(&inst, &p, 10, 6).unwrap();
        let eval = cdd_core::eval::evaluator_for(&inst);
        assert_eq!(eval.evaluate(r.best.as_slice()), r.objective, "oracle must confirm");
        assert!(r.best.is_valid_permutation());
        assert!(r.recovery.faults.launches_attempted > 0);
    }

    fn cdd_instances_like() -> Instance {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(31);
        let p: Vec<i64> = (0..30).map(|_| rng.gen_range(1..=20)).collect();
        let a: Vec<i64> = (0..30).map(|_| rng.gen_range(1..=10)).collect();
        let b: Vec<i64> = (0..30).map(|_| rng.gen_range(1..=15)).collect();
        let d = (p.iter().sum::<i64>() as f64 * 0.6) as i64;
        Instance::cdd_from_arrays(&p, &a, &b, d).unwrap()
    }
}
