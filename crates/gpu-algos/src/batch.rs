//! Cross-request batched SA launches: several solve requests fused into one
//! simulated-device run.
//!
//! Small-`n` service traffic is launch-overhead-bound: a generation's four
//! kernels cost ~5 µs of launch overhead each while their compute finishes
//! in well under a microsecond. Fusing `k` compatible requests into one grid
//! runs one *perturbation → fitness → acceptance → reduction* round per
//! generation for all of them, paying the overhead once instead of `k`
//! times.
//!
//! The contract is **outcome identity**: every request's best sequence,
//! objective and evaluation count are byte-identical to what its solo
//! [`run_gpu_sa`] run produces. That holds because each request keeps its
//! own XORWOW streams (seeded per request, per thread, exactly as solo),
//! its own uploaded problem and staged rates (per block segment), its own
//! iteratively-cooled temperature (applied per segment by the acceptance
//! kernel), and its own segment-local argmin. Only the launch/transfer
//! accounting — the modeled time — changes; results, metrics and the
//! per-request demultiplexing are derived from the same device state a solo
//! run would hold.
//!
//! Fusion preconditions (checked here, grouped by the caller): same problem
//! kind and job count, same iteration budget and grid geometry (they share
//! `params`), telemetry off, no fault plan. Incompatible groups are
//! rejected with a clear error so callers fall back to solo runs.

use crate::init::initial_ensemble;
use crate::kernels::{AcceptKernel, BatchFitnessKernel, PerturbKernel};
use crate::layout::ProblemDevice;
use crate::recovery::{suite_device_error, RecoveryStats};
use crate::sa_pipeline::{check_argmin_domain, run_gpu_sa, GpuRunResult, GpuSaParams};
use cdd_core::eval::evaluator_for;
use cdd_core::{Cost, Instance, JobSequence, SuiteError};
use cdd_meta::temperature::initial_temperature;
use cuda_sim::reduce::{unpack_argmin, SegmentedArgminKernel};
use cuda_sim::{Backend, ExecBackend, Gpu, LaunchConfig, NativeGpu, Profiler, XorWow};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One request of a fused batch: the instance to solve and the master seed
/// its solo run would use.
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// Problem instance.
    pub instance: Instance,
    /// Master seed (drives T₀ sampling, the initial ensemble, and the
    /// per-thread XORWOW streams — exactly as [`GpuSaParams::seed`] does
    /// for a solo run).
    pub seed: u64,
}

/// Run `entries` as one fused device run. Returns one result per entry, in
/// order. A single entry delegates to the solo pipeline (with its full
/// recovery wrapper); multi-entry batches require the fusion preconditions
/// and run fault-free.
pub fn run_gpu_sa_batch(
    entries: &[BatchEntry],
    params: &GpuSaParams,
) -> Result<Vec<GpuRunResult>, SuiteError> {
    let Some(first) = entries.first() else {
        return Ok(Vec::new());
    };
    if entries.len() == 1 {
        let solo = GpuSaParams { seed: first.seed, ..params.clone() };
        return Ok(vec![run_gpu_sa(&first.instance, &solo)?]);
    }
    assert!(params.iterations >= 1, "need at least one generation");
    if params.fault.is_some() {
        return Err(SuiteError::rejected(
            "batched launches run fault-free; fault-injection runs must go solo",
        ));
    }
    if params.telemetry.enabled() {
        return Err(SuiteError::rejected(
            "batched launches do not carry telemetry; sampled runs must go solo",
        ));
    }
    let (kind, n) = (first.instance.kind(), first.instance.n());
    if !entries.iter().all(|e| e.instance.kind() == kind && e.instance.n() == n) {
        return Err(SuiteError::rejected(
            "fused requests must share problem kind and job count",
        ));
    }

    let k = entries.len();
    let ensemble = params.ensemble();
    // The packed argmin index is segment-local, so only the per-request
    // ensemble must fit the index field — but every instance's objective
    // bound must fit the value field.
    for e in entries {
        check_argmin_domain(&e.instance, ensemble)?;
    }

    // Host-side setup, replicated per request exactly as the solo pipeline
    // performs it: seed the host RNG, estimate T₀, then draw the initial
    // ensemble from the *same* stream. Byte-identical starting state.
    let mut evaluators = Vec::with_capacity(k);
    let mut t0s = Vec::with_capacity(k);
    let mut init_rows: Vec<Vec<u32>> = Vec::with_capacity(k);
    for e in entries {
        let mut host_rng = StdRng::seed_from_u64(e.seed);
        let evaluator = evaluator_for(&e.instance);
        let t0 = params.t0.unwrap_or_else(|| match params.init {
            crate::init::InitStrategy::Random => {
                initial_temperature(evaluator.as_ref(), params.t0_samples, &mut host_rng)
            }
            crate::init::InitStrategy::VShapedSpread => cdd_meta::initial_temperature_local(
                evaluator.as_ref(),
                &cdd_core::heuristics::v_shaped_sequence(&e.instance),
                params.pert,
                params.t0_samples.min(500),
                &mut host_rng,
            ),
        });
        t0s.push(t0);
        init_rows.push(initial_ensemble(&e.instance, ensemble, params.init, &mut host_rng));
        evaluators.push(evaluator);
    }

    match params.backend {
        Backend::Sim => batch_device_run::<Gpu>(entries, params, &evaluators, &t0s, init_rows),
        Backend::Native => {
            batch_device_run::<NativeGpu>(entries, params, &evaluators, &t0s, init_rows)
        }
    }
}

/// The device half of a fused batch run, on either execution backend: upload
/// every request, drive the four fused kernels per generation, demultiplex
/// and oracle-verify each request's winner.
fn batch_device_run<B: ExecBackend>(
    entries: &[BatchEntry],
    params: &GpuSaParams,
    evaluators: &[Box<dyn cdd_core::eval::SequenceEvaluator + Send + Sync>],
    t0s: &[f64],
    init_rows: Vec<Vec<u32>>,
) -> Result<Vec<GpuRunResult>, SuiteError> {
    let k = entries.len();
    let n = entries[0].instance.n();
    let ensemble = params.ensemble();
    let total = k * ensemble;
    let cfg = LaunchConfig::linear(k * params.blocks, params.block_size);
    let mut gpu = B::from_spec(params.device.clone());
    let mut stats = RecoveryStats { device_attempts: 1, ..RecoveryStats::default() };

    let probs: Vec<ProblemDevice> = entries
        .iter()
        .map(|e| ProblemDevice::upload(&mut gpu, &e.instance))
        .collect::<Result<_, _>>()
        .map_err(|e| suite_device_error(&e))?;

    // Fused device state: request r owns rows [r·ensemble, (r+1)·ensemble).
    let current = gpu.alloc::<u32>(total * n);
    let flat: Vec<u32> = init_rows.into_iter().flatten().collect();
    gpu.h2d(current, &flat);
    let candidate = gpu.alloc::<u32>(total * n);
    let energies = gpu.alloc::<i64>(total);
    let cand_energies = gpu.alloc::<i64>(total);
    let best_rows = gpu.alloc::<u32>(total * n);
    let best_energies = gpu.alloc::<i64>(total);
    gpu.h2d(best_energies, &vec![i64::MAX; total]);
    let global_bests = gpu.alloc::<i64>(k);
    gpu.h2d(global_bests, &vec![i64::MAX; k]);
    let rng_states = gpu.alloc::<u64>(total * 3);
    let words: Vec<u64> = entries
        .iter()
        .flat_map(|e| (0..ensemble).flat_map(move |t| XorWow::new(e.seed, t as u64).pack()))
        .collect();
    gpu.h2d(rng_states, &words);

    // Initial fitness of every request's starting ensemble, one launch.
    let fitness_current =
        BatchFitnessKernel::new(probs.clone(), current, energies, ensemble, params.blocks);
    gpu.launch_kernel(&fitness_current, cfg, &[]).map_err(|e| suite_device_error(&e))?;

    let perturb = PerturbKernel::new(current, candidate, rng_states, n, total, params.pert);
    let fitness =
        BatchFitnessKernel::new(probs, candidate, cand_energies, ensemble, params.blocks);
    let reduce =
        SegmentedArgminKernel { values: best_energies, out: global_bests, segment: ensemble };

    // Each request cools independently from its own T₀ — iterative
    // multiplication, bit-identical to the solo schedule.
    let mut temps = t0s.to_vec();
    for _gen in 0..params.iterations {
        gpu.launch_kernel(&perturb, cfg, &[]).map_err(|e| suite_device_error(&e))?;
        gpu.launch_kernel(&fitness, cfg, &[]).map_err(|e| suite_device_error(&e))?;
        let accept = AcceptKernel {
            current,
            candidate,
            energies,
            cand_energies,
            best_rows,
            best_energies,
            rng: rng_states,
            n,
            ensemble: total,
            temperature: 0.0,
            segment_temps: Some((ensemble, temps.clone())),
            telemetry: None,
            flags: None,
        };
        gpu.launch_kernel(&accept, cfg, &[]).map_err(|e| suite_device_error(&e))?;
        gpu.launch_kernel(&reduce, cfg, &[]).map_err(|e| suite_device_error(&e))?;
        for t in temps.iter_mut() {
            *t *= params.cooling_rate;
        }
    }

    // Demultiplex: per request, unpack its segment-local argmin, fetch the
    // winning row, and oracle-verify (host repair over the segment on
    // mismatch — cannot trigger fault-free, but the contract is uniform).
    let keys = gpu.d2h(global_bests);
    let mut results = Vec::with_capacity(k);
    for (r, key) in keys.into_iter().enumerate() {
        let (claimed, winner) = unpack_argmin(key);
        let eval = &evaluators[r];
        let outcome: Result<(JobSequence, Cost), SuiteError> = (|| {
            if winner < ensemble {
                let row = gpu.d2h_range(best_rows, (r * ensemble + winner) * n, n);
                if let Ok(seq) = JobSequence::from_vec(row) {
                    let oracle = eval.evaluate(seq.as_slice());
                    if oracle == claimed {
                        return Ok((seq, oracle));
                    }
                }
            }
            stats.oracle_rejections += 1;
            let all = gpu.d2h_range(best_rows, r * ensemble * n, ensemble * n);
            let mut best: Option<(JobSequence, Cost)> = None;
            for t in 0..ensemble {
                let Ok(seq) = JobSequence::from_vec(all[t * n..(t + 1) * n].to_vec()) else {
                    continue;
                };
                let obj = eval.evaluate(seq.as_slice());
                if best.as_ref().is_none_or(|(_, b)| obj < *b) {
                    best = Some((seq, obj));
                }
            }
            best.ok_or_else(|| {
                SuiteError::corrupt(format!(
                    "none of request {r}'s {ensemble} device rows is a valid permutation"
                ))
            })
        })();
        let (best, objective) = outcome?;
        results.push((best, objective));
    }

    // One profiler accounts for the fused run; modeled time is split evenly
    // across the requests that shared it (each report carries the *fused*
    // launch count — k requests rode the same 1 + 4·iterations launches).
    let share = 1.0 / k as f64;
    let profiler = gpu.sim_profiler();
    let shared = |seconds: fn(&Profiler) -> f64| profiler.map_or(0.0, seconds) * share;
    let summary =
        format!("batched×{k}: {}", profiler.map(Profiler::summary).unwrap_or_default());
    Ok(results
        .into_iter()
        .enumerate()
        .map(|(r, (best, objective))| GpuRunResult {
            best,
            objective,
            evaluations: ensemble as u64 * (params.iterations + 1),
            t0: t0s[r],
            modeled_seconds: shared(Profiler::total_seconds),
            kernel_seconds: shared(Profiler::kernel_seconds),
            transfer_seconds: shared(Profiler::transfer_seconds),
            kernel_launches: gpu.kernel_launches(),
            profiler_summary: summary.clone(),
            timeline: Vec::new(),
            recovery: stats,
            convergence: None,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn params(iterations: u64) -> GpuSaParams {
        GpuSaParams { blocks: 2, block_size: 32, iterations, ..Default::default() }
    }

    fn random_instance(rng: &mut StdRng, n: usize) -> Instance {
        let p: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=20)).collect();
        let a: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=10)).collect();
        let b: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=15)).collect();
        let d = (p.iter().sum::<i64>() as f64 * 0.55) as i64;
        Instance::cdd_from_arrays(&p, &a, &b, d).unwrap()
    }

    #[test]
    fn batched_outcomes_are_byte_identical_to_solo_runs() {
        let mut rng = StdRng::seed_from_u64(2024);
        let entries: Vec<BatchEntry> = (0..3)
            .map(|i| BatchEntry { instance: random_instance(&mut rng, 14), seed: 100 + i })
            .collect();
        let p = params(120);
        let batched = run_gpu_sa_batch(&entries, &p).unwrap();
        assert_eq!(batched.len(), 3);
        for (e, b) in entries.iter().zip(&batched) {
            let solo = run_gpu_sa(&e.instance, &GpuSaParams { seed: e.seed, ..p.clone() }).unwrap();
            assert_eq!(b.best, solo.best, "seed {}", e.seed);
            assert_eq!(b.objective, solo.objective);
            assert_eq!(b.evaluations, solo.evaluations);
            assert_eq!(b.t0, solo.t0, "host-side T₀ must replicate bit-for-bit");
        }
    }

    #[test]
    fn fused_run_is_faster_than_the_sum_of_solo_runs() {
        let mut rng = StdRng::seed_from_u64(9);
        let entries: Vec<BatchEntry> = (0..4)
            .map(|i| BatchEntry { instance: random_instance(&mut rng, 10), seed: i })
            .collect();
        let p = params(80);
        let batched = run_gpu_sa_batch(&entries, &p).unwrap();
        let fused_total: f64 = batched.iter().map(|b| b.modeled_seconds).sum();
        let solo_total: f64 = entries
            .iter()
            .map(|e| {
                run_gpu_sa(&e.instance, &GpuSaParams { seed: e.seed, ..p.clone() })
                    .unwrap()
                    .modeled_seconds
            })
            .sum();
        assert!(
            fused_total < solo_total * 0.5,
            "fusion should at least halve launch-overhead-bound time: fused {fused_total} vs \
             solo {solo_total}"
        );
    }

    #[test]
    fn single_entry_delegates_to_the_solo_pipeline() {
        let inst = Instance::paper_example_cdd();
        let p = params(60);
        let batched = run_gpu_sa_batch(
            &[BatchEntry { instance: inst.clone(), seed: 5 }],
            &p,
        )
        .unwrap();
        let solo = run_gpu_sa(&inst, &GpuSaParams { seed: 5, ..p }).unwrap();
        assert_eq!(batched[0].best, solo.best);
        assert_eq!(batched[0].objective, solo.objective);
        assert_eq!(batched[0].modeled_seconds, solo.modeled_seconds);
        assert_eq!(batched[0].kernel_launches, solo.kernel_launches);
    }

    #[test]
    fn incompatible_batches_are_rejected() {
        let p = params(10);
        let mixed = [
            BatchEntry { instance: Instance::paper_example_cdd(), seed: 1 },
            BatchEntry { instance: Instance::paper_example_ucddcp(), seed: 2 },
        ];
        let err = run_gpu_sa_batch(&mixed, &p).unwrap_err();
        assert!(format!("{err}").contains("share problem kind"), "{err}");

        let faulted = GpuSaParams {
            fault: Some(cuda_sim::FaultPlan::with_rates(1, 0.05, 0.01, 0.01)),
            ..params(10)
        };
        let same = [
            BatchEntry { instance: Instance::paper_example_cdd(), seed: 1 },
            BatchEntry { instance: Instance::paper_example_cdd(), seed: 2 },
        ];
        let err = run_gpu_sa_batch(&same, &faulted).unwrap_err();
        assert!(format!("{err}").contains("fault"), "{err}");
    }

    #[test]
    fn empty_batch_returns_no_results() {
        assert!(run_gpu_sa_batch(&[], &params(10)).unwrap().is_empty());
    }

    #[test]
    fn ucddcp_batches_fuse_too() {
        let inst = Instance::paper_example_ucddcp();
        let entries: Vec<BatchEntry> =
            (0..2).map(|i| BatchEntry { instance: inst.clone(), seed: 40 + i }).collect();
        let p = params(80);
        let batched = run_gpu_sa_batch(&entries, &p).unwrap();
        for (e, b) in entries.iter().zip(&batched) {
            let solo = run_gpu_sa(&e.instance, &GpuSaParams { seed: e.seed, ..p.clone() }).unwrap();
            assert_eq!(b.best, solo.best);
            assert_eq!(b.objective, solo.objective);
        }
    }
}
