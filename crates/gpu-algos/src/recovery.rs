//! Resilience layer for the GPU pipelines: bounded launch retries, whole-run
//! device re-attempts under a reseeded fault plan, CPU-oracle validation of
//! device results, and graceful degradation to the CPU metaheuristics.
//!
//! The layering mirrors what a production campaign runner does on real
//! hardware:
//!
//! 1. **Launch retry** — transient launch failures and watchdog kills are
//!    retried in place up to [`RecoveryPolicy::max_launch_retries`] times
//!    (the bounded-backoff analogue; the simulator has no wall clock to
//!    sleep on, so the bound *is* the backoff). The injection streams
//!    advance per launch, so each retry sees fresh fault draws.
//! 2. **Device re-attempt** — if a run keeps failing (retries exhausted, or
//!    its result fails oracle validation beyond repair), the whole run is
//!    restarted on a fresh device, up to
//!    [`RecoveryPolicy::max_device_attempts`] times, with the fault plan
//!    reseeded per attempt so a doomed fault sequence is not replayed.
//! 3. **Oracle validation** — every returned result is re-evaluated with
//!    the exact CPU evaluator. A corrupted reduction winner is repaired by
//!    re-deriving the argmin over all device rows on the host.
//! 4. **CPU fallback** — after the device attempts are exhausted, the
//!    equivalent CPU metaheuristic (`cdd-meta`) produces the result, flagged
//!    in [`RecoveryStats::cpu_fallback`].

use crate::sa_pipeline::GpuRunResult;
use cdd_core::eval::SequenceEvaluator;
use cdd_core::{Cost, JobSequence, SuiteError};
use cuda_sim::{Buf, ExecBackend, FaultPlan, FaultStats, Kernel, LaunchConfig, LaunchError};

/// Knobs of the resilience layer.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// In-place retries of a transiently failed launch before the whole
    /// device attempt is abandoned.
    pub max_launch_retries: u32,
    /// Whole-run device attempts before degrading to the CPU fallback.
    pub max_device_attempts: u32,
    /// Whether to fall back to the CPU metaheuristic after all device
    /// attempts fail (when `false`, the last error is returned instead).
    pub cpu_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_launch_retries: 3, max_device_attempts: 3, cpu_fallback: true }
    }
}

/// What the resilience layer actually did during a run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RecoveryStats {
    /// Transiently failed launches that were retried.
    pub launch_retries: u64,
    /// Device attempts consumed (1 = clean first attempt).
    pub device_attempts: u32,
    /// Device results rejected by the CPU oracle and repaired on the host.
    pub oracle_rejections: u64,
    /// Whether the result came from the CPU fallback, not the device.
    pub cpu_fallback: bool,
    /// Faults injected across all device attempts.
    pub faults: FaultStats,
}

/// Convert a simulator launch error into the suite umbrella, preserving
/// transience (the orphan rule keeps this out of both defining crates).
/// A lost device maps to the dedicated [`SuiteError::DeviceLost`] variant:
/// it is *not* recoverable inside the pipeline (the device is gone, another
/// attempt on it cannot succeed), so [`run_with_recovery`] surfaces it
/// immediately to whoever owns the device lifecycle.
pub fn suite_device_error(e: &LaunchError) -> SuiteError {
    match e {
        LaunchError::DeviceLost { .. } => SuiteError::device_lost(e.to_string()),
        _ => SuiteError::device(e.to_string(), e.is_transient()),
    }
}

/// Launch `kernel`, retrying transient failures up to the policy's bound.
pub fn launch_with_retry<B: ExecBackend, K: Kernel>(
    gpu: &mut B,
    kernel: &K,
    cfg: LaunchConfig,
    policy: &RecoveryPolicy,
    stats: &mut RecoveryStats,
) -> Result<(), LaunchError> {
    let mut retries = 0;
    loop {
        match gpu.launch_kernel(kernel, cfg) {
            Ok(_) => return Ok(()),
            Err(e) if e.is_transient() && retries < policy.max_launch_retries => {
                retries += 1;
                stats.launch_retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Validate the claimed reduction winner against the CPU oracle; on
/// rejection, repair by re-deriving the argmin over *all* device rows on the
/// host (skipping rows bit flips pushed out of the permutation space).
///
/// Returns the oracle-verified `(sequence, objective)`, or
/// [`SuiteError::CorruptResult`] when not a single device row survives
/// validation.
#[allow(clippy::too_many_arguments)]
pub fn verified_best<B: ExecBackend, E: SequenceEvaluator + ?Sized>(
    gpu: &mut B,
    rows: Buf<u32>,
    n: usize,
    ensemble: usize,
    winner: usize,
    claimed: Cost,
    eval: &E,
    stats: &mut RecoveryStats,
) -> Result<(JobSequence, Cost), SuiteError> {
    if winner < ensemble {
        let row = gpu.d2h_range(rows, winner * n, n);
        if let Ok(seq) = JobSequence::from_vec(row) {
            let oracle = eval.evaluate(seq.as_slice());
            if oracle == claimed {
                return Ok((seq, oracle));
            }
        }
    }
    // The packed key, the winning row, or the energy it carried was
    // corrupted: the device's reduction cannot be trusted, so redo it on the
    // host over every personal-best row.
    stats.oracle_rejections += 1;
    let all = gpu.d2h(rows);
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
        SuiteError::corrupt(format!("none of the {ensemble} device rows is a valid permutation"))
    })
}

/// Drive a full pipeline run through the recovery layers: device attempts
/// under per-attempt reseeded fault plans, then the CPU fallback.
///
/// `attempt` performs one complete device run (it receives the plan for that
/// attempt and records launch retries / fault counters in the shared stats);
/// `cpu_fallback` computes the equivalent CPU result. The returned result
/// carries the accumulated [`RecoveryStats`].
pub fn run_with_recovery(
    policy: &RecoveryPolicy,
    fault: Option<&FaultPlan>,
    mut attempt: impl FnMut(Option<FaultPlan>, &mut RecoveryStats) -> Result<GpuRunResult, SuiteError>,
    cpu_fallback: impl FnOnce() -> GpuRunResult,
) -> Result<GpuRunResult, SuiteError> {
    let mut stats = RecoveryStats::default();
    let attempts = policy.max_device_attempts.max(1);
    let mut last_err = None;
    for k in 0..attempts {
        stats.device_attempts = k + 1;
        // Attempt 0 runs the plan as given (reproducibility of the campaign
        // cell); later attempts decorrelate so the same doomed fault
        // sequence is not replayed verbatim.
        let plan = fault.map(|p| {
            if k == 0 {
                p.clone()
            } else {
                p.reseeded(p.seed ^ 0x9e3779b97f4a7c15u64.wrapping_mul(k as u64))
            }
        });
        match attempt(plan, &mut stats) {
            Ok(mut r) => {
                r.recovery = stats;
                return Ok(r);
            }
            Err(e) if e.is_recoverable() => last_err = Some(e),
            Err(e) => return Err(e),
        }
    }
    if policy.cpu_fallback {
        stats.cpu_fallback = true;
        let mut r = cpu_fallback();
        r.recovery = stats;
        Ok(r)
    } else {
        Err(last_err.unwrap_or_else(|| SuiteError::corrupt("no device attempt executed")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_sim::{DeviceSpec, Gpu};

    fn dummy_result(tag: f64) -> GpuRunResult {
        GpuRunResult::new(JobSequence::from_vec(vec![0]).unwrap(), 0, 0, tag, 0, None)
    }

    #[test]
    fn first_success_short_circuits() {
        let policy = RecoveryPolicy::default();
        let r = run_with_recovery(
            &policy,
            None,
            |plan, _| {
                assert!(plan.is_none());
                Ok(dummy_result(1.0))
            },
            || unreachable!("fallback must not run"),
        )
        .unwrap();
        assert_eq!(r.recovery.device_attempts, 1);
        assert!(!r.recovery.cpu_fallback);
    }

    #[test]
    fn attempts_reseed_then_fall_back() {
        let policy = RecoveryPolicy { max_device_attempts: 3, ..Default::default() };
        let base = FaultPlan::with_rates(10, 0.5, 0.0, 0.0);
        let mut seen = Vec::new();
        let r = run_with_recovery(
            &policy,
            Some(&base),
            |plan, _| {
                seen.push(plan.unwrap().seed);
                Err(SuiteError::device("injected", true))
            },
            || dummy_result(2.0),
        )
        .unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], base.seed, "attempt 0 must run the plan as given");
        assert_eq!(seen.iter().collect::<std::collections::HashSet<_>>().len(), 3);
        assert!(r.recovery.cpu_fallback);
        assert_eq!(r.recovery.device_attempts, 3);
        assert_eq!(r.t0, 2.0);
    }

    #[test]
    fn unrecoverable_errors_abort_immediately() {
        let policy = RecoveryPolicy::default();
        let mut calls = 0;
        let err = run_with_recovery(
            &policy,
            None,
            |_, _| {
                calls += 1;
                Err(SuiteError::device("bad launch config", false))
            },
            || unreachable!("fallback must not mask bugs"),
        )
        .unwrap_err();
        assert_eq!(calls, 1);
        assert!(!err.is_recoverable());
    }

    #[test]
    fn device_lost_escapes_recovery_immediately() {
        // A crashed device must surface to the supervision layer — not be
        // retried on the same (dead) device, and not silently degrade to
        // the CPU fallback (the service decides what a degraded answer is).
        let policy = RecoveryPolicy::default();
        let mut calls = 0;
        let err = run_with_recovery(
            &policy,
            None,
            |_, _| {
                calls += 1;
                Err(SuiteError::device_lost("device lost: crash at launch 0"))
            },
            || unreachable!("a lost device must not reach the CPU fallback"),
        )
        .unwrap_err();
        assert_eq!(calls, 1, "no same-device re-attempts after a crash");
        assert!(matches!(err, SuiteError::DeviceLost { .. }), "got {err:?}");
    }

    #[test]
    fn lost_device_launch_maps_to_suite_device_lost() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(1);
        // Horizon 1 pins the crash to launch index 0: the very first launch
        // observes the dead device, and launch_with_retry must not retry it
        // (DeviceLost is not transient).
        gpu.set_fault_plan(Some(
            FaultPlan::disabled().reseeded(1).with_worker_crash(1.0, 1),
        ));
        let kernel = AddOne { buf };
        let mut stats = RecoveryStats::default();
        let err = launch_with_retry(
            &mut gpu,
            &kernel,
            LaunchConfig::linear(1, 1),
            &RecoveryPolicy::default(),
            &mut stats,
        )
        .unwrap_err();
        assert!(matches!(err, LaunchError::DeviceLost { .. }), "{err}");
        assert_eq!(stats.launch_retries, 0, "dead devices are not retried in place");
        let suite = suite_device_error(&err);
        assert!(matches!(suite, SuiteError::DeviceLost { .. }));
        assert!(!suite.is_recoverable());
        assert!(suite.to_string().contains("device lost"));
    }

    #[test]
    fn fallback_disabled_returns_last_error() {
        let policy =
            RecoveryPolicy { max_device_attempts: 2, cpu_fallback: false, ..Default::default() };
        let err = run_with_recovery(
            &policy,
            None,
            |_, _| Err(SuiteError::corrupt("always")),
            || unreachable!(),
        )
        .unwrap_err();
        assert!(matches!(err, SuiteError::CorruptResult { .. }));
    }

    #[test]
    fn launch_retry_survives_transient_failures() {
        // Rate 0.5 with 16 retries per launch: a run of 17 consecutive
        // failures is essentially impossible, so every launch eventually
        // executes exactly once and the final memory matches a clean run.
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(4);
        gpu.h2d(buf, &[1, 2, 3, 4]);
        gpu.set_fault_plan(Some(FaultPlan::with_rates(21, 0.5, 0.0, 0.0)));
        let policy = RecoveryPolicy { max_launch_retries: 16, ..Default::default() };
        let mut stats = RecoveryStats::default();
        let kernel = AddOne { buf };
        for _ in 0..20 {
            launch_with_retry(&mut gpu, &kernel, LaunchConfig::linear(1, 4), &policy, &mut stats)
                .unwrap();
        }
        assert!(stats.launch_retries > 0, "rate 0.5 over 20 launches must retry");
        assert_eq!(gpu.d2h(buf), vec![21, 22, 23, 24], "each launch executed exactly once");
    }

    struct AddOne {
        buf: Buf<i64>,
    }
    impl Kernel for AddOne {
        fn name(&self) -> &str {
            "add_one"
        }
        fn phase<C: cuda_sim::DeviceCtx>(&self, _p: usize, ctx: &mut C) {
            let gid = ctx.global_id();
            let v: i64 = ctx.read(self.buf, gid);
            ctx.write(self.buf, gid, v.wrapping_add(1));
        }
    }
}
