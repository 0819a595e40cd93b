//! Unified pipeline entry point: run one solve request on one device
//! without any campaign plumbing.
//!
//! The campaign runner (`cdd-bench`) and the solver service (`cdd-service`)
//! both need "run *this algorithm* with *this budget and seed* on *this
//! device*" as a single call. [`run_gpu_solve`] is that call: it maps a
//! [`cdd_core::Algorithm`] + budget + seed onto the SA or DPSO pipeline
//! under a shared device/geometry/fault/recovery configuration
//! ([`GpuSolveSpec`]), leaving the algorithm-specific tuning knobs
//! (cooling, `Pert`, swarm coefficients) at the paper's defaults.

use crate::dpso_pipeline::{run_gpu_dpso, GpuDpsoParams};
use crate::recovery::RecoveryPolicy;
use crate::sa_pipeline::{run_gpu_sa, GpuRunResult, GpuSaParams};
use cdd_core::{Algorithm, Instance, SuiteError};
use cuda_sim::{Backend, DeviceSpec, FaultPlan, TelemetryConfig};

/// Device, geometry and resilience configuration shared by every solve a
/// caller dispatches — everything about *where and how safely* to run, as
/// opposed to *what* to run (which the request supplies).
#[derive(Debug, Clone)]
pub struct GpuSolveSpec {
    /// Grid size (the paper fixes 4 blocks).
    pub blocks: usize,
    /// Block size (192 in the paper).
    pub block_size: usize,
    /// Simulated device.
    pub device: DeviceSpec,
    /// Optional fault-injection plan installed for the run.
    pub fault: Option<FaultPlan>,
    /// Retry / re-attempt / fallback policy.
    pub recovery: RecoveryPolicy,
    /// Convergence-telemetry policy (disabled by default; sampling changes
    /// no result — see `cuda_sim::telemetry`).
    pub telemetry: TelemetryConfig,
    /// Execution backend: the simulator (default) or the native host path.
    /// Byte-identical outcomes by contract; fault injection and telemetry
    /// are sim-only and rejected on native.
    pub backend: Backend,
}

impl Default for GpuSolveSpec {
    fn default() -> Self {
        GpuSolveSpec {
            blocks: 4,
            block_size: 192,
            device: DeviceSpec::gt560m(),
            fault: None,
            recovery: RecoveryPolicy::default(),
            telemetry: TelemetryConfig::disabled(),
            backend: Backend::default(),
        }
    }
}

impl GpuSolveSpec {
    /// Ensemble size (threads = chains = particles).
    pub fn ensemble(&self) -> usize {
        self.blocks * self.block_size
    }
}

/// Run one solve (algorithm + budget + seed) under `spec`. Dispatches to
/// the SA or DPSO pipeline; both arrive wrapped in the full resilience
/// layer (launch retries, reseeded device re-attempts, oracle validation,
/// CPU fallback) exactly as the campaign runner gets them.
pub fn run_gpu_solve(
    inst: &Instance,
    algorithm: Algorithm,
    iterations: u64,
    seed: u64,
    spec: &GpuSolveSpec,
) -> Result<GpuRunResult, SuiteError> {
    match algorithm {
        Algorithm::Sa => run_gpu_sa(
            inst,
            &GpuSaParams {
                blocks: spec.blocks,
                block_size: spec.block_size,
                iterations,
                seed,
                device: spec.device.clone(),
                fault: spec.fault.clone(),
                recovery: spec.recovery.clone(),
                telemetry: spec.telemetry,
                backend: spec.backend,
                ..Default::default()
            },
        ),
        Algorithm::Dpso => run_gpu_dpso(
            inst,
            &GpuDpsoParams {
                blocks: spec.blocks,
                block_size: spec.block_size,
                iterations,
                seed,
                device: spec.device.clone(),
                fault: spec.fault.clone(),
                recovery: spec.recovery.clone(),
                telemetry: spec.telemetry,
                backend: spec.backend,
                ..Default::default()
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_core::eval::evaluator_for;

    fn small_spec() -> GpuSolveSpec {
        GpuSolveSpec { blocks: 1, block_size: 32, ..Default::default() }
    }

    #[test]
    fn dispatches_both_algorithms() {
        let inst = Instance::paper_example_cdd();
        let sa = run_gpu_solve(&inst, Algorithm::Sa, 100, 7, &small_spec()).unwrap();
        let dpso = run_gpu_solve(&inst, Algorithm::Dpso, 100, 7, &small_spec()).unwrap();
        assert!(sa.objective > 0 && sa.modeled_seconds > 0.0);
        assert!(dpso.objective > 0 && dpso.modeled_seconds > 0.0);
        // SA launches 4 kernels per generation (+1 initial fitness); DPSO's
        // generation structure differs, so the two really took different paths.
        assert_eq!(sa.kernel_launches, 1 + 4 * 100);
        assert_ne!(sa.kernel_launches, dpso.kernel_launches);
    }

    #[test]
    fn matches_direct_pipeline_calls_bit_for_bit() {
        let inst = Instance::paper_example_ucddcp();
        let spec = small_spec();
        let unified = run_gpu_solve(&inst, Algorithm::Sa, 120, 3, &spec).unwrap();
        let direct = run_gpu_sa(
            &inst,
            &GpuSaParams {
                blocks: spec.blocks,
                block_size: spec.block_size,
                iterations: 120,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(unified.objective, direct.objective);
        assert_eq!(unified.best, direct.best);
        assert_eq!(unified.modeled_seconds, direct.modeled_seconds);
    }

    #[test]
    fn faulted_solve_is_still_oracle_exact() {
        let inst = Instance::paper_example_cdd();
        let spec = GpuSolveSpec {
            fault: Some(FaultPlan::with_rates(5, 0.05, 0.01, 0.02)),
            ..small_spec()
        };
        let r = run_gpu_solve(&inst, Algorithm::Sa, 80, 11, &spec).unwrap();
        let eval = evaluator_for(&inst);
        assert_eq!(eval.evaluate(r.best.as_slice()), r.objective);
    }
}
