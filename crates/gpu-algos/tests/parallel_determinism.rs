//! The determinism contract of block dispatch (DESIGN.md §11).
//!
//! Both backends run every launch's blocks serially, in block-index
//! order, on the calling thread. Every observable output of a pipeline
//! run — the winning sequence, the objective, the modeled clocks
//! bit-for-bit, the launch and evaluation counts, the fault-recovery
//! statistics, and the decoded convergence telemetry — must be
//! byte-identical when the run is repeated. The
//! golden-value test additionally pins today's engine to the pre-parallel
//! (serial-only) engine: the numbers below were captured from the commit
//! before the dispatch rewrite, and must hold in debug and release builds.
//! Native-versus-simulator byte identity is covered by `backend_parity.rs`.

use cdd_gpu::{run_gpu_dpso, run_gpu_sa, GpuDpsoParams, GpuRunResult, GpuSaParams};
use cdd_core::Instance;
use cuda_sim::{FaultPlan, TelemetryConfig};

/// Everything observable about a run, with floats pinned to their bits.
#[derive(Debug, PartialEq)]
struct Observed {
    best: Vec<u32>,
    objective: i64,
    evaluations: u64,
    t0_bits: u64,
    modeled_bits: u64,
    kernel_bits: u64,
    transfer_bits: u64,
    kernel_launches: usize,
    profiler_summary: String,
    recovery: cdd_gpu::RecoveryStats,
    convergence: Option<cdd_gpu::ConvergenceTrace>,
}

impl Observed {
    fn of(r: &GpuRunResult) -> Observed {
        Observed {
            best: r.best.as_slice().to_vec(),
            objective: r.objective,
            evaluations: r.evaluations,
            t0_bits: r.t0.to_bits(),
            modeled_bits: r.modeled_seconds.to_bits(),
            kernel_bits: r.kernel_seconds.to_bits(),
            transfer_bits: r.transfer_seconds.to_bits(),
            kernel_launches: r.kernel_launches,
            profiler_summary: r.profiler_summary.clone(),
            recovery: r.recovery,
            convergence: r.convergence.clone(),
        }
    }
}

fn sa_params() -> GpuSaParams {
    GpuSaParams {
        blocks: 2,
        block_size: 32,
        iterations: 100,
        telemetry: TelemetryConfig::every(5),
        ..GpuSaParams::default()
    }
}

fn dpso_params() -> GpuDpsoParams {
    GpuDpsoParams {
        blocks: 2,
        block_size: 32,
        iterations: 100,
        telemetry: TelemetryConfig::every(5),
        ..GpuDpsoParams::default()
    }
}

/// A repeated SA run is byte-identical, convergence telemetry included.
#[test]
fn sa_repeats_byte_identically() {
    let inst = Instance::paper_example_cdd();
    let baseline = Observed::of(&run_gpu_sa(&inst, &sa_params()).unwrap());
    assert!(baseline.convergence.is_some(), "telemetry must be on for this test to bite");
    let run = Observed::of(&run_gpu_sa(&inst, &sa_params()).unwrap());
    assert_eq!(baseline, run, "SA diverged on a repeated run");
}

/// As above, for DPSO.
#[test]
fn dpso_repeats_byte_identically() {
    let inst = Instance::paper_example_cdd();
    let baseline = Observed::of(&run_gpu_dpso(&inst, &dpso_params()).unwrap());
    assert!(baseline.convergence.is_some(), "telemetry must be on for this test to bite");
    let run = Observed::of(&run_gpu_dpso(&inst, &dpso_params()).unwrap());
    assert_eq!(baseline, run, "DPSO diverged on a repeated run");
}

/// Golden values captured from the pre-parallel engine (the commit before
/// the dispatch rewrite), with the exact same instance and parameters. A
/// failure here means the engine changed *results*, not just wall-clock.
#[test]
fn results_match_the_pre_parallel_engine_golden_values() {
    let inst = Instance::paper_example_cdd();

    let p = GpuSaParams { blocks: 2, block_size: 32, iterations: 100, ..GpuSaParams::default() };
    let sa = run_gpu_sa(&inst, &p).unwrap();
    assert_eq!(sa.objective, 81, "SA objective");
    assert_eq!(sa.best.as_slice(), &[0, 1, 2, 3, 4], "SA sequence");
    assert_eq!(sa.evaluations, 6464, "SA evaluations");
    assert_eq!(sa.kernel_launches, 401, "SA launches");
    assert_eq!(sa.t0.to_bits(), 0x4038603b57f93aea, "SA t0");
    // Clock pins re-captured from the serial engine after the batching
    // PR's charge-model adjustments (the kernel-second pins drifted by
    // ~1e-7 modeled seconds there and the stale values were left
    // behind — objective/sequence/evaluations/launches/t0/transfer
    // never moved).
    assert_eq!(sa.modeled_seconds.to_bits(), 0x3f6195174ead7747, "SA modeled");
    assert_eq!(sa.kernel_seconds.to_bits(), 0x3f60982e7704cb0b, "SA kernel");
    assert_eq!(sa.transfer_seconds.to_bits(), 0x3f1f9d1af51587f0, "SA transfer");

    let p =
        GpuDpsoParams { blocks: 2, block_size: 32, iterations: 100, ..GpuDpsoParams::default() };
    let dp = run_gpu_dpso(&inst, &p).unwrap();
    assert_eq!(dp.objective, 81, "DPSO objective");
    assert_eq!(dp.best.as_slice(), &[0, 1, 2, 3, 4], "DPSO sequence");
    assert_eq!(dp.evaluations, 6464, "DPSO evaluations");
    assert_eq!(dp.kernel_launches, 504, "DPSO launches");
    assert_eq!(dp.modeled_seconds.to_bits(), 0x3f65cca9a69818c0, "DPSO modeled");
    assert_eq!(dp.kernel_seconds.to_bits(), 0x3f64cfc0ceef6c84, "DPSO kernel");
}

/// Fault injection — including read bit-flips, whose per-thread streams
/// are pre-drawn per launch — is deterministic: the same plan produces the
/// same recovery story and the same final answer on a repeated run.
#[test]
fn faulted_runs_repeat_byte_identically() {
    let inst = Instance::paper_example_cdd();
    let plan = FaultPlan::with_rates(9, 0.05, 0.02, 0.02);

    let observe = || {
        let p = GpuSaParams { fault: Some(plan.clone()), ..sa_params() };
        Observed::of(&run_gpu_sa(&inst, &p).unwrap())
    };

    let baseline = observe();
    assert!(
        baseline.recovery.launch_retries > 0 || baseline.recovery.device_attempts > 1,
        "plan too mild to exercise the fault path: {:?}",
        baseline.recovery
    );
    assert_eq!(baseline, observe(), "faulted SA diverged on a repeated run");
}
