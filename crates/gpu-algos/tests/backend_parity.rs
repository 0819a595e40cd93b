//! Cross-backend parity: the native host backend and the cuda-sim backend
//! must produce **byte-identical outcomes** for every pipeline and both
//! problem kinds (DESIGN.md §16).
//!
//! The outcome set under the contract: best sequence, objective,
//! evaluation count, `T₀` and the kernel-launch count. Modeled seconds,
//! the profiler summary and the timeline are *sim-only diagnostics* — the
//! native backend reports zeros/empties for them by design, so they are
//! asserted to be absent rather than equal.
//!
//! Sim-only capabilities (fault injection, convergence telemetry) must be
//! rejected — not silently dropped — when a request aims them at the
//! native backend; the rejection tests pin that down.

use cdd_core::{Algorithm, Instance, SuiteError, Time};
use cdd_gpu::{
    run_gpu_dpso, run_gpu_sa, run_gpu_sa_batch, run_gpu_sa_sync, run_gpu_solve, Backend,
    BatchEntry, DeltaConfig, GpuDpsoParams, GpuRunResult, GpuSaParams, GpuSolveSpec,
};
use cdd_instances::InstanceId;
use cuda_sim::{FaultPlan, SimParallelism, TelemetryConfig};
use proptest::prelude::*;

/// The outcome fields both backends must agree on, bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    best: Vec<u32>,
    objective: i64,
    evaluations: u64,
    t0_bits: u64,
    kernel_launches: usize,
}

impl From<&GpuRunResult> for Outcome {
    fn from(r: &GpuRunResult) -> Self {
        Outcome {
            best: r.best.as_slice().to_vec(),
            objective: r.objective,
            evaluations: r.evaluations,
            t0_bits: r.t0.to_bits(),
            kernel_launches: r.kernel_launches,
        }
    }
}

/// The native result must carry no simulator diagnostics.
fn assert_native_is_diagnostic_free(r: &GpuRunResult) {
    assert_eq!(r.modeled_seconds, 0.0, "native has no modeled clock");
    assert_eq!(r.kernel_seconds, 0.0);
    assert_eq!(r.transfer_seconds, 0.0);
    assert!(r.profiler_summary.is_empty(), "native has no profiler");
    assert!(r.timeline.is_empty(), "native has no timeline");
}

fn sa_params(backend: Backend, par: SimParallelism) -> GpuSaParams {
    let mut p =
        GpuSaParams { blocks: 2, block_size: 32, iterations: 80, backend, ..Default::default() };
    p.device.parallelism = par;
    p
}

fn both_kinds() -> [Instance; 2] {
    [Instance::paper_example_cdd(), Instance::paper_example_ucddcp()]
}

#[test]
fn sa_native_matches_sim_for_both_kinds() {
    for inst in both_kinds() {
        let sim = run_gpu_sa(&inst, &sa_params(Backend::Sim, SimParallelism::Serial)).unwrap();
        let native =
            run_gpu_sa(&inst, &sa_params(Backend::Native, SimParallelism::Serial)).unwrap();
        assert_eq!(Outcome::from(&sim), Outcome::from(&native), "kind {:?}", inst.kind());
        assert_native_is_diagnostic_free(&native);
        assert!(sim.modeled_seconds > 0.0, "sim keeps its modeled clock");
    }
}

#[test]
fn sync_sa_native_matches_sim_for_both_kinds() {
    for inst in both_kinds() {
        let sim =
            run_gpu_sa_sync(&inst, &sa_params(Backend::Sim, SimParallelism::Serial), 8, 10)
                .unwrap();
        let native =
            run_gpu_sa_sync(&inst, &sa_params(Backend::Native, SimParallelism::Serial), 8, 10)
                .unwrap();
        assert_eq!(Outcome::from(&sim), Outcome::from(&native), "kind {:?}", inst.kind());
        assert_native_is_diagnostic_free(&native);
    }
}

#[test]
fn dpso_native_matches_sim_for_both_kinds() {
    for inst in both_kinds() {
        let params = |backend| GpuDpsoParams {
            blocks: 2,
            block_size: 32,
            iterations: 80,
            backend,
            ..Default::default()
        };
        let sim = run_gpu_dpso(&inst, &params(Backend::Sim)).unwrap();
        let native = run_gpu_dpso(&inst, &params(Backend::Native)).unwrap();
        assert_eq!(Outcome::from(&sim), Outcome::from(&native), "kind {:?}", inst.kind());
        assert_native_is_diagnostic_free(&native);
    }
}

#[test]
fn batched_sa_native_matches_sim_per_request() {
    for inst in both_kinds() {
        let entries: Vec<BatchEntry> =
            (0..3).map(|i| BatchEntry { instance: inst.clone(), seed: 40 + i }).collect();
        let sim =
            run_gpu_sa_batch(&entries, &sa_params(Backend::Sim, SimParallelism::Serial)).unwrap();
        let native =
            run_gpu_sa_batch(&entries, &sa_params(Backend::Native, SimParallelism::Serial))
                .unwrap();
        assert_eq!(sim.len(), native.len());
        for (r, (s, nv)) in sim.iter().zip(&native).enumerate() {
            assert_eq!(Outcome::from(s), Outcome::from(nv), "request {r}, kind {:?}", inst.kind());
        }
    }
}

/// The delta-evaluation path runs the same on both backends (its cache
/// lives in device memory, so backend identity covers it too).
#[test]
fn delta_scoring_native_matches_sim() {
    let inst = Instance::paper_example_cdd();
    let with_delta = |backend| GpuSaParams {
        delta: DeltaConfig { enabled: true, resync_every: 16 },
        ..sa_params(backend, SimParallelism::Serial)
    };
    let sim = run_gpu_sa(&inst, &with_delta(Backend::Sim)).unwrap();
    let native = run_gpu_sa(&inst, &with_delta(Backend::Native)).unwrap();
    assert_eq!(Outcome::from(&sim), Outcome::from(&native));
}

/// The unified solve entry point routes `backend` for both algorithms.
#[test]
fn solve_entry_point_routes_backends() {
    let inst = Instance::paper_example_cdd();
    for algorithm in [Algorithm::Sa, Algorithm::Dpso] {
        let spec = |backend| GpuSolveSpec { blocks: 2, block_size: 32, backend, ..Default::default() };
        let sim = run_gpu_solve(&inst, algorithm, 60, 9, &spec(Backend::Sim)).unwrap();
        let native = run_gpu_solve(&inst, algorithm, 60, 9, &spec(Backend::Native)).unwrap();
        assert_eq!(Outcome::from(&sim), Outcome::from(&native), "{algorithm:?}");
    }
}

/// Parity at the sizes the benchmark serves (n = 200 and 500), where the
/// native path reads candidate, personal-best and swarm-best rows in place:
/// SA and DPSO on CDD at h = 0.2 and 0.8 and on UCDDCP, at a small
/// geometry.
#[test]
fn parity_holds_at_benchmark_sizes() {
    let spec = |backend| GpuSolveSpec { blocks: 2, block_size: 32, backend, ..Default::default() };
    for n in [200, 500] {
        let ids =
            [InstanceId::cdd(n, 1, 0.2), InstanceId::cdd(n, 1, 0.8), InstanceId::ucddcp(n, 1)];
        for id in ids {
            let inst = id.instantiate();
            for algorithm in [Algorithm::Sa, Algorithm::Dpso] {
                let sim = run_gpu_solve(&inst, algorithm, 12, 2016, &spec(Backend::Sim)).unwrap();
                let native =
                    run_gpu_solve(&inst, algorithm, 12, 2016, &spec(Backend::Native)).unwrap();
                assert_eq!(Outcome::from(&sim), Outcome::from(&native), "{id} {algorithm:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sim-only capability rejection
// ---------------------------------------------------------------------------

fn assert_rejected(r: Result<GpuRunResult, SuiteError>, what: &str) {
    match r {
        Err(SuiteError::Rejected { reason }) => {
            assert!(reason.contains("sim-only"), "{what}: reason names the sim-only capability")
        }
        other => panic!("{what}: expected rejection, got {other:?}"),
    }
}

#[test]
fn native_rejects_fault_plans() {
    let inst = Instance::paper_example_cdd();
    let p = GpuSaParams {
        fault: Some(FaultPlan::with_rates(7, 0.05, 0.01, 0.01)),
        ..sa_params(Backend::Native, SimParallelism::Serial)
    };
    assert_rejected(run_gpu_sa(&inst, &p), "sa fault plan");
    assert_rejected(run_gpu_sa_sync(&inst, &p, 4, 20), "sync fault plan");
    let dp = GpuDpsoParams {
        blocks: 2,
        block_size: 32,
        iterations: 40,
        backend: Backend::Native,
        fault: Some(FaultPlan::with_rates(7, 0.05, 0.01, 0.01)),
        ..Default::default()
    };
    assert_rejected(run_gpu_dpso(&inst, &dp), "dpso fault plan");
}

#[test]
fn native_rejects_telemetry() {
    let inst = Instance::paper_example_cdd();
    let p = GpuSaParams {
        telemetry: TelemetryConfig::every(5),
        ..sa_params(Backend::Native, SimParallelism::Serial)
    };
    assert_rejected(run_gpu_sa(&inst, &p), "sa telemetry");
    assert_rejected(run_gpu_sa_sync(&inst, &p, 4, 20), "sync telemetry");
    let dp = GpuDpsoParams {
        blocks: 2,
        block_size: 32,
        iterations: 40,
        backend: Backend::Native,
        telemetry: TelemetryConfig::every(5),
        ..Default::default()
    };
    assert_rejected(run_gpu_dpso(&inst, &dp), "dpso telemetry");
}

/// An *inert* fault plan (all rates zero) is not a fault request; it runs
/// on native and still matches the simulator.
#[test]
fn native_accepts_inert_fault_plans() {
    let inst = Instance::paper_example_cdd();
    let with_plan = |backend| GpuSaParams {
        fault: Some(FaultPlan::disabled()),
        ..sa_params(backend, SimParallelism::Serial)
    };
    let sim = run_gpu_sa(&inst, &with_plan(Backend::Sim)).unwrap();
    let native = run_gpu_sa(&inst, &with_plan(Backend::Native)).unwrap();
    assert_eq!(Outcome::from(&sim), Outcome::from(&native));
}

// ---------------------------------------------------------------------------
// Property: parity holds across pipeline × kind × n × host threads
// ---------------------------------------------------------------------------

fn random_instance(max_n: usize) -> impl Strategy<Value = Instance> {
    (2..=max_n, any::<bool>()).prop_flat_map(|(n, ucddcp)| {
        (
            prop::collection::vec(1..=20i64, n),
            prop::collection::vec(0..=10i64, n),
            prop::collection::vec(0..=15i64, n),
            prop::collection::vec(0..=8i64, n),
            0.2..1.2f64,
        )
            .prop_map(move |(p, a, b, g, h)| {
                if ucddcp {
                    let m: Vec<i64> = p.iter().map(|&x| (x - 1).clamp(1, 3)).collect();
                    let d = p.iter().sum::<Time>(); // UCDDCP requires Σp ≤ d
                    Instance::ucddcp_from_arrays(&p, &m, &a, &b, &g, d).expect("valid")
                } else {
                    let d = (p.iter().sum::<Time>() as f64 * h) as Time;
                    Instance::cdd_from_arrays(&p, &a, &b, d).expect("valid")
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary instances (either kind, any n), any pipeline, and any
    /// host-thread count, the native outcome equals the sim outcome bit for
    /// bit. Host threads are a pure wall-clock knob on both backends.
    #[test]
    fn parity_holds_everywhere(
        inst in random_instance(16),
        pipeline in 0..3usize,
        threads_idx in 0..3usize,
        seed in any::<u64>(),
    ) {
        let threads = [
            SimParallelism::Serial,
            SimParallelism::Threads(2),
            SimParallelism::Threads(5),
        ][threads_idx];
        let params = |backend| GpuSaParams {
            seed,
            iterations: 30,
            ..sa_params(backend, threads)
        };
        let (sim, native) = match pipeline {
            0 => (
                run_gpu_sa(&inst, &params(Backend::Sim)).unwrap(),
                run_gpu_sa(&inst, &params(Backend::Native)).unwrap(),
            ),
            1 => (
                run_gpu_sa_sync(&inst, &params(Backend::Sim), 5, 6).unwrap(),
                run_gpu_sa_sync(&inst, &params(Backend::Native), 5, 6).unwrap(),
            ),
            _ => {
                let dp = |backend| GpuDpsoParams {
                    blocks: 2,
                    block_size: 32,
                    iterations: 30,
                    seed,
                    backend,
                    ..Default::default()
                };
                (
                    run_gpu_dpso(&inst, &dp(Backend::Sim)).unwrap(),
                    run_gpu_dpso(&inst, &dp(Backend::Native)).unwrap(),
                )
            }
        };
        prop_assert_eq!(Outcome::from(&sim), Outcome::from(&native));
    }
}
