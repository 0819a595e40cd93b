//! End-to-end tests of the solver service: admission control, cache
//! bit-identity, coalescing, per-device fault isolation, deadlines and the
//! cross-run determinism contract.

use cdd_core::{Algorithm, SolveRequest, SuiteError};
use cdd_gpu::{run_gpu_solve, GpuSolveSpec, RecoveryPolicy};
use cdd_instances::InstanceId;
use cdd_service::{
    BreakerConfig, RequestOutcome, ServiceConfig, SolverService, SupervisorConfig, Ticket,
};
use cuda_sim::FaultPlan;
use std::collections::BTreeMap;
use std::sync::mpsc::{self, TryRecvError};
use std::time::Duration;

fn small_config(devices: usize) -> ServiceConfig {
    ServiceConfig { devices, blocks: 1, block_size: 32, ..Default::default() }
}

fn request(n: usize, k: u32, algo: Algorithm, iterations: u64, seed: u64) -> SolveRequest {
    SolveRequest::new(InstanceId::ucddcp(n, k).instantiate(), algo, iterations, seed)
}

#[test]
fn cached_response_is_bit_identical_to_a_fresh_solve() {
    let service = SolverService::start(small_config(1));
    let req = request(10, 1, Algorithm::Sa, 120, 7);

    let fresh = service.solve(req.clone()).expect("clean solve succeeds");
    assert!(!fresh.cache_hit);
    assert_eq!(fresh.device, Some(0));

    let cached = service.solve(req.clone()).expect("cached solve succeeds");
    assert!(cached.cache_hit);
    assert_eq!(cached.device, None);
    assert_eq!(cached.objective, fresh.objective, "fitness is bit-identical");
    assert_eq!(cached.sequence, fresh.sequence, "schedule is bit-identical");

    // …and both match a direct pipeline call outside the service.
    let direct = run_gpu_solve(
        &req.instance,
        req.algorithm,
        req.iterations,
        req.seed,
        &GpuSolveSpec { blocks: 1, block_size: 32, ..Default::default() },
    )
    .expect("direct run succeeds");
    assert_eq!(fresh.objective, direct.objective);
    assert_eq!(fresh.sequence, direct.best);

    let report = service.shutdown();
    assert_eq!(report.completed, 2);
    assert_eq!(report.cache.hits, 1);
    assert_eq!(report.cache.misses, 1);
    assert_eq!(report.devices.len(), 1);
    assert_eq!(report.devices[0].usage.requests, 1, "the cache saved one dispatch");
}

#[test]
fn queue_saturation_returns_admission_error_not_a_hang() {
    let service = SolverService::start(ServiceConfig {
        devices: 1,
        queue_capacity: 2,
        ..small_config(1)
    });

    // Occupy the single device with a slow request, and wait until the
    // worker has popped it, so the queue is empty again, but not finished
    // it, so the fillers cannot be popped.
    let slow = service.submit(request(30, 1, Algorithm::Sa, 2000, 1)).expect("admitted");
    loop {
        let snap = service.snapshot();
        assert_eq!(snap.completed, 0, "the slow request finished before it was seen running");
        if snap.queue_depth == 0 {
            break;
        }
        std::thread::yield_now();
    }

    // Two distinct fillers fit; the third must be refused immediately.
    let fill_a = service.submit(request(10, 1, Algorithm::Sa, 100, 2)).expect("queued");
    let fill_b = service.submit(request(10, 1, Algorithm::Sa, 100, 3)).expect("queued");
    let err = service.submit(request(10, 1, Algorithm::Sa, 100, 4)).unwrap_err();
    assert!(matches!(err, SuiteError::Rejected { .. }), "got {err:?}");

    for ticket in [slow, fill_a, fill_b] {
        service.wait(ticket).result.expect("admitted requests still complete");
    }
    let report = service.shutdown();
    assert_eq!(report.rejected, 1);
    assert_eq!(report.completed, 3);
    assert_eq!(report.queue.peak_depth, 2);
}

#[test]
fn identical_inflight_requests_coalesce_onto_one_dispatch() {
    let service = SolverService::start(small_config(1));
    let req = request(20, 1, Algorithm::Sa, 1500, 77);
    let first = service.submit(req.clone()).expect("admitted");
    let second = service.submit(req.clone()).expect("admitted");

    let a = service.wait(first).result.expect("solve succeeds");
    let b = service.wait(second).result.expect("solve succeeds");
    assert_eq!(a.objective, b.objective);
    assert_eq!(a.sequence, b.sequence);
    assert!(b.cache_hit, "the rider is flagged as served from the cache layer");

    let report = service.shutdown();
    assert_eq!(report.cache.misses, 1, "exactly one fresh dispatch");
    assert_eq!(report.cache.hits + report.cache.coalesced, 1);
    assert_eq!(report.completed, 2);
}

#[test]
fn a_faulted_device_only_fails_the_requests_routed_to_it() {
    let lethal = FaultPlan::with_rates(0xDEAD, 1.0, 0.0, 0.0);
    let service = SolverService::start(ServiceConfig {
        devices: 2,
        device_faults: vec![(1, lethal)],
        // No retries, no fallback: a request on the dead device fails fast
        // and visibly instead of being silently repaired.
        recovery: RecoveryPolicy {
            max_launch_retries: 1,
            max_device_attempts: 1,
            cpu_fallback: false,
        },
        ..small_config(2)
    });

    let tickets: Vec<Ticket> = (0..12)
        .map(|i| {
            service
                .submit(request(12, 1 + (i % 3), Algorithm::Sa, 200, 1000 + u64::from(i)))
                .expect("admitted")
        })
        .collect();
    let outcomes: Vec<_> = tickets.into_iter().map(|t| service.wait(t)).collect();

    let (mut ok, mut failed) = (0u64, 0u64);
    for outcome in &outcomes {
        match &outcome.result {
            Ok(solved) => {
                ok += 1;
                assert_eq!(outcome.device, Some(0), "successes come from the clean device");
                assert_eq!(solved.device, Some(0));
                assert!(!solved.cpu_fallback);
            }
            Err(e) => {
                failed += 1;
                assert_eq!(outcome.device, Some(1), "only the faulted device fails: {e}");
            }
        }
    }
    assert!(ok > 0, "the clean device must have served requests");
    assert!(failed > 0, "the lethal device must have failed requests");

    let report = service.shutdown();
    assert_eq!(report.completed, ok);
    assert_eq!(report.failed, failed);
    let dev1 = report.devices.iter().find(|d| d.id == 1).expect("device 1 reported");
    assert_eq!(dev1.usage.failed, failed, "failures are attributed to the faulted device");
    let dev0 = report.devices.iter().find(|d| d.id == 0).expect("device 0 reported");
    assert_eq!(dev0.usage.failed, 0);
}

#[test]
fn per_request_fitness_is_identical_across_runs_despite_routing() {
    fn run_once() -> Vec<i64> {
        let entries = cdd_bench::workload::generate_mixed(10, 99, 80, &[10]);
        let service = SolverService::start(ServiceConfig {
            devices: 3,
            // Fleet-wide faults: per-request plans derive from the request
            // seed alone, so whichever device a request lands on, the
            // recovery layer sees the same fault sequence.
            fault: Some(FaultPlan::with_rates(0xFA17, 0.02, 0.005, 0.0)),
            ..small_config(3)
        });
        let tickets: Vec<Ticket> =
            entries.iter().map(|e| service.submit(e.to_request()).expect("admitted")).collect();
        let objectives = tickets
            .into_iter()
            .map(|t| service.wait(t).result.expect("recovery absorbs injected faults").objective)
            .collect();
        service.shutdown();
        objectives
    }
    assert_eq!(run_once(), run_once(), "fitness must not depend on scheduling");
}

/// The deterministic (`service_`-prefixed) lines of a Prometheus snapshot —
/// the exact subset CI byte-compares across two runs of the same workload.
fn deterministic_lines(report: &cdd_service::ServiceReport) -> String {
    report
        .metrics
        .render_prometheus()
        .lines()
        .filter(|l| l.starts_with("service_"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn service_metrics_are_byte_identical_across_runs() {
    fn run_once() -> (String, cdd_service::ServiceReport) {
        let entries = cdd_bench::workload::generate_mixed(12, 41, 80, &[10]);
        let service = SolverService::start(ServiceConfig {
            devices: 3,
            fault: Some(FaultPlan::with_rates(0xFA17, 0.05, 0.01, 0.02)),
            ..small_config(3)
        });
        let tickets: Vec<Ticket> =
            entries.iter().map(|e| service.submit(e.to_request()).expect("admitted")).collect();
        for t in tickets {
            service.wait(t).result.expect("recovery absorbs injected faults");
        }
        let report = service.shutdown();
        (deterministic_lines(&report), report)
    }
    let (a, report_a) = run_once();
    let (b, _) = run_once();
    assert_eq!(a, b, "the service_ namespace must not depend on scheduling");
    assert!(!a.is_empty());
    // The snapshot agrees with the report's own counters.
    let m = &report_a.metrics;
    assert_eq!(m.counter("service_requests_submitted_total", &[]), report_a.submitted);
    assert_eq!(m.counter("service_requests_completed_total", &[]), report_a.completed);
    assert_eq!(
        m.counter("service_cache_served_total", &[]),
        report_a.cache.hits + report_a.cache.coalesced
    );
    assert_eq!(m.counter("service_cache_misses_total", &[]), report_a.cache.misses);
    assert_eq!(
        m.counter("service_fault_launches_attempted_total", &[]),
        report_a.devices.iter().map(|d| d.usage.faults.launches_attempted).sum::<u64>()
    );
    // The service_ series are exported with HELP descriptions.
    let rendered = m.render_prometheus();
    let help: Vec<&str> = rendered.lines().filter(|l| l.starts_with("# HELP service_")).collect();
    assert!(
        help.iter().any(|l| l.starts_with("# HELP service_requests_submitted_total ")),
        "{rendered}"
    );
    assert!(help.len() > 10, "{help:?}");
    // Timing-dependent series exist, but outside the compared namespace.
    assert!(m.histogram("timing_request_wall_ms", &[]).is_some());
    assert_eq!(
        m.histogram("timing_request_wall_ms", &[]).unwrap().count(),
        report_a.submitted,
        "every answered request contributes one latency sample"
    );
}

/// The metric families of a Prometheus render that lack a `# HELP` line.
fn families_without_help(rendered: &str) -> Vec<String> {
    let named = |prefix: &str| -> std::collections::BTreeSet<String> {
        rendered
            .lines()
            .filter_map(|l| l.strip_prefix(prefix)?.split(' ').next().map(str::to_string))
            .collect()
    };
    let helped = named("# HELP ");
    named("# TYPE ").into_iter().filter(|family| !helped.contains(family)).collect()
}

/// Every sample family a service snapshot renders carries a `# HELP` line:
/// on a native fleet (backend tallies, native wall times) and on a faulted
/// fleet with telemetry on (fault and convergence counters, the `device_`
/// namespace). Their fleet merge is described too, in either order.
#[test]
fn every_rendered_metric_family_has_a_help_line() {
    fn snapshot(config: ServiceConfig) -> cdd_metrics::MetricsRegistry {
        let entries = cdd_bench::workload::generate_mixed(8, 41, 60, &[10]);
        let service = SolverService::start(config);
        let tickets: Vec<Ticket> =
            entries.iter().map(|e| service.submit(e.to_request()).expect("admitted")).collect();
        for t in tickets {
            service.wait(t).result.expect("recovery absorbs injected faults");
        }
        service.shutdown().metrics
    }
    let native = snapshot(ServiceConfig { backend: cdd_gpu::Backend::Native, ..small_config(2) });
    let faulted = snapshot(ServiceConfig {
        fault: Some(FaultPlan::with_rates(0xFA17, 0.05, 0.01, 0.02)),
        telemetry: cuda_sim::TelemetryConfig::every(5),
        ..small_config(2)
    });
    for (what, registry) in [("native", &native), ("faulted", &faulted)] {
        let rendered = registry.render_prometheus();
        assert_eq!(families_without_help(&rendered), Vec::<String>::new(), "{what}: {rendered}");
    }
    let native_rendered = native.render_prometheus();
    assert!(native_rendered.contains("# HELP timing_backend_native_wall_ms "));
    assert!(native_rendered.contains("# HELP device_kernel_launches_total "));
    let faulted_rendered = faulted.render_prometheus();
    assert!(faulted_rendered.contains("# HELP service_fault_bit_flips_total "));
    assert!(faulted_rendered.contains("# HELP device_fault_bit_flips_total "));
    assert!(faulted_rendered.contains("# HELP service_convergence_samples_total "));

    let merged = |a: &cdd_metrics::MetricsRegistry, b: &cdd_metrics::MetricsRegistry| {
        let mut fleet = a.clone();
        fleet.merge_from(b);
        fleet
    };
    // The merge's HELP lines are the same whichever snapshot comes first
    // (its wall-clock gauges are not, so compare only the descriptions).
    let help_lines = |r: &cdd_metrics::MetricsRegistry| {
        let rendered = r.render_prometheus();
        assert_eq!(families_without_help(&rendered), Vec::<String>::new(), "merged: {rendered}");
        rendered
            .lines()
            .filter(|l| l.starts_with("# HELP "))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(help_lines(&merged(&native, &faulted)), help_lines(&merged(&faulted, &native)));
}

#[test]
fn trace_capture_produces_one_track_per_device() {
    let entries = cdd_bench::workload::generate_mixed(8, 23, 60, &[10]);
    let service = SolverService::start(ServiceConfig {
        devices: 2,
        capture_trace: true,
        ..small_config(2)
    });
    let tickets: Vec<Ticket> =
        entries.iter().map(|e| service.submit(e.to_request()).expect("admitted")).collect();
    for t in tickets {
        service.wait(t).result.expect("clean fleet");
    }
    let report = service.shutdown();

    let trace = &report.trace;
    assert!(!trace.is_empty());
    // Exactly one thread_name metadata event per device.
    let tracks: Vec<&str> = trace
        .events()
        .iter()
        .filter(|e| e.ph == 'M' && e.name == "thread_name")
        .filter_map(|e| e.args.iter().find(|(k, _)| k == "name").map(|(_, v)| v.as_str()))
        .collect();
    assert_eq!(tracks, vec!["device 0", "device 1"]);
    // Kernel events exist and sit on valid device tracks with durations.
    let kernels: Vec<_> =
        trace.events().iter().filter(|e| e.ph == 'X' && e.cat == "kernel").collect();
    assert!(!kernels.is_empty());
    assert!(kernels.iter().all(|e| e.tid < 2 && e.dur_us.unwrap_or(0.0) > 0.0));
    // Request spans open and close in equal numbers.
    let begins = trace.events().iter().filter(|e| e.ph == 'B' && e.cat == "request").count();
    let ends = trace.events().iter().filter(|e| e.ph == 'E' && e.cat == "request").count();
    assert_eq!(begins, ends);
    assert_eq!(begins as u64, report.devices.iter().map(|d| d.usage.requests).sum::<u64>());
    // The rendered JSON is loadable (well-formed enough for Perfetto's
    // parser: object wrapper + one JSON object per event).
    let json = trace.render_chrome_json();
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
}

#[test]
fn convergence_telemetry_adds_counters_without_touching_results() {
    fn run_workload(stride: u64, capture_trace: bool) -> (Vec<i64>, cdd_service::ServiceReport) {
        let entries = cdd_bench::workload::generate_mixed(10, 57, 80, &[10]);
        let service = SolverService::start(ServiceConfig {
            devices: 2,
            telemetry: cuda_sim::TelemetryConfig::every(stride),
            capture_trace,
            ..small_config(2)
        });
        let tickets: Vec<Ticket> =
            entries.iter().map(|e| service.submit(e.to_request()).expect("admitted")).collect();
        let objectives = tickets
            .into_iter()
            .map(|t| service.wait(t).result.expect("clean fleet").objective)
            .collect();
        (objectives, service.shutdown())
    }

    let (base_obj, base) = run_workload(0, false);
    let (on_obj, on) = run_workload(5, true);
    assert_eq!(on_obj, base_obj, "telemetry must not perturb any solve");

    // Off: the snapshot has no convergence series at all (byte-compatible
    // with the pre-telemetry service).
    assert!(!base.metrics.render_prometheus().contains("service_convergence_"));

    // On: every dispatched (non-cached) request contributes one trace.
    let m = &on.metrics;
    let dispatched: u64 = on.devices.iter().map(|d| d.usage.requests).sum();
    assert_eq!(m.counter("service_convergence_requests_total", &[]), dispatched);
    assert!(m.counter("service_convergence_samples_total", &[]) >= dispatched);
    // The anomaly counters exist even when nothing anomalous happened.
    let rendered = m.render_prometheus();
    assert!(rendered.contains("service_convergence_stalled_chains_total"));
    assert!(rendered.contains("service_convergence_collapsed_total"));

    // The captured trace carries best-so-far counter samples on the same
    // device tracks as the kernel spans.
    let counters: Vec<_> =
        on.trace.events().iter().filter(|e| e.ph == 'C' && e.cat == "convergence").collect();
    assert!(!counters.is_empty(), "convergence counter events in the trace");
    assert!(counters.iter().all(|e| e.tid < 2));
}

#[test]
fn trace_capture_off_by_default_keeps_the_report_lean() {
    let service = SolverService::start(small_config(1));
    service.solve(request(10, 1, Algorithm::Sa, 60, 3)).expect("solve succeeds");
    let report = service.shutdown();
    assert!(report.trace.is_empty(), "no trace unless explicitly requested");
    assert!(!report.metrics.is_empty(), "metrics are always on");
}

// ---------------------------------------------------------------------------
// Chaos: worker crashes, supervision, retry/degrade and the determinism
// contract of PR 6 (see DESIGN.md §12).
// ---------------------------------------------------------------------------

/// Fast supervisor for tests: tight tick, no backoff parking delays worth
/// waiting out, deterministic jitter still on.
fn chaos_supervisor() -> SupervisorConfig {
    SupervisorConfig { tick_ms: 1, backoff_base_ms: 1, backoff_jitter_ms: 2, ..Default::default() }
}

#[test]
fn chaos_crashes_restart_workers_and_strand_no_request() {
    // Every other request's plan kills its device early on; the supervisor
    // must restart workers and every request must still get an answer —
    // real (retry succeeded) or degraded (budget exhausted) — never an
    // error, never a hang.
    fn run_once() -> (Vec<(u64, i64, bool)>, cdd_service::ServiceReport) {
        let service = SolverService::start(ServiceConfig {
            devices: 2,
            fault: Some(FaultPlan::with_rates(0xC0A5, 0.01, 0.0, 0.0).with_worker_crash(0.5, 8)),
            supervisor: chaos_supervisor(),
            ..small_config(2)
        });
        let tickets: Vec<(u64, Ticket)> = (0..14)
            .map(|i| {
                let seed = 9000 + u64::from(i);
                (seed, service.submit(request(12, 1 + (i % 3), Algorithm::Sa, 150, seed)).unwrap())
            })
            .collect();
        let outcomes = tickets
            .into_iter()
            .map(|(seed, t)| {
                let o = service.wait(t).result.expect("chaos must never fail a request");
                (seed, o.objective, o.degraded)
            })
            .collect();
        (outcomes, service.shutdown())
    }

    let (outcomes_a, report_a) = run_once();
    let (outcomes_b, report_b) = run_once();

    // The tentpole contract: the (request, fitness, degraded) set is
    // byte-identical across runs, whatever the restart timing did.
    assert_eq!(outcomes_a, outcomes_b, "chaos outcome set must be deterministic");

    assert!(report_a.restarts > 0, "a 50% crash rate must kill at least one worker");
    // Every supervisor, degraded-answer and fault series agrees across the
    // runs (breaker streaks depend on placement, so they are left out).
    let recovery_lines = |report: &cdd_service::ServiceReport| -> Vec<String> {
        let prefixes = ["service_supervisor_", "service_degraded_", "service_fault_"];
        let rendered = report.metrics.render_prometheus();
        rendered
            .lines()
            .filter(|l| prefixes.iter().any(|p| l.starts_with(p)))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        recovery_lines(&report_a),
        recovery_lines(&report_b),
        "crash plans are routing-independent"
    );
    assert_eq!(report_a.restarts, report_b.restarts);
    assert_eq!(report_a.retried, report_b.retried);
    assert_eq!(report_a.degraded, report_b.degraded);
    assert_eq!(report_a.completed, report_a.submitted, "no request stranded");
    assert_eq!(report_a.failed, 0);
    let m = &report_a.metrics;
    assert_eq!(m.counter("service_supervisor_restarts_total", &[]), report_a.restarts);
    assert_eq!(m.counter("service_queue_retried_total", &[]), report_a.retried);
    assert_eq!(m.counter("service_degraded_total", &[]), report_a.degraded);
    assert_eq!(
        m.counter("service_fault_worker_crashes_total", &[]),
        report_a.restarts,
        "every reaped crash lands in the fleet fault ledger"
    );
}

#[test]
fn exhausted_retry_budget_degrades_to_the_cpu_oracle() {
    // A certain crash on every attempt: the retry budget burns out and the
    // service answers from the CPU oracle, flagged and never cached.
    let service = SolverService::start(ServiceConfig {
        devices: 1,
        fault: Some(FaultPlan::disabled().with_worker_crash(1.0, 1)),
        supervisor: SupervisorConfig { retry_budget: 1, ..chaos_supervisor() },
        ..small_config(1)
    });
    let req = request(10, 1, Algorithm::Sa, 100, 4242);
    let first = service.solve(req.clone()).expect("degraded, not failed");
    assert!(first.degraded);
    assert!(first.device.is_none());
    assert!(!first.cache_hit);
    let oracle = cdd_core::degraded_outcome(&req.instance);
    assert_eq!(first.objective, oracle.objective, "degraded answer IS the oracle answer");
    assert_eq!(first.sequence, oracle.sequence);

    // Degraded answers are not cached: the same request dispatches again
    // (and crashes/degrades again) instead of being served from the cache.
    let second = service.solve(req).expect("degraded again");
    assert!(second.degraded);
    assert!(!second.cache_hit, "degraded answers must never populate the cache");

    let report = service.shutdown();
    assert_eq!(report.degraded, 2);
    assert_eq!(report.completed, 2);
    assert_eq!(report.cache.misses, 2);
    assert_eq!(report.cache.insertions, 0);
    // Each request: initial dispatch + 1 retry, every attempt crashing.
    assert_eq!(report.restarts, 4);
    assert_eq!(report.retried, 2);
}

#[test]
fn degradation_off_surfaces_the_structured_worker_crashed_error() {
    // Satellite: with degraded answers disabled, the client sees the
    // structured error carrying the device id and the panic payload.
    let service = SolverService::start(ServiceConfig {
        devices: 1,
        fault: Some(FaultPlan::disabled().with_worker_crash(1.0, 1)),
        supervisor: SupervisorConfig {
            retry_budget: 0,
            degraded_answers: false,
            ..chaos_supervisor()
        },
        ..small_config(1)
    });
    let err = service.solve(request(10, 1, Algorithm::Sa, 100, 777)).unwrap_err();
    match &err {
        SuiteError::WorkerCrashed { device, payload } => {
            assert_eq!(*device, 0);
            assert!(payload.contains("device lost"), "payload carries the cause: {payload}");
        }
        other => panic!("expected WorkerCrashed, got {other:?}"),
    }
    assert!(!err.is_recoverable(), "a worker crash is not a retryable launch fault");
    let report = service.shutdown();
    assert_eq!(report.failed, 1);
    assert_eq!(report.degraded, 0);
    assert_eq!(report.restarts, 1);
}

#[test]
fn breaker_trips_on_a_sick_device_and_brownout_degrades_deadline_work() {
    // One device whose every launch fails (no crash — the worker survives,
    // the runs error). With threshold 1 the breaker opens on the first
    // failure and stays open far longer than the test; a deadline-carrying
    // request submitted afterwards cannot be served by the pool, so the
    // brownout pass answers it degraded instead of letting it expire.
    let service = SolverService::start(ServiceConfig {
        devices: 1,
        fault: Some(FaultPlan::with_rates(0x51C6, 1.0, 0.0, 0.0)),
        recovery: RecoveryPolicy {
            max_launch_retries: 1,
            max_device_attempts: 1,
            cpu_fallback: false,
        },
        breaker: BreakerConfig { failure_threshold: 1, open_ms: 60_000, ..Default::default() },
        supervisor: chaos_supervisor(),
        ..small_config(1)
    });

    // First request fails and trips the breaker.
    let err = service.solve(request(10, 1, Algorithm::Sa, 100, 1)).unwrap_err();
    assert!(matches!(err, SuiteError::Device { .. }), "got {err:?}");

    // Second request carries a deadline: the open breaker sheds it to the
    // brownout pass, which serves it degraded well before the deadline.
    let req = SolveRequest { deadline_ms: Some(30_000), ..request(10, 1, Algorithm::Sa, 100, 2) };
    let outcome = service.solve(req).expect("browned out, not expired");
    assert!(outcome.degraded);

    let report = service.shutdown();
    assert_eq!(report.failed, 1);
    assert_eq!(report.degraded, 1);
    assert_eq!(report.expired, 0, "brownout preempts the expiry");
    assert!(report.devices[0].breaker.opened >= 1);
    assert!(report.metrics.counter("service_breaker_opened_total", &[]) >= 1);
    assert_eq!(report.metrics.counter("service_degraded_brownout_total", &[]), 1);
}

#[test]
fn stuck_worker_is_fenced_and_its_job_redispatched() {
    // A watchdog tight enough that every attempt of a genuinely slow solve
    // is declared stuck: the supervisor fences the worker (generation
    // bump), re-dispatches the job until the budget runs out, then serves
    // it degraded. The fenced zombies' results are discarded, so exactly
    // one answer comes back.
    let service = SolverService::start(ServiceConfig {
        devices: 1,
        supervisor: SupervisorConfig {
            stuck_after_ms: 1,
            retry_budget: 2,
            ..chaos_supervisor()
        },
        ..small_config(1)
    });
    let outcome = service
        .solve(request(30, 1, Algorithm::Sa, 4000, 11))
        .expect("fenced job is answered, not stranded");
    assert!(outcome.degraded, "every attempt outlives the 1ms watchdog, so the oracle answers");

    let report = service.shutdown();
    let dev = &report.devices[0];
    assert!(dev.restarts >= 1, "at least one fence happened");
    assert_eq!(
        report.metrics.counter("service_supervisor_stuck_total", &[]),
        dev.restarts,
        "all restarts here are stuck fences (no crashes injected)"
    );
    assert_eq!(report.completed, 1);
    assert_eq!(report.degraded, 1);
}

#[test]
fn zero_deadline_expires_before_dispatch() {
    let service = SolverService::start(small_config(1));
    let req = SolveRequest {
        deadline_ms: Some(0),
        ..request(10, 2, Algorithm::Dpso, 100, 5)
    };
    let err = service.solve(req).unwrap_err();
    assert!(matches!(err, SuiteError::DeadlineExceeded { .. }), "got {err:?}");
    let report = service.shutdown();
    assert_eq!(report.expired, 1);
    assert_eq!(report.completed, 0);
    assert_eq!(report.devices[0].usage.requests, 0, "no device time was spent");
}

#[test]
fn each_ticket_is_answered_once_by_its_reply() {
    // One device and two queue slots. A long blocker (about 150 ms in a
    // release build) holds the device while the rest is submitted.
    let service = SolverService::start(ServiceConfig { queue_capacity: 2, ..small_config(1) });
    let blocker = service.submit(request(50, 1, Algorithm::Sa, 6000, 1)).expect("admitted");
    while service.snapshot().queue_depth > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Every reply passes its outcome on, labelled.
    let (tx, rx) = mpsc::channel();
    let reply = |label: &'static str| {
        let tx = tx.clone();
        move |outcome: RequestOutcome| {
            let _ = tx.send((label, outcome));
        }
    };
    // A deadline-0 primary queues behind the blocker, and two identical
    // requests ride along: one that expires too, one without a deadline.
    let twin = request(10, 1, Algorithm::Sa, 100, 2);
    let expiring = SolveRequest { deadline_ms: Some(0), ..twin.clone() };
    service.submit_with(expiring.clone(), reply("primary")).expect("queued");
    service.submit_with(expiring, reply("expired follower")).expect("coalesced");
    service.submit_with(twin, reply("live follower")).expect("coalesced");
    // A distinct request takes the second slot, so the next is refused:
    // its reply is dropped without running.
    let dropped = service.submit(request(10, 1, Algorithm::Sa, 100, 3)).expect("queued");
    let err = service.submit_with(request(10, 1, Algorithm::Sa, 100, 4), reply("refused"));
    assert!(matches!(err, Err(SuiteError::Rejected { .. })), "got {err:?}");
    drop(tx);
    // A ticket dropped before its answer breaks nothing.
    drop(dropped);

    // Each accepted reply sends once; a lost one fails here, not by hanging.
    let answers: BTreeMap<&str, RequestOutcome> = (0..3)
        .map(|_| rx.recv_timeout(Duration::from_secs(60)).expect("an accepted reply runs"))
        .collect();
    service.wait(blocker).result.expect("blocker completes");
    service.solve(request(12, 1, Algorithm::Sa, 100, 5)).expect("later solves still succeed");
    let report = service.shutdown();
    assert_eq!(
        answers.keys().copied().collect::<Vec<_>>(),
        ["expired follower", "live follower", "primary"]
    );
    assert!(
        matches!(rx.try_recv(), Err(TryRecvError::Disconnected)),
        "no other answer came: the refused reply was dropped unrun"
    );
    for label in ["primary", "expired follower"] {
        let err = answers[label].result.as_ref().unwrap_err();
        assert!(matches!(err, SuiteError::DeadlineExceeded { .. }), "{label}: {err:?}");
    }
    let live = answers["live follower"].result.as_ref().expect("the live follower is solved");
    assert!(!live.cache_hit, "promoted into the queue, it ran its own solve");
    assert_eq!(live.device, Some(0));
    assert_eq!(report.queue.requeued, 1, "the live follower was promoted");
    assert_eq!(report.expired, 2);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.submitted, 6);
    assert_eq!(report.completed, 4, "blocker, live follower, dropped ticket, later solve");
}

#[test]
fn queued_mixed_requests_match_direct_solves() {
    // Requests of mixed size and algorithm wait FIFO behind a busy worker;
    // each still answers exactly like a direct `run_gpu_solve` call.
    let service = SolverService::start(small_config(1));
    let blocker = service.submit(request(30, 1, Algorithm::Sa, 800, 901)).expect("admitted");
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mixed: Vec<Ticket> = vec![
        service.submit(request(10, 1, Algorithm::Sa, 150, 1)).expect("admitted"),
        service.submit(request(12, 1, Algorithm::Sa, 150, 2)).expect("admitted"),
        service.submit(request(10, 2, Algorithm::Dpso, 150, 3)).expect("admitted"),
        service.submit(request(10, 1, Algorithm::Sa, 150, 4)).expect("admitted"),
    ];
    service.wait(blocker).result.expect("opener completes");
    for (t, expected_seed) in mixed.into_iter().zip([1u64, 2, 3, 4]) {
        let outcome = service.wait(t).result.expect("completes");
        // Cross-check each answer against a direct solo pipeline run.
        let algo = if expected_seed == 3 { Algorithm::Dpso } else { Algorithm::Sa };
        let n_k = match expected_seed {
            2 => (12, 1),
            3 => (10, 2),
            _ => (10, 1),
        };
        let direct = run_gpu_solve(
            &InstanceId::ucddcp(n_k.0, n_k.1).instantiate(),
            algo,
            150,
            expected_seed,
            &GpuSolveSpec { blocks: 1, block_size: 32, ..Default::default() },
        )
        .expect("direct run succeeds");
        assert_eq!(outcome.objective, direct.objective, "seed {expected_seed}");
        assert_eq!(outcome.sequence, direct.best);
    }
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Execution-backend routing (PR 10)
// ---------------------------------------------------------------------------

/// A native-configured fleet answers every request byte-identically to the
/// default sim fleet — the service-level face of the cross-backend parity
/// contract — and the report carries the per-backend dispatch counters.
#[test]
fn native_fleet_answers_are_byte_identical_to_sim() {
    fn run_workload(backend: cdd_service::Backend) -> (Vec<(i64, Vec<u32>)>, cdd_service::ServiceReport) {
        let service = SolverService::start(ServiceConfig {
            devices: 2,
            cache_capacity: 0, // every request really dispatches
            backend,
            ..small_config(2)
        });
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                let algo = if i % 3 == 2 { Algorithm::Dpso } else { Algorithm::Sa };
                service.submit(request(10 + (i % 2) * 2, 1, algo, 120, i as u64)).expect("admitted")
            })
            .collect();
        let answers = tickets
            .into_iter()
            .map(|t| {
                let o = service.wait(t).result.expect("clean solve succeeds");
                (o.objective, o.sequence.as_slice().to_vec())
            })
            .collect();
        (answers, service.shutdown())
    }
    let (sim_answers, sim_report) = run_workload(cdd_service::Backend::Sim);
    let (native_answers, native_report) = run_workload(cdd_service::Backend::Native);
    assert_eq!(sim_answers, native_answers, "outcomes are backend-independent");

    // A sim fleet predates the backend split metric-wise; a native fleet
    // accounts every dispatch under its backend label.
    let m = &native_report.metrics;
    assert_eq!(m.counter("service_backend_requests_total", &[("backend", "native")]), 6);
    assert_eq!(m.counter("service_backend_requests_total", &[("backend", "sim")]), 0);
    assert!(m.histogram("timing_backend_native_wall_ms", &[]).is_some());
    assert_eq!(m.histogram("timing_backend_native_wall_ms", &[]).unwrap().count(), 6);
    assert!(!sim_report
        .metrics
        .render_prometheus()
        .contains("service_backend_requests_total"));

    // Native runs report no modeled device time — the usage ledger only
    // accumulates wall clock.
    assert!(native_report.devices.iter().all(|d| d.usage.modeled.busy_seconds == 0.0));
    assert!(sim_report.devices.iter().any(|d| d.usage.modeled.busy_seconds > 0.0));
}

/// Sim-only capabilities override the configured backend per request:
/// a chaos fleet configured native still runs every request on sim (the
/// fault machinery lives there), rather than rejecting or dropping plans,
/// so it answers exactly like a sim fleet under the same faults.
#[test]
fn chaos_requests_route_to_sim_on_a_native_fleet() {
    fn run_workload(
        backend: cdd_service::Backend,
    ) -> (Vec<(i64, Vec<u32>)>, cdd_service::ServiceReport) {
        let service = SolverService::start(ServiceConfig {
            devices: 2,
            backend,
            fault: Some(FaultPlan::with_rates(0xFA17, 0.02, 0.005, 0.0)),
            ..small_config(2)
        });
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| service.submit(request(10, 1, Algorithm::Sa, 100, i)).expect("admitted"))
            .collect();
        let answers = tickets
            .into_iter()
            .map(|t| {
                let o = service.wait(t).result.expect("recovery absorbs injected faults");
                (o.objective, o.sequence.as_slice().to_vec())
            })
            .collect();
        (answers, service.shutdown())
    }
    let (native_answers, report) = run_workload(cdd_service::Backend::Native);
    let (sim_answers, _) = run_workload(cdd_service::Backend::Sim);
    assert_eq!(native_answers, sim_answers, "outcomes under faults are backend-independent");
    let m = &report.metrics;
    assert_eq!(m.counter("service_backend_requests_total", &[("backend", "sim")]), 4);
    assert_eq!(m.counter("service_backend_requests_total", &[("backend", "native")]), 0);
    assert!(m.counter("service_fault_launches_attempted_total", &[]) > 0, "chaos really ran");
}

/// Telemetry is likewise sim-only: enabling it on a native fleet routes the
/// requests to sim and the convergence counters still appear.
#[test]
fn telemetry_requests_route_to_sim_on_a_native_fleet() {
    let service = SolverService::start(ServiceConfig {
        devices: 1,
        backend: cdd_service::Backend::Native,
        telemetry: cuda_sim::TelemetryConfig::every(8),
        ..small_config(1)
    });
    let t = service.submit(request(10, 1, Algorithm::Sa, 120, 5)).expect("admitted");
    service.wait(t).result.expect("solve succeeds");
    let report = service.shutdown();
    let m = &report.metrics;
    assert_eq!(m.counter("service_backend_requests_total", &[("backend", "sim")]), 1);
    assert_eq!(m.counter("service_backend_requests_total", &[("backend", "native")]), 0);
    assert!(m.render_prometheus().contains("service_convergence_"));
}
