//! **cdd-serve** — replay a workload through the solver service and report
//! throughput, latency percentiles, cache hit rate and per-device
//! utilization.
//!
//! ```text
//! cargo run --release -p cdd-service --bin cdd-serve -- \
//!     [--workload results/workload.txt | --requests 64 --sizes 10,20 --iterations 150] \
//!     [--backend sim|native] \
//!     [--devices 4] [--queue-capacity N] [--cache-capacity 256] \
//!     [--blocks 1] [--block-size 64] [--seed 2016] [--window W] [--deadline-ms D] \
//!     [--fault-seed S --launch-failure-rate P --bit-flip-rate P --hang-rate P] \
//!     [--chaos] [--worker-crash-rate P] [--worker-crash-horizon N] \
//!     [--retry-budget N] [--breaker-threshold N] [--breaker-open-ms MS] \
//!     [--stuck-after-ms MS] [--no-degraded] \
//!     [--faulty-device IDX] [--convergence-stride N] \
//!     [--summary results/serve_summary.json] [--detail results/serve_requests.csv] \
//!     [--metrics-out metrics.prom] [--metrics-json metrics.json] \
//!     [--trace-out trace.json] [--trace-jsonl trace.jsonl]
//! ```
//!
//! Without `--workload`, a mixed CDD/UCDDCP stream is generated in-process
//! (deterministic in `--seed`, same generator as `make_workload`). The
//! client keeps at most `--window` requests in flight (default
//! `4 × devices`), which bounds queue depth and lets later duplicates score
//! direct cache hits against completed entries.
//!
//! `--chaos` arms the resilience layer's failure mode: every device's
//! fault plan gains a worker-crash class (default rate 0.15 over a
//! 16-launch horizon; override with `--worker-crash-rate` /
//! `--worker-crash-horizon`). Crashed workers are restarted by the
//! supervisor and their jobs retried (`--retry-budget`, default 2) with a
//! deterministic seed-jittered backoff; budget-exhausted requests are
//! answered from the CPU oracle with `degraded=true` (or failed with a
//! structured `WorkerCrashed` error under `--no-degraded`). The breaker
//! knobs (`--breaker-threshold`, `--breaker-open-ms`) tune how fast a sick
//! device is shed. See DESIGN.md §12.
//!
//! Outputs: a human summary on stdout, a JSON summary (machine-checkable —
//! `tests/cdd_serve.rs` parses it), a per-request CSV whose first ten
//! columns (`idx..degraded`) are deterministic under a fixed workload
//! and fault/chaos configuration — routing and latency live in the last
//! two — and, on request, a Prometheus-text / JSON metrics snapshot
//! (`--metrics-out` / `--metrics-json`; `service_`-prefixed lines are
//! byte-identical across runs of the same workload) and a Chrome
//! `trace_event` timeline with one track per device (`--trace-out` loads
//! in `chrome://tracing` or Perfetto; `--trace-jsonl` is the streaming
//! flavour).
//!
//! `--convergence-stride N` samples every chain's search trajectory every
//! `N` generations: the metrics snapshot gains `service_convergence_*`
//! anomaly counters, and a captured trace gains per-request best-so-far
//! counter tracks. Sampling never changes a result (DESIGN.md §10).
//!
//! Both backends run the blocks of each launch serially on the device's
//! worker thread; host parallelism comes from `--devices`, one worker
//! thread per device (DESIGN.md §11).
//!
//! Latency percentiles come from the service's own metrics registry
//! (`timing_request_wall_ms`, exact nearest-rank quantiles over every
//! answered request) — the CLI no longer keeps its own latency math.
//!
//! A flag outside the block above is refused: `cdd-serve` names it, prints
//! the usage line and exits with status 2, so a typo such as
//! `--cache-capacty 8` cannot silently run with the default.

use cdd_bench::workload::{generate_mixed, load};
use cdd_bench::{fault_plan_from_args, results_dir, write_csv, Args, Table};
use cdd_core::SuiteError;
use cdd_service::{
    Backend, BreakerConfig, RequestOutcome, ServiceConfig, ServiceReport, SolverService,
    SupervisorConfig,
};
use cuda_sim::{FaultPlan, TelemetryConfig};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// Latency summary `(p50, p95, max)` in ms, from the registry histogram.
fn latency_summary(report: &ServiceReport) -> (f64, f64, f64) {
    match report.metrics.histogram("timing_request_wall_ms", &[]) {
        Some(h) => (h.quantile(0.50), h.quantile(0.95), h.max()),
        None => (0.0, 0.0, 0.0),
    }
}

fn write_text(path: &Path, contents: &str, what: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{what} dir creatable: {e}"));
        }
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("{what} writable: {e}"));
}

fn status_of(outcome: &RequestOutcome) -> &'static str {
    match &outcome.result {
        Ok(_) => "ok",
        Err(SuiteError::DeadlineExceeded { .. }) => "expired",
        Err(SuiteError::Rejected { .. }) => "rejected",
        Err(_) => "failed",
    }
}

fn summary_json(report: &ServiceReport, requests: usize) -> String {
    let (p50, p95, max) = latency_summary(report);
    let mut devices = String::new();
    for (i, d) in report.devices.iter().enumerate() {
        if i > 0 {
            devices.push_str(",\n");
        }
        devices.push_str(&format!(
            "    {{\"id\": {}, \"requests\": {}, \"failed\": {}, \"busy_wall_seconds\": {:.6}, \
             \"utilization\": {:.4}, \"modeled_seconds\": {:.6}, \"kernel_launches\": {}, \
             \"faults_injected\": {}, \"worker_crashes\": {}, \"restarts\": {}, \
             \"breaker_opened\": {}}}",
            d.id,
            d.usage.requests,
            d.usage.failed,
            d.usage.busy_wall_seconds,
            d.utilization,
            d.usage.modeled.busy_seconds,
            d.usage.modeled.kernel_launches,
            d.usage.faults.transient_launch_failures
                + d.usage.faults.bit_flips
                + d.usage.faults.hung_kernels,
            d.usage.faults.worker_crashes,
            d.restarts,
            d.breaker.opened,
        ));
    }
    let c = &report.cache;
    format!(
        "{{\n\
         \x20 \"requests\": {requests},\n\
         \x20 \"completed\": {},\n\
         \x20 \"failed\": {},\n\
         \x20 \"expired\": {},\n\
         \x20 \"rejected\": {},\n\
         \x20 \"degraded\": {},\n\
         \x20 \"wall_seconds\": {:.6},\n\
         \x20 \"throughput_rps\": {:.3},\n\
         \x20 \"latency_ms\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"max\": {:.3}}},\n\
         \x20 \"queue\": {{\"peak_depth\": {}, \"rejected\": {}}},\n\
         \x20 \"supervisor\": {{\"restarts\": {}, \"retries\": {}}},\n\
         \x20 \"breaker\": {{\"opened\": {}, \"probes\": {}, \"reclosed\": {}}},\n\
         \x20 \"cache\": {{\"hits\": {}, \"coalesced\": {}, \"served_from_cache\": {}, \
         \"misses\": {}, \"insertions\": {}, \"evictions\": {}, \"hit_rate\": {:.4}}},\n\
         \x20 \"devices\": [\n{devices}\n  ]\n\
         }}\n",
        report.completed,
        report.failed,
        report.expired,
        report.rejected,
        report.degraded,
        report.wall_seconds,
        report.completed as f64 / report.wall_seconds.max(1e-9),
        p50,
        p95,
        max,
        report.queue.peak_depth,
        report.queue.rejected,
        report.restarts,
        report.retried,
        report.devices.iter().map(|d| d.breaker.opened).sum::<u64>(),
        report.devices.iter().map(|d| d.breaker.probes).sum::<u64>(),
        report.devices.iter().map(|d| d.breaker.reclosed).sum::<u64>(),
        c.hits,
        c.coalesced,
        c.hits + c.coalesced,
        c.misses,
        c.insertions,
        c.evictions,
        c.hit_rate(),
    )
}

/// Every flag `cdd-serve` reads, directly or through
/// `fault_plan_from_args`.
const FLAGS: &[&str] = &[
    // Workload.
    "workload", "requests", "sizes", "iterations", "seed",
    // Fleet and client.
    "backend", "devices", "queue-capacity", "cache-capacity", "blocks", "block-size",
    "window", "deadline-ms",
    // Faults, chaos and resilience.
    "fault-seed", "launch-failure-rate", "bit-flip-rate", "hang-rate", "worker-crash-rate",
    "worker-crash-horizon", "faulty-device", "chaos", "retry-budget", "breaker-threshold",
    "breaker-open-ms", "stuck-after-ms", "no-degraded",
    // Observability and outputs.
    "convergence-stride", "summary", "detail", "metrics-out", "metrics-json", "trace-out",
    "trace-jsonl",
];

fn main() {
    let args = Args::parse_known("cdd-serve", FLAGS);
    let seed = args.get_or("seed", 2016u64);
    let entries = match args.get("workload") {
        Some(path) => load(Path::new(path)).expect("workload file readable"),
        None => generate_mixed(
            args.get_or("requests", 64usize),
            seed,
            args.get_or("iterations", 150u64),
            &args.get_list_or("sizes", &[10usize, 20]),
        ),
    };
    let devices = args.get_or("devices", 2usize).max(1);

    // --faulty-device confines the fault plan to one pool member;
    // otherwise the plan (if any) applies fleet-wide.
    let plan = fault_plan_from_args(&args);
    // --chaos arms the worker-crash class with a default rate unless the
    // explicit --worker-crash-rate flag already configured one.
    let plan = if args.flag("chaos") && args.get("worker-crash-rate").is_none() {
        let base = plan.unwrap_or_else(|| {
            FaultPlan::with_rates(args.get_or("fault-seed", 0xFA17u64), 0.0, 0.0, 0.0)
        });
        Some(base.with_worker_crash(0.15, args.get_or("worker-crash-horizon", 16u64)))
    } else {
        plan
    };
    let (fleet_fault, device_faults) = match (plan, args.get("faulty-device")) {
        (Some(p), Some(id)) => {
            let id: usize = id.parse().expect("--faulty-device: device index");
            (None, vec![(id, p)])
        }
        (p, _) => (p, Vec::new()),
    };

    // Trace capture costs memory proportional to kernel launches, so it is
    // only enabled when a trace output was actually requested.
    let capture_trace = args.get("trace-out").is_some() || args.get("trace-jsonl").is_some();

    // --backend native runs kernels directly on the host (no modeled
    // clock, no fault machinery); the service routes sim-only requests
    // (fault plans, telemetry, traces) to the simulator instead, so
    // pairing native with --chaos/--trace-out still answers every request.
    let backend: Backend = args
        .get("backend")
        .map(|s| s.parse().expect("--backend: `sim` or `native`"))
        .unwrap_or_default();
    let config = ServiceConfig {
        devices,
        backend,
        queue_capacity: args.get_or("queue-capacity", entries.len().max(64)),
        cache_capacity: args.get_or("cache-capacity", 256usize),
        blocks: args.get_or("blocks", 1usize),
        block_size: args.get_or("block-size", 64usize),
        fault: fleet_fault,
        device_faults,
        capture_trace,
        telemetry: TelemetryConfig::every(args.get_or("convergence-stride", 0u64)),
        supervisor: SupervisorConfig {
            retry_budget: args.get_or("retry-budget", 2u32),
            stuck_after_ms: args.get_or("stuck-after-ms", 30_000u64),
            degraded_answers: !args.flag("no-degraded"),
            ..SupervisorConfig::default()
        },
        breaker: BreakerConfig {
            failure_threshold: args.get_or("breaker-threshold", 3u32),
            open_ms: args.get_or("breaker-open-ms", 250u64),
            ..BreakerConfig::default()
        },
        ..Default::default()
    };
    let deadline_ms: Option<u64> = args.get("deadline-ms").map(|s| s.parse().expect("--deadline-ms: milliseconds"));
    let window = args.get_or("window", 4 * devices).max(1);

    eprintln!(
        "cdd-serve: {} requests over {} devices ({}x{} geometry), window {window}, \
         backend {backend}",
        entries.len(),
        devices,
        config.blocks,
        config.block_size
    );

    let service = SolverService::start(config);
    let mut results: Vec<Option<RequestOutcome>> = vec![None; entries.len()];
    let mut outstanding: VecDeque<(usize, u64)> = VecDeque::new();
    for (i, entry) in entries.iter().enumerate() {
        let mut request = entry.to_request();
        request.deadline_ms = deadline_ms;
        match service.submit(request) {
            Ok(ticket) => outstanding.push_back((i, ticket)),
            Err(e) => {
                results[i] = Some(RequestOutcome {
                    ticket: u64::MAX,
                    device: None,
                    wall_ms: 0.0,
                    result: Err(e),
                    flight: None,
                });
            }
        }
        if outstanding.len() >= window {
            let (j, ticket) = outstanding.pop_front().expect("window non-empty");
            results[j] = Some(service.wait(ticket));
        }
    }
    while let Some((j, ticket)) = outstanding.pop_front() {
        results[j] = Some(service.wait(ticket));
    }
    let report = service.shutdown();

    // Per-request detail CSV.
    // Columns 1-10 are the deterministic outcome set `tests/cdd_serve.rs`
    // byte-compares; routing/latency and the tenant/priority identity ride
    // behind them.
    let mut detail = Table::new(vec![
        "idx", "instance", "algorithm", "iterations", "seed", "status", "objective", "cache_hit",
        "cpu_fallback", "degraded", "device", "wall_ms", "tenant", "priority",
    ]);
    for (i, (entry, outcome)) in entries.iter().zip(&results).enumerate() {
        let outcome = outcome.as_ref().expect("every request answered");
        let (objective, cache_hit, cpu_fallback, degraded) = match &outcome.result {
            Ok(o) => (
                o.objective.to_string(),
                o.cache_hit.to_string(),
                o.cpu_fallback.to_string(),
                o.degraded.to_string(),
            ),
            Err(_) => ("-".to_string(), "-".to_string(), "-".to_string(), "-".to_string()),
        };
        detail.push(vec![
            i.to_string(),
            entry.id.to_string(),
            entry.algorithm.to_string(),
            entry.iterations.to_string(),
            entry.seed.to_string(),
            status_of(outcome).to_string(),
            objective,
            cache_hit,
            cpu_fallback,
            degraded,
            outcome.device.map_or("-".to_string(), |d| d.to_string()),
            format!("{:.3}", outcome.wall_ms),
            entry.tenant.clone(),
            entry.priority.to_string(),
        ]);
    }
    let detail_path =
        args.get("detail").map(PathBuf::from).unwrap_or_else(|| results_dir().join("serve_requests.csv"));
    write_csv(&detail, &detail_path).expect("detail CSV writable");

    let json = summary_json(&report, entries.len());
    let summary_path =
        args.get("summary").map(PathBuf::from).unwrap_or_else(|| results_dir().join("serve_summary.json"));
    write_text(&summary_path, &json, "summary");

    // Optional metrics / trace exports. The `service_`-prefixed lines of
    // the Prometheus snapshot are timing-independent counters and compare
    // byte-identical across runs of the same workload + fault config.
    if let Some(path) = args.get("metrics-out") {
        write_text(Path::new(path), &report.metrics.render_prometheus(), "metrics snapshot");
    }
    if let Some(path) = args.get("metrics-json") {
        write_text(Path::new(path), &report.metrics.render_json(), "metrics JSON");
    }
    if let Some(path) = args.get("trace-out") {
        write_text(Path::new(path), &report.trace.render_chrome_json(), "trace JSON");
        eprintln!("trace: {path} ({} events; load in chrome://tracing or ui.perfetto.dev)", report.trace.len());
    }
    if let Some(path) = args.get("trace-jsonl") {
        write_text(Path::new(path), &report.trace.render_jsonl(), "trace JSONL");
    }

    println!(
        "\ncompleted {}/{} requests ({} failed, {} expired, {} rejected, {} degraded) in {:.3}s -> {:.2} req/s",
        report.completed,
        entries.len(),
        report.failed,
        report.expired,
        report.rejected,
        report.degraded,
        report.wall_seconds,
        report.completed as f64 / report.wall_seconds.max(1e-9),
    );
    if report.restarts > 0 || report.degraded > 0 {
        println!(
            "resilience: {} worker restarts, {} retries, {} degraded answers, breaker opened {}x",
            report.restarts,
            report.retried,
            report.degraded,
            report.devices.iter().map(|d| d.breaker.opened).sum::<u64>(),
        );
    }
    let (p50, p95, _) = latency_summary(&report);
    println!(
        "latency p50 {:.1} ms, p95 {:.1} ms | cache: {} hits + {} coalesced / {} lookups ({:.0}% served from cache)",
        p50,
        p95,
        report.cache.hits,
        report.cache.coalesced,
        report.cache.hits + report.cache.coalesced + report.cache.misses,
        report.cache.hit_rate() * 100.0,
    );
    for d in &report.devices {
        println!(
            "device {}: {} requests ({} failed), {:.0}% utilized, {:.4} modeled s, {} launches, faults {}",
            d.id,
            d.usage.requests,
            d.usage.failed,
            d.utilization * 100.0,
            d.usage.modeled.busy_seconds,
            d.usage.modeled.kernel_launches,
            d.usage.faults,
        );
    }
    println!("summary: {} | detail: {}", summary_path.display(), detail_path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--flag` tokens of `text`.
    fn flag_tokens(text: &str) -> Vec<String> {
        text.split(|c: char| c.is_whitespace() || c == '"')
            .filter(|t| t.len() > 2 && t.starts_with("--"))
            .map(str::to_string)
            .collect()
    }

    /// The flags of every `cdd-serve` call in the README.
    fn documented_flag_sets() -> Vec<Vec<String>> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("README readable");
        readme
            .replace("\\\n", " ")
            .lines()
            .filter_map(|line| line.split_once("--bin cdd-serve --"))
            .map(|(_, call)| flag_tokens(call))
            .collect()
    }

    #[test]
    fn removed_flags_are_refused() {
        // Spelt in pieces so a search for the removed names finds no code.
        let (eval, resync) = (concat!("delta", "-eval"), concat!("delta", "-resync"));
        let threads = concat!("sim", "-threads");
        let window = concat!("batch", "-window");
        let a = Args::from_iter([
            format!("--{eval}"),
            format!("--{resync}"),
            "64".into(),
            format!("--{threads}"),
            "2".into(),
            format!("--{window}"),
            "8".into(),
            "--seed".into(),
            "7".into(),
        ]);
        assert_eq!(a.unknown(FLAGS), vec![window, resync, threads, eval]);
        let usage = cdd_bench::cli::usage("cdd-serve", FLAGS);
        assert!(!usage.contains(&format!("[--{window}]")));
        assert!(!usage.contains(threads));
    }

    #[test]
    fn every_documented_call_passes_the_flag_check() {
        let sets = documented_flag_sets();
        assert_eq!(sets.len(), 4, "cdd-serve calls in the README");
        for flags in &sets {
            let given = Args::from_iter(flags.iter().cloned());
            assert!(given.unknown(FLAGS).is_empty(), "documented call refused: {flags:?}");
        }
    }
}
