//! Process-level tests of the `cdd-serve` binary: the files it writes
//! (detail CSV, summary JSON, Prometheus snapshot, Chrome trace) keep the
//! service's determinism contract across runs, across backends and under
//! worker crashes. The in-process tests in `service_integration.rs` pin the
//! same contracts on `SolverService`; these pin the CLI that writes them.
//!
//! Only assertions that hold whatever the thread scheduling are made here:
//! which device served which request is timing-dependent, so per-device
//! request counts are not compared.

#[path = "../../bench/tests/support/json.rs"]
mod json;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A small mixed workload: 16 requests on n = 10 jobs, 80 generations.
/// `generate_mixed` repeats every fourth entry, so 3 requests are
/// duplicates the cache serves.
const WORKLOAD: &str = "--requests 16 --sizes 10 --iterations 80";

/// Fleet-wide fault rates: launch failures, read bit flips and hangs.
const FAULTS: &str =
    "--fault-seed 5 --launch-failure-rate 0.05 --bit-flip-rate 0.01 --hang-rate 0.02";

/// What one `cdd-serve` run wrote.
struct Run {
    detail: String,
    summary: Json,
    metrics: String,
    trace: Option<Json>,
}

impl Run {
    /// Columns 1–10 of every detail row (`idx` through `degraded`): the
    /// deterministic outcome set. Routing and latency sit behind them.
    fn outcomes(&self) -> Vec<String> {
        self.detail.lines().map(|l| l.split(',').take(10).collect::<Vec<_>>().join(",")).collect()
    }

    /// The snapshot's sample lines whose names start with any of `prefixes`.
    fn series(&self, prefixes: &[&str]) -> Vec<&str> {
        self.metrics.lines().filter(|l| prefixes.iter().any(|p| l.starts_with(p))).collect()
    }

    /// Value of the sample line `series` (name plus labels, as rendered).
    fn counter(&self, series: &str) -> u64 {
        self.metrics
            .lines()
            .find_map(|l| l.strip_prefix(series).and_then(|v| v.strip_prefix(' ')))
            .unwrap_or_else(|| panic!("no {series} sample in\n{}", self.metrics))
            .parse()
            .expect("integer counter")
    }

    fn summary_count(&self, path: &[&str]) -> u64 {
        let value = path.iter().fold(&self.summary, |v, key| v.get(key)).num();
        assert!(value >= 0.0 && value.fract() == 0.0, "{path:?} = {value}");
        value as u64
    }

    /// Every request completed; none failed, expired or was rejected.
    fn assert_all_completed(&self) {
        assert_eq!(self.summary_count(&["completed"]), self.summary_count(&["requests"]));
        for field in ["failed", "expired", "rejected"] {
            assert_eq!(self.summary_count(&[field]), 0, "{field}");
        }
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdd-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Run `cdd-serve` with the flags in `args`, writing its files under `dir`
/// as `name.*`.
fn serve(dir: &Path, name: &str, args: &str, trace: bool) -> Run {
    let file = |ext: &str| dir.join(format!("{name}.{ext}"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cdd-serve"));
    cmd.args(args.split_whitespace())
        .arg("--summary")
        .arg(file("json"))
        .arg("--detail")
        .arg(file("csv"))
        .arg("--metrics-out")
        .arg(file("prom"));
    if trace {
        cmd.arg("--trace-out").arg(file("trace.json"));
    }
    let out = cmd.output().expect("spawn cdd-serve");
    assert!(
        out.status.success(),
        "cdd-serve {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let parse = |path: PathBuf| {
        Json::parse(&read(&path)).unwrap_or_else(|e| panic!("{} is not JSON: {e}", path.display()))
    };
    Run {
        detail: read(&file("csv")),
        summary: parse(file("json")),
        metrics: read(&file("prom")),
        trace: trace.then(|| parse(file("trace.json"))),
    }
}

#[test]
fn faulted_runs_write_identical_outcomes_and_service_metrics() {
    let dir = scratch_dir("faults");
    let args = format!("{WORKLOAD} {FAULTS} --devices 4 --seed 7");
    let a = serve(&dir, "run1", &args, true);
    let b = serve(&dir, "run2", &args, false);

    assert_eq!(a.outcomes(), b.outcomes(), "per-request fitness must not depend on scheduling");
    assert_eq!(
        a.series(&["service_"]),
        b.series(&["service_"]),
        "the service_ namespace must not depend on scheduling"
    );
    assert_eq!(a.outcomes().len(), 17, "header plus one row per request");

    a.assert_all_completed();
    assert_eq!(a.summary_count(&["requests"]), 16);
    assert!(a.summary_count(&["cache", "served_from_cache"]) > 1, "{:?}", a.summary.get("cache"));
    assert_eq!(a.summary.get("devices").arr().len(), 4);

    assert!(
        a.metrics.lines().any(|l| l.starts_with("# HELP service_requests_submitted_total ")),
        "{}",
        a.metrics
    );
    assert!(a.metrics.lines().filter(|l| l.starts_with("# HELP service_")).count() > 10);

    // One named track per device, and kernel spans on them.
    let trace = a.trace.as_ref().expect("trace written");
    assert_eq!(trace.get("displayTimeUnit").str(), "ms");
    let events = trace.get("traceEvents").arr();
    let tracks: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").str() == "thread_name")
        .map(|e| e.get("args").get("name").str())
        .collect();
    assert_eq!(tracks, ["device 0", "device 1", "device 2", "device 3"]);
    assert!(events.iter().any(|e| e.get("cat").str() == "kernel"), "trace must carry kernels");

    // The same faulted workload on a native-configured fleet: fault
    // injection is sim-only, so every request routes back to the
    // simulator and the outcome set does not move.
    let native = serve(&dir, "native", &format!("{args} --backend native"), false);
    assert_eq!(native.outcomes(), a.outcomes(), "a native fleet under faults answers like sim");
    assert_eq!(native.counter("service_backend_requests_total{backend=\"native\"}"), 0);
    assert!(native.counter("service_backend_requests_total{backend=\"sim\"}") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn native_and_sim_fleets_write_identical_outcomes() {
    let dir = scratch_dir("backends");
    let args = format!("{WORKLOAD} --devices 2 --seed 7");
    let sim = serve(&dir, "sim", &format!("{args} --backend sim"), false);
    let native = serve(&dir, "native", &format!("{args} --backend native"), false);

    assert_eq!(native.outcomes(), sim.outcomes(), "outcomes are backend-independent");
    // Only a native-configured fleet registers the backend series, so a
    // sim fleet's snapshot stays as it was before the backend split.
    assert!(sim.series(&["service_backend_requests_total"]).is_empty(), "{}", sim.metrics);
    assert!(native.counter("service_backend_requests_total{backend=\"native\"}") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_runs_restart_workers_and_agree_on_every_outcome() {
    let dir = scratch_dir("chaos");
    // Under this plan five workers crash, and one request exhausts its
    // retry budget and is answered degraded.
    let args = format!(
        "{WORKLOAD} --devices 2 --seed 11 --chaos --fault-seed 13 --worker-crash-horizon 8"
    );
    let a = serve(&dir, "chaos1", &args, false);
    let b = serve(&dir, "chaos2", &args, false);

    assert!(a.counter("service_supervisor_restarts_total") > 0, "workers must crash");
    assert!(a.summary_count(&["supervisor", "restarts"]) > 0);
    a.assert_all_completed();
    assert!(a.summary_count(&["degraded"]) > 0, "a request must exhaust its retry budget");

    // Completion order shifts under chaos; the outcome set does not.
    let sorted = |run: &Run| {
        let mut rows = run.outcomes();
        rows.sort();
        rows
    };
    assert_eq!(sorted(&a), sorted(&b), "chaos outcome set must be deterministic");
    let recovery = ["service_supervisor_", "service_degraded_", "service_fault_"];
    assert_eq!(a.series(&recovery), b.series(&recovery), "recovery counters must be deterministic");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sick_device_trips_its_breaker() {
    let dir = scratch_dir("breaker");
    let args = format!(
        "{WORKLOAD} --devices 2 --seed 11 --fault-seed 9 --launch-failure-rate 1.0 \
         --faulty-device 1 --breaker-threshold 1 --breaker-open-ms 60000"
    );
    let run = serve(&dir, "breaker", &args, false);

    assert_eq!(run.summary_count(&["completed"]), run.summary_count(&["requests"]));
    assert!(run.summary_count(&["breaker", "opened"]) > 0);
    let sick = run
        .summary
        .get("devices")
        .arr()
        .iter()
        .find(|d| d.get("id").num() == 1.0)
        .expect("device 1 reported");
    assert!(sick.get("breaker_opened").num() > 0.0, "{sick:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
