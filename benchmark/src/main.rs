//! Command line of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--port-base P] [--smoke]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is its JSON result. Without it, every workload runs
//! in a child process of its own, one after another. `--seconds` defaults
//! to `run_seconds` in the repository's `BENCHMARK.json`.

use cdd_e2e_bench::fleet::{DEFAULT_PORT_BASE, PORTS};
use cdd_e2e_bench::spans::Spans;
use cdd_e2e_bench::workloads::{self, Scale, WORKLOADS};
use cdd_e2e_bench::{layers, run, verify};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: cdd-e2e-bench [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--port-base P] [--smoke]";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    port_base: u16,
    smoke: bool,
}

/// `run_seconds` of the repository's `BENCHMARK.json`, the default of
/// `--seconds`: the file is the one place the run length is declared.
fn declared_run_seconds() -> f64 {
    const SPEC: &str = include_str!("../../BENCHMARK.json");
    const KEY: &str = "\"run_seconds\"";
    let at = SPEC.find(KEY).expect("BENCHMARK.json declares run_seconds") + KEY.len();
    let value = SPEC[at..].trim_start().trim_start_matches(':').trim_start();
    let end = value
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(value.len());
    value[..end]
        .parse()
        .expect("run_seconds in BENCHMARK.json is a whole number")
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: verify::DEFAULT_SEED,
        seconds: declared_run_seconds(),
        trace: false,
        port_base: DEFAULT_PORT_BASE,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--port-base" => {
                args.port_base = value()?.parse().map_err(|e| format!("--port-base: {e}"))?;
                if args.port_base.checked_add(PORTS).is_none() || args.port_base < 1024 {
                    return Err(format!(
                        "--port-base must lie in [1024, {}]",
                        u16::MAX - PORTS
                    ));
                }
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.json"))
}

fn run_one(args: &Args, name: &str) -> ExitCode {
    let Some(w) = workloads::find(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {name:?} (known: {})",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full(args.seconds)
    };
    let w = w.at(&scale);
    let result = if args.trace {
        let mut spans = Spans::new();
        let report = layers::per_layer(&w, args.seed, &scale, args.port_base, &mut spans);
        let path = trace_path(w.name, args.seed);
        match spans.write(&path) {
            Ok(()) => eprintln!(
                "{}: {} trace events written to {}",
                w.name,
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("{}: could not write {}: {e}", w.name, path.display()),
        }
        report
    } else {
        run::end_to_end(&w, args.seed, &scale, args.port_base)
    };
    match result {
        Ok(report) => {
            report.print(w.name);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

/// Run every workload, each in a child process of its own, one after
/// another; fail if any child fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--port-base", &args.port_base.to_string()])
            .env_remove(cuda_sim::SIM_THREADS_ENV);
        if args.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("error: workload {} exited with {status}", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("error: cannot run workload {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Block dispatch stays serial whatever the caller's environment says.
    std::env::remove_var(cuda_sim::SIM_THREADS_ENV);
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(&args, name),
        None => run_all(&args),
    }
}
