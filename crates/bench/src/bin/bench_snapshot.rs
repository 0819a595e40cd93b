//! **Wall-clock benchmark snapshot.** Times one comparison and asserts that
//! every compared setting produces byte-identical outcomes before it writes
//! anything. A bare `bench_snapshot` prints its usage and exits with
//! status 2.
//!
//! **`--backend` mode (BENCH_pr10, DESIGN.md §16)** runs the Fig-11
//! `(n, ensemble)` grid of the UCDDCP SA pipeline on the simulator and on
//! the native backend and reports the wall-time speedup:
//!
//! ```text
//! cargo run --release -p cdd-bench --bin bench_snapshot -- --backend \
//!     [--sizes 50,200] [--ensembles 192,768] [--block-size 192] \
//!     [--iterations 200] [--seed 2016] [--repeats 3] [--out BENCH_pr10.json]
//! ```

use cdd_bench::{results_dir, Args};
use cdd_gpu::{run_gpu_sa, Backend, GpuRunResult, GpuSaParams};
use cdd_instances::InstanceId;
use std::fmt::Write as _;
use std::time::Instant;

/// FNV-1a over the run's outcome as one CSV line
/// (`0,objective,sequence,evaluations`; the leading request index keeps the
/// digest equal to the one BENCH_pr10 records).
fn outcome_sha(r: &GpuRunResult) -> u64 {
    let seq: Vec<String> = r.best.as_slice().iter().map(|j| j.to_string()).collect();
    let line = format!("0,{},{},{}", r.objective, seq.join("-"), r.evaluations);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in line.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One (n, ensemble) cell of the `--backend` snapshot: both backends run
/// the identical campaign; only the host wall clock may differ.
struct BackendCell {
    n: usize,
    ensemble: usize,
    blocks: usize,
    sim_wall: f64,
    native_wall: f64,
    outcome_sha: u64,
    modeled_seconds: f64,
    objective: i64,
}

/// `--backend` mode: the BENCH_pr10 snapshot (native host execution vs the
/// cuda-sim backend, DESIGN.md §16). Sweeps the Fig-11 `(n, ensemble)` grid
/// of the UCDDCP SA pipeline through both backends, asserts the FNV outcome
/// hash identical per cell before anything is written, and reports the real
/// wall-time speedup the native backend buys by skipping the simulator's
/// per-access cost model, fault machinery and modeled clock.
fn backend_snapshot(args: &Args) {
    let sizes = args.get_list_or("sizes", &[50usize, 200]);
    let ensembles = args.get_list_or("ensembles", &[192usize, 768]);
    let block_size = args.get_or("block-size", 192usize);
    let iterations = args.get_or("iterations", 200u64);
    let repeats = args.get_or("repeats", 3usize).max(1);
    let seed = args.get_or("seed", 2016u64);
    let out = args
        .get("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| results_dir().join("BENCH_pr10.json"));

    let host_cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    eprintln!(
        "bench_snapshot --backend: sizes {sizes:?}, ensembles {ensembles:?}, \
         {iterations} generations, {repeats} repeats, host has {host_cores} core(s)"
    );

    let mut cells: Vec<BackendCell> = Vec::new();
    for &n in &sizes {
        let inst = InstanceId::ucddcp(n, 1).instantiate();
        for &ensemble in &ensembles {
            let blocks = ensemble.div_ceil(block_size).max(1);
            let params = |backend| GpuSaParams {
                blocks,
                block_size: block_size.min(ensemble),
                iterations,
                seed,
                backend,
                ..GpuSaParams::default()
            };
            let mut walls = [f64::INFINITY; 2];
            let mut shas = [0u64; 2];
            let mut residue = None;
            for (b, backend) in [Backend::Sim, Backend::Native].into_iter().enumerate() {
                for _ in 0..repeats {
                    let start = Instant::now();
                    let r = run_gpu_sa(&inst, &params(backend)).expect("clean run");
                    walls[b] = walls[b].min(start.elapsed().as_secs_f64());
                    shas[b] = outcome_sha(&r);
                    if backend == Backend::Sim {
                        residue = Some((r.modeled_seconds, r.objective));
                    }
                }
            }
            // The parity contract, enforced before anything is written.
            assert!(
                shas[0] == shas[1],
                "BYTE-IDENTITY VIOLATION: n={n} ensemble={ensemble} native diverged from sim"
            );
            let (modeled_seconds, objective) = residue.expect("repeats >= 1");
            eprintln!(
                "  n={n:>4} ensemble={ensemble:>4} sim {:>8.4}s  native {:>8.4}s  \
                 speedup {:>5.1}x  sha {:#018x}",
                walls[0],
                walls[1],
                walls[0] / walls[1],
                shas[0]
            );
            cells.push(BackendCell {
                n,
                ensemble,
                blocks,
                sim_wall: walls[0],
                native_wall: walls[1],
                outcome_sha: shas[0],
                modeled_seconds,
                objective,
            });
        }
    }

    let mut rows = String::new();
    for c in &cells {
        if !rows.is_empty() {
            rows.push_str(",\n    ");
        }
        let _ = write!(
            rows,
            "{{\"n\":{},\"ensemble\":{},\"blocks\":{},\"block_size\":{},\
             \"sim_wall_seconds\":{:?},\"native_wall_seconds\":{:?},\
             \"native_speedup\":{:?},\"modeled_seconds\":{:?},\"objective\":{},\
             \"outcome_sha\":\"{:#018x}\",\"byte_identical\":true}}",
            c.n,
            c.ensemble,
            c.blocks,
            block_size.min(c.ensemble),
            c.sim_wall,
            c.native_wall,
            c.sim_wall / c.native_wall,
            c.modeled_seconds,
            c.objective,
            c.outcome_sha,
        );
    }
    let snapshot = format!(
        "{{\n  \"bench\": \"pr10_native_backend\",\n  \"pipeline\": \"gpu_sa\",\n  \
         \"host\": {{\"cores\": {host_cores}, \"os\": {:?}, \"arch\": {:?}}},\n  \
         \"config\": {{\"kind\": \"ucddcp\", \"block_size\": {block_size}, \
         \"iterations\": {iterations}, \"seed\": {seed}, \"repeats\": {repeats}}},\n  \
         \"note\": \"Each (n, ensemble) cell runs the identical SA campaign on the \
         cuda-sim backend (per-access cost model, modeled clock, fault machinery) and \
         the native host backend (same kernel bodies on the worker pool, none of the \
         simulation overhead). Outcomes are asserted FNV-identical per cell before \
         this file is written; the speedup is pure wall clock (DESIGN.md 16).\",\n  \
         \"runs\": [\n    {rows}\n  ]\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
    );
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(&out, &snapshot).expect("write snapshot");
    println!("snapshot: {}", out.display());
}

/// Printed, with exit status 2, when no mode is given.
const USAGE: &str = "usage: bench_snapshot --backend [--sizes 50,200] [--ensembles 192,768] \
[--block-size N] [--iterations N] [--seed S] [--repeats N] [--out PATH]";

fn main() {
    let args = Args::parse();
    if args.flag("backend") {
        backend_snapshot(&args);
    } else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
}
