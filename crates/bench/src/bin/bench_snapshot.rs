//! **Wall-clock benchmark snapshots.** Each mode times one comparison and
//! asserts that every compared setting produces byte-identical outcomes
//! before it writes anything. A bare `bench_snapshot` prints its usage and
//! exits with status 2.
//!
//! **`--batch` mode (BENCH_pr8, DESIGN.md §14)** replays a small-`n`
//! seed-sweep workload through the service's fused dispatch path
//! (`cdd_gpu::run_gpu_solve_batch`, the call the worker loop makes after
//! draining its batching window) at several window settings, measuring how
//! cross-request launch fusion amortizes the per-kernel dispatch overhead
//! that dominates small-`n` wall time. Every setting's sorted outcome set
//! is hashed and asserted byte-identical to the unbatched baseline before
//! the snapshot is written:
//!
//! ```text
//! cargo run --release -p cdd-bench --bin bench_snapshot -- --batch \
//!     [--requests 64] [--n 12] [--iterations 120] [--seed 2016] \
//!     [--windows 1,4,8] [--repeats 2] [--out BENCH_pr8.json]
//! ```
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
use cdd_core::{Algorithm, Instance};
use cdd_gpu::{
    run_gpu_sa, run_gpu_solve_batch, Backend, GpuRunResult, GpuSaParams, GpuSolveSpec,
};
use cdd_instances::{cdd_instance, InstanceId};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured service replay: wall time plus the deterministic residue
/// (outcome hash, fusion tallies) the snapshot reports.
struct BatchRun {
    batch_window: usize,
    wall_seconds: f64,
    batch_launches: u64,
    fused_requests: u64,
    outcome_sha: u64,
}

/// FNV-1a over the sorted per-request outcome CSV — the same digest shape
/// BENCH_pr7 pinned for the net tier, so the two snapshots read alike.
fn outcome_sha(outcomes: &[(usize, GpuRunResult)]) -> u64 {
    let mut lines: Vec<String> = outcomes
        .iter()
        .map(|(i, r)| {
            let seq: Vec<String> =
                r.best.as_slice().iter().map(|j| j.to_string()).collect();
            format!("{},{},{},{}", i, r.objective, seq.join("-"), r.evaluations)
        })
        .collect();
    lines.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in lines.join("\n").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Replay a `requests`-deep seed-sweep in dispatch windows of
/// `batch_window`, exactly as the service worker drains its queue: windows
/// of one go through the solo pipeline, wider windows through the fused
/// batch driver (`cdd_gpu::run_gpu_solve_batch`). Returns the wall time,
/// the per-request outcome set, and the fusion tallies the service would
/// report as `timing_batch_*`.
fn replay_windows(
    requests: usize,
    n: usize,
    iterations: u64,
    seed: u64,
    batch_window: usize,
) -> (f64, Vec<(usize, GpuRunResult)>, u64, u64) {
    let inst = cdd_instance(n, 1, 0.6);
    let spec = GpuSolveSpec { blocks: 1, block_size: 32, ..GpuSolveSpec::default() };
    let entries: Vec<(Instance, u64)> =
        (0..requests).map(|i| (inst.clone(), seed + i as u64)).collect();

    let mut outcomes = Vec::with_capacity(requests);
    let mut batch_launches = 0u64;
    let mut fused_requests = 0u64;
    let start = Instant::now();
    for (w, chunk) in entries.chunks(batch_window.max(1)).enumerate() {
        let results = run_gpu_solve_batch(chunk, Algorithm::Sa, iterations, &spec)
            .expect("replay window solves cleanly");
        if chunk.len() > 1 {
            batch_launches += 1;
            fused_requests += chunk.len() as u64;
        }
        let base = w * batch_window.max(1);
        outcomes.extend(results.into_iter().enumerate().map(|(j, r)| (base + j, r)));
    }
    let wall = start.elapsed().as_secs_f64();
    (wall, outcomes, batch_launches, fused_requests)
}

/// `--batch` mode: the BENCH_pr8 snapshot (cross-request launch fusion on
/// the small-`n` service replay workload).
fn batch_snapshot(args: &Args) {
    let requests = args.get_or("requests", 64usize);
    let n = args.get_or("n", 12usize);
    let iterations = args.get_or("iterations", 120u64);
    let seed = args.get_or("seed", 2016u64);
    let repeats = args.get_or("repeats", 2usize).max(1);
    let windows = args.get_list_or("windows", &[1usize, 4, 8]);
    let out = args
        .get("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| results_dir().join("BENCH_pr8.json"));

    let host_cores =
        std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    eprintln!(
        "bench_snapshot --batch: {requests} requests, n={n}, {iterations} generations, \
         windows {windows:?}, {repeats} repeats, host has {host_cores} core(s)"
    );

    // Unbatched baseline first, then each fusion window.
    let mut settings: Vec<usize> = Vec::new();
    if !windows.contains(&1) {
        settings.push(1);
    }
    settings.extend(windows.iter().map(|&w| w.max(1)));

    let mut runs: Vec<BatchRun> = Vec::new();
    for window in settings {
        let mut best_wall = f64::INFINITY;
        let mut residue = None;
        for _ in 0..repeats {
            let (wall, outcomes, launches, fused) =
                replay_windows(requests, n, iterations, seed, window);
            best_wall = best_wall.min(wall);
            residue = Some((outcome_sha(&outcomes), launches, fused));
        }
        let (sha, batch_launches, fused_requests) = residue.expect("repeats >= 1");

        // The determinism contract, enforced before anything is written:
        // every setting must reproduce the unbatched baseline's outcome set.
        if let Some(base) = runs.first() {
            assert!(
                base.outcome_sha == sha,
                "BYTE-IDENTITY VIOLATION: window={window} diverged from the unbatched baseline"
            );
        }
        eprintln!(
            "  window={window:>2} wall {best_wall:>8.4}s  \
             fused {fused_requests:>3} req / {batch_launches:>3} launches  sha {sha:#018x}"
        );
        runs.push(BatchRun {
            batch_window: window,
            wall_seconds: best_wall,
            batch_launches,
            fused_requests,
            outcome_sha: sha,
        });
    }

    let base_wall = runs.first().expect("baseline measured").wall_seconds;
    let mut rows = String::new();
    for r in &runs {
        if !rows.is_empty() {
            rows.push_str(",\n    ");
        }
        let _ = write!(
            rows,
            "{{\"batch_window\":{},\"wall_seconds\":{:?},\
             \"speedup_vs_unbatched\":{:?},\"batch_launches\":{},\
             \"fused_requests\":{},\"outcome_sha\":\"{:#018x}\",\
             \"byte_identical_to_unbatched\":true}}",
            r.batch_window,
            r.wall_seconds,
            base_wall / r.wall_seconds,
            r.batch_launches,
            r.fused_requests,
            r.outcome_sha,
        );
    }
    let snapshot = format!(
        "{{\n  \"bench\": \"pr8_batched_launches\",\n  \"pipeline\": \"gpu_sa_batch\",\n  \
         \"host\": {{\"cores\": {host_cores}, \"os\": {:?}, \"arch\": {:?}}},\n  \
         \"config\": {{\"requests\": {requests}, \"n\": {n}, \"iterations\": {iterations}, \
         \"seed\": {seed}, \"blocks\": 1, \"block_size\": 32, \"devices\": 1, \
         \"repeats\": {repeats}}},\n  \
         \"note\": \"Seed-sweep replay of {requests} small-n SA requests through the \
         service worker's dispatch path on one device. Fusion packs up to batch_window \
         requests into one launch sequence, dividing the per-kernel dispatch overhead \
         (1 + 4*iterations launches per solo run) across the batch. Outcome sets are \
         asserted byte-identical to the unbatched baseline before this file is \
         written.\",\n  \
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
                    shas[b] = outcome_sha(std::slice::from_ref(&(0usize, r.clone())));
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
const USAGE: &str = "usage: bench_snapshot --batch [--requests N] [--n N] [--iterations N] \
[--seed S] [--windows 1,4,8] [--repeats N] [--out PATH]
       bench_snapshot --backend [--sizes 50,200] [--ensembles 192,768] [--block-size N] \
[--iterations N] [--seed S] [--repeats N] [--out PATH]";

fn main() {
    let args = Args::parse();
    if args.flag("batch") {
        batch_snapshot(&args);
    } else if args.flag("backend") {
        backend_snapshot(&args);
    } else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
}
