//! **Wall-clock benchmark snapshot** for the parallel block-dispatch engine
//! (DESIGN.md §11): measures *host* wall-clock time of the GPU SA pipeline
//! across `--threads` settings while asserting that every deterministic
//! output — objective, winning sequence, evaluation and launch counts, and
//! the modeled clocks bit-for-bit — is byte-identical to the serial engine.
//!
//! Wall-clock numbers are honest measurements of *this* host and are
//! reported next to its core count: on a single-core container the parallel
//! settings cannot speed anything up (they measure dispatch overhead
//! instead), and the snapshot says so rather than extrapolating.
//!
//! ```text
//! cargo run --release -p cdd-bench --bin bench_snapshot -- \
//!     [--sizes 50,200,500] [--threads 1,2,4,8] [--iterations 100] \
//!     [--repeats 3] [--out BENCH_pr5.json] [--deterministic-out det.json]
//! ```
//!
//! `--out` gets the full snapshot (wall-clock included); the optional
//! `--deterministic-out` gets only the thread-count-invariant fields, which
//! CI byte-diffs across runs and thread settings.
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

use cdd_bench::{results_dir, Args};
use cdd_core::{Algorithm, Instance};
use cdd_gpu::{
    run_gpu_sa, run_gpu_solve_batch, Backend, GpuRunResult, GpuSaParams, GpuSolveSpec,
};
use cdd_instances::{cdd_instance, InstanceId};
use cuda_sim::SimParallelism;
use std::fmt::Write as _;
use std::time::Instant;

/// The thread-count-invariant outputs of one run (the determinism
/// contract's observable surface at this level).
#[derive(PartialEq, Clone)]
struct Deterministic {
    objective: i64,
    best: Vec<u32>,
    evaluations: u64,
    kernel_launches: usize,
    modeled_bits: u64,
    kernel_bits: u64,
    transfer_bits: u64,
}

impl Deterministic {
    fn of(r: &GpuRunResult) -> Self {
        Deterministic {
            objective: r.objective,
            best: r.best.as_slice().to_vec(),
            evaluations: r.evaluations,
            kernel_launches: r.kernel_launches,
            modeled_bits: r.modeled_seconds.to_bits(),
            kernel_bits: r.kernel_seconds.to_bits(),
            transfer_bits: r.transfer_seconds.to_bits(),
        }
    }

    fn to_json(&self, n: usize) -> String {
        format!(
            "{{\"n\":{},\"objective\":{},\"evaluations\":{},\"kernel_launches\":{},\
             \"modeled_seconds_bits\":\"{:#018x}\",\"kernel_seconds_bits\":\"{:#018x}\",\
             \"transfer_seconds_bits\":\"{:#018x}\"}}",
            n,
            self.objective,
            self.evaluations,
            self.kernel_launches,
            self.modeled_bits,
            self.kernel_bits,
            self.transfer_bits,
        )
    }
}

struct Measured {
    n: usize,
    setting: SimParallelism,
    wall_seconds: f64,
    det: Deterministic,
}

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

fn main() {
    let args = Args::parse();
    if args.flag("batch") {
        batch_snapshot(&args);
        return;
    }
    if args.flag("backend") {
        backend_snapshot(&args);
        return;
    }
    let sizes = args.get_list_or("sizes", &[50usize, 200, 500]);
    let thread_counts = args.get_list_or("threads", &[1usize, 2, 4, 8]);
    let iterations = args.get_or("iterations", 100u64);
    let repeats = args.get_or("repeats", 3usize).max(1);
    let blocks = args.get_or("blocks", 4usize);
    let block_size = args.get_or("block-size", 64usize);
    let seed = args.get_or("seed", 2016u64);
    let out = args.get("out").map(std::path::PathBuf::from).unwrap_or_else(|| {
        results_dir().join("BENCH_pr5.json")
    });

    let host_cores =
        std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    eprintln!(
        "bench_snapshot: sizes {sizes:?}, threads {thread_counts:?}, {iterations} generations, \
         {blocks}×{block_size} grid, {repeats} repeats, host has {host_cores} core(s)"
    );

    let mut measured: Vec<Measured> = Vec::new();
    for &n in &sizes {
        let inst = cdd_instance(n, 1, 0.6);
        let mut settings = vec![SimParallelism::Serial];
        settings.extend(thread_counts.iter().map(|&k| SimParallelism::Threads(k)));

        let mut serial_det: Option<Deterministic> = None;
        for par in settings {
            let mut params = GpuSaParams {
                blocks,
                block_size,
                iterations,
                seed,
                ..GpuSaParams::default()
            };
            params.device.parallelism = par;

            // Best-of-`repeats` wall time: the minimum is the least noisy
            // estimator for a deterministic workload on a shared host.
            let mut best_wall = f64::INFINITY;
            let mut det = None;
            for _ in 0..repeats {
                let start = Instant::now();
                let r = run_gpu_sa(&inst, &params).expect("clean run");
                best_wall = best_wall.min(start.elapsed().as_secs_f64());
                det = Some(Deterministic::of(&r));
            }
            let det = det.expect("repeats >= 1");

            // The determinism contract, enforced per size before anything
            // is written: every setting must match the serial engine.
            match &serial_det {
                None => serial_det = Some(det.clone()),
                Some(serial) => assert!(
                    *serial == det,
                    "BYTE-IDENTITY VIOLATION: n={n} at {par} diverged from serial"
                ),
            }
            eprintln!(
                "  n={n:>4} sim-threads={par:<6} wall {best_wall:>9.4}s  modeled {:.6}s  obj {}",
                f64::from_bits(det.modeled_bits),
                det.objective
            );
            measured.push(Measured { n, setting: par, wall_seconds: best_wall, det });
        }
    }

    // Full snapshot, wall-clock included.
    let mut runs = String::new();
    for m in &measured {
        let serial_wall = measured
            .iter()
            .find(|s| s.n == m.n && s.setting == SimParallelism::Serial)
            .expect("serial baseline measured first")
            .wall_seconds;
        if !runs.is_empty() {
            runs.push_str(",\n    ");
        }
        let _ = write!(
            runs,
            "{{\"n\":{},\"sim_threads\":\"{}\",\"resolved_threads\":{},\
             \"wall_seconds\":{:?},\"speedup_vs_serial\":{:?},\
             \"modeled_seconds\":{:?},\"objective\":{},\"kernel_launches\":{},\
             \"evaluations\":{},\"byte_identical_to_serial\":true}}",
            m.n,
            m.setting,
            m.setting.resolve(),
            m.wall_seconds,
            serial_wall / m.wall_seconds,
            f64::from_bits(m.det.modeled_bits),
            m.det.objective,
            m.det.kernel_launches,
            m.det.evaluations,
        );
    }
    let snapshot = format!(
        "{{\n  \"bench\": \"pr5_parallel_block_dispatch\",\n  \"pipeline\": \"gpu_sa\",\n  \
         \"host\": {{\"cores\": {host_cores}, \"os\": {:?}, \"arch\": {:?}}},\n  \
         \"config\": {{\"blocks\": {blocks}, \"block_size\": {block_size}, \
         \"iterations\": {iterations}, \"seed\": {seed}, \"repeats\": {repeats}}},\n  \
         \"note\": \"Wall-clock speedups are bounded by the host's physical cores; on a \
         single-core host the threaded settings measure dispatch overhead, not speedup. \
         Deterministic outputs are asserted byte-identical across all settings before \
         this file is written.\",\n  \"runs\": [\n    {runs}\n  ]\n}}\n",
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

    // Deterministic-only sidecar for CI byte-diffing: identical content for
    // every run of the same configuration, at any thread setting.
    if let Some(path) = args.get("deterministic-out") {
        let mut det = String::new();
        for m in measured.iter().filter(|m| m.setting == SimParallelism::Serial) {
            if !det.is_empty() {
                det.push_str(",\n  ");
            }
            det.push_str(&m.det.to_json(m.n));
        }
        let body = format!("[\n  {det}\n]\n");
        std::fs::write(path, body).expect("write deterministic sidecar");
        println!("deterministic sidecar: {path}");
    }
}
