//! Campaign plumbing shared by the bench binaries: the four parallel
//! algorithm configurations of the paper, GPU runs, and measured CPU
//! baselines.

use crate::journal::{CellRecord, Journal};
use crate::observer::{CampaignObserver, CellSource};
use cdd_core::eval::evaluator_for;
use cdd_core::{Algorithm, Cost, Instance, SuiteError};
use cdd_gpu::{run_gpu_solve, GpuRunResult, GpuSolveSpec};
use cdd_instances::{BestKnown, InstanceId};
use cdd_meta::{EsParams, EvolutionStrategy, SaParams, SimulatedAnnealing};
use cuda_sim::{DeviceSpec, FaultPlan};
use std::path::PathBuf;
use std::time::Instant;

/// The four parallel configurations of Tables II–V.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// Parallel SA, 1000 generations.
    Sa1000,
    /// Parallel SA, 5000 generations.
    Sa5000,
    /// Parallel DPSO, 1000 generations.
    Dpso1000,
    /// Parallel DPSO, 5000 generations.
    Dpso5000,
}

impl AlgoKind {
    /// Column label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            AlgoKind::Sa1000 => "SA1000",
            AlgoKind::Sa5000 => "SA5000",
            AlgoKind::Dpso1000 => "DPSO1000",
            AlgoKind::Dpso5000 => "DPSO5000",
        }
    }

    /// Generation budget.
    pub fn iterations(self) -> u64 {
        match self {
            AlgoKind::Sa1000 | AlgoKind::Dpso1000 => 1000,
            AlgoKind::Sa5000 | AlgoKind::Dpso5000 => 5000,
        }
    }

    /// Whether this is an SA configuration.
    pub fn is_sa(self) -> bool {
        matches!(self, AlgoKind::Sa1000 | AlgoKind::Sa5000)
    }

    /// The underlying algorithm (the service-layer vocabulary of
    /// `cdd_core::solve`): a table configuration is an algorithm plus a
    /// generation budget.
    pub fn algorithm(self) -> Algorithm {
        if self.is_sa() {
            Algorithm::Sa
        } else {
            Algorithm::Dpso
        }
    }
}

/// All four configurations, table order.
pub fn gpu_algorithms() -> [AlgoKind; 4] {
    [AlgoKind::Sa1000, AlgoKind::Sa5000, AlgoKind::Dpso1000, AlgoKind::Dpso5000]
}

/// Shared campaign knobs (parsed from CLI flags by the binaries).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Job sizes to evaluate.
    pub sizes: Vec<usize>,
    /// Grid size (paper: 4 blocks).
    pub blocks: usize,
    /// Block size (paper: 192 threads).
    pub block_size: usize,
    /// Master seed.
    pub seed: u64,
    /// Simulated device.
    pub device: DeviceSpec,
    /// Base fault plan (None = clean device). Each campaign cell derives its
    /// own plan from this seed and the cell seed, so interrupted and
    /// uninterrupted runs inject identical faults per cell.
    pub fault: Option<FaultPlan>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            sizes: vec![10, 20, 50, 100, 200],
            blocks: 4,
            block_size: 192,
            seed: 2016,
            device: DeviceSpec::gt560m(),
            fault: None,
        }
    }
}

impl CampaignConfig {
    /// The paper's full size sweep.
    pub fn full() -> Self {
        CampaignConfig { sizes: vec![10, 20, 50, 100, 200, 500, 1000], ..Default::default() }
    }

    /// Ensemble size (threads = particles = chains).
    pub fn ensemble(&self) -> usize {
        self.blocks * self.block_size
    }

    /// Derive the fault plan for one campaign cell: a pure function of the
    /// base plan and the cell seed, so resumed runs replay identical faults.
    pub fn cell_fault_plan(&self, cell_seed: u64) -> Option<FaultPlan> {
        self.fault.as_ref().map(|p| p.reseeded(p.seed ^ cell_seed.rotate_left(17)))
    }
}

// Parsed from CLI flags in `crate::cli` since the service PR; re-exported
// here because campaign code is where callers historically found it.
pub use crate::cli::fault_plan_from_args;

/// Run one of the four parallel configurations on one instance. Launch
/// failures, injected faults and corrupt results surface as [`SuiteError`]
/// (resilience — retries, reseeded re-attempts, oracle repair, CPU fallback
/// — has already been applied inside the pipelines by this point).
pub fn run_algo_on_instance(
    inst: &Instance,
    algo: AlgoKind,
    cfg: &CampaignConfig,
    seed: u64,
) -> Result<GpuRunResult, SuiteError> {
    let spec = GpuSolveSpec {
        blocks: cfg.blocks,
        block_size: cfg.block_size,
        device: cfg.device.clone(),
        fault: cfg.cell_fault_plan(seed),
        ..Default::default()
    };
    run_gpu_solve(inst, algo.algorithm(), algo.iterations(), seed, &spec)
}

/// Which CPU implementation a speed-up is measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuBaseline {
    /// A single long SA chain — the Lässig et al. \[7\] stand-in.
    LassigSa,
    /// A (μ+λ) evolution strategy — the Feldmann–Biskup \[18\] stand-in.
    FeldmannBiskupEs,
}

impl CpuBaseline {
    /// Citation-style label used in Table III.
    pub fn label(self) -> &'static str {
        match self {
            CpuBaseline::LassigSa => "[7]",
            CpuBaseline::FeldmannBiskupEs => "[18]",
        }
    }
}

/// Measure a **work-matched** CPU baseline: the chosen CPU metaheuristic is
/// given the same total number of fitness evaluations the GPU ensemble
/// performs (`ensemble × generations`), and its wall-clock time is measured.
///
/// This is the substitution for the published CPU runtimes of \[7\]/\[18\]
/// (different machines, unavailable offline): both sides of the resulting
/// speed-up run the same fitness code on the same host, so the ratio and
/// its growth with `n` are meaningful. Returns `(seconds, objective)`.
pub fn cpu_baseline_seconds(
    inst: &Instance,
    evaluations: u64,
    style: CpuBaseline,
    seed: u64,
) -> (f64, Cost) {
    let eval = evaluator_for(inst);
    let start = Instant::now();
    let objective = match style {
        CpuBaseline::LassigSa => {
            let sa = SimulatedAnnealing::new(
                eval.as_ref(),
                SaParams { iterations: evaluations.saturating_sub(1).max(1), ..Default::default() },
            );
            sa.run(seed).objective
        }
        CpuBaseline::FeldmannBiskupEs => {
            // μ+λ ES: evaluations ≈ μ + λ·generations.
            let (mu, lambda) = (10u64, 20u64);
            let generations = (evaluations.saturating_sub(mu) / lambda).max(1);
            let es = EvolutionStrategy::new(
                eval.as_ref(),
                EsParams { mu: mu as usize, lambda: lambda as usize, generations },
            );
            es.run(seed).objective
        }
    };
    (start.elapsed().as_secs_f64(), objective)
}

/// Location of the frozen best-known table (`CDD_BEST_KNOWN` overrides).
pub fn best_known_path() -> PathBuf {
    std::env::var_os("CDD_BEST_KNOWN")
        .map(Into::into)
        .unwrap_or_else(|| PathBuf::from("data/best_known/best_known.txt"))
}

/// Deterministic per-instance seed (mixes the campaign seed with the id).
pub fn instance_seed(base: u64, id: &InstanceId) -> u64 {
    let mut z = base ^ (id.n as u64) << 32
        ^ (id.k as u64) << 8
        ^ id.h.map_or(0, |h| (h * 10.0) as u64);
    // SplitMix64 finalizer.
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The reference CPU solver that produces best-known values: an
/// asynchronous CPU SA ensemble seeded from the V-shaped heuristic spread
/// (the role the published results of \[7\]/\[8\] play in the paper — see
/// DESIGN.md §2).
pub fn reference_best(inst: &Instance, chains: usize, iterations: u64, seed: u64) -> Cost {
    use cdd_gpu::{initial_ensemble, InitStrategy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let eval = evaluator_for(inst);
    let mut rng = StdRng::seed_from_u64(seed);
    let heuristic = cdd_core::heuristics::v_shaped_sequence(inst);
    let t0 =
        cdd_meta::initial_temperature_local(eval.as_ref(), &heuristic, 4, 300, &mut rng);
    let sa = SimulatedAnnealing::new(
        eval.as_ref(),
        SaParams { iterations, t0: Some(t0), ..Default::default() },
    );
    let n = inst.n();
    let flat = initial_ensemble(inst, chains, InitStrategy::VShapedSpread, &mut rng);
    let mut best = Cost::MAX;
    for c in 0..chains {
        let start = cdd_core::JobSequence::from_vec(flat[c * n..(c + 1) * n].to_vec())
            .expect("ensemble rows are permutations");
        best = best.min(sa.run_from(start, &mut rng).objective);
    }
    best
}

/// Make sure every id has a best-known entry, computing missing ones with
/// [`reference_best`] (default reference budget). Returns how many were
/// computed.
pub fn ensure_best_known(
    ids: &[InstanceId],
    table: &mut BestKnown,
    chains: usize,
    iterations: u64,
) -> usize {
    let mut computed = 0;
    for id in ids {
        let key = id.to_string();
        if table.get(&key).is_none() {
            let inst = id.instantiate();
            let obj = reference_best(&inst, chains, iterations, 0xBE57 ^ instance_seed(0, id));
            table.improve(&key, obj);
            computed += 1;
            eprintln!("  best-known[{key}] = {obj} (computed)");
        }
    }
    computed
}

/// Run the four parallel configurations over a suite and aggregate average
/// `%Δ` per size class — the computation behind Tables II and IV.
///
/// Resilience plumbing:
///
/// - every completed cell is appended to `journal` (when given) with an
///   atomic rewrite, so a killed campaign resumes from its intact prefix;
///   journaled cells are replayed instead of re-run, and because per-cell
///   seeds and fault plans are pure functions of `cfg`, the resumed CSVs
///   are byte-identical to an uninterrupted run's;
/// - a failing cell (device unusable, result unrecoverable) is isolated: it
///   becomes a `failed: …` detail row and is excluded from that size's
///   average instead of aborting the campaign;
/// - `max_cells` bounds the number of cells *executed* (journal replays are
///   free) — the campaign stops early once the budget is spent, which is
///   how the resume test (and an operator pacing a long campaign) slices
///   work;
/// - `observer` (when given) accumulates per-kernel metrics and the
///   modeled-clock trace; replayed cells fold their journaled metrics in,
///   so a resumed campaign's cell counters match an uninterrupted one's.
///
/// Returns `(summary rows, per-instance detail table)`.
pub fn run_quality_suite(
    cfg: &CampaignConfig,
    ids: &[InstanceId],
    best: &BestKnown,
    mut journal: Option<&mut Journal>,
    max_cells: Option<usize>,
    mut observer: Option<&mut CampaignObserver>,
) -> (Vec<QualityRow>, crate::report::Table) {
    let algos = gpu_algorithms();
    let mut detail = crate::report::Table::new(vec![
        "instance", "algorithm", "objective", "best_known", "pct_delta", "gpu_modeled_s", "status",
    ]);
    let mut rows = Vec::new();
    let mut executed = 0usize;
    'sizes: for &n in &cfg.sizes {
        let members: Vec<&InstanceId> = ids.iter().filter(|id| id.n == n).collect();
        if members.is_empty() {
            continue;
        }
        let mut sums = vec![0.0f64; algos.len()];
        let mut counts = vec![0usize; algos.len()];
        for id in &members {
            let inst = id.instantiate();
            let key = id.to_string();
            let best_value = best
                .get(&key)
                .unwrap_or_else(|| panic!("no best-known value for {key}; run make_best_known"));
            for (a, &algo) in algos.iter().enumerate() {
                let seed = instance_seed(cfg.seed, id);
                let cell = match journal.as_ref().and_then(|j| j.get(&key, algo.label(), seed)) {
                    Some(rec) => {
                        let rec = rec.clone();
                        if let Some(obs) = observer.as_deref_mut() {
                            obs.record_cell(&rec, CellSource::Replayed);
                        }
                        Ok(rec)
                    }
                    None => {
                        if max_cells.is_some_and(|limit| executed >= limit) {
                            eprintln!(
                                "  stopping early: --max-cells {} exhausted (resume to continue)",
                                executed
                            );
                            break 'sizes;
                        }
                        executed += 1;
                        match run_algo_on_instance(&inst, algo, cfg, seed) {
                            Ok(r) => {
                                let rec = cell_record(&key, algo, seed, &r);
                                if let Some(j) = journal.as_deref_mut() {
                                    j.record(rec.clone()).expect("journal writable");
                                }
                                if let Some(obs) = observer.as_deref_mut() {
                                    obs.record_run(&format!("{key}/{}", algo.label()), &r);
                                    obs.record_cell(&rec, CellSource::Executed);
                                }
                                Ok(rec)
                            }
                            Err(e) => {
                                if let Some(obs) = observer.as_deref_mut() {
                                    obs.record_failure();
                                }
                                Err(e)
                            }
                        }
                    }
                };
                match cell {
                    Ok(rec) => {
                        let delta =
                            best.percent_delta(&key, rec.objective).expect("key checked above");
                        sums[a] += delta;
                        counts[a] += 1;
                        detail.push(vec![
                            key.clone(),
                            algo.label().to_string(),
                            rec.objective.to_string(),
                            best_value.to_string(),
                            format!("{delta:.3}"),
                            format!("{:.6}", rec.modeled_seconds),
                            rec.status,
                        ]);
                    }
                    Err(e) => {
                        eprintln!("  cell {key}/{} failed: {e}", algo.label());
                        detail.push(vec![
                            key.clone(),
                            algo.label().to_string(),
                            "-".to_string(),
                            best_value.to_string(),
                            "-".to_string(),
                            "-".to_string(),
                            format!("failed: {e}"),
                        ]);
                    }
                }
            }
        }
        rows.push(QualityRow {
            n,
            deltas: sums
                .iter()
                .zip(&counts)
                .map(|(s, &c)| if c == 0 { f64::NAN } else { s / c as f64 })
                .collect(),
            instances: members.len(),
        });
        eprintln!("  n = {n}: averaged {} instances", members.len());
    }
    (rows, detail)
}

/// Build the journal record for one completed run (also the unit the
/// observer counts, so fresh and replayed cells fold identical numbers).
fn cell_record(key: &str, algo: AlgoKind, seed: u64, r: &GpuRunResult) -> CellRecord {
    CellRecord {
        instance: key.to_string(),
        algo: algo.label().to_string(),
        seed,
        objective: r.objective,
        modeled_seconds: r.modeled_seconds,
        kernel_seconds: r.kernel_seconds,
        transfer_seconds: r.transfer_seconds,
        kernel_launches: r.kernel_launches as u64,
        faults_injected: r.recovery.faults.transient_launch_failures
            + r.recovery.faults.bit_flips
            + r.recovery.faults.hung_kernels,
        status: if r.recovery.cpu_fallback {
            "ok-cpu-fallback".to_string()
        } else {
            "ok".to_string()
        },
    }
}

/// Run the speed-up measurement for one problem kind — the computation
/// behind Tables III/V and Figs. 13–14/16–17.
///
/// GPU modeled time is taken on a representative instance per size (runtime
/// is penalty-independent); the CPU baselines get a work-matched evaluation
/// budget (see [`cpu_baseline_seconds`]); `observer` (when given) collects
/// the same per-kernel metrics and modeled-clock trace as the quality
/// campaigns.
pub fn run_speedup_suite(
    cfg: &CampaignConfig,
    representative: impl Fn(usize) -> InstanceId,
    with_es_baseline: bool,
    mut observer: Option<&mut CampaignObserver>,
) -> (crate::report::Table, crate::report::Table) {
    let algos = gpu_algorithms();
    let mut headers = vec!["Jobs".to_string()];
    for algo in algos {
        headers.push(format!("{}-vs[7]", algo.label()));
        if with_es_baseline {
            headers.push(format!("{}-vs[18]", algo.label()));
        }
    }
    let mut speedup = crate::report::Table::new(headers);
    let mut runtime = crate::report::Table::new(vec![
        "Jobs".to_string(),
        "SA1000-gpu-s".into(),
        "SA5000-gpu-s".into(),
        "DPSO1000-gpu-s".into(),
        "DPSO5000-gpu-s".into(),
        "CPU[7]-1000-s".into(),
        "CPU[7]-5000-s".into(),
    ]);

    for &n in &cfg.sizes {
        let id = representative(n);
        let inst = id.instantiate();
        let seed = instance_seed(cfg.seed, &id);

        // CPU baselines, measured once per (n, generation budget).
        let evals_1000 = cfg.ensemble() as u64 * 1000;
        let evals_5000 = cfg.ensemble() as u64 * 5000;
        let (cpu_sa_1000, _) = cpu_baseline_seconds(&inst, evals_1000, CpuBaseline::LassigSa, seed);
        let (cpu_sa_5000, _) = cpu_baseline_seconds(&inst, evals_5000, CpuBaseline::LassigSa, seed);
        let (cpu_es_1000, cpu_es_5000) = if with_es_baseline {
            let (a, _) = cpu_baseline_seconds(&inst, evals_1000, CpuBaseline::FeldmannBiskupEs, seed);
            let (b, _) = cpu_baseline_seconds(&inst, evals_5000, CpuBaseline::FeldmannBiskupEs, seed);
            (a, b)
        } else {
            (0.0, 0.0)
        };

        let mut srow = vec![n.to_string()];
        let mut gpu_cells = Vec::new();
        for algo in algos {
            // A failed cell is isolated: its columns render as `err` and the
            // rest of the sweep continues.
            match run_algo_on_instance(&inst, algo, cfg, seed) {
                Ok(r) => {
                    if let Some(obs) = observer.as_deref_mut() {
                        let key = id.to_string();
                        obs.record_run(&format!("{key}/{}", algo.label()), &r);
                        obs.record_cell(&cell_record(&key, algo, seed, &r), CellSource::Executed);
                    }
                    let cpu_sa = if algo.iterations() == 1000 { cpu_sa_1000 } else { cpu_sa_5000 };
                    srow.push(format!("{:.1}", cpu_sa / r.modeled_seconds));
                    if with_es_baseline {
                        let cpu_es =
                            if algo.iterations() == 1000 { cpu_es_1000 } else { cpu_es_5000 };
                        srow.push(format!("{:.1}", cpu_es / r.modeled_seconds));
                    }
                    gpu_cells.push(format!("{:.6}", r.modeled_seconds));
                }
                Err(e) => {
                    eprintln!("  cell n={n}/{} failed: {e}", algo.label());
                    if let Some(obs) = observer.as_deref_mut() {
                        obs.record_failure();
                    }
                    srow.push("err".to_string());
                    if with_es_baseline {
                        srow.push("err".to_string());
                    }
                    gpu_cells.push("err".to_string());
                }
            }
        }
        speedup.push(srow);
        let mut rrow = vec![n.to_string()];
        rrow.extend(gpu_cells);
        rrow.push(format!("{cpu_sa_1000:.4}"));
        rrow.push(format!("{cpu_sa_5000:.4}"));
        runtime.push(rrow);
        eprintln!("  n = {n}: done");
    }
    (speedup, runtime)
}

#[derive(Debug, Clone)]
/// One row of a quality table: average `%Δ` per algorithm for a size class.
pub struct QualityRow {
    /// Job count.
    pub n: usize,
    /// Average percentage deviation per algorithm (table order).
    pub deltas: Vec<f64>,
    /// Instances averaged.
    pub instances: usize,
}

#[derive(Debug, Clone)]
/// One row of a speed-up table.
pub struct SpeedupRow {
    /// Job count.
    pub n: usize,
    /// Modeled GPU seconds per algorithm (table order).
    pub gpu_seconds: Vec<f64>,
    /// Measured CPU baseline seconds per algorithm and baseline.
    pub speedups: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_metadata() {
        assert_eq!(AlgoKind::Sa5000.iterations(), 5000);
        assert_eq!(AlgoKind::Dpso1000.label(), "DPSO1000");
        assert!(AlgoKind::Sa1000.is_sa());
        assert!(!AlgoKind::Dpso5000.is_sa());
        assert_eq!(AlgoKind::Sa5000.algorithm(), Algorithm::Sa);
        assert_eq!(AlgoKind::Dpso1000.algorithm(), Algorithm::Dpso);
        assert_eq!(gpu_algorithms().len(), 4);
    }

    #[test]
    fn default_config_matches_paper_geometry() {
        let cfg = CampaignConfig::default();
        assert_eq!(cfg.ensemble(), 768);
        assert_eq!(CampaignConfig::full().sizes.last(), Some(&1000));
    }

    #[test]
    fn gpu_run_dispatches_both_algorithms() {
        let inst = Instance::paper_example_cdd();
        let cfg = CampaignConfig { blocks: 1, block_size: 32, ..Default::default() };
        let sa = run_algo_on_instance(
            &inst,
            AlgoKind::Sa1000,
            &CampaignConfig { sizes: vec![], blocks: 1, block_size: 16, ..cfg.clone() },
            1,
        )
        .unwrap();
        assert!(sa.objective > 0 && sa.modeled_seconds > 0.0);
        let dpso = run_algo_on_instance(
            &inst,
            AlgoKind::Dpso1000,
            &CampaignConfig { sizes: vec![], blocks: 1, block_size: 16, ..cfg },
            1,
        )
        .unwrap();
        assert!(dpso.objective > 0 && dpso.modeled_seconds > 0.0);
    }

    #[test]
    fn cell_fault_plans_are_deterministic_and_decorrelated() {
        let base = FaultPlan::with_rates(77, 0.05, 0.01, 0.02);
        let cfg = CampaignConfig { fault: Some(base), ..Default::default() };
        let a = cfg.cell_fault_plan(1).unwrap();
        let b = cfg.cell_fault_plan(1).unwrap();
        let c = cfg.cell_fault_plan(2).unwrap();
        assert_eq!(a, b, "same cell seed, same plan");
        assert_ne!(a.seed, c.seed, "different cells draw different fault sequences");
        assert!(CampaignConfig::default().cell_fault_plan(1).is_none());
    }

    #[test]
    fn fault_flags_build_a_plan_only_when_nonzero() {
        let clean = crate::cli::Args::from_iter(["--seed".to_string(), "1".into()]);
        assert!(fault_plan_from_args(&clean).is_none());
        let faulty = crate::cli::Args::from_iter(
            ["--launch-failure-rate", "0.05", "--fault-seed", "9"].map(String::from),
        );
        let plan = fault_plan_from_args(&faulty).unwrap();
        assert_eq!(plan.seed, 9);
        assert!(plan.is_active());
    }

    #[test]
    fn cpu_baselines_return_time_and_quality() {
        let inst = Instance::paper_example_cdd();
        let (secs, obj) = cpu_baseline_seconds(&inst, 2000, CpuBaseline::LassigSa, 3);
        assert!(secs > 0.0);
        assert!(obj > 0);
        let (secs, obj) = cpu_baseline_seconds(&inst, 2000, CpuBaseline::FeldmannBiskupEs, 3);
        assert!(secs > 0.0);
        assert!(obj > 0);
    }
}
