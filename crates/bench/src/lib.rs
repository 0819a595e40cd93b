//! # cdd-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section VIII). Each binary under `src/bin/` produces
//! one artifact; results land in `results/` as CSV plus a rendered markdown
//! table on stdout. `EXPERIMENTS.md` records the paper-vs-measured
//! comparison.
//!
//! | binary | regenerates |
//! |---|---|
//! | `make_best_known` | the best-known table all `%Δ` values refer to |
//! | `table2_cdd_quality` | Table II + Fig. 12 (CDD `%Δ` per size) |
//! | `table3_cdd_speedup` | Table III + Figs. 13–14 (CDD speed-ups & runtimes) |
//! | `table4_ucddcp_quality` | Table IV + Fig. 15 (UCDDCP `%Δ`) |
//! | `table5_ucddcp_speedup` | Table V + Figs. 16–17 (UCDDCP speed-ups & runtimes) |
//! | `fig11_surface` | Fig. 11 (runtime vs threads × generations) |
//! | `ablation_async_vs_sync` | the Fig. 7/8 design choice (async over sync) |
//! | `ablation_lp_vs_linear` | Section III's LP-vs-linear-algorithm claim |
//! | `ablation_cooling` | Section VI's cooling-rate choice (μ = 0.88) |
//! | `tuning_block_size` | Section VIII's block-size finding (192 beats 1024) |
//! | `fig12_convergence` | per-generation convergence curves + trajectory summaries |
//! | `make_workload` | a mixed CDD/UCDDCP request stream for `cdd-serve` |
//!
//! Every binary accepts `--help`-documented flags; the defaults run a
//! reduced campaign (small sizes, few instances) sized for a laptop, and
//! `--full` switches to the paper's complete suite.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod cli;
pub mod convergence;
pub mod journal;
pub mod observer;
pub mod report;
pub mod workload;

pub use campaign::{
    cpu_baseline_seconds, gpu_algorithms, run_algo_on_instance, AlgoKind, CampaignConfig,
    CpuBaseline, QualityRow, SpeedupRow,
};
pub use cli::{campaign_from_args, fault_plan_from_args, Args};
pub use journal::{CellRecord, Journal};
pub use observer::{CampaignObserver, CellSource};
pub use report::{render_markdown, results_dir, write_csv, Table};
pub use workload::WorkloadEntry;
