//! **Fig. 12 (trajectory view)** — per-generation convergence curves for
//! the SA and DPSO ensembles, from the device-resident telemetry ring
//! (DESIGN.md §10). Where `table2_cdd_quality` reports the *endpoint* `%Δ`
//! of Fig. 12, this binary records *how* each ensemble got there:
//! ensemble-best descent, acceptance-rate decay and diversity collapse,
//! per instance size.
//!
//! ```text
//! cargo run --release -p cdd-bench --bin fig12_convergence -- \
//!     [--sizes 10,20,50] [--iters 400] [--stride 4] [--seed 2016] \
//!     [--blocks 1] [--block-size 64] \
//!     [--convergence-out results/fig12_convergence_curves.csv] \
//!     [--summary results/fig12_convergence_summary.json]
//! ```
//!
//! Outputs:
//! - a curves CSV (one row per `(instance, algorithm, sampled
//!   generation)`, ensemble aggregates only) at `--convergence-out`;
//! - a JSON summary (`generations_to_within_1pct`,
//!   `stalled_chain_fraction`, `acceptance_rate_final`,
//!   `diversity_collapse_gen` per run) at `--summary`;
//! - a markdown summary table on stdout.
//!
//! Both files are byte-identical across runs of the same flags — the
//! pipelines are deterministic and sampling never perturbs them — which
//! `tests/fig12_convergence.rs` checks with a literal byte diff.

use cdd_bench::convergence::{
    curve_headers, push_curve_rows, summary_headers, summary_object, summary_row,
};
use cdd_bench::{render_markdown, results_dir, write_csv, Args, Table};
use cdd_gpu::{run_gpu_dpso, run_gpu_sa, ConvergenceTrace, GpuDpsoParams, GpuSaParams};
use cdd_instances::InstanceId;
use cuda_sim::TelemetryConfig;
use std::path::PathBuf;

fn main() {
    let args = Args::parse();
    let sizes = args.get_list_or("sizes", &[10usize, 20, 50]);
    let iters = args.get_or("iters", 400u64);
    let stride = args.get_or("stride", (iters / 100).max(1));
    let seed = args.get_or("seed", 2016u64);
    let blocks = args.get_or("blocks", 1usize);
    let block_size = args.get_or("block-size", 64usize);
    let telemetry = TelemetryConfig::every(stride.max(1));

    let mut curves = Table::new(curve_headers());
    let mut summary_table = Table::new(summary_headers());
    let mut summaries: Vec<String> = Vec::new();
    let mut record = |label: &str, trace: Option<&ConvergenceTrace>| match trace {
        Some(t) => {
            push_curve_rows(&mut curves, label, t);
            summary_table.push(summary_row(label, t));
            summaries.push(format!("  {}", summary_object(label, t)));
        }
        // Only a CPU-fallback run (impossible without fault injection)
        // returns no trace; surface it rather than emit a silent gap.
        None => eprintln!("  {label}: no trace (cpu fallback?)"),
    };

    for &n in &sizes {
        let id = InstanceId::cdd(n, 1, 0.6);
        let inst = id.instantiate();
        let sa = run_gpu_sa(
            &inst,
            &GpuSaParams { blocks, block_size, iterations: iters, seed, telemetry, ..Default::default() },
        )
        .expect("sa pipeline runs");
        record(&format!("{id}/sa"), sa.convergence.as_ref());
        let dpso = run_gpu_dpso(
            &inst,
            &GpuDpsoParams { blocks, block_size, iterations: iters, seed, telemetry, ..Default::default() },
        )
        .expect("dpso pipeline runs");
        record(&format!("{id}/dpso"), dpso.convergence.as_ref());
        eprintln!("  n={n}: done");
    }

    println!(
        "\nConvergence trajectories ({}x{block_size} chains, {iters} generations, stride {stride}):\n",
        blocks
    );
    println!("{}", render_markdown(&summary_table));

    let curves_path = args
        .get("convergence-out")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("fig12_convergence_curves.csv"));
    write_csv(&curves, &curves_path).expect("curves CSV writable");

    let summary_path = args
        .get("summary")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("fig12_convergence_summary.json"));
    let json = format!("{{\"runs\": [\n{}\n]}}\n", summaries.join(",\n"));
    if let Some(dir) = summary_path.parent() {
        std::fs::create_dir_all(dir).expect("summary dir creatable");
    }
    std::fs::write(&summary_path, json).expect("summary writable");

    println!("curves: {} | summary: {}", curves_path.display(), summary_path.display());
}
