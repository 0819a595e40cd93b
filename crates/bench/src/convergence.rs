//! Convergence-curve post-processing: turn a pipeline's
//! [`ConvergenceTrace`] into the per-generation CSV rows and JSON summary
//! fragments the `fig12_convergence` and `ablation_async_vs_sync` binaries
//! emit.
//!
//! Everything here is a pure function of the trace, which is itself
//! deterministic in `(instance, params, seed)` — the emitted artifacts
//! byte-compare across runs, which `tests/fig12_convergence.rs` relies
//! on.

use crate::Table;
use cdd_gpu::{ConvergenceSummary, ConvergenceTrace};

/// Column set of the per-generation curves CSV. One row per `(run label,
/// sampled generation)`; ensemble aggregates only, so the file stays small
/// at paper-scale ensembles.
#[must_use]
pub fn curve_headers() -> Vec<&'static str> {
    vec![
        "instance",
        "algorithm",
        "gen",
        "temperature",
        "ensemble_best",
        "mean_best",
        "mean_current",
        "mean_aux",
    ]
}

fn mean(values: &[i64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// Append one row per sampled generation of `trace` to a curves table
/// (headers from [`curve_headers`]).
pub fn push_curve_rows(table: &mut Table, instance: &str, trace: &ConvergenceTrace) {
    for s in &trace.samples {
        table.push(vec![
            instance.to_string(),
            trace.algorithm.clone(),
            s.gen.to_string(),
            format!("{:.6e}", s.temperature),
            s.ensemble_best().to_string(),
            format!("{:.3}", mean(&s.best)),
            format!("{:.3}", mean(&s.current)),
            format!("{:.3}", mean(&s.aux)),
        ]);
    }
}

fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |g| g.to_string())
}

/// One run's summary statistics as a JSON object (compact, key order
/// fixed — byte-stable across runs).
#[must_use]
pub fn summary_object(instance: &str, trace: &ConvergenceTrace) -> String {
    let s = ConvergenceSummary::from_trace(trace);
    format!(
        "{{\"instance\": \"{instance}\", \"algorithm\": \"{}\", \"chains\": {}, \
         \"samples\": {}, \"final_best\": {}, \"generations_to_within_1pct\": {}, \
         \"stalled_chain_fraction\": {:.4}, \"acceptance_rate_final\": {:.4}, \
         \"diversity_collapse_gen\": {}}}",
        trace.algorithm,
        s.chains,
        s.samples,
        s.final_best,
        json_opt(s.generations_to_within_1pct),
        s.stalled_chain_fraction,
        s.acceptance_rate_final,
        json_opt(s.diversity_collapse_gen),
    )
}

/// A markdown-table row of the same summary, for the stdout report.
#[must_use]
pub fn summary_row(instance: &str, trace: &ConvergenceTrace) -> Vec<String> {
    let s = ConvergenceSummary::from_trace(trace);
    vec![
        instance.to_string(),
        trace.algorithm.clone(),
        s.final_best.to_string(),
        s.generations_to_within_1pct.map_or_else(|| "-".to_string(), |g| g.to_string()),
        format!("{:.2}", s.stalled_chain_fraction),
        format!("{:.3}", s.acceptance_rate_final),
        s.diversity_collapse_gen.map_or_else(|| "-".to_string(), |g| g.to_string()),
    ]
}

/// Headers matching [`summary_row`].
#[must_use]
pub fn summary_headers() -> Vec<&'static str> {
    vec!["instance", "algorithm", "final-best", "gens-to-1%", "stalled-frac", "accept-rate", "collapse-gen"]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_gpu::GenerationSample;

    fn trace() -> ConvergenceTrace {
        ConvergenceTrace {
            algorithm: "sa".into(),
            stride: 2,
            chains: 2,
            gens_per_span: 1,
            samples: vec![
                GenerationSample {
                    gen: 0,
                    temperature: 100.0,
                    best: vec![9, 7],
                    current: vec![9, 7],
                    aux: vec![0, 1],
                },
                GenerationSample {
                    gen: 2,
                    temperature: 80.0,
                    best: vec![5, 7],
                    current: vec![6, 7],
                    aux: vec![2, 1],
                },
            ],
            counters: vec![2, 1],
        }
    }

    #[test]
    fn curve_rows_aggregate_the_ensemble() {
        let mut t = Table::new(curve_headers());
        push_curve_rows(&mut t, "cdd-10-1", &trace());
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][4], "7", "ensemble best of sample 0");
        assert_eq!(t.rows[1][5], "6.000", "mean best of sample 1");
        assert_eq!(t.rows[1][2], "2", "generation index survives the stride");
    }

    #[test]
    fn summary_object_is_valid_shaped_json() {
        let json = summary_object("cdd-10-1", &trace());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"final_best\": 5"));
        assert!(json.contains("\"generations_to_within_1pct\": 2"));
        assert!(json.contains("\"diversity_collapse_gen\": null"));
    }

    #[test]
    fn summary_row_matches_its_headers() {
        assert_eq!(summary_row("x", &trace()).len(), summary_headers().len());
    }
}
