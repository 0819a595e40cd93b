//! The result a run prints: every metric by name and unit, then one JSON
//! line.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Requests sent in the measured phases.
    pub attempted: usize,
    /// `Error` frames plus unanswered requests among them.
    pub failed: usize,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Failed correctness checks (empty = correct).
    pub failures: Vec<String>,
}

impl Report {
    /// Add a metric.
    pub(crate) fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Whether every request was answered, every correctness check passed
    /// and every metric is a finite number. A failed request fails the run:
    /// latency and throughput count answered requests only, so a fleet that
    /// refuses work under load would otherwise read as faster.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.failures.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// Print the metrics and any failed check, then the JSON result as the
    /// last line of standard output.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!("{workload} {} = {} {}", m.name, m.value, m.unit);
        }
        println!(
            "{workload} attempted = {}, failed = {}",
            self.attempted, self.failed
        );
        if self.failed > 0 {
            println!(
                "{workload} CHECK FAILED: {} of {} requests failed",
                self.failed, self.attempted
            );
        }
        for m in self.metrics.iter().filter(|m| !m.value.is_finite()) {
            println!(
                "{workload} CHECK FAILED: metric {} is not a finite number",
                m.name
            );
        }
        for f in &self.failures {
            println!("{workload} CHECK FAILED: {f}");
        }
        println!("{}", self.json());
    }
}
