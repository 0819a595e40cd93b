//! Campaign-level observability: fold each cell's profiler timeline into a
//! [`MetricsRegistry`] and, when a trace output was requested, a
//! single-track Chrome `trace_event` timeline whose cells are laid
//! end-to-end on the modeled clock (campaigns run cells sequentially, so
//! one track is the faithful rendering).
//!
//! Naming: `campaign_*` series are counts of cells, kernel launches and
//! injected faults plus modeled-time histograms — all derived from the
//! deterministic simulation, never from the wall clock, so two runs of the
//! same campaign configuration render identical snapshots.

use crate::cli::Args;
use crate::journal::CellRecord;
use cdd_gpu::GpuRunResult;
use cdd_metrics::trace::{TraceEvent, TraceSink};
use cdd_metrics::{modeled_seconds_buckets, MetricsRegistry};
use cuda_sim::{observe_timeline, timeline_trace_events};
use std::io;
use std::path::{Path, PathBuf};

/// Where a cell's result came from, for the `source` label on
/// `campaign_cells_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Freshly executed this invocation.
    Executed,
    /// Replayed from a resume journal.
    Replayed,
}

impl CellSource {
    fn label(self) -> &'static str {
        match self {
            CellSource::Executed => "executed",
            CellSource::Replayed => "journal",
        }
    }
}

/// Collects campaign metrics and an optional modeled-clock trace, and
/// writes them to the paths given on the command line at [`finish`].
///
/// [`finish`]: CampaignObserver::finish
#[derive(Debug, Default)]
pub struct CampaignObserver {
    registry: MetricsRegistry,
    trace: TraceSink,
    clock_us: f64,
    capture_trace: bool,
    metrics_out: Option<PathBuf>,
    metrics_json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    trace_jsonl: Option<PathBuf>,
}

impl CampaignObserver {
    /// An observer with no outputs configured — metrics are still collected
    /// (readable via [`registry`](Self::registry)), trace capture is off.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from the shared CLI flags: `--metrics-out` (Prometheus text),
    /// `--metrics-json`, `--trace-out` (Chrome JSON), `--trace-jsonl`.
    /// Trace capture is enabled only when a trace path was requested.
    #[must_use]
    pub fn from_args(args: &Args) -> Self {
        let trace_out = args.get("trace-out").map(PathBuf::from);
        let trace_jsonl = args.get("trace-jsonl").map(PathBuf::from);
        let capture_trace = trace_out.is_some() || trace_jsonl.is_some();
        let mut observer = CampaignObserver {
            capture_trace,
            metrics_out: args.get("metrics-out").map(PathBuf::from),
            metrics_json: args.get("metrics-json").map(PathBuf::from),
            trace_out,
            trace_jsonl,
            ..Self::default()
        };
        if capture_trace {
            observer.trace.name_process(0, "cdd-bench");
            observer.trace.name_track(0, 0, "campaign");
        }
        observer
    }

    /// Fold one executed run into the registry (per-kernel histograms,
    /// transfer counters, fault totals) and append its timeline to the
    /// campaign track, wrapped in a `label` span.
    pub fn record_run(&mut self, label: &str, r: &GpuRunResult) {
        observe_timeline(&mut self.registry, &r.timeline);
        r.recovery.faults.observe_into(&mut self.registry, "campaign_fault", &[]);
        if self.capture_trace && !r.timeline.is_empty() {
            self.trace.push(TraceEvent::begin(label, "cell", 0, 0, self.clock_us));
            let (events, end_us) = timeline_trace_events(&r.timeline, 0, 0, self.clock_us);
            self.trace.extend(events);
            self.trace.push(TraceEvent::end(label, "cell", 0, 0, end_us));
            self.clock_us = end_us;
        }
    }

    /// Count one completed cell (fresh or journal-replayed) and observe its
    /// modeled-time split. Replayed cells carry their metrics in the
    /// journal record, so resumed and uninterrupted campaigns converge on
    /// the same snapshot.
    pub fn record_cell(&mut self, rec: &CellRecord, source: CellSource) {
        self.registry.inc(
            "campaign_cells_total",
            &[("source", source.label()), ("status", &rec.status)],
            1,
        );
        self.registry.inc("campaign_kernel_launches_total", &[], rec.kernel_launches);
        self.registry.inc("campaign_faults_injected_total", &[], rec.faults_injected);
        let buckets = modeled_seconds_buckets();
        self.registry.observe("campaign_cell_modeled_seconds", &[], rec.modeled_seconds, buckets);
        self.registry.observe("campaign_cell_kernel_seconds", &[], rec.kernel_seconds, buckets);
        self.registry.observe("campaign_cell_transfer_seconds", &[], rec.transfer_seconds, buckets);
    }

    /// Count a cell that failed terminally (no record to fold).
    pub fn record_failure(&mut self) {
        self.registry.inc(
            "campaign_cells_total",
            &[("source", CellSource::Executed.label()), ("status", "failed")],
            1,
        );
    }

    /// The collected metrics.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The collected trace (empty unless capture was enabled).
    #[must_use]
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Write every configured output. A no-op when no paths were given.
    pub fn finish(&self) -> io::Result<()> {
        if let Some(path) = &self.metrics_out {
            write_text(path, &self.registry.render_prometheus())?;
            eprintln!("metrics: {}", path.display());
        }
        if let Some(path) = &self.metrics_json {
            write_text(path, &self.registry.render_json())?;
        }
        if let Some(path) = &self.trace_out {
            write_text(path, &self.trace.render_chrome_json())?;
            eprintln!(
                "trace: {} ({} events; load in chrome://tracing or ui.perfetto.dev)",
                path.display(),
                self.trace.len()
            );
        }
        if let Some(path) = &self.trace_jsonl {
            write_text(path, &self.trace.render_jsonl())?;
        }
        Ok(())
    }
}

fn write_text(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_algo_on_instance, AlgoKind, CampaignConfig};
    use cdd_core::Instance;

    fn small_run() -> GpuRunResult {
        let cfg = CampaignConfig { blocks: 1, block_size: 16, ..Default::default() };
        run_algo_on_instance(&Instance::paper_example_cdd(), AlgoKind::Sa1000, &cfg, 5)
            .expect("clean device run succeeds")
    }

    fn cell_of(r: &GpuRunResult) -> CellRecord {
        CellRecord {
            instance: "cdd-n8".into(),
            algo: "SA1000".into(),
            seed: 5,
            objective: r.objective,
            modeled_seconds: r.modeled_seconds,
            kernel_seconds: r.kernel_seconds,
            transfer_seconds: r.transfer_seconds,
            kernel_launches: r.kernel_launches as u64,
            faults_injected: 0,
            status: "ok".into(),
        }
    }

    #[test]
    fn record_run_folds_timeline_into_registry() {
        let r = small_run();
        let mut obs = CampaignObserver::new();
        obs.record_run("cdd-n8/SA1000", &r);
        obs.record_cell(&cell_of(&r), CellSource::Executed);
        let text = obs.registry().render_prometheus();
        assert!(text.contains("sim_kernel_launches_total"), "timeline folded:\n{text}");
        assert!(text.contains("campaign_cells_total{source=\"executed\",status=\"ok\"} 1"));
        assert!(text.contains("campaign_fault_launches_attempted_total"));
        assert!(obs.trace().is_empty(), "capture off by default");
    }

    #[test]
    fn replayed_cells_reach_the_same_counters_without_a_run() {
        let r = small_run();
        let mut fresh = CampaignObserver::new();
        fresh.record_cell(&cell_of(&r), CellSource::Executed);
        let mut resumed = CampaignObserver::new();
        resumed.record_cell(&cell_of(&r), CellSource::Replayed);
        let total = |o: &CampaignObserver| {
            o.registry().counter("campaign_kernel_launches_total", &[])
        };
        assert_eq!(total(&fresh), total(&resumed));
    }

    #[test]
    fn trace_capture_chains_cells_on_one_track() {
        let r = small_run();
        let args = Args::from_iter(["--trace-out", "/dev/null"].map(String::from));
        let mut obs = CampaignObserver::from_args(&args);
        obs.record_run("a", &r);
        obs.record_run("b", &r);
        let events = obs.trace().events();
        assert!(events.iter().all(|e| e.pid == 0 && e.tid == 0), "single track");
        let cells: Vec<_> = events.iter().filter(|e| e.cat == "cell").collect();
        assert_eq!(cells.len(), 4, "B/E span pair per cell");
        let (a_end, b_begin) = (cells[1], cells[2]);
        assert_eq!((a_end.ph, b_begin.ph), ('E', 'B'));
        assert_eq!(a_end.ts_us, b_begin.ts_us, "cell b starts where cell a ended");
        assert!(a_end.ts_us > 0.0, "cell a has modeled extent");
    }
}
