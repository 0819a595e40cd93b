//! The simulator's profiler: a timeline of kernel launches and transfers
//! with modeled durations (the stand-in for the "Nvidia CUDA profiler" the
//! paper used to tune its implementation).

use crate::cost::CostCounter;
use crate::grid::LaunchConfig;
use cdd_metrics::trace::TraceEvent;
use cdd_metrics::{modeled_seconds_buckets, MetricsRegistry};
use std::fmt::Write as _;

/// Direction of a host↔device copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDir {
    /// Host → device (`cudaMemcpyHostToDevice`).
    HostToDevice,
    /// Device → host (`cudaMemcpyDeviceToHost`).
    DeviceToHost,
}

/// One profiled event.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineEvent {
    /// A kernel launch.
    Kernel {
        /// Kernel name.
        name: String,
        /// Launch configuration.
        config: LaunchConfig,
        /// Modeled duration, seconds.
        seconds: f64,
        /// Device-wide aggregated cost.
        total_cost: CostCounter,
    },
    /// A host↔device transfer.
    Transfer {
        /// Copy direction.
        dir: TransferDir,
        /// Payload size.
        bytes: usize,
        /// Modeled duration, seconds.
        seconds: f64,
    },
    /// Start of a named span (zero modeled duration — an annotation layered
    /// over the timeline by the pipelines, e.g. one span per SA generation).
    SpanBegin {
        /// Span label.
        name: String,
        /// Key/value metadata attached to the span (e.g. `gen`,
        /// `temperature` for one SA generation), rendered into the trace
        /// sink's args.
        args: Vec<(String, String)>,
    },
    /// End of the innermost open span with this name.
    SpanEnd {
        /// Span label.
        name: String,
    },
}

impl TimelineEvent {
    /// Modeled duration of the event, seconds (spans are instantaneous
    /// annotations and contribute nothing).
    #[must_use]
    pub fn seconds(&self) -> f64 {
        match self {
            TimelineEvent::Kernel { seconds, .. } => *seconds,
            TimelineEvent::Transfer { seconds, .. } => *seconds,
            TimelineEvent::SpanBegin { .. } | TimelineEvent::SpanEnd { .. } => 0.0,
        }
    }
}

/// Accumulating timeline of one simulated device.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    events: Vec<TimelineEvent>,
}

impl Profiler {
    /// Empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn push(&mut self, e: TimelineEvent) {
        self.events.push(e);
    }

    /// Open a named span on the timeline (zero modeled duration).
    pub fn span_begin(&mut self, name: impl Into<String>) {
        self.events.push(TimelineEvent::SpanBegin { name: name.into(), args: Vec::new() });
    }

    /// Open a named span carrying key/value metadata.
    pub fn span_begin_args(&mut self, name: impl Into<String>, args: Vec<(String, String)>) {
        self.events.push(TimelineEvent::SpanBegin { name: name.into(), args });
    }

    /// Close the innermost open span with this name.
    pub fn span_end(&mut self, name: impl Into<String>) {
        self.events.push(TimelineEvent::SpanEnd { name: name.into() });
    }

    /// All recorded events, in order.
    #[must_use]
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Total modeled device time (kernels + transfers), seconds. The paper's
    /// speed-ups "incorporate all the memory transfers between the host and
    /// the device", so this is the number the benches report.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.events.iter().map(|e| e.seconds()).sum()
    }

    /// Modeled seconds spent in kernels only.
    #[must_use]
    pub fn kernel_seconds(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TimelineEvent::Kernel { .. }))
            .map(|e| e.seconds())
            .sum()
    }

    /// Modeled seconds spent in transfers only.
    #[must_use]
    pub fn transfer_seconds(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TimelineEvent::Transfer { .. }))
            .map(|e| e.seconds())
            .sum()
    }

    /// Number of kernel launches recorded.
    #[must_use]
    pub fn kernel_launches(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, TimelineEvent::Kernel { .. })).count()
    }

    /// Per-kernel-name summary table (launch count, total modeled ms),
    /// rendered as text.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::collections::BTreeMap;
        let mut per_kernel: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        let mut transfers = (0usize, 0usize, 0.0f64);
        for e in &self.events {
            match e {
                TimelineEvent::Kernel { name, seconds, .. } => {
                    let entry = per_kernel.entry(name).or_default();
                    entry.0 += 1;
                    entry.1 += seconds;
                }
                TimelineEvent::Transfer { bytes, seconds, .. } => {
                    transfers.0 += 1;
                    transfers.1 += bytes;
                    transfers.2 += seconds;
                }
                TimelineEvent::SpanBegin { .. } | TimelineEvent::SpanEnd { .. } => {}
            }
        }
        // Name column width follows the data, so names of any length stay
        // aligned with the header and with each other.
        let name_w = per_kernel
            .keys()
            .map(|n| n.len())
            .chain(std::iter::once("kernel".len()))
            .max()
            .expect("iterator is never empty")
            + 2;
        let mut out = String::new();
        writeln!(out, "{:<name_w$}{:>8}   {:>10}", "kernel", "launches", "modeled-ms")
            .expect("writing to String cannot fail");
        for (name, (count, secs)) in &per_kernel {
            writeln!(out, "{name:<name_w$}{count:>8}   {:>10.3}", secs * 1e3)
                .expect("writing to String cannot fail");
        }
        writeln!(
            out,
            "transfers: {} copies, {} bytes, {:.3} ms",
            transfers.0,
            transfers.1,
            transfers.2 * 1e3
        )
        .expect("writing to String cannot fail");
        writeln!(out, "total modeled time: {:.3} ms", self.total_seconds() * 1e3)
            .expect("writing to String cannot fail");
        out
    }
}

/// Short label for a transfer direction, used both as a metric label value
/// and a trace-event name (`h2d` / `d2h`, the CUDA memcpy shorthand).
#[must_use]
pub fn transfer_dir_label(dir: TransferDir) -> &'static str {
    match dir {
        TransferDir::HostToDevice => "h2d",
        TransferDir::DeviceToHost => "d2h",
    }
}

/// Fold a profiler timeline into a metrics registry under the `sim_`
/// namespace: per-kernel-name launch counters and modeled-duration
/// histograms, plus per-direction transfer counters/bytes/durations.
///
/// Modeled durations are timing-*independent* (they come from the analytic
/// performance model, not the wall clock), so everything this function
/// writes is reproducible across runs of the same workload — including the
/// histograms.
pub fn observe_timeline(registry: &mut MetricsRegistry, events: &[TimelineEvent]) {
    for e in events {
        match e {
            TimelineEvent::Kernel { name, seconds, .. } => {
                registry.inc("sim_kernel_launches_total", &[("kernel", name)], 1);
                registry.observe(
                    "sim_kernel_seconds",
                    &[("kernel", name)],
                    *seconds,
                    modeled_seconds_buckets(),
                );
            }
            TimelineEvent::Transfer { dir, bytes, seconds } => {
                let dir = transfer_dir_label(*dir);
                registry.inc("sim_transfers_total", &[("dir", dir)], 1);
                registry.inc("sim_transfer_bytes_total", &[("dir", dir)], *bytes as u64);
                registry.observe(
                    "sim_transfer_seconds",
                    &[("dir", dir)],
                    *seconds,
                    modeled_seconds_buckets(),
                );
            }
            TimelineEvent::SpanBegin { .. } | TimelineEvent::SpanEnd { .. } => {}
        }
    }
}

/// Convert a profiler timeline into Chrome trace events on track
/// `(pid, tid)`, starting at `start_us` on the modeled clock. Kernels and
/// transfers become complete (`X`) events laid end to end; spans become
/// `B`/`E` markers nesting around them. Returns the events and the clock
/// position after the last one, so successive windows (e.g. one per request
/// on the same device) can be chained onto one track.
#[must_use]
pub fn timeline_trace_events(
    events: &[TimelineEvent],
    pid: u32,
    tid: u32,
    start_us: f64,
) -> (Vec<TraceEvent>, f64) {
    let mut out = Vec::with_capacity(events.len());
    let mut clock = start_us;
    for e in events {
        match e {
            TimelineEvent::Kernel { name, config, seconds, .. } => {
                let dur = seconds * 1e6;
                out.push(
                    TraceEvent::complete(name, "kernel", pid, tid, clock, dur)
                        .with_arg("grid", config.grid.x)
                        .with_arg("block", config.block.x),
                );
                clock += dur;
            }
            TimelineEvent::Transfer { dir, bytes, seconds } => {
                let dur = seconds * 1e6;
                out.push(
                    TraceEvent::complete(transfer_dir_label(*dir), "transfer", pid, tid, clock, dur)
                        .with_arg("bytes", bytes),
                );
                clock += dur;
            }
            TimelineEvent::SpanBegin { name, args } => {
                let mut ev = TraceEvent::begin(name, "span", pid, tid, clock);
                for (k, v) in args {
                    ev = ev.with_arg(k, v);
                }
                out.push(ev);
            }
            TimelineEvent::SpanEnd { name } => {
                out.push(TraceEvent::end(name, "span", pid, tid, clock));
            }
        }
    }
    (out, clock)
}

/// Cross-run aggregation of profiler timelines — the per-device utilization
/// view a multi-run consumer (device pool, campaign runner) needs, instead
/// of the raw event lists of each individual [`Profiler`] window.
///
/// `busy_seconds` accumulates modeled device-busy time across every absorbed
/// window; dividing by a wall-clock measurement window gives the device's
/// utilization (a modeled-busy / wall-observed ratio, the same shape
/// `nvidia-smi` reports).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ProfilerAggregate {
    /// Total modeled busy seconds (kernels + transfers) across all windows.
    pub busy_seconds: f64,
    /// Modeled kernel seconds across all windows.
    pub kernel_seconds: f64,
    /// Modeled transfer seconds across all windows.
    pub transfer_seconds: f64,
    /// Kernel launches across all windows.
    pub kernel_launches: usize,
    /// Profiler windows absorbed.
    pub windows: usize,
}

impl ProfilerAggregate {
    /// Empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one profiler window into the aggregate.
    pub fn absorb(&mut self, p: &Profiler) {
        self.record(p.total_seconds(), p.kernel_seconds(), p.transfer_seconds(), p.kernel_launches());
    }

    /// Fold already-extracted window totals into the aggregate (for
    /// consumers that only kept the numbers, not the `Profiler`).
    pub fn record(&mut self, total: f64, kernel: f64, transfer: f64, launches: usize) {
        self.busy_seconds += total;
        self.kernel_seconds += kernel;
        self.transfer_seconds += transfer;
        self.kernel_launches += launches;
        self.windows += 1;
    }

    /// Busy-seconds / wall-seconds utilization over a measurement window.
    /// Returns 0 for an empty or unstarted window.
    #[must_use]
    pub fn utilization(&self, wall_seconds: f64) -> f64 {
        if wall_seconds <= 0.0 {
            0.0
        } else {
            self.busy_seconds / wall_seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_event(name: &str, secs: f64) -> TimelineEvent {
        TimelineEvent::Kernel {
            name: name.into(),
            config: LaunchConfig::linear(1, 32),
            seconds: secs,
            total_cost: CostCounter::default(),
        }
    }

    #[test]
    fn totals_split_by_kind() {
        let mut p = Profiler::new();
        p.push(kernel_event("fitness", 0.002));
        p.push(TimelineEvent::Transfer { dir: TransferDir::HostToDevice, bytes: 64, seconds: 0.001 });
        p.push(kernel_event("reduce", 0.003));
        assert!((p.total_seconds() - 0.006).abs() < 1e-12);
        assert!((p.kernel_seconds() - 0.005).abs() < 1e-12);
        assert!((p.transfer_seconds() - 0.001).abs() < 1e-12);
        assert_eq!(p.kernel_launches(), 2);
        assert_eq!(p.events().len(), 3);
    }

    #[test]
    fn summary_mentions_each_kernel() {
        let mut p = Profiler::new();
        p.push(kernel_event("fitness", 0.002));
        p.push(kernel_event("fitness", 0.002));
        p.push(kernel_event("perturb", 0.001));
        let s = p.summary();
        assert!(s.contains("fitness"));
        assert!(s.contains("perturb"));
        assert!(s.contains("total modeled time"));
    }

    #[test]
    fn summary_aligns_long_kernel_names() {
        // Regression: names at or past the old fixed 28-column width used to
        // overflow their column and shear the table.
        let long = "fitness_candidate_with_tabu_memory_pass"; // 39 chars
        assert!(long.len() >= 28);
        let mut p = Profiler::new();
        p.push(kernel_event(long, 0.002));
        p.push(kernel_event("reduce", 0.001));
        let s = p.summary();
        let lines: Vec<&str> = s.lines().collect();
        // Header + both kernel rows share one fixed-width layout, so they
        // render to the same length; the old fixed 28-column format made the
        // long row overflow and come out wider than the header.
        assert_eq!(lines[0].len(), lines[1].len(), "header vs first row in:\n{s}");
        assert_eq!(lines[0].len(), lines[2].len(), "header vs second row in:\n{s}");
        // And the name itself is intact in its row.
        assert!(lines[1].starts_with(long) || lines[2].starts_with(long));
        // The short name's row is padded out to the long name's column.
        let short_row = lines.iter().find(|l| l.starts_with("reduce")).unwrap();
        assert!(short_row.len() > long.len(), "short row padded to the widened column");
    }

    #[test]
    fn spans_are_zero_cost_annotations() {
        let mut p = Profiler::new();
        p.span_begin("sa-generation");
        p.push(kernel_event("perturb", 0.002));
        p.span_end("sa-generation");
        assert_eq!(p.events().len(), 3);
        assert!((p.total_seconds() - 0.002).abs() < 1e-12, "spans add no modeled time");
        assert_eq!(p.kernel_launches(), 1);
        assert!(p.summary().contains("perturb"), "spans don't disturb the summary");
    }

    #[test]
    fn span_args_render_into_the_trace_sink() {
        let mut p = Profiler::new();
        p.span_begin_args(
            "sa-generation",
            vec![("gen".into(), "7".into()), ("temperature".into(), "35.2".into())],
        );
        p.push(kernel_event("perturb", 0.001));
        p.span_end("sa-generation");
        let (evs, _) = timeline_trace_events(p.events(), 0, 0, 0.0);
        assert_eq!(evs[0].ph, 'B');
        assert_eq!(evs[0].args, vec![
            ("gen".to_string(), "7".to_string()),
            ("temperature".to_string(), "35.2".to_string()),
        ]);
        let json = evs[0].to_json();
        assert!(json.contains("\"gen\":\"7\""), "{json}");
        assert!(json.contains("\"temperature\":\"35.2\""), "{json}");
    }

    #[test]
    fn observe_timeline_populates_sim_metrics() {
        let mut p = Profiler::new();
        p.push(kernel_event("fitness", 0.002));
        p.push(kernel_event("fitness", 0.004));
        p.push(TimelineEvent::Transfer {
            dir: TransferDir::HostToDevice,
            bytes: 256,
            seconds: 0.001,
        });
        let mut reg = MetricsRegistry::new();
        observe_timeline(&mut reg, p.events());
        assert_eq!(reg.counter("sim_kernel_launches_total", &[("kernel", "fitness")]), 2);
        assert_eq!(reg.counter("sim_transfers_total", &[("dir", "h2d")]), 1);
        assert_eq!(reg.counter("sim_transfer_bytes_total", &[("dir", "h2d")]), 256);
        let h = reg.histogram("sim_kernel_seconds", &[("kernel", "fitness")]).unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 0.006).abs() < 1e-12);
    }

    #[test]
    fn trace_events_lay_work_end_to_end_on_the_modeled_clock() {
        let mut p = Profiler::new();
        p.span_begin("gen");
        p.push(kernel_event("perturb", 0.002));
        p.push(TimelineEvent::Transfer {
            dir: TransferDir::DeviceToHost,
            bytes: 64,
            seconds: 0.001,
        });
        p.span_end("gen");
        let (evs, end_us) = timeline_trace_events(p.events(), 0, 3, 100.0);
        assert_eq!(evs.len(), 4);
        assert!((end_us - (100.0 + 3000.0)).abs() < 1e-9, "clock advanced by 3 modeled ms");
        assert_eq!(evs[0].ph, 'B');
        assert_eq!(evs[1].name, "perturb");
        assert_eq!(evs[1].ts_us, 100.0);
        assert_eq!(evs[1].dur_us, Some(2000.0));
        assert_eq!(evs[2].name, "d2h");
        assert_eq!(evs[2].ts_us, 2100.0);
        assert_eq!(evs[3].ph, 'E');
        assert_eq!(evs[3].ts_us, 3100.0, "span closes after the work it wraps");
        assert!(evs.iter().all(|e| e.tid == 3), "all events stay on the device track");
    }

    #[test]
    fn aggregate_accumulates_across_windows() {
        let mut window_a = Profiler::new();
        window_a.push(kernel_event("fitness", 0.002));
        window_a.push(TimelineEvent::Transfer {
            dir: TransferDir::HostToDevice,
            bytes: 64,
            seconds: 0.001,
        });
        let mut window_b = Profiler::new();
        window_b.push(kernel_event("reduce", 0.003));

        let mut agg = ProfilerAggregate::new();
        agg.absorb(&window_a);
        agg.absorb(&window_b);
        assert!((agg.busy_seconds - 0.006).abs() < 1e-12);
        assert!((agg.kernel_seconds - 0.005).abs() < 1e-12);
        assert!((agg.transfer_seconds - 0.001).abs() < 1e-12);
        assert_eq!(agg.kernel_launches, 2);
        assert_eq!(agg.windows, 2);
    }

    #[test]
    fn utilization_is_busy_over_wall() {
        let mut agg = ProfilerAggregate::new();
        agg.record(0.5, 0.4, 0.1, 10);
        assert!((agg.utilization(2.0) - 0.25).abs() < 1e-12);
        assert_eq!(agg.utilization(0.0), 0.0, "degenerate window reports 0, not NaN");
        assert_eq!(ProfilerAggregate::new().utilization(1.0), 0.0);
    }
}
