//! Spans the benchmark records around its calls into each layer. They are
//! kept in memory and written as one Chrome trace when the run ends.

use cdd_metrics::trace::{TraceEvent, TraceSink};
use std::path::Path;
use std::time::Instant;

/// The track (Chrome thread) a span is drawn on: the layer it times.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Layer {
    /// Benchmark phases.
    Bench = 0,
    /// Client → router → node.
    Net = 1,
    /// In-process service.
    Service = 2,
    /// Pipelines and kernels.
    Gpu = 3,
}

impl Layer {
    fn label(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Net => "net",
            Layer::Service => "service",
            Layer::Gpu => "gpu",
        }
    }
}

/// An in-memory span log on one wall clock.
pub struct Spans {
    origin: Instant,
    sink: TraceSink,
    next_id: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        let mut sink = TraceSink::new();
        sink.name_process(0, "cdd-e2e-bench");
        for layer in [Layer::Bench, Layer::Net, Layer::Service, Layer::Gpu] {
            sink.name_track(0, layer as u32, layer.label());
        }
        Spans {
            origin: Instant::now(),
            sink,
            next_id: 0,
        }
    }

    /// Reserve the id of a span that ends later, so its children can name
    /// it as their parent before it is recorded.
    pub(crate) fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Record the finished span `id` (from [`Spans::reserve`]). `parent` is
    /// its parent's id (0 = none); `request` is the stream position of the
    /// request the span serves, if any.
    pub(crate) fn record_as(
        &mut self,
        id: u64,
        name: &str,
        layer: Layer,
        (start, end): (Instant, Instant),
        parent: u64,
        request: Option<usize>,
    ) {
        let ts = start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let dur = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        let mut event = TraceEvent::complete(name, layer.label(), 0, layer as u32, ts, dur)
            .with_arg("id", id)
            .with_arg("parent", parent);
        if let Some(r) = request {
            event = event.with_arg("request", r);
        }
        self.sink.push(event);
    }

    /// Record a finished span under a fresh id and return the id.
    pub(crate) fn record(
        &mut self,
        name: &str,
        layer: Layer,
        interval: (Instant, Instant),
        parent: u64,
        request: Option<usize>,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, layer, interval, parent, request);
        id
    }

    /// Spans recorded so far (metadata events included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.sink.len()
    }

    /// Whether nothing but metadata was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.next_id == 0
    }

    /// Write the Chrome trace to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.sink.render_chrome_json())
    }
}
