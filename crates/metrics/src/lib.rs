//! # cdd-metrics
//!
//! A **deterministic** metrics registry for the workspace: counters, gauges
//! and fixed-bucket histograms with exact percentiles, plus a Prometheus
//! text exporter, a JSON snapshot exporter and (in [`trace`]) a Chrome
//! `trace_event` sink for `gpu-sim` timelines.
//!
//! Determinism is the design constraint everything else follows from (it is
//! what lets CI byte-compare two runs of the same workload, mirroring the
//! service's determinism contract):
//!
//! * all series live in `BTreeMap`s keyed by `(name, sorted labels)` —
//!   iteration (and therefore rendering) order never depends on insertion
//!   order or hash seeds;
//! * counters are integers, so their rendered value is independent of the
//!   order in which concurrent contributors were folded in;
//! * nothing in this crate reads the wall clock — time enters only as
//!   values the *caller* observes (modeled seconds, measured latencies), so
//!   the hot path stays free of `Instant::now` calls;
//! * floats render through Rust's shortest-roundtrip formatter (`{:?}`),
//!   which is a pure function of the bits.
//!
//! Histograms keep both fixed bucket counts (for the Prometheus exposition)
//! and the raw samples (for *exact* p50/p95/p99 — no interpolation error at
//! the sample counts this workspace produces).
//!
//! ```
//! use cdd_metrics::{latency_ms_buckets, MetricsRegistry};
//!
//! let mut reg = MetricsRegistry::new();
//! reg.inc("service_requests_total", &[], 3);
//! reg.observe("timing_request_wall_ms", &[], 12.5, latency_ms_buckets());
//! let text = reg.render_prometheus();
//! assert!(text.contains("service_requests_total 3"));
//! assert!(text.contains("timing_request_wall_ms_count 1"));
//! ```

#![forbid(unsafe_code)]

pub mod flight;
pub mod trace;

pub use flight::{fleet_trace, FlightHop, FlightRecord};

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fixed bucket bounds for request-latency histograms, milliseconds
/// (50 µs … 10 s, roughly 1–2.5–5 per decade).
#[must_use]
pub fn latency_ms_buckets() -> &'static [f64] {
    &[
        0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
        2500.0, 5000.0, 10000.0,
    ]
}

/// Fixed bucket bounds for modeled device durations, seconds
/// (100 ns … 1 s — the range the simulator's kernels and transfers span).
#[must_use]
pub fn modeled_seconds_buckets() -> &'static [f64] {
    &[
        1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3,
        2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1.0,
    ]
}

/// Fixed bucket bounds for wire-frame sizes, bytes (16 B … 1 MiB in
/// powers of four — request/response frames cluster at the small end,
/// inline instances and long sequence streams at the large end).
#[must_use]
pub fn frame_bytes_buckets() -> &'static [f64] {
    &[
        16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
    ]
}

/// Fixed bucket bounds for per-connection request counts (1 … 4096):
/// how much work each accepted socket carried before closing.
#[must_use]
pub fn connection_requests_buckets() -> &'static [f64] {
    &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0]
}

/// Render an f64 deterministically (shortest string that round-trips).
fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

/// Escape a string for a JSON literal or a Prometheus label value.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A fully-qualified series identity: metric name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        SeriesKey { name: name.to_string(), labels }
    }

    /// Same identity from owned label pairs (wire decoding path).
    fn from_owned(name: String, mut labels: Vec<(String, String)>) -> Self {
        labels.sort();
        SeriesKey { name, labels }
    }

    /// `name{k="v",…}` — the Prometheus sample identity.
    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let inner: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape(v))).collect();
        format!("{}{{{}}}", self.name, inner.join(","))
    }

    /// Same, with extra label pairs appended (histogram `le`).
    fn render_with(&self, extra: &[(&str, String)]) -> String {
        let mut inner: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape(v))).collect();
        inner.extend(extra.iter().map(|(k, v)| format!("{k}=\"{}\"", escape(v))));
        format!("{}{{{}}}", self.name, inner.join(","))
    }

    fn labels_json(&self) -> String {
        let inner: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v))).collect();
        format!("{{{}}}", inner.join(","))
    }
}

/// A fixed-bucket histogram that also keeps its raw samples, so bucket
/// counts serve the Prometheus exposition while percentiles stay exact.
///
/// The histogram's state is fully determined by `(bounds, samples)`:
/// bucket counts re-derive by bucketing the samples and the sum re-derives
/// by folding them in storage order, which is what lets the wire codec ship
/// only those two fields and still round-trip bit-exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Strictly increasing finite bucket upper bounds; `+Inf` is implicit.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `counts[bounds.len()]` is the
    /// overflow (`+Inf`) bucket.
    counts: Vec<u64>,
    sum: f64,
    samples: Vec<f64>,
}

impl Histogram {
    /// A histogram over the given finite upper bounds (must be sorted).
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            samples: Vec::new(),
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let idx =
            self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.samples.push(value);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest observation (0 when empty; observations are durations, so
    /// they are non-negative).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Exact q-quantile by the nearest-rank rule over the raw samples
    /// (0 when empty). `quantile(0.5)` is the median element itself, not an
    /// interpolation.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    /// Finite bucket bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative counts per bound, Prometheus style: one entry per finite
    /// bound plus the final `+Inf` total.
    #[must_use]
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Raw samples in storage order (observation order for a histogram fed
    /// through [`Self::observe`]; sorted after a merge).
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Rebuild a histogram from its canonical state: finite, strictly
    /// increasing bounds and finite samples (the wire decoding path, so
    /// hostile input is an error, never a panic). Bucket counts and the sum
    /// are re-derived, making `encode → decode` bit-exact: the sum was
    /// originally accumulated by folding samples in storage order, and that
    /// is exactly how it is recomputed here.
    pub fn from_parts(bounds: Vec<f64>, samples: Vec<f64>) -> Result<Self, String> {
        if !bounds.iter().all(|b| b.is_finite()) {
            return Err("histogram bounds must be finite".to_string());
        }
        if !bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err("histogram bounds must be strictly increasing".to_string());
        }
        if !samples.iter().all(|s| s.is_finite()) {
            return Err("histogram samples must be finite".to_string());
        }
        let mut h = Histogram {
            bounds,
            counts: Vec::new(),
            sum: samples.iter().sum(),
            samples,
        };
        h.counts = h.rebucket();
        Ok(h)
    }

    /// Per-bucket (non-cumulative) counts derived from the samples.
    fn rebucket(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.bounds.len() + 1];
        for &value in &self.samples {
            let idx =
                self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
            counts[idx] += 1;
        }
        counts
    }

    /// Fold another histogram into this one, keeping this histogram's
    /// bounds (the other's samples are re-bucketed). The merged sample set
    /// is **sorted** and the sum recomputed by folding it in that order, so
    /// the merged state is a pure function of the combined sample *multiset*
    /// — merge order and fold shape cannot leak into the bytes a fleet
    /// snapshot renders.
    pub fn merge_from(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.samples
            .sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        self.sum = self.samples.iter().sum();
        self.counts = self.rebucket();
    }
}

/// A deterministic registry of counters, gauges and histograms.
///
/// Series are created on first touch; touching a series with an increment of
/// zero still creates it, so two runs that take the same code paths render
/// the same *set* of lines even where the values are zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<SeriesKey, u64>,
    gauges: BTreeMap<SeriesKey, f64>,
    histograms: BTreeMap<SeriesKey, Histogram>,
    /// Optional `# HELP` text per metric name, registered at observation
    /// sites via [`Self::describe`].
    descriptions: BTreeMap<String, String>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to a counter (creating it at zero first).
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        *self.counters.entry(SeriesKey::new(name, labels)).or_insert(0) += by;
    }

    /// Set a gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauges.insert(SeriesKey::new(name, labels), value);
    }

    /// Record one observation into a histogram; the series is created with
    /// `bounds` on first touch (later calls reuse the existing buckets).
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: f64, bounds: &[f64]) {
        self.histograms
            .entry(SeriesKey::new(name, labels))
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Current counter value (0 if the series does not exist).
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters.get(&SeriesKey::new(name, labels)).copied().unwrap_or(0)
    }

    /// Current gauge value.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&SeriesKey::new(name, labels)).copied()
    }

    /// Histogram series, if it exists.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(&SeriesKey::new(name, labels))
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Register `# HELP` text for a metric name. Conflict resolution is
    /// order-independent: the lexicographically smallest description wins,
    /// so a fleet merge renders the same bytes no matter which node's
    /// snapshot arrived first. (In practice every process registers the
    /// same text, so this is only a tie-break for buggy callers.)
    pub fn describe(&mut self, name: &str, help: &str) {
        self.descriptions
            .entry(name.to_string())
            .and_modify(|d| {
                if help < d.as_str() {
                    *d = help.to_string();
                }
            })
            .or_insert_with(|| help.to_string());
    }

    /// `# HELP` text registered for a metric name, if any.
    #[must_use]
    pub fn description(&self, name: &str) -> Option<&str> {
        self.descriptions.get(name).map(String::as_str)
    }

    /// All registered descriptions in name order (wire encoding path).
    pub fn descriptions(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.descriptions.iter().map(|(n, d)| (n.as_str(), d.as_str()))
    }

    /// All counter series in `(name, labels)` order (wire encoding path).
    pub fn counter_series(&self) -> impl Iterator<Item = (&str, &[(String, String)], u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.name.as_str(), k.labels.as_slice(), *v))
    }

    /// All gauge series in `(name, labels)` order (wire encoding path).
    pub fn gauge_series(&self) -> impl Iterator<Item = (&str, &[(String, String)], f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (k.name.as_str(), k.labels.as_slice(), *v))
    }

    /// All histogram series in `(name, labels)` order (wire encoding path).
    pub fn histogram_series(
        &self,
    ) -> impl Iterator<Item = (&str, &[(String, String)], &Histogram)> + '_ {
        self.histograms.iter().map(|(k, h)| (k.name.as_str(), k.labels.as_slice(), h))
    }

    /// Insert-or-add a counter series from owned label pairs (wire decoding
    /// path; labels are sorted into canonical order).
    pub fn put_counter(&mut self, name: String, labels: Vec<(String, String)>, value: u64) {
        *self.counters.entry(SeriesKey::from_owned(name, labels)).or_insert(0) += value;
    }

    /// Insert a gauge series from owned label pairs (wire decoding path).
    pub fn put_gauge(&mut self, name: String, labels: Vec<(String, String)>, value: f64) {
        self.gauges.insert(SeriesKey::from_owned(name, labels), value);
    }

    /// Insert a histogram series from owned label pairs (wire decoding
    /// path). An existing series under the same key is merged into.
    pub fn put_histogram(&mut self, name: String, labels: Vec<(String, String)>, hist: Histogram) {
        match self.histograms.entry(SeriesKey::from_owned(name, labels)) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(hist);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge_from(&hist),
        }
    }

    /// Fold another registry into this one — the fleet-aggregation
    /// primitive. The operation is deterministic and order-independent so
    /// that a router merging N node snapshots renders the same bytes no
    /// matter which upstream answered first and no matter how the fold is
    /// parenthesised:
    ///
    /// * counters add (integer addition — exactly associative);
    /// * gauges add (additive gauges like queue depths are the fleet-wide
    ///   semantic; float addition is exact for the integral/dyadic values
    ///   this workspace records);
    /// * histograms merge via [`Histogram::merge_from`] — the merged state
    ///   is a pure function of the combined sample multiset. A series only
    ///   one side has is cloned as-is. Merging mismatched bounds keeps the
    ///   target's bounds and re-buckets;
    /// * descriptions union with the lexicographically smallest text
    ///   winning on conflict.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (key, value) in &other.counters {
            *self.counters.entry(key.clone()).or_insert(0) += value;
        }
        for (key, value) in &other.gauges {
            *self.gauges.entry(key.clone()).or_insert(0.0) += value;
        }
        for (key, hist) in &other.histograms {
            match self.histograms.entry(key.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(hist.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().merge_from(hist);
                }
            }
        }
        for (name, help) in &other.descriptions {
            self.describe(name, help);
        }
    }

    /// Render the registry in the Prometheus text exposition format.
    /// Counters first, then gauges, then histograms; within each kind,
    /// series sort by `(name, labels)`. A `# HELP` line precedes the
    /// `# TYPE` line for metrics with a [`Self::describe`]d description.
    /// The output is a pure function of the recorded values.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type_line = String::new();
        let descriptions = &self.descriptions;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}\n");
            if line != last_type_line {
                if let Some(help) = descriptions.get(name) {
                    let _ = writeln!(
                        out,
                        "# HELP {name} {}",
                        help.replace('\\', "\\\\").replace('\n', "\\n")
                    );
                }
                out.push_str(&line);
                last_type_line = line;
            }
        };
        for (key, value) in &self.counters {
            type_line(&mut out, &key.name, "counter");
            let _ = writeln!(out, "{} {}", key.render(), value);
        }
        for (key, value) in &self.gauges {
            type_line(&mut out, &key.name, "gauge");
            let _ = writeln!(out, "{} {}", key.render(), fmt_f64(*value));
        }
        for (key, hist) in &self.histograms {
            type_line(&mut out, &key.name, "histogram");
            let bucket_key = SeriesKey { name: format!("{}_bucket", key.name), ..key.clone() };
            let cumulative = hist.cumulative_counts();
            for (bound, count) in hist.bounds().iter().zip(&cumulative) {
                let _ = writeln!(
                    out,
                    "{} {}",
                    bucket_key.render_with(&[("le", fmt_f64(*bound))]),
                    count
                );
            }
            let _ = writeln!(
                out,
                "{} {}",
                bucket_key.render_with(&[("le", "+Inf".to_string())]),
                cumulative.last().copied().unwrap_or(0)
            );
            let sum_key = SeriesKey { name: format!("{}_sum", key.name), ..key.clone() };
            let _ = writeln!(out, "{} {}", sum_key.render(), fmt_f64(hist.sum()));
            let count_key = SeriesKey { name: format!("{}_count", key.name), ..key.clone() };
            let _ = writeln!(out, "{} {}", count_key.render(), hist.count());
        }
        out
    }

    /// Render a JSON snapshot: every series with its labels, plus exact
    /// p50/p95/p99 and min/max for histograms. Deterministic ordering.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [");
        let mut first = true;
        for (key, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"labels\": {}, \"value\": {}}}",
                escape(&key.name),
                key.labels_json(),
                value
            );
        }
        out.push_str("\n  ],\n  \"gauges\": [");
        first = true;
        for (key, value) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"labels\": {}, \"value\": {}}}",
                escape(&key.name),
                key.labels_json(),
                fmt_f64(*value)
            );
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        first = true;
        for (key, hist) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let mut buckets = String::new();
            let cumulative = hist.cumulative_counts();
            for (bound, count) in hist.bounds().iter().zip(&cumulative) {
                let _ = write!(buckets, "{{\"le\": {}, \"count\": {}}}, ", fmt_f64(*bound), count);
            }
            let _ = write!(
                buckets,
                "{{\"le\": \"+Inf\", \"count\": {}}}",
                cumulative.last().copied().unwrap_or(0)
            );
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"labels\": {}, \"count\": {}, \"sum\": {}, \
                 \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [{}]}}",
                escape(&key.name),
                key.labels_json(),
                hist.count(),
                fmt_f64(hist.sum()),
                fmt_f64(hist.max()),
                fmt_f64(hist.quantile(0.50)),
                fmt_f64(hist.quantile(0.95)),
                fmt_f64(hist.quantile(0.99)),
                buckets
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new();
        reg.inc("requests_total", &[], 2);
        reg.inc("requests_total", &[], 3);
        reg.inc("errors_total", &[("kind", "timeout")], 0);
        assert_eq!(reg.counter("requests_total", &[]), 5);
        assert_eq!(reg.counter("errors_total", &[("kind", "timeout")]), 0);
        assert_eq!(reg.counter("absent", &[]), 0);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 5"));
        assert!(text.contains("errors_total{kind=\"timeout\"} 0"), "zero series still render");
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut a = MetricsRegistry::new();
        a.inc("m", &[("x", "1"), ("y", "2")], 1);
        let mut b = MetricsRegistry::new();
        b.inc("m", &[("y", "2"), ("x", "1")], 1);
        assert_eq!(a.render_prometheus(), b.render_prometheus());
        assert_eq!(a.counter("m", &[("y", "2"), ("x", "1")]), 1);
    }

    #[test]
    fn gauges_render_shortest_roundtrip_floats() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("utilization", &[("device", "0")], 0.25);
        reg.set_gauge("utilization", &[("device", "0")], 0.5); // overwrite
        let text = reg.render_prometheus();
        assert!(text.contains("utilization{device=\"0\"} 0.5"));
        assert_eq!(reg.gauge("utilization", &[("device", "0")]), Some(0.5));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_percentiles_exact() {
        let mut h = Histogram::new(&[1.0, 5.0, 10.0]);
        for v in [0.5, 0.7, 3.0, 7.0, 20.0] {
            h.observe(v);
        }
        assert_eq!(h.cumulative_counts(), vec![2, 3, 4, 5]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 31.2).abs() < 1e-12);
        assert_eq!(h.quantile(0.5), 3.0, "median is the exact middle sample");
        assert_eq!(h.quantile(0.95), 20.0);
        assert_eq!(h.quantile(0.0), 0.5);
        assert_eq!(h.max(), 20.0);
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), 0.0, "empty histogram");
    }

    #[test]
    fn boundary_observation_lands_in_its_le_bucket() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.0); // le="1" is inclusive, Prometheus semantics
        assert_eq!(h.cumulative_counts(), vec![1, 1, 1]);
    }

    #[test]
    fn prometheus_histogram_exposition_shape() {
        let mut reg = MetricsRegistry::new();
        reg.observe("lat_ms", &[("op", "solve")], 0.3, &[0.25, 0.5]);
        reg.observe("lat_ms", &[("op", "solve")], 0.1, &[0.25, 0.5]);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE lat_ms histogram"));
        assert!(text.contains("lat_ms_bucket{op=\"solve\",le=\"0.25\"} 1"));
        assert!(text.contains("lat_ms_bucket{op=\"solve\",le=\"0.5\"} 2"));
        assert!(text.contains("lat_ms_bucket{op=\"solve\",le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ms_sum{op=\"solve\"} 0.4"));
        assert!(text.contains("lat_ms_count{op=\"solve\"} 2"));
    }

    #[test]
    fn rendering_is_deterministic_across_insertion_orders() {
        let mut a = MetricsRegistry::new();
        a.inc("z_total", &[], 1);
        a.inc("a_total", &[("dev", "1")], 2);
        a.set_gauge("g", &[], 1.5);
        a.observe("h", &[], 2.0, &[1.0, 3.0]);

        let mut b = MetricsRegistry::new();
        b.observe("h", &[], 2.0, &[1.0, 3.0]);
        b.set_gauge("g", &[], 1.5);
        b.inc("a_total", &[("dev", "1")], 2);
        b.inc("z_total", &[], 1);

        assert_eq!(a.render_prometheus(), b.render_prometheus());
        assert_eq!(a.render_json(), b.render_json());
    }

    #[test]
    fn json_snapshot_contains_percentiles() {
        let mut reg = MetricsRegistry::new();
        for v in 1..=100 {
            reg.observe("lat", &[], f64::from(v), latency_ms_buckets());
        }
        let json = reg.render_json();
        assert!(json.contains("\"p50\": 50.0"), "{json}");
        assert!(json.contains("\"p95\": 95.0"));
        assert!(json.contains("\"p99\": 99.0"));
        assert!(json.contains("\"max\": 100.0"));
    }

    #[test]
    fn escaping_handles_quotes_and_newlines() {
        let mut reg = MetricsRegistry::new();
        reg.inc("m", &[("msg", "a\"b\\c\nd")], 1);
        let text = reg.render_prometheus();
        assert!(text.contains("m{msg=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn preset_buckets_are_strictly_increasing() {
        for bounds in [latency_ms_buckets(), modeled_seconds_buckets()] {
            assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_histogram_quantile_and_max_are_zero() {
        let h = Histogram::new(&[1.0, 2.0]);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "empty histogram q={q}");
        }
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.cumulative_counts(), vec![0, 0, 0]);
    }

    #[test]
    fn histogram_from_parts_rederives_counts_and_sum() {
        let mut direct = Histogram::new(&[1.0, 5.0]);
        for v in [0.5, 3.0, 9.0] {
            direct.observe(v);
        }
        let rebuilt =
            Histogram::from_parts(vec![1.0, 5.0], vec![0.5, 3.0, 9.0]).expect("valid parts");
        assert_eq!(direct, rebuilt, "state is fully determined by (bounds, samples)");
        assert!(Histogram::from_parts(vec![2.0, 1.0], vec![]).is_err(), "unsorted bounds");
        assert!(Histogram::from_parts(vec![f64::NAN], vec![]).is_err(), "non-finite bound");
        assert!(
            Histogram::from_parts(vec![1.0], vec![f64::INFINITY]).is_err(),
            "non-finite sample"
        );
    }

    #[test]
    fn histogram_merge_is_a_function_of_the_sample_multiset() {
        let mut a = Histogram::new(&[1.0, 5.0]);
        let mut b = Histogram::new(&[1.0, 5.0]);
        for v in [3.0, 0.5] {
            a.observe(v);
        }
        for v in [9.0, 0.25] {
            b.observe(v);
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.count(), 4);
        assert_eq!(ab.samples(), &[0.25, 0.5, 3.0, 9.0], "merged samples are sorted");
        assert_eq!(ab.cumulative_counts(), vec![2, 3, 4]);
    }

    #[test]
    fn registry_merge_adds_counters_gauges_and_merges_histograms() {
        let mut a = MetricsRegistry::new();
        a.inc("reqs_total", &[("node", "a")], 2);
        a.inc("shared_total", &[], 1);
        a.set_gauge("depth", &[], 3.0);
        a.observe("lat", &[], 1.0, &[2.0]);

        let mut b = MetricsRegistry::new();
        b.inc("reqs_total", &[("node", "b")], 5);
        b.inc("shared_total", &[], 4);
        b.set_gauge("depth", &[], 2.0);
        b.observe("lat", &[], 3.0, &[2.0]);

        let mut merged = a.clone();
        merged.merge_from(&b);
        assert_eq!(merged.counter("reqs_total", &[("node", "a")]), 2);
        assert_eq!(merged.counter("reqs_total", &[("node", "b")]), 5);
        assert_eq!(merged.counter("shared_total", &[]), 5);
        assert_eq!(merged.gauge("depth", &[]), Some(5.0));
        let h = merged.histogram("lat", &[]).expect("merged histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.samples(), &[1.0, 3.0]);

        let mut other_way = b.clone();
        other_way.merge_from(&a);
        assert_eq!(merged, other_way, "registry merge is commutative");
        assert_eq!(merged.render_prometheus(), other_way.render_prometheus());
    }

    #[test]
    fn help_lines_render_before_type_and_stay_deterministic() {
        let mut reg = MetricsRegistry::new();
        reg.inc("reqs_total", &[("t", "a")], 1);
        reg.inc("reqs_total", &[("t", "b")], 2);
        reg.describe("reqs_total", "Requests admitted per tenant.");
        reg.observe("lat", &[], 1.0, &[2.0]);
        let text = reg.render_prometheus();
        assert!(
            text.contains("# HELP reqs_total Requests admitted per tenant.\n# TYPE reqs_total counter"),
            "{text}"
        );
        assert!(!text.contains("# HELP lat"), "undescribed metrics get no HELP line");
        // HELP is emitted once per metric, not per labelled series.
        assert_eq!(text.matches("# HELP reqs_total").count(), 1);

        // Conflicting descriptions resolve order-independently.
        let mut x = MetricsRegistry::new();
        x.describe("m", "zzz");
        let mut y = MetricsRegistry::new();
        y.describe("m", "aaa");
        let mut xy = x.clone();
        xy.merge_from(&y);
        let mut yx = y.clone();
        yx.merge_from(&x);
        assert_eq!(xy.description("m"), Some("aaa"));
        assert_eq!(xy, yx);
    }
}
