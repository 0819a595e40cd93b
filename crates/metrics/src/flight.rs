//! Per-request flight records: the distributed-tracing payload stitched
//! from per-hop spans as a request crosses the fleet (client → router →
//! node → queue → worker → device).
//!
//! Every hop carries **two** durations:
//!
//! * `modeled_us` — microseconds on the layer's deterministic clock
//!   (modeled device seconds for kernels, logical retry/backoff delays for
//!   the supervisor, 0 for instantaneous decisions). This is the only
//!   duration the fleet-merged Chrome trace renders, which is what makes
//!   the trace byte-stable across runs of the same workload.
//! * `wall_us` — measured wall-clock microseconds. Wall time is
//!   inherently run-dependent, so it never reaches a rendered artifact
//!   that CI byte-compares; it feeds the node's threshold-gated slow-log
//!   and consistency checks against `timing_request_wall_ms`.
//!
//! [`fleet_trace`] merges many records into one Chrome trace with one
//! process per node (plus one for the router) and per-device tracks,
//! using [`TraceSink`] merge support.

use crate::escape;
use crate::trace::{TraceEvent, TraceSink};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One span in a request's flight: a named step at a named layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightHop {
    /// Which layer recorded the hop (`router`, `node`, `queue`,
    /// `supervisor`, `worker`, `cache`).
    pub layer: String,
    /// Step name within the layer (`route`, `auth`, `queue_wait`,
    /// `retry`, `attempt`, `kernel`, …).
    pub name: String,
    /// Deterministic key/value payload (breaker state, retry ordinal,
    /// batch size, shard choice, …). Rendered into trace `args`.
    pub detail: Vec<(String, String)>,
    /// Duration on the layer's modeled/logical clock, microseconds.
    pub modeled_us: f64,
    /// Measured wall-clock duration, microseconds (never rendered into
    /// byte-compared artifacts).
    pub wall_us: f64,
    /// Pool device that executed the hop, for per-device trace tracks.
    pub device: Option<u32>,
}

impl FlightHop {
    /// A hop with no detail and no device.
    #[must_use]
    pub fn new(layer: &str, name: &str, modeled_us: f64, wall_us: f64) -> Self {
        FlightHop {
            layer: layer.to_string(),
            name: name.to_string(),
            detail: Vec::new(),
            modeled_us,
            wall_us,
            device: None,
        }
    }

    /// The same hop with one more detail pair.
    #[must_use]
    pub fn with_detail(mut self, key: &str, value: impl ToString) -> Self {
        self.detail.push((key.to_string(), value.to_string()));
        self
    }

    /// The same hop pinned to a device track.
    #[must_use]
    pub fn with_device(mut self, device: u32) -> Self {
        self.device = Some(device);
        self
    }
}

/// The stitched flight of one request: every hop span recorded along its
/// path, in path order (router hops first, then node-side hops).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightRecord {
    /// Fleet-unique id of the flight (the propagated trace id).
    pub trace_id: u64,
    /// Label of the node that served the request (empty until a node
    /// stamps it; the router prepends its hops without claiming the
    /// record).
    pub node: String,
    /// Hop spans in path order.
    pub hops: Vec<FlightHop>,
}

impl FlightRecord {
    /// An empty record for a flight.
    #[must_use]
    pub fn new(trace_id: u64, node: &str) -> Self {
        FlightRecord { trace_id, node: node.to_string(), hops: Vec::new() }
    }

    /// Sum of hop durations on the modeled clocks, microseconds.
    #[must_use]
    pub fn total_modeled_us(&self) -> f64 {
        self.hops.iter().map(|h| h.modeled_us).sum()
    }

    /// Sum of measured hop durations, microseconds.
    #[must_use]
    pub fn total_wall_us(&self) -> f64 {
        self.hops.iter().map(|h| h.wall_us).sum()
    }

    /// First hop with the given name, if any.
    #[must_use]
    pub fn hop(&self, name: &str) -> Option<&FlightHop> {
        self.hops.iter().find(|h| h.name == name)
    }

    /// One structured JSONL line for the node's threshold-gated slow-request
    /// log: the flight's latency attribution, hop by hop, with wall times
    /// (this artifact is diagnostic, not byte-compared).
    #[must_use]
    pub fn slow_log_json(&self, wall_ms: u64, threshold_ms: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"slow_request\":true,\"trace_id\":\"{:016x}\",\"node\":\"{}\",\"wall_ms\":{},\
             \"threshold_ms\":{},\"total_modeled_us\":{:?},\"hops\":[",
            self.trace_id,
            escape(&self.node),
            wall_ms,
            threshold_ms,
            self.total_modeled_us()
        );
        for (i, hop) in self.hops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"layer\":\"{}\",\"name\":\"{}\",\"modeled_us\":{:?},\"wall_us\":{:?}",
                escape(&hop.layer),
                escape(&hop.name),
                hop.modeled_us,
                hop.wall_us
            );
            if let Some(d) = hop.device {
                let _ = write!(out, ",\"device\":{d}");
            }
            for (k, v) in &hop.detail {
                let _ = write!(out, ",\"{}\":\"{}\"", escape(k), escape(v));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Merge flight records into one fleet-wide Chrome trace: one process per
/// node (sorted by label) plus, when any record carries router hops, a
/// `router` process first; within a node, track 0 carries the request
/// spans and each device gets its own track.
///
/// Only `modeled_us` durations and `detail` args reach the output, so the
/// trace is a pure function of the record *set*: records are ordered
/// internally by `(node, trace_id)` and laid out on per-track cursors,
/// making the bytes independent of arrival order and wall-clock jitter.
#[must_use]
pub fn fleet_trace(records: &[FlightRecord]) -> TraceSink {
    let mut order: Vec<&FlightRecord> = records.iter().collect();
    order.sort_by(|a, b| (a.node.as_str(), a.trace_id).cmp(&(b.node.as_str(), b.trace_id)));

    let has_router = order.iter().any(|r| r.hops.iter().any(|h| h.layer == "router"));
    let mut router = TraceSink::new();
    let mut router_cursor = 0.0;
    if has_router {
        router.name_track(0, 0, "routing");
    }

    let labels: BTreeSet<&str> = order.iter().map(|r| r.node.as_str()).collect();
    let mut nodes: Vec<(&str, TraceSink, f64, BTreeSet<u32>)> = labels
        .into_iter()
        .map(|l| {
            let mut sink = TraceSink::new();
            sink.name_track(0, 0, "requests");
            (l, sink, 0.0, BTreeSet::new())
        })
        .collect();

    for record in &order {
        let trace = format!("{:016x}", record.trace_id);
        for hop in record.hops.iter().filter(|h| h.layer == "router") {
            let mut e =
                TraceEvent::complete(&hop.name, "router", 0, 0, router_cursor, hop.modeled_us)
                    .with_arg("trace_id", &trace);
            for (k, v) in &hop.detail {
                e = e.with_arg(k, v);
            }
            router.push(e);
            router_cursor += hop.modeled_us + 1.0;
        }

        let part = nodes
            .iter_mut()
            .find(|(l, ..)| *l == record.node)
            .expect("every record's node has a part");
        let (_, sink, cursor, named_devices) = part;
        let node_hops: Vec<&FlightHop> =
            record.hops.iter().filter(|h| h.layer != "router").collect();
        let dur: f64 = node_hops.iter().map(|h| h.modeled_us).sum();
        sink.push(
            TraceEvent::complete(&format!("request {trace}"), "request", 0, 0, *cursor, dur)
                .with_arg("hops", node_hops.len()),
        );
        let mut offset = *cursor;
        for hop in node_hops {
            let mut e = TraceEvent::complete(&hop.name, &hop.layer, 0, 0, offset, hop.modeled_us);
            for (k, v) in &hop.detail {
                e = e.with_arg(k, v);
            }
            if let Some(d) = hop.device {
                if named_devices.insert(d) {
                    sink.name_track(0, 1 + d, &format!("device {d}"));
                }
                let mut de =
                    TraceEvent::complete(&hop.name, &hop.layer, 0, 1 + d, offset, hop.modeled_us)
                        .with_arg("trace_id", &trace);
                for (k, v) in &hop.detail {
                    de = de.with_arg(k, v);
                }
                sink.push(de);
            }
            sink.push(e);
            offset += hop.modeled_us;
        }
        *cursor = offset + 1.0;
    }

    let mut parts: Vec<(String, &TraceSink)> = Vec::new();
    if has_router {
        parts.push(("router".to_string(), &router));
    }
    for (label, sink, ..) in &nodes {
        parts.push((format!("node {label}"), sink));
    }
    let named: Vec<(&str, &TraceSink)> =
        parts.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    TraceSink::merge_named(&named)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(node: &str, trace_id: u64) -> FlightRecord {
        let mut r = FlightRecord::new(trace_id, node);
        r.hops.push(
            FlightHop::new("router", "route", 0.0, 3.0).with_detail("shard", node),
        );
        r.hops.push(FlightHop::new("queue", "queue_wait", 0.0, 40.0));
        r.hops
            .push(FlightHop::new("worker", "attempt", 1500.0, 1700.0).with_device(0));
        r
    }

    #[test]
    fn totals_sum_both_clocks() {
        let r = record("a", 7);
        assert_eq!(r.total_modeled_us(), 1500.0);
        assert_eq!(r.total_wall_us(), 1743.0);
        assert_eq!(r.hop("queue_wait").unwrap().wall_us, 40.0);
        assert!(r.hop("absent").is_none());
    }

    #[test]
    fn fleet_trace_is_independent_of_record_order_and_wall_time() {
        let mut a = record("a", 1);
        let b = record("b", 2);
        let one = fleet_trace(&[a.clone(), b.clone()]);
        let two = fleet_trace(&[b.clone(), a.clone()]);
        assert_eq!(one.render_chrome_json(), two.render_chrome_json());

        // Wall-clock jitter must not reach the rendered bytes.
        for hop in &mut a.hops {
            hop.wall_us *= 17.0;
        }
        let jittered = fleet_trace(&[a, b]);
        assert_eq!(one.render_chrome_json(), jittered.render_chrome_json());
    }

    #[test]
    fn fleet_trace_groups_by_node_with_device_tracks() {
        let json = fleet_trace(&[record("a", 1), record("b", 2)]).render_chrome_json();
        assert!(json.contains("\"args\":{\"name\":\"router\"}"), "{json}");
        assert!(json.contains("\"args\":{\"name\":\"node a\"}"));
        assert!(json.contains("\"args\":{\"name\":\"node b\"}"));
        assert!(json.contains("\"args\":{\"name\":\"device 0\"}"));
        assert!(json.contains("request 0000000000000001"));
        assert!(json.contains("\"name\":\"queue_wait\""));
        assert!(!json.contains("1700"), "wall_us never renders");
    }

    #[test]
    fn router_process_is_omitted_without_router_hops() {
        let mut r = record("a", 1);
        r.hops.retain(|h| h.layer != "router");
        let json = fleet_trace(&[r]).render_chrome_json();
        assert!(!json.contains("\"name\":\"router\"}"));
        assert!(json.contains("\"args\":{\"name\":\"node a\"}"));
    }

    #[test]
    fn slow_log_line_is_structured_and_single_line() {
        let line = record("a", 0xAB).slow_log_json(12, 10);
        assert!(line.starts_with("{\"slow_request\":true,\"trace_id\":\"00000000000000ab\""));
        assert!(line.contains("\"wall_ms\":12,\"threshold_ms\":10"));
        assert!(line.contains("\"layer\":\"worker\",\"name\":\"attempt\""));
        assert!(line.contains("\"device\":0"));
        assert!(line.contains("\"shard\":\"a\""));
        assert!(!line.contains('\n'));
    }
}
