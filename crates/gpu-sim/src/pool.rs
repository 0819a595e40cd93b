//! Device-pool handles: the identity, configuration and accumulated usage
//! of one simulated device inside a multi-device pool.
//!
//! A [`DeviceHandle`] is *not* a live [`crate::Gpu`] — the pipelines build a
//! fresh `Gpu` per run (real campaign runners likewise re-establish a CUDA
//! context per attempt after faults). The handle carries what persists
//! across runs on a pool member: which [`DeviceSpec`] to instantiate, the
//! device's base [`FaultPlan`], and the usage counters a pool aggregates for
//! utilization reporting ([`DeviceUsage`]).
//!
//! **Determinism note.** [`DeviceHandle::request_plan`] derives the
//! effective fault plan for one request purely from the base plan and the
//! request seed — the device *id* is deliberately not mixed in. A pool whose
//! members share one base plan therefore produces request outcomes that do
//! not depend on routing, which is what lets a service keep its
//! identical-fitness-per-seed contract while scheduling on the wall clock.

use crate::device::DeviceSpec;
use crate::fault::{FaultPlan, FaultStats};
use crate::profiler::ProfilerAggregate;
use cdd_metrics::MetricsRegistry;

/// Accumulated usage of one pool device across many runs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DeviceUsage {
    /// Modeled device time, aggregated over every run's profiler window.
    pub modeled: ProfilerAggregate,
    /// Wall-clock seconds the device's worker spent executing runs (host
    /// time — the denominator of real-throughput accounting).
    pub busy_wall_seconds: f64,
    /// Requests that completed on this device (successfully or not).
    pub requests: u64,
    /// Requests that ended in an error on this device.
    pub failed: u64,
    /// Faults injected across all runs on this device.
    pub faults: FaultStats,
}

impl DeviceUsage {
    /// Fold one run's numbers into the usage record.
    pub fn record_run(
        &mut self,
        modeled_total: f64,
        modeled_kernel: f64,
        modeled_transfer: f64,
        launches: usize,
        wall_seconds: f64,
        failed: bool,
    ) {
        self.modeled.record(modeled_total, modeled_kernel, modeled_transfer, launches);
        self.busy_wall_seconds += wall_seconds;
        self.requests += 1;
        if failed {
            self.failed += 1;
        }
    }

    /// Fold the usage record into a metrics registry under the `device_`
    /// namespace, labelled `{device="<device>"}`. Counters here are split
    /// per device — which requests landed where depends on wall-clock worker
    /// scheduling — so the whole namespace is timing-*dependent* and is
    /// deliberately kept out of the `service_` prefix that CI byte-compares.
    pub fn observe_into(&self, registry: &mut MetricsRegistry, device: &str, wall_seconds: f64) {
        let labels: &[(&str, &str)] = &[("device", device)];
        registry.inc("device_requests_total", labels, self.requests);
        registry.inc("device_failed_total", labels, self.failed);
        registry.inc("device_kernel_launches_total", labels, self.modeled.kernel_launches as u64);
        registry.set_gauge("device_modeled_busy_seconds", labels, self.modeled.busy_seconds);
        registry.set_gauge("device_busy_wall_seconds", labels, self.busy_wall_seconds);
        registry.set_gauge("device_utilization", labels, self.utilization(wall_seconds));
        self.faults.observe_into(registry, "device_fault", labels);
    }

    /// Busy-wall-seconds / window-wall-seconds utilization of the device.
    #[must_use]
    pub fn utilization(&self, wall_seconds: f64) -> f64 {
        if wall_seconds <= 0.0 {
            0.0
        } else {
            self.busy_wall_seconds / wall_seconds
        }
    }
}

/// One member of a device pool.
#[derive(Debug, Clone)]
pub struct DeviceHandle {
    /// Pool-local device index.
    pub id: usize,
    /// Hardware description used to instantiate the device's `Gpu` runs.
    pub spec: DeviceSpec,
    /// Base fault plan of this device (`None` = healthy device).
    pub fault: Option<FaultPlan>,
    /// Accumulated usage.
    pub usage: DeviceUsage,
}

impl DeviceHandle {
    /// A healthy device.
    pub fn new(id: usize, spec: DeviceSpec) -> Self {
        DeviceHandle { id, spec, fault: None, usage: DeviceUsage::default() }
    }

    /// The same device with a base fault plan installed.
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Derive the fault plan for one request: the base plan reseeded by the
    /// request seed (SplitMix64-mixed so nearby seeds decorrelate). Pure in
    /// `(base plan, request_seed)` — independent of the device id and of any
    /// previous request, so rerouting or reordering requests cannot change a
    /// request's fault sequence.
    #[must_use]
    pub fn request_plan(&self, request_seed: u64) -> Option<FaultPlan> {
        self.fault.as_ref().map(|p| {
            let mut z = p.seed ^ request_seed.rotate_left(31);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            p.reseeded(z ^ (z >> 31))
        })
    }

    /// [`request_plan`](Self::request_plan) for the `retry`-th service-level
    /// re-dispatch of a request. Retry 0 is the original dispatch and
    /// returns exactly `request_plan(request_seed)`; each later retry
    /// decorrelates the seed so a crashing fault draw is not replayed
    /// verbatim — while staying a pure function of
    /// `(base plan, request seed, retry)`. The *sequence* of plans a request
    /// walks through is therefore identical across runs no matter which
    /// devices the retries land on, which is what makes the service's
    /// crash/retry/degrade trajectory deterministic (DESIGN.md §12).
    #[must_use]
    pub fn request_plan_retry(&self, request_seed: u64, retry: u32) -> Option<FaultPlan> {
        self.request_plan(request_seed).map(|p| {
            if retry == 0 {
                p
            } else {
                let mut z = p.seed ^ 0x9e3779b97f4a7c15u64.wrapping_mul(u64::from(retry));
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                p.reseeded(z ^ (z >> 31))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_device_has_no_request_plan() {
        let h = DeviceHandle::new(0, DeviceSpec::gt560m());
        assert!(h.request_plan(42).is_none());
        assert_eq!(h.usage, DeviceUsage::default());
    }

    #[test]
    fn request_plans_are_deterministic_and_device_independent() {
        let base = FaultPlan::with_rates(9, 0.05, 0.01, 0.02);
        let dev0 = DeviceHandle::new(0, DeviceSpec::gt560m()).with_fault(base.clone());
        let dev3 = DeviceHandle::new(3, DeviceSpec::gt560m()).with_fault(base.clone());
        let a = dev0.request_plan(1234).unwrap();
        let b = dev0.request_plan(1234).unwrap();
        let c = dev3.request_plan(1234).unwrap();
        assert_eq!(a, b, "same request, same plan");
        assert_eq!(a, c, "routing to another identically-configured device changes nothing");
        assert_ne!(a.seed, dev0.request_plan(1235).unwrap().seed, "requests decorrelate");
        assert_eq!(a.launch_failure_rate, base.launch_failure_rate, "rates carry over");
    }

    #[test]
    fn retry_plans_decorrelate_but_stay_routing_independent() {
        let base = FaultPlan::with_rates(9, 0.05, 0.0, 0.0).with_worker_crash(0.3, 16);
        let dev0 = DeviceHandle::new(0, DeviceSpec::gt560m()).with_fault(base.clone());
        let dev5 = DeviceHandle::new(5, DeviceSpec::gt560m()).with_fault(base);
        let r0 = dev0.request_plan_retry(42, 0).unwrap();
        assert_eq!(r0, dev0.request_plan(42).unwrap(), "retry 0 is the original dispatch");
        let r1 = dev0.request_plan_retry(42, 1).unwrap();
        let r2 = dev0.request_plan_retry(42, 2).unwrap();
        assert_ne!(r0.seed, r1.seed);
        assert_ne!(r1.seed, r2.seed);
        assert_eq!(r1, dev5.request_plan_retry(42, 1).unwrap(), "device id never enters");
        assert_eq!(r1.worker_crash_rate, 0.3, "rates carry over to retries");
    }

    #[test]
    fn usage_accumulates_runs_and_utilization() {
        let mut u = DeviceUsage::default();
        u.record_run(0.010, 0.008, 0.002, 40, 0.5, false);
        u.record_run(0.020, 0.015, 0.005, 80, 1.5, true);
        assert_eq!(u.requests, 2);
        assert_eq!(u.failed, 1);
        assert_eq!(u.modeled.kernel_launches, 120);
        assert!((u.modeled.busy_seconds - 0.030).abs() < 1e-12);
        assert!((u.busy_wall_seconds - 2.0).abs() < 1e-12);
        assert!((u.utilization(4.0) - 0.5).abs() < 1e-12);
        assert_eq!(u.utilization(0.0), 0.0);
    }

    #[test]
    fn observe_into_labels_series_by_device() {
        let mut u = DeviceUsage::default();
        u.record_run(0.010, 0.008, 0.002, 40, 0.5, false);
        u.faults += FaultStats { launches_attempted: 40, ..Default::default() };
        let mut reg = cdd_metrics::MetricsRegistry::new();
        u.observe_into(&mut reg, "2", 1.0);
        let labels: &[(&str, &str)] = &[("device", "2")];
        assert_eq!(reg.counter("device_requests_total", labels), 1);
        assert_eq!(reg.counter("device_kernel_launches_total", labels), 40);
        assert_eq!(reg.counter("device_fault_launches_attempted_total", labels), 40);
        assert!((reg.gauge("device_utilization", labels).unwrap() - 0.5).abs() < 1e-12);
        assert!(reg.render_prometheus().contains("device_requests_total{device=\"2\"} 1"));
    }

    #[test]
    fn fault_merge_sums_counters() {
        let mut u = DeviceUsage::default();
        u.faults += FaultStats {
            launches_attempted: 10,
            transient_launch_failures: 2,
            bit_flips: 1,
            hung_kernels: 1,
            worker_crashes: 1,
        };
        u.faults += FaultStats { launches_attempted: 5, ..Default::default() };
        assert_eq!(u.faults.launches_attempted, 15);
        assert_eq!(u.faults.transient_launch_failures, 2);
    }
}
