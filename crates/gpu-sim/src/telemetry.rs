//! Search-trajectory telemetry: a device-resident sampled ring buffer the
//! algorithm kernels write per-chain convergence samples into.
//!
//! # Design constraints (the zero-overhead contract)
//!
//! The recorder exists to observe a search without perturbing it, so it is
//! built exclusively from *instrumentation-port* primitives that sit outside
//! the simulator's modeled machine:
//!
//! * **Allocation** uses [`crate::engine::Gpu::alloc`], which records no
//!   profiler event (buffers are zero-initialized, like `cudaMalloc` +
//!   `cudaMemset` done before the measurement window opens).
//! * **Kernel-side access** uses [`crate::engine::DeviceCtx::telemetry_read`]
//!   / [`telemetry_write`](crate::engine::DeviceCtx::telemetry_write), which
//!   charge no cost-model work, draw nothing from the fault-injection
//!   streams, and bypass race tracking (rings are indexed by `(slot, chain)`
//!   with one owner chain per cell, so there is nothing to track).
//! * **Draining** uses [`crate::engine::Gpu::peek`], the debugging-path host
//!   read that records no modeled transfer.
//!
//! Consequently a run with telemetry enabled produces byte-identical
//! results, timelines, metrics and fault behaviour to the same run with
//! telemetry disabled — the recorder costs nothing when off and changes
//! nothing (except its own ring contents) when on. The property is enforced
//! by `cdd-gpu`'s `telemetry_determinism` tests and `cdd-bench`'s
//! `fig12_convergence` test.
//!
//! # Layout
//!
//! The ring stores [`TELEMETRY_LANES`] signed 64-bit lanes per `(slot,
//! chain)` cell, row-major by slot (`(slot × chains + chain) × LANES +
//! lane`), plus one cumulative per-chain counter (`counters[chain]`,
//! incremented every sampled event, e.g. every accepted SA move). A
//! generation `g` is sampled when `g % stride == 0` and lands in slot
//! `(g / stride) % capacity`, so the ring retains the most recent
//! `capacity` samples; the host keeps the matching sample headers
//! (generation index, temperature) and reassembles chronology at drain
//! time. What each lane means is the writing kernel's contract (the SA
//! acceptance kernel writes best/current/accepted-count; the DPSO
//! personal-best kernel writes pbest/current/diversity).

use crate::backend::ExecBackend;
use crate::engine::DeviceCtx;
use crate::memory::Buf;

/// Lanes (i64 values) stored per `(slot, chain)` sample cell.
pub const TELEMETRY_LANES: usize = 3;

/// Host-side telemetry policy: how often to sample and how much history
/// the device ring retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Sample every `stride` generations; `0` disables telemetry entirely
    /// (no ring is allocated, kernels receive no probe).
    pub stride: u64,
    /// Ring capacity in samples; `0` means "size to the run" (one slot per
    /// expected sample, capped at [`TelemetryConfig::MAX_AUTO_CAPACITY`]),
    /// so default-configured runs keep their whole curve.
    pub capacity: usize,
}

impl TelemetryConfig {
    /// Upper bound for auto-sized rings (`capacity == 0`): 64 Ki samples,
    /// far beyond the paper's 5000-generation budgets.
    pub const MAX_AUTO_CAPACITY: usize = 65_536;

    /// A recorder sampling every `stride` generations with an auto-sized
    /// ring.
    #[must_use]
    pub fn every(stride: u64) -> Self {
        TelemetryConfig { stride, capacity: 0 }
    }

    /// Telemetry disabled (the default).
    #[must_use]
    pub fn disabled() -> Self {
        TelemetryConfig::default()
    }

    /// Whether the recorder is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.stride > 0
    }

    /// Ring slot for generation `gen`, or `None` when the generation is not
    /// sampled (or telemetry is disabled).
    #[must_use]
    pub fn slot_for(&self, gen: u64, capacity: usize) -> Option<usize> {
        if self.stride == 0 || !gen.is_multiple_of(self.stride) || capacity == 0 {
            return None;
        }
        Some(((gen / self.stride) as usize) % capacity)
    }

    /// Concrete ring capacity for a run of `iterations` generations:
    /// the configured capacity, or (when 0) one slot per expected sample.
    #[must_use]
    pub fn effective_capacity(&self, iterations: u64) -> usize {
        if self.stride == 0 {
            return 0;
        }
        if self.capacity > 0 {
            return self.capacity;
        }
        let samples = (iterations / self.stride)
            .saturating_add(1)
            .min(Self::MAX_AUTO_CAPACITY as u64);
        (samples as usize).max(1)
    }
}

/// Device-resident sample ring: `capacity × chains × LANES` lanes plus
/// `chains` cumulative counters. Handles are plain buffer descriptors and
/// copy freely into kernels.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryRing {
    /// Sample lanes, row-major by slot then chain.
    pub lanes: Buf<i64>,
    /// One cumulative event counter per chain (e.g. accepted moves).
    pub counters: Buf<i64>,
    /// Chains (ensemble size) the ring records.
    pub chains: usize,
    /// Ring capacity in samples.
    pub capacity: usize,
}

impl TelemetryRing {
    /// Allocate a zero-initialized ring on `gpu` (no profiler events — see
    /// the module docs). Generic over the execution backend, although
    /// telemetry-carrying runs are routed to the simulator in practice.
    pub fn alloc<B: ExecBackend>(gpu: &mut B, chains: usize, capacity: usize) -> Self {
        assert!(chains > 0 && capacity > 0, "telemetry ring needs chains and capacity");
        TelemetryRing {
            lanes: gpu.alloc::<i64>(capacity * chains * TELEMETRY_LANES),
            counters: gpu.alloc::<i64>(chains),
            chains,
            capacity,
        }
    }

    /// Linear lane index of `(slot, chain, lane)`.
    #[must_use]
    pub fn lane_index(&self, slot: usize, chain: usize, lane: usize) -> usize {
        debug_assert!(slot < self.capacity && chain < self.chains && lane < TELEMETRY_LANES);
        (slot * self.chains + chain) * TELEMETRY_LANES + lane
    }

    /// Kernel-side: write one full sample cell through the instrumentation
    /// port (uncharged, fault-invisible).
    pub fn write_sample<C: DeviceCtx>(
        &self,
        ctx: &mut C,
        slot: usize,
        chain: usize,
        lanes: [i64; TELEMETRY_LANES],
    ) {
        let base = self.lane_index(slot, chain, 0);
        for (i, v) in lanes.into_iter().enumerate() {
            ctx.telemetry_write(self.lanes, base + i, v);
        }
    }

    /// Kernel-side: add `delta` to the chain's cumulative counter and return
    /// the new value (uncharged, fault-invisible).
    pub fn bump_counter<C: DeviceCtx>(&self, ctx: &mut C, chain: usize, delta: i64) -> i64 {
        let v = ctx.telemetry_read::<i64>(self.counters, chain) + delta;
        ctx.telemetry_write(self.counters, chain, v);
        v
    }

    /// Host-side drain: the raw ring lanes and counters, read without a
    /// modeled transfer. Pair with the host-kept sample headers to decode.
    #[must_use]
    pub fn snapshot<B: ExecBackend>(&self, gpu: &B) -> (Vec<i64>, Vec<i64>) {
        (gpu.peek(self.lanes), gpu.peek(self.counters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::engine::{Gpu, Kernel};
    use crate::grid::LaunchConfig;

    #[test]
    fn disabled_config_never_samples() {
        let c = TelemetryConfig::disabled();
        assert!(!c.enabled());
        assert_eq!(c.slot_for(0, 8), None);
        assert_eq!(c.effective_capacity(1000), 0);
    }

    #[test]
    fn stride_selects_generations_and_wraps_slots() {
        let c = TelemetryConfig::every(3);
        assert!(c.enabled());
        assert_eq!(c.slot_for(0, 4), Some(0));
        assert_eq!(c.slot_for(1, 4), None);
        assert_eq!(c.slot_for(3, 4), Some(1));
        assert_eq!(c.slot_for(12, 4), Some(0), "slot wraps at capacity");
    }

    #[test]
    fn auto_capacity_covers_the_whole_run() {
        assert_eq!(TelemetryConfig::every(1).effective_capacity(100), 101);
        assert_eq!(TelemetryConfig::every(7).effective_capacity(100), 15);
        let huge = TelemetryConfig::every(1).effective_capacity(u64::MAX);
        assert_eq!(huge, TelemetryConfig::MAX_AUTO_CAPACITY);
        assert_eq!(TelemetryConfig { stride: 2, capacity: 9 }.effective_capacity(100), 9);
    }

    /// A kernel that records through the port must leave cost, profiler and
    /// fault streams untouched.
    struct Probe {
        ring: TelemetryRing,
    }
    impl Kernel for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
            let chain = ctx.global_id();
            if chain < self.ring.chains {
                let c = self.ring.bump_counter(ctx, chain, 1);
                self.ring.write_sample(ctx, 0, chain, [chain as i64, -1, c]);
            }
        }
    }

    #[test]
    fn port_writes_are_invisible_to_cost_profiler_and_faults() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let ring = TelemetryRing::alloc(&mut gpu, 4, 2);
        assert_eq!(gpu.profiler().events().len(), 0, "alloc records no events");
        gpu.set_fault_plan(Some(crate::fault::FaultPlan::with_rates(3, 0.0, 1.0, 0.0)));
        let stats = gpu.launch(&Probe { ring }, LaunchConfig::linear(1, 4)).unwrap();
        assert_eq!(stats.total_cost.global_transactions, 0, "port access is uncharged");
        assert_eq!(stats.total_cost.alu, 0);
        assert_eq!(gpu.fault_stats().bit_flips, 0, "port reads draw no fault decisions");
        let (lanes, counters) = ring.snapshot(&gpu);
        assert_eq!(counters, vec![1, 1, 1, 1]);
        assert_eq!(&lanes[..TELEMETRY_LANES], &[0, -1, 1]);
        assert_eq!(&lanes[ring.lane_index(0, 3, 0)..ring.lane_index(0, 3, 0) + 3], &[3, -1, 1]);
        assert_eq!(gpu.profiler().transfer_seconds(), 0.0, "snapshot is transfer-free");
    }

    #[test]
    fn counters_accumulate_across_launches() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let ring = TelemetryRing::alloc(&mut gpu, 2, 1);
        for _ in 0..5 {
            gpu.launch(&Probe { ring }, LaunchConfig::linear(1, 2)).unwrap();
        }
        let (_, counters) = ring.snapshot(&gpu);
        assert_eq!(counters, vec![5, 5]);
    }
}
