//! Cost counting and the analytic kernel-timing model.
//!
//! Every simulated thread accumulates a [`CostCounter`]. The engine folds
//! thread counters into warps (lockstep SIMT: a warp pays the **maximum** of
//! its lanes for each class, which also charges divergence — an idle lane
//! still occupies the warp slot), warps into blocks, and blocks into SMs.
//!
//! Timing rule (documented in `DESIGN.md` and `lib.rs`):
//!
//! ```text
//! warp_cycles_compute = cpi_alu·alu + cpi_sfu·special
//!                     + cpi_shared·shared
//!                     + cpi_atomic·atomics
//! block_compute       = Σ warp_cycles_compute            (one issue port)
//! block_mem_cycles    = (transactions · transaction_bytes) / bytes_per_SM_cycle
//! block_cycles        = max(block_compute, block_mem_cycles)   (roofline)
//!                     + sync_cycles · (phases − 1)
//! SM_cycles           = Σ cycles of its blocks (round-robin assignment)
//! kernel_time         = launch_overhead + max_SM(SM_cycles) / clock
//! ```
//!
//! The model is deliberately simple, monotone and explainable; it produces
//! the qualitative effects the paper reports (block serialization beyond the
//! SM count, overhead-dominated small kernels, memory-bound fitness scans).

use crate::device::DeviceSpec;
use crate::grid::LaunchConfig;

/// Texture reads amortized per memory transaction (the spatial cache the
/// paper's conclusion proposes examining as future work: "utilization of
/// the texture memory of the GPU to make use of its spatial cache").
pub const TEXTURE_READS_PER_TRANSACTION: u64 = 16;

/// Per-thread execution cost counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostCounter {
    /// Warp-wide ALU/logic instructions (adds, compares, address math).
    pub alu: u64,
    /// Special-function instructions (`exp`, reciprocal, …).
    pub special: u64,
    /// Global-memory transactions issued (reads + writes, uncoalesced).
    pub global_transactions: u64,
    /// Texture-path reads (spatially cached read-only data; see
    /// [`crate::engine::DeviceCtx::read_texture`]). The memory model charges
    /// one transaction per [`TEXTURE_READS_PER_TRANSACTION`] reads.
    pub texture_reads: u64,
    /// Shared-memory accesses.
    pub shared_accesses: u64,
    /// Atomic operations (serialized at L2).
    pub atomics: u64,
}

impl CostCounter {
    /// Lane-wise maximum — the lockstep cost of a warp whose lanes ran `a`
    /// and `b`.
    pub fn lane_max(a: &CostCounter, b: &CostCounter) -> CostCounter {
        CostCounter {
            alu: a.alu.max(b.alu),
            special: a.special.max(b.special),
            global_transactions: a.global_transactions.max(b.global_transactions),
            texture_reads: a.texture_reads.max(b.texture_reads),
            shared_accesses: a.shared_accesses.max(b.shared_accesses),
            atomics: a.atomics.max(b.atomics),
        }
    }

    /// Element-wise sum (aggregating warps into a block).
    pub fn add(&mut self, other: &CostCounter) {
        self.alu += other.alu;
        self.special += other.special;
        self.global_transactions += other.global_transactions;
        self.texture_reads += other.texture_reads;
        self.shared_accesses += other.shared_accesses;
        self.atomics += other.atomics;
    }

    /// Compute-side cycles of one warp under `spec`.
    pub fn compute_cycles(&self, spec: &DeviceSpec) -> f64 {
        spec.cpi_alu * self.alu as f64
            + spec.cpi_sfu * self.special as f64
            + spec.cpi_shared * self.shared_accesses as f64
            + spec.cpi_atomic * self.atomics as f64
    }

    /// Memory-side cycles of one warp/block under `spec` (texture reads are
    /// amortized through the spatial cache).
    pub fn memory_cycles(&self, spec: &DeviceSpec) -> f64 {
        let transactions = self.global_transactions as f64
            + (self.texture_reads as f64 / TEXTURE_READS_PER_TRANSACTION as f64).ceil();
        transactions * spec.transaction_bytes / spec.mem_bytes_per_sm_cycle()
    }
}

/// Modeled timing of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTiming {
    /// Modeled wall time of the launch, seconds (including launch overhead).
    pub seconds: f64,
    /// Cycles of the busiest SM.
    pub critical_sm_cycles: f64,
    /// Per-block modeled cycles.
    pub block_cycles: Vec<f64>,
    /// Whether blocks outnumbered SMs (serial block processing occurred —
    /// the effect the paper highlights for large ensembles).
    pub blocks_serialized: bool,
}

/// Fold per-warp block costs into the kernel timing model.
///
/// `per_block_warp_costs[b]` holds the lockstep (lane-max) cost of every
/// warp of block `b`; `phases` is the kernel's barrier count + 1.
pub fn model_kernel_time(
    spec: &DeviceSpec,
    cfg: &LaunchConfig,
    per_block_warp_costs: &[Vec<CostCounter>],
    phases: usize,
) -> KernelTiming {
    let sync = spec.sync_cycles * phases.saturating_sub(1) as f64;
    let block_cycles: Vec<f64> = per_block_warp_costs
        .iter()
        .map(|warps| {
            let mut compute = 0.0;
            let mut block_total = CostCounter::default();
            for w in warps {
                compute += w.compute_cycles(spec);
                block_total.add(w);
            }
            let mem = block_total.memory_cycles(spec);
            compute.max(mem) + sync
        })
        .collect();

    // Round-robin block → SM assignment; SMs process their blocks serially.
    let mut sm_cycles = vec![0.0f64; spec.sm_count];
    for (b, cycles) in block_cycles.iter().enumerate() {
        sm_cycles[b % spec.sm_count] += cycles;
    }
    let critical = sm_cycles.iter().cloned().fold(0.0, f64::max);
    KernelTiming {
        seconds: spec.launch_overhead + critical / spec.clock_hz,
        critical_sm_cycles: critical,
        block_cycles,
        blocks_serialized: cfg.num_blocks() > spec.sm_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp(alu: u64, mem: u64) -> CostCounter {
        CostCounter { alu, global_transactions: mem, ..Default::default() }
    }

    #[test]
    fn lane_max_models_lockstep() {
        let a = CostCounter { alu: 10, special: 1, ..Default::default() };
        let b = CostCounter { alu: 4, special: 7, ..Default::default() };
        let m = CostCounter::lane_max(&a, &b);
        assert_eq!(m.alu, 10);
        assert_eq!(m.special, 7);
    }

    #[test]
    fn roofline_picks_dominant_side() {
        let spec = DeviceSpec::gt560m();
        // Compute-heavy warp.
        let heavy_alu = warp(1_000_000, 1);
        // Memory-heavy warp.
        let heavy_mem = warp(1, 1_000_000);
        let c = heavy_alu.compute_cycles(&spec);
        let m = heavy_mem.memory_cycles(&spec);
        assert!(c > heavy_alu.memory_cycles(&spec));
        assert!(m > heavy_mem.compute_cycles(&spec));
    }

    #[test]
    fn more_blocks_than_sms_serializes() {
        let spec = DeviceSpec::gt560m(); // 4 SMs
        let one_block = vec![vec![warp(1000, 0)]];
        let t1 = model_kernel_time(&spec, &LaunchConfig::linear(1, 32), &one_block, 1);
        let eight_blocks: Vec<_> = (0..8).map(|_| vec![warp(1000, 0)]).collect();
        let t8 = model_kernel_time(&spec, &LaunchConfig::linear(8, 32), &eight_blocks, 1);
        assert!(t8.blocks_serialized);
        assert!(!t1.blocks_serialized);
        // 8 blocks over 4 SMs → exactly 2 per SM → twice the critical cycles.
        assert!((t8.critical_sm_cycles - 2.0 * t1.critical_sm_cycles).abs() < 1e-9);
    }

    #[test]
    fn four_blocks_on_four_sms_run_concurrently() {
        let spec = DeviceSpec::gt560m();
        let blocks: Vec<_> = (0..4).map(|_| vec![warp(1000, 0)]).collect();
        let t4 = model_kernel_time(&spec, &LaunchConfig::linear(4, 32), &blocks, 1);
        let t1 = model_kernel_time(&spec, &LaunchConfig::linear(1, 32), &blocks[..1], 1);
        assert!((t4.critical_sm_cycles - t1.critical_sm_cycles).abs() < 1e-9);
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let spec = DeviceSpec::gt560m();
        let t = model_kernel_time(&spec, &LaunchConfig::linear(1, 32), &[vec![warp(1, 0)]], 1);
        assert!(t.seconds >= spec.launch_overhead);
    }

    #[test]
    fn barriers_add_sync_cycles() {
        let spec = DeviceSpec::gt560m();
        let blocks = vec![vec![warp(100, 0)]];
        let p1 = model_kernel_time(&spec, &LaunchConfig::linear(1, 32), &blocks, 1);
        let p3 = model_kernel_time(&spec, &LaunchConfig::linear(1, 32), &blocks, 3);
        assert!(
            (p3.critical_sm_cycles - p1.critical_sm_cycles - 2.0 * spec.sync_cycles).abs() < 1e-9
        );
    }

    #[test]
    fn add_accumulates() {
        let mut a = warp(5, 2);
        a.add(&warp(3, 4));
        assert_eq!(a.alu, 8);
        assert_eq!(a.global_transactions, 6);
    }
}
