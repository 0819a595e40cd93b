//! Device specifications: the hardware parameters of the performance model.

/// Static description of a simulated CUDA device.
///
/// The defaults mirror the paper's evaluation card (GeForce GT 560M). All
/// rates are in SI units (Hz, bytes/second).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name (reports only).
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Threads per warp (32 on every CUDA device).
    pub warp_size: usize,
    /// Hardware limit on threads per block.
    pub max_threads_per_block: usize,
    /// Hardware limit on resident warps per SM (occupancy bound).
    pub max_warps_per_sm: usize,
    /// Shared memory per block, bytes.
    pub shared_mem_per_block: usize,
    /// Constant memory size, bytes.
    pub constant_mem_bytes: usize,
    /// Shader (SM) clock, Hz.
    pub clock_hz: f64,
    /// Global memory bandwidth, bytes/second (whole device).
    pub mem_bandwidth: f64,
    /// Host↔device (PCIe) bandwidth, bytes/second.
    pub pcie_bandwidth: f64,
    /// Fixed latency per host↔device transfer, seconds.
    pub pcie_latency: f64,
    /// Fixed overhead per kernel launch, seconds.
    pub launch_overhead: f64,
    /// Cycles per warp-wide ALU instruction.
    pub cpi_alu: f64,
    /// Cycles per warp-wide special-function instruction (exp, log, …).
    pub cpi_sfu: f64,
    /// Cycles per warp-wide shared-memory access.
    pub cpi_shared: f64,
    /// Cycles per serialized atomic operation (L2 round trip).
    pub cpi_atomic: f64,
    /// Bytes moved per global-memory transaction (one cache line segment).
    pub transaction_bytes: f64,
    /// Cycles to synchronize a block at a barrier (per phase boundary).
    pub sync_cycles: f64,
}

impl DeviceSpec {
    /// The paper's evaluation card: GeForce **GT 560M** (192 CUDA cores on
    /// 4 SMs, 2 GB, laptop PCIe). The paper quotes the 1024-thread block
    /// limit of its device.
    pub fn gt560m() -> Self {
        DeviceSpec {
            name: "GeForce GT 560M (simulated)".into(),
            sm_count: 4,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_warps_per_sm: 48,
            shared_mem_per_block: 48 * 1024,
            constant_mem_bytes: 64 * 1024,
            clock_hz: 1.55e9,
            mem_bandwidth: 60.0e9,
            pcie_bandwidth: 6.0e9,
            pcie_latency: 10e-6,
            launch_overhead: 5e-6,
            cpi_alu: 1.0,
            cpi_sfu: 8.0,
            cpi_shared: 1.0,
            cpi_atomic: 40.0,
            transaction_bytes: 32.0,
            sync_cycles: 64.0,
        }
    }

    /// Memory bandwidth available to one SM, bytes per SM clock cycle.
    pub fn mem_bytes_per_sm_cycle(&self) -> f64 {
        self.mem_bandwidth / self.sm_count as f64 / self.clock_hz
    }

    /// Modeled duration of one host↔device transfer of `bytes`.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.pcie_latency + bytes as f64 / self.pcie_bandwidth
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self::gt560m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gt560m_matches_paper_constraints() {
        let d = DeviceSpec::gt560m();
        assert_eq!(d.warp_size, 32);
        assert_eq!(d.max_threads_per_block, 1024); // quoted in Section VIII
        assert_eq!(d.sm_count, 4);
        // The paper's configuration (4 blocks × 192 threads) fits the card.
        assert!(192 <= d.max_threads_per_block);
        assert!(192 / d.warp_size <= d.max_warps_per_sm);
    }

    #[test]
    fn transfer_time_has_latency_floor() {
        let d = DeviceSpec::gt560m();
        let tiny = d.transfer_time(8);
        let big = d.transfer_time(100_000_000);
        assert!(tiny >= d.pcie_latency);
        assert!(big > 100_000_000.0 / d.pcie_bandwidth);
        assert!(big > tiny * 100.0);
    }

    #[test]
    fn per_sm_bandwidth_is_fraction_of_total() {
        let d = DeviceSpec::gt560m();
        let per_sm = d.mem_bytes_per_sm_cycle();
        assert!(per_sm > 0.0);
        let total_per_cycle = d.mem_bandwidth / d.clock_hz;
        assert!((per_sm * d.sm_count as f64 - total_per_cycle).abs() < 1e-9);
    }

    #[test]
    fn default_is_the_paper_card() {
        assert_eq!(DeviceSpec::default(), DeviceSpec::gt560m());
    }
}
