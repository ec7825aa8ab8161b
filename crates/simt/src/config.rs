//! Device configuration: the architectural parameters the timing model
//! consumes. The default preset is the NVIDIA K20c (Kepler GK110) the paper
//! evaluates on; a tiny synthetic device is provided for fast unit tests.

use serde::{Deserialize, Serialize};

/// Architectural description of a simulated GPU.
///
/// Latency numbers follow §III-C of the paper (read-only cache ≈ 30 cycles,
/// DRAM ≈ 300 cycles); capacity/throughput numbers follow the GK110
/// whitepaper and the K20c product specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Human-readable name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Threads per warp (32 on every CUDA GPU).
    pub warp_size: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Peak warp-instruction issue rate per SM per cycle (K20c SMX: 4
    /// schedulers).
    pub issue_width: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Register allocation granularity (registers are allocated per warp in
    /// multiples of this).
    pub reg_alloc_granularity: u32,
    /// Shared memory per SM in bytes.
    pub smem_per_sm: u32,
    /// Read-only (texture/L1) data cache per SM in bytes.
    pub ro_cache_bytes: u32,
    /// Read-only cache line size in bytes.
    pub ro_line_bytes: u32,
    /// Read-only cache associativity.
    pub ro_ways: u32,
    /// Total L2 cache in bytes, one chip-wide cache shared by all SMs.
    pub l2_bytes: u32,
    /// L2 line (sector) size in bytes — Kepler moves 32-byte sectors for
    /// scattered accesses.
    pub l2_line_bytes: u32,
    /// L2 associativity.
    pub l2_ways: u32,
    /// Latency of a read-only cache hit, in cycles (§III-C: ~30).
    pub ro_hit_cycles: u32,
    /// Latency of an L2 hit, in cycles.
    pub l2_hit_cycles: u32,
    /// Latency of a DRAM access, in cycles (§III-C: ~300).
    pub dram_cycles: u32,
    /// Latency of a local-memory (register spill / `colorMask`) access; on
    /// Kepler local memory is L1-cached.
    pub local_cycles: u32,
    /// Peak DRAM bandwidth in GB/s.
    pub dram_bw_gbps: f64,
    /// Cycles the Atomic Operation Unit needs per serialized atomic to the
    /// same address.
    pub atomic_serial_cycles: u32,
    /// Independent memory requests one warp can keep in flight (scoreboard
    /// depth): bounds how fast a single long dependence chain — e.g. one
    /// thread scanning a hub vertex's huge adjacency list — can drain.
    pub mem_ilp: f64,
    /// PCIe bandwidth in GB/s (host ↔ device transfers, used by the 3-step
    /// GM baseline).
    pub pcie_bw_gbps: f64,
    /// Fixed per-transfer PCIe latency in microseconds.
    pub pcie_latency_us: f64,
    /// Fixed kernel-launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Number of shared-memory banks (32 on Fermi/Kepler).
    pub smem_banks: u32,
    /// Cycles per shared-memory access way: an n-way bank conflict
    /// serializes into n accesses of this cost.
    pub smem_cycles: u32,
    /// Whether plain global loads are cached in the per-SM L1 (Fermi).
    /// On Kepler, global loads bypass L1 and only `__ldg` uses the
    /// read-only cache — the distinction §III-C of the paper builds its
    /// optimization on.
    pub l1_caches_globals: bool,
}

impl Device {
    /// The NVIDIA Tesla K20c (GK110) used in the paper's evaluation.
    pub fn k20c() -> Self {
        Self {
            name: "NVIDIA Tesla K20c (simulated)".into(),
            num_sms: 13,
            warp_size: 32,
            clock_ghz: 0.706,
            issue_width: 4,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            max_warps_per_sm: 64,
            regs_per_sm: 65536,
            reg_alloc_granularity: 256,
            smem_per_sm: 48 * 1024,
            ro_cache_bytes: 48 * 1024,
            ro_line_bytes: 128,
            ro_ways: 4,
            l2_bytes: 1536 * 1024,
            l2_line_bytes: 32,
            l2_ways: 16,
            ro_hit_cycles: 30,
            l2_hit_cycles: 140,
            dram_cycles: 300,
            local_cycles: 8,
            dram_bw_gbps: 208.0,
            atomic_serial_cycles: 8,
            mem_ilp: 4.0,
            pcie_bw_gbps: 6.0,
            pcie_latency_us: 10.0,
            launch_overhead_us: 5.0,
            smem_banks: 32,
            smem_cycles: 2,
            l1_caches_globals: false,
        }
    }

    /// A Fermi-generation card (Tesla C2075-like): fewer, slower SMs,
    /// smaller L2 — but plain global loads DO go through the L1, so the
    /// `__ldg` distinction disappears. Used by the `archsweep` experiment
    /// to show the paper's Kepler-specific reasoning.
    pub fn fermi_like() -> Self {
        Self {
            name: "Fermi-class GPU (simulated)".into(),
            num_sms: 14,
            warp_size: 32,
            clock_ghz: 1.15,
            issue_width: 2,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            max_warps_per_sm: 48,
            regs_per_sm: 32768,
            reg_alloc_granularity: 64,
            smem_per_sm: 48 * 1024,
            ro_cache_bytes: 16 * 1024, // the configurable L1 split
            ro_line_bytes: 128,
            ro_ways: 4,
            l2_bytes: 768 * 1024,
            l2_line_bytes: 32,
            l2_ways: 16,
            ro_hit_cycles: 30,
            l2_hit_cycles: 180,
            dram_cycles: 400,
            local_cycles: 8,
            dram_bw_gbps: 144.0,
            atomic_serial_cycles: 20, // Fermi atomics were far slower
            mem_ilp: 3.0,
            pcie_bw_gbps: 5.0,
            pcie_latency_us: 10.0,
            launch_overhead_us: 6.0,
            smem_banks: 32,
            smem_cycles: 2,
            l1_caches_globals: true,
        }
    }

    /// A deliberately tiny device (2 SMs, small caches) so unit tests can
    /// exercise capacity effects with small inputs.
    pub fn tiny() -> Self {
        Self {
            name: "tiny-test-gpu".into(),
            num_sms: 2,
            warp_size: 32,
            clock_ghz: 1.0,
            issue_width: 2,
            max_threads_per_sm: 256,
            max_blocks_per_sm: 4,
            max_warps_per_sm: 8,
            regs_per_sm: 8192,
            reg_alloc_granularity: 64,
            smem_per_sm: 8 * 1024,
            ro_cache_bytes: 1024,
            ro_line_bytes: 128,
            ro_ways: 2,
            l2_bytes: 8 * 1024,
            l2_line_bytes: 32,
            l2_ways: 4,
            ro_hit_cycles: 30,
            l2_hit_cycles: 140,
            dram_cycles: 300,
            local_cycles: 8,
            dram_bw_gbps: 16.0,
            atomic_serial_cycles: 8,
            mem_ilp: 4.0,
            pcie_bw_gbps: 4.0,
            pcie_latency_us: 10.0,
            launch_overhead_us: 5.0,
            smem_banks: 32,
            smem_cycles: 2,
            l1_caches_globals: false,
        }
    }

    /// Cycles per second.
    pub fn clock_hz(&self) -> f64 {
        self.clock_ghz * 1e9
    }

    /// Converts a cycle count on this device to milliseconds.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz() * 1e3
    }

    /// DRAM bytes per core cycle (whole chip).
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bw_gbps * 1e9 / self.clock_hz()
    }

    /// Peak warp-instructions per cycle for the whole chip.
    pub fn peak_issue_per_cycle(&self) -> f64 {
        (self.num_sms * self.issue_width) as f64
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::k20c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20c_parameters_are_kepler_shaped() {
        let d = Device::k20c();
        assert_eq!(d.num_sms, 13);
        assert_eq!(d.warp_size, 32);
        assert_eq!(d.max_warps_per_sm * d.warp_size, d.max_threads_per_sm);
        assert!(d.ro_hit_cycles < d.l2_hit_cycles);
        assert!(d.l2_hit_cycles < d.dram_cycles);
    }

    #[test]
    fn unit_conversions() {
        let d = Device::k20c();
        // 706 MHz: 706_000 cycles is 1 ms.
        assert!((d.cycles_to_ms(706_000) - 1.0).abs() < 1e-9);
        assert!((d.dram_bytes_per_cycle() - 208e9 / 0.706e9).abs() < 1e-6);
    }

    #[test]
    fn tiny_device_is_small() {
        let d = Device::tiny();
        assert!(d.l2_bytes < Device::k20c().l2_bytes);
        assert!(d.num_sms < Device::k20c().num_sms);
    }
}
