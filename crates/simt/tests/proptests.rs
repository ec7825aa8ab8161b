//! Property tests of the simulator's model components: the cache against
//! a naive reference implementation, the coalescer's transaction-count
//! bounds, and the occupancy calculator's laws.

use gcol_simt::mem::Buffer;
use gcol_simt::timing::cache::Cache;
use gcol_simt::{grid_for, launch, occupancy, Device, GpuMem, Kernel, KernelCtx};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Naive fully-associative LRU of `lines` entries — the oracle for the
/// set-associative model in the degenerate 1-set configuration.
struct NaiveLru {
    capacity: usize,
    lines: VecDeque<u64>,
}

impl NaiveLru {
    fn access(&mut self, line: u64) -> bool {
        if let Some(pos) = self.lines.iter().position(|&l| l == line) {
            self.lines.remove(pos);
            self.lines.push_back(line);
            true
        } else {
            if self.lines.len() == self.capacity {
                self.lines.pop_front();
            }
            self.lines.push_back(line);
            false
        }
    }
}

proptest! {
    #[test]
    fn single_set_cache_matches_naive_lru(
        addrs in proptest::collection::vec(0u64..64, 1..400),
        ways in 1u32..8,
    ) {
        // size = ways lines of 32B in one set.
        let mut model = Cache::new(32 * ways, 32, ways);
        let mut oracle = NaiveLru { capacity: ways as usize, lines: VecDeque::new() };
        for &a in &addrs {
            let byte = a * 32;
            prop_assert_eq!(model.access(byte), oracle.access(a),
                            "diverged at line {}", a);
        }
    }

    #[test]
    fn cache_hits_plus_misses_equals_accesses(
        addrs in proptest::collection::vec(0u64..100_000, 0..300),
        size_kb in 1u32..64,
        ways in 1u32..16,
    ) {
        let mut c = Cache::new(size_kb * 1024, 32, ways);
        for &a in &addrs {
            c.access(a);
        }
        let (h, m) = c.stats();
        prop_assert_eq!(h + m, addrs.len() as u64);
    }

    #[test]
    fn occupancy_laws(block_exp in 0u32..6, regs in 8u32..128, smem in 0u32..32_768) {
        let dev = Device::k20c();
        let block = 32u32 << block_exp; // 32..1024
        let o = occupancy(&dev, 1 << 16, block, regs, smem);
        prop_assert!(o.resident_blocks >= 1);
        prop_assert!(o.resident_warps <= dev.max_warps_per_sm);
        prop_assert!(o.resident_blocks <= dev.max_blocks_per_sm);
        prop_assert!(o.fraction > 0.0 && o.fraction <= 1.0);
        // More registers can never increase occupancy.
        let o2 = occupancy(&dev, 1 << 16, block, regs + 16, smem);
        prop_assert!(o2.resident_warps <= o.resident_warps);
        // More shared memory can never increase occupancy.
        let o3 = occupancy(&dev, 1 << 16, block, regs, smem + 1024);
        prop_assert!(o3.resident_warps <= o.resident_warps);
    }
}

/// A kernel whose lanes load a caller-chosen pattern: used to bound the
/// coalescer's transaction counts from above and below.
struct PatternLoad {
    data: Buffer<u32>,
    pattern: Vec<u32>,
    sink: Buffer<u32>,
}

impl Kernel for PatternLoad {
    fn name(&self) -> &'static str {
        "pattern-load"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        if i >= self.pattern.len() {
            return;
        }
        let j = self.pattern[i] as usize;
        let v = t.ld(self.data, j);
        t.st(self.sink, i, v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn coalescer_transaction_bounds(
        pattern in proptest::collection::vec(0u32..4096, 1..96),
    ) {
        let dev = Device::k20c();
        let mut mem = GpuMem::new();
        let data = mem.alloc_from_slice(&vec![1u32; 4096]);
        let sink = mem.alloc::<u32>(pattern.len());
        let n = pattern.len();
        let k = PatternLoad { data, pattern: pattern.clone(), sink };
        let stats = launch(&mem, &dev, grid_for(n, 32), 32, &k);
        // Loads + the sink stores, all 32B-sector coalesced. Upper bound:
        // one transaction per lane-op; lower bound: the distinct sectors
        // each warp touches.
        let lane_ops = 2 * n as u64;
        prop_assert!(stats.mem_transactions <= lane_ops);
        // Distinct load sectors per warp (8 words of 4B per 32B sector).
        let mut min_txn = 0u64;
        for w in pattern.chunks(32) {
            let mut sectors: Vec<u64> = w
                .iter()
                .map(|&j| (data.addr(j as usize) as u64 * 4) / 32)
                .collect();
            sectors.sort_unstable();
            sectors.dedup();
            min_txn += sectors.len() as u64;
        }
        prop_assert!(stats.mem_transactions >= min_txn,
            "txns {} below the distinct-sector floor {min_txn}",
            stats.mem_transactions);
    }

    #[test]
    fn uniform_pattern_is_fully_coalesced(start in 0u32..1000) {
        // 32 consecutive words = 4 sectors of 32B for the load and 4 for
        // the store: the best case the coalescer must achieve.
        let dev = Device::k20c();
        let mut mem = GpuMem::new();
        let data = mem.alloc_from_slice(&vec![1u32; 2048]);
        let sink = mem.alloc::<u32>(32);
        let pattern: Vec<u32> = (start..start + 32).collect();
        let k = PatternLoad { data, pattern, sink };
        let stats = launch(&mem, &dev, 1, 32, &k);
        // Loads may straddle one extra sector when unaligned.
        prop_assert!(stats.mem_transactions <= 9,
                     "expected ≤ 9 transactions, got {}",
                     stats.mem_transactions);
    }
}
