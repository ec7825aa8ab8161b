//! Integration tests of the simulator's *model* semantics: the Fig.-4
//! ld/ldg distinction, warp-synchronous store visibility, Fermi-vs-Kepler
//! global-load caching, and the timing model's monotonicity laws.

use gcol_simt::mem::Buffer;
use gcol_simt::{grid_for, launch, Device, GpuMem, Kernel, KernelCtx};

/// Reads the same array twice per thread through the chosen load path.
struct DoubleRead {
    data: Buffer<u32>,
    sink: Buffer<u32>,
    use_ldg: bool,
}

impl Kernel for DoubleRead {
    fn name(&self) -> &'static str {
        "double-read"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        if i >= self.data.len() {
            return;
        }
        let (a, b) = if self.use_ldg {
            (t.ldg(self.data, i), t.ldg(self.data, i))
        } else {
            (t.ld(self.data, i), t.ld(self.data, i))
        };
        t.alu(1);
        t.st(self.sink, i, a.wrapping_add(b));
    }
}

fn run_double_read(dev: &Device, n: usize, use_ldg: bool) -> gcol_simt::KernelStats {
    let mut mem = GpuMem::new();
    let data = mem.alloc_from_slice(&vec![7u32; n]);
    let sink = mem.alloc::<u32>(n);
    let k = DoubleRead {
        data,
        sink,
        use_ldg,
    };
    let stats = launch(&mem, dev, grid_for(n, 128), 128, &k);
    assert_eq!(mem.read_vec(sink), vec![14u32; n]);
    stats
}

#[test]
fn ldg_is_never_slower_than_ld_for_read_only_reuse() {
    // Fig. 4: read-only data with reuse benefits from the RO cache.
    let dev = Device::k20c();
    let ld = run_double_read(&dev, 20_000, false);
    let ldg = run_double_read(&dev, 20_000, true);
    assert!(
        ldg.cycles <= ld.cycles,
        "ldg {} vs ld {}",
        ldg.cycles,
        ld.cycles
    );
    assert!(ldg.ro_hits > 0);
    assert_eq!(
        ld.ro_hits + ld.ro_misses,
        0,
        "ld bypasses RO cache on Kepler"
    );
}

#[test]
fn fermi_caches_plain_loads_in_l1() {
    // On the Fermi-like device, plain ld goes through the L1 (the RO
    // structure), so the ldg advantage collapses.
    let dev = Device::fermi_like();
    let ld = run_double_read(&dev, 20_000, false);
    assert!(ld.ro_hits > 0, "Fermi plain loads must hit the L1");
    let ldg = run_double_read(&dev, 20_000, true);
    let ratio = ld.cycles as f64 / ldg.cycles as f64;
    assert!(
        (0.8..1.2).contains(&ratio),
        "Fermi ld ≈ ldg, got ratio {ratio}"
    );
}

/// Each thread writes its slot with `st_warp` and then reads its *left
/// neighbor's* slot: within a warp the neighbor's fresh write must be
/// invisible (lockstep), across the warp boundary it must be visible
/// (earlier warp already flushed).
struct WarpVisibility {
    slots: Buffer<u32>,
    seen: Buffer<u32>,
}

impl Kernel for WarpVisibility {
    fn name(&self) -> &'static str {
        "warp-visibility"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        if i >= self.slots.len() {
            return;
        }
        t.st_warp(self.slots, i, 1000 + i as u32);
        let left = if i == 0 { i } else { i - 1 };
        let observed = t.ld(self.slots, left);
        t.st(self.seen, i, observed);
    }
}

#[test]
fn st_warp_is_invisible_within_warp_visible_across_warps() {
    let dev = Device::k20c();
    let n = 256;
    let mut mem = GpuMem::new();
    let slots = mem.alloc::<u32>(n);
    let seen = mem.alloc::<u32>(n);
    let k = WarpVisibility { slots, seen };
    launch(&mem, &dev, grid_for(n, 128), 128, &k);
    let observed = mem.read_vec(seen);
    #[allow(clippy::needless_range_loop)]
    for i in 1..n {
        let same_warp = (i % 32) != 0;
        if same_warp {
            assert_eq!(
                observed[i], 0,
                "thread {i} must NOT see its warp-mate's deferred store"
            );
        } else {
            assert_eq!(
                observed[i],
                1000 + (i as u32 - 1),
                "thread {i} must see the previous warp's flushed store"
            );
        }
    }
    // After the kernel, every deferred store has landed.
    assert_eq!(
        mem.read_vec(slots),
        (0..n as u32).map(|i| 1000 + i).collect::<Vec<_>>()
    );
}

/// alu-only kernel for issue-bound checks.
struct Spin {
    n: usize,
    iters: u32,
}

impl Kernel for Spin {
    fn name(&self) -> &'static str {
        "spin"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        if (t.global_id() as usize) < self.n {
            t.alu(self.iters);
        }
    }
}

#[test]
fn compute_bound_kernel_scales_with_alu_work() {
    let dev = Device::k20c();
    let mem = GpuMem::new();
    let time = |iters: u32| {
        launch(
            &mem,
            &dev,
            grid_for(100_000, 128),
            128,
            &Spin { n: 100_000, iters },
        )
        .cycles
    };
    let t1 = time(64);
    let t4 = time(256);
    let ratio = t4 as f64 / t1 as f64;
    assert!(
        (2.0..6.0).contains(&ratio),
        "4x alu work should cost ~4x, got {ratio}"
    );
}

#[test]
fn occupancy_starved_launch_is_slower_per_element() {
    // The Fig.-8 mechanism in isolation: same total work, 32-thread blocks
    // vs 128-thread blocks on a memory-bound kernel.
    let dev = Device::k20c();
    let n = 60_000;
    let run_block_size = |block: u32| {
        let mut mem = GpuMem::new();
        let data = mem.alloc_from_slice(&vec![1u32; n]);
        let sink = mem.alloc::<u32>(n);
        let k = DoubleRead {
            data,
            sink,
            use_ldg: false,
        };
        launch(&mem, &dev, grid_for(n, block), block, &k).cycles
    };
    let c32 = run_block_size(32);
    let c128 = run_block_size(128);
    assert!(
        c32 > c128,
        "32-thread blocks must be slower ({c32} vs {c128})"
    );
}

/// Each thread reads its own slot plus a far-away slot, so every element
/// is touched twice with a large reuse distance — a capacity probe.
struct StridedReuse {
    data: Buffer<u32>,
    sink: Buffer<u32>,
}

impl Kernel for StridedReuse {
    fn name(&self) -> &'static str {
        "strided-reuse"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let n = self.data.len();
        let i = t.global_id() as usize;
        if i >= n {
            return;
        }
        let a = t.ld(self.data, i);
        let b = t.ld(self.data, (i + n / 2) % n);
        t.alu(2);
        t.st(self.sink, i, a.wrapping_add(b));
    }
}

#[test]
fn bigger_l2_reduces_dram_traffic() {
    // Working set 120 KB: far beyond tiny's 8 KB L2, comfortably inside
    // the K20c's 1.5 MB — the reuse distance of n/2 elements means the
    // second touch hits only when the whole array fits.
    let n = 30_000;
    let run_on = |dev: &Device| {
        let mut mem = GpuMem::new();
        let data = mem.alloc_from_slice(&vec![3u32; n]);
        let sink = mem.alloc::<u32>(n);
        let k = StridedReuse { data, sink };
        let stats = launch(&mem, dev, grid_for(n, 128), 128, &k);
        assert_eq!(mem.read_vec(sink), vec![6u32; n]);
        stats
    };
    let tiny = run_on(&Device::tiny());
    let big = run_on(&Device::k20c());
    let tiny_rate = tiny.dram_bytes as f64 / tiny.mem_transactions as f64;
    let big_rate = big.dram_bytes as f64 / big.mem_transactions as f64;
    assert!(
        big_rate < tiny_rate,
        "bigger L2 should turn transactions into hits: {big_rate} vs {tiny_rate}"
    );
}
