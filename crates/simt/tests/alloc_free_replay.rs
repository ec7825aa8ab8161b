//! Verifies the zero-allocation claim of the executor hot path: once a
//! launch's buffers are warm, tracing and replaying further warps must
//! never touch the heap. The trace's vectors keep their capacity across
//! `reset()` and the replay works out of the `SmState`-owned fixed
//! scratch, so steady-state kernel launches allocate only their one-time
//! setup (occupancy bookkeeping, stats strings, result vectors).
//!
//! This file holds a single test: the counting global allocator is
//! process-wide state, and a second concurrently-running test would
//! perturb the count.

use gcol_simt::mem::Buffer;
use gcol_simt::{grid_for, launch, Device, GpuMem, Kernel, KernelCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts allocations.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A kernel exercising every replay path: coalesced and strided loads,
/// read-only loads, stores, local scratch, atomics and ALU work — enough
/// op-slot shapes to reach every branch of `account_warp`.
struct Churn {
    data: Buffer<u32>,
    out: Buffer<u32>,
    counter: Buffer<u32>,
    n: usize,
}

impl Kernel for Churn {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        if i >= self.n {
            return;
        }
        let a = t.ld(self.data, i);
        let b = t.ldg(self.data, (i * 7) % self.n);
        t.local_reserve(2);
        t.local_st(0, a);
        t.local_st(1, b);
        t.alu(3);
        let v = t.local_ld(0).wrapping_add(t.local_ld(1));
        t.st(self.out, i, v);
        if i.is_multiple_of(3) {
            // Divergent tail: some lanes issue an extra atomic slot.
            t.atomic_add(self.counter, i % 4, 1);
        }
    }
}

#[test]
fn steady_state_replay_does_not_allocate() {
    let n = 2048usize;
    let dev = Device::k20c();
    let mut mem = GpuMem::new();
    let data = mem.alloc_from_slice(&(0..n as u32).collect::<Vec<u32>>());
    let out = mem.alloc::<u32>(n);
    let counter = mem.alloc::<u32>(4);
    let k = Churn {
        data,
        out,
        counter,
        n,
    };

    // Warm-up: grows the trace vectors to their steady-state capacity and
    // pays every one-time setup cost.
    for _ in 0..3 {
        launch(&mem, &dev, grid_for(n, 128), 128, &k);
    }

    // A launch still allocates O(1) per call outside the replay itself
    // (per-SM states, the stats struct and its name string, occupancy
    // math) — but that cost must be independent of how many warps run.
    // Compare a tiny launch's allocation count with a 16x-larger one:
    // identical counts mean the per-warp trace/replay path is
    // allocation-free.
    let per_launch_small = {
        let before = ALLOCS.load(Ordering::Relaxed);
        launch(&mem, &dev, 1, 128, &k);
        ALLOCS.load(Ordering::Relaxed) - before
    };
    let per_launch_large = {
        let before = ALLOCS.load(Ordering::Relaxed);
        launch(&mem, &dev, grid_for(n, 128), 128, &k);
        ALLOCS.load(Ordering::Relaxed) - before
    };
    assert_eq!(
        per_launch_small,
        per_launch_large,
        "allocation count must not grow with warp count: \
         {per_launch_small} allocs for 1 block vs {per_launch_large} for {} blocks",
        grid_for(n, 128)
    );
}
