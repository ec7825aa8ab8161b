//! The kernel executor: functional SIMT execution + timing accounting.
//!
//! Blocks are assigned to SMs round-robin (`sm = block_id % num_sms`) and
//! execute in increasing id order, so functional results and timing are
//! bit-stable. Each SM has its own read-only cache; all SMs share one
//! chip-wide L2, as on GK110. The launching thread runs the blocks and
//! gathers each warp's trace; a replay worker owned by that thread charges
//! the gathered accesses to the SMs' timing state in the same order (see
//! the `pipeline` module). The two overlap, and every modeled number is
//! the one a single thread would compute.

#![allow(clippy::too_many_arguments, clippy::needless_range_loop)]

use crate::config::Device;
use crate::kernel::{CoopKernel, Kernel, ThreadCtx};
use crate::mem::GpuMem;
use crate::pipeline::pipelined;
use crate::timing::occupancy::occupancy;
use crate::timing::{finalize, KernelStats};
use crate::trace::WarpTrace;

/// The largest thread block a launch accepts (CUDA's per-block limit on
/// every device the simulator models). Launches assert
/// `1..=MAX_BLOCK_THREADS`; the protocol and the CLI reject anything else
/// before it reaches them.
pub const MAX_BLOCK_THREADS: u32 = 1024;

/// Panics unless `block_threads` is in `1..=MAX_BLOCK_THREADS`.
pub(crate) fn assert_block_threads(block_threads: u32) {
    assert!(
        (1..=MAX_BLOCK_THREADS).contains(&block_threads),
        "bad block size"
    );
}

/// Where a launch sends its timing work, in block-id order: the
/// pipeline's `Feed` in production, a single-thread reference in tests.
pub(crate) trait Timing {
    /// One traced warp of a block on SM `sm`.
    fn warp(&mut self, sm: u32, trace: &WarpTrace);
    /// A coop block's scan on SM `sm`.
    fn block_scan(&mut self, sm: u32, threads: u32);
    /// The block-base atomics of a `grid`-block coop launch.
    fn base_atomics(&mut self, grid: u32);
}

/// Sets `ctx` up for block `bid` of a `grid`-block launch.
fn enter_block(ctx: &mut ThreadCtx<'_>, bid: u32, grid: u32, block_threads: u32, smem_bytes: u32) {
    ctx.bid = bid;
    ctx.bdim = block_threads;
    ctx.gdim = grid;
    ctx.reset_smem(smem_bytes as usize / 4);
}

/// Runs every thread of the block `ctx` was entered into, warp by warp:
/// `thread(ctx)` runs the thread `ctx.tid`, and `on_warp` receives each
/// finished warp's trace. Threads record straight into the context's
/// shared [`WarpTrace`] (reset per warp, one lane opened per thread), so
/// the warp loop touches no per-lane buffers and performs no steady-state
/// allocation.
fn run_warps(
    dev: &Device,
    block_threads: u32,
    ctx: &mut ThreadCtx<'_>,
    mut thread: impl FnMut(&mut ThreadCtx<'_>),
    on_warp: &mut impl FnMut(&WarpTrace),
) {
    let ws = dev.warp_size;
    let mut warp_start = 0;
    while warp_start < block_threads {
        let active = ws.min(block_threads - warp_start);
        ctx.trace.reset();
        for lane in 0..active {
            ctx.tid = warp_start + lane;
            ctx.trace.begin_lane();
            thread(ctx);
        }
        on_warp(&ctx.trace);
        ctx.flush_deferred();
        warp_start += ws;
    }
}

/// Runs every thread of `block_id`, handing each warp's trace to
/// `on_warp`.
fn run_block<K: Kernel>(
    dev: &Device,
    kernel: &K,
    block_id: u32,
    grid: u32,
    block_threads: u32,
    ctx: &mut ThreadCtx<'_>,
    on_warp: &mut impl FnMut(&WarpTrace),
) {
    enter_block(ctx, block_id, grid, block_threads, kernel.smem_per_block());
    run_warps(dev, block_threads, ctx, |ctx| kernel.run(ctx), on_warp);
}

/// Runs every block of a [`Kernel`] launch in id order, timing to
/// `timing`.
fn run_blocks<K: Kernel>(
    mem: &GpuMem,
    dev: &Device,
    grid: u32,
    block_threads: u32,
    kernel: &K,
    timing: &mut impl Timing,
) {
    let mut ctx = ThreadCtx::new(mem);
    for bid in 0..grid {
        let sm = bid % dev.num_sms;
        run_block(dev, kernel, bid, grid, block_threads, &mut ctx, &mut |t| {
            timing.warp(sm, t)
        });
    }
}

/// Launches a [`Kernel`] over `grid` blocks of `block_threads` threads.
pub fn launch<K: Kernel>(
    mem: &GpuMem,
    dev: &Device,
    grid: u32,
    block_threads: u32,
    kernel: &K,
) -> KernelStats {
    assert_block_threads(block_threads);
    let occ = occupancy(
        dev,
        grid.max(1),
        block_threads,
        kernel.regs_per_thread(),
        kernel.smem_per_block(),
    );
    let ((), r) = pipelined(dev, |feed| {
        run_blocks(mem, dev, grid, block_threads, kernel, feed)
    });
    finalize(
        dev,
        kernel.name(),
        grid,
        block_threads,
        occ,
        &r.sms,
        r.l2.stats(),
    )
}

/// Per-block result of a coop kernel's count phase.
struct BlockCount<C> {
    /// (carry, exclusive in-block offset) per thread, in tid order.
    entries: Vec<(C, u32)>,
    total: u32,
}

/// Runs the count phase of block `bid` of a coop launch, handing each
/// warp's trace to `on_warp`. The block's scan is charged by the caller.
fn count_block<K: CoopKernel>(
    dev: &Device,
    kernel: &K,
    bid: u32,
    grid: u32,
    block_threads: u32,
    ctx: &mut ThreadCtx<'_>,
    on_warp: &mut impl FnMut(&WarpTrace),
) -> BlockCount<K::Carry> {
    enter_block(ctx, bid, grid, block_threads, kernel.smem_per_block());
    let mut entries: Vec<(K::Carry, u32)> = Vec::with_capacity(block_threads as usize);
    let mut running = 0u32;
    run_warps(
        dev,
        block_threads,
        ctx,
        |ctx| {
            let (carry, req) = kernel.count(ctx);
            entries.push((carry, running));
            running += req;
        },
        on_warp,
    );
    BlockCount {
        entries,
        total: running,
    }
}

/// Runs the emit phase of block `bid`, whose output starts at `base`.
fn emit_block<K: CoopKernel>(
    dev: &Device,
    kernel: &K,
    bid: u32,
    grid: u32,
    block_threads: u32,
    base: u32,
    bc: BlockCount<K::Carry>,
    ctx: &mut ThreadCtx<'_>,
    on_warp: &mut impl FnMut(&WarpTrace),
) {
    // Shared memory does not persist between the count and emit phases
    // of this executor; use Carry to thread state across them.
    enter_block(ctx, bid, grid, block_threads, kernel.smem_per_block());
    let mut it = bc.entries.into_iter();
    run_warps(
        dev,
        block_threads,
        ctx,
        |ctx| {
            let (carry, offset) = it.next().expect("one entry per thread");
            kernel.emit(ctx, carry, base + offset);
        },
        on_warp,
    );
}

/// Block bases: exclusive scan over block totals in id order, and the
/// grand total. On hardware this is one atomicAdd per block on a global
/// counter; scanning in block-id order makes the output layout
/// deterministic while the timing charge (one atomic + L2 round trip per
/// block) is identical.
fn block_bases<C>(counts: &[BlockCount<C>]) -> (Vec<u32>, u32) {
    let mut bases = Vec::with_capacity(counts.len());
    let mut total = 0u32;
    for bc in counts {
        bases.push(total);
        total += bc.total;
    }
    (bases, total)
}

/// Runs a [`CoopKernel`] launch: count phase, block bases, emit phase,
/// each in block-id order, timing to `timing`. Returns the number of
/// emitted items.
fn run_coop_blocks<K: CoopKernel>(
    mem: &GpuMem,
    dev: &Device,
    grid: u32,
    block_threads: u32,
    kernel: &K,
    timing: &mut impl Timing,
) -> u32 {
    let n_sms = dev.num_sms;
    let mut ctx = ThreadCtx::new(mem);
    let mut counts: Vec<BlockCount<K::Carry>> = Vec::with_capacity(grid as usize);
    for bid in 0..grid {
        let sm = bid % n_sms;
        let bc = count_block(dev, kernel, bid, grid, block_threads, &mut ctx, &mut |t| {
            timing.warp(sm, t)
        });
        timing.block_scan(sm, block_threads);
        counts.push(bc);
    }
    let (bases, total) = block_bases(&counts);
    timing.base_atomics(grid);
    let mut ctx = ThreadCtx::new(mem);
    for (bid, bc) in counts.into_iter().enumerate() {
        let bid = bid as u32;
        let sm = bid % n_sms;
        let base = bases[bid as usize];
        emit_block(
            dev,
            kernel,
            bid,
            grid,
            block_threads,
            base,
            bc,
            &mut ctx,
            &mut |t| timing.warp(sm, t),
        );
    }
    total
}

/// Launches a [`CoopKernel`]: count phase → per-block exclusive scan +
/// one global atomic per block → emit phase. Returns the kernel stats and
/// the total number of emitted items. Output positions follow block-id
/// order, preserving input order exactly as prefix-sum compaction does
/// (Fig. 5 of the paper).
pub fn launch_coop<K: CoopKernel>(
    mem: &GpuMem,
    dev: &Device,
    grid: u32,
    block_threads: u32,
    kernel: &K,
) -> (KernelStats, u32) {
    assert_block_threads(block_threads);
    // The block scan needs one shared-memory word per thread.
    let smem = kernel.smem_per_block() + 4 * block_threads;
    let occ = occupancy(
        dev,
        grid.max(1),
        block_threads,
        kernel.regs_per_thread(),
        smem,
    );
    let (total, r) = pipelined(dev, |feed| {
        run_coop_blocks(mem, dev, grid, block_threads, kernel, feed)
    });
    let stats = finalize(
        dev,
        kernel.name(),
        grid,
        block_threads,
        occ,
        &r.sms,
        r.l2.stats(),
    );
    (stats, total)
}

/// Grid size for one thread per element.
///
/// # Panics
///
/// Panics if the required grid exceeds `u32::MAX` blocks (the CUDA
/// 1-D grid limit) instead of silently truncating the launch.
pub fn grid_for(n: usize, block_threads: u32) -> u32 {
    let blocks = (n as u64).div_ceil(block_threads.max(1) as u64);
    assert!(
        blocks <= u32::MAX as u64,
        "grid_for: {n} elements / {block_threads} threads needs {blocks} blocks, \
         exceeding the u32 grid limit"
    );
    blocks as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelCtx;
    use crate::mem::Buffer;
    use crate::timing::cache::Cache;
    use crate::timing::occupancy::Occupancy;
    use crate::timing::SmState;
    use proptest::prelude::*;

    /// y[i] = a * x[i] + y[i] — the classic check that indexing and
    /// memory plumbing are right.
    struct Saxpy {
        a: f32,
        x: Buffer<f32>,
        y: Buffer<f32>,
    }

    impl Kernel for Saxpy {
        fn name(&self) -> &'static str {
            "saxpy"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            let i = t.global_id() as usize;
            if i >= self.x.len() {
                return;
            }
            let xi = t.ldg(self.x, i);
            let yi = t.ld(self.y, i);
            t.alu(2);
            t.st(self.y, i, self.a * xi + yi);
        }
    }

    #[test]
    fn saxpy_computes_correctly() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let n = 1000;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| (2 * i) as f32).collect();
        let xb = mem.alloc_from_slice(&x);
        let yb = mem.alloc_from_slice(&y);
        let k = Saxpy {
            a: 3.0,
            x: xb,
            y: yb,
        };
        let stats = launch(&mem, &dev, grid_for(n, 128), 128, &k);
        let out = mem.read_vec(yb);
        for i in 0..n {
            assert_eq!(out[i], 3.0 * i as f32 + 2.0 * i as f32);
        }
        assert!(stats.cycles > 0);
        assert!(stats.instructions > 0);
        assert_eq!(stats.name, "saxpy");
    }

    #[test]
    fn deterministic_mode_gives_identical_stats() {
        let dev = Device::tiny();
        let run = || {
            let mut mem = GpuMem::new();
            let x = mem.alloc_from_slice(&vec![1.0f32; 500]);
            let y = mem.alloc_from_slice(&vec![2.0f32; 500]);
            let k = Saxpy { a: 1.0, x, y };
            launch(&mem, &dev, grid_for(500, 64), 64, &k)
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mem_transactions, b.mem_transactions);
        assert_eq!(a.dram_bytes, b.dram_bytes);
    }

    /// Histogram with atomics: exercises atomic plumbing under contention.
    struct AtomicHist {
        data: Buffer<u32>,
        hist: Buffer<u32>,
    }

    impl Kernel for AtomicHist {
        fn name(&self) -> &'static str {
            "hist"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            let i = t.global_id() as usize;
            if i >= self.data.len() {
                return;
            }
            let v = t.ld(self.data, i) as usize % self.hist.len();
            t.alu(1);
            t.atomic_add(self.hist, v, 1);
        }
    }

    #[test]
    fn atomic_histogram_is_exact() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let n = 10_000;
        let data: Vec<u32> = (0..n as u32).collect();
        let db = mem.alloc_from_slice(&data);
        let hb = mem.alloc::<u32>(7);
        let k = AtomicHist { data: db, hist: hb };
        let stats = launch(&mem, &dev, grid_for(n, 256), 256, &k);
        let h = mem.read_vec(hb);
        assert_eq!(h.iter().sum::<u32>(), n as u32);
        for (b, &count) in h.iter().enumerate() {
            let expect = (0..n).filter(|i| i % 7 == b).count() as u32;
            assert_eq!(count, expect);
        }
        assert!(stats.atomics >= n as u64);
        assert!(stats.atomic_serial_cycles > 0, "bucket contention");
    }

    /// Compaction coop kernel: emit the index of every value above a
    /// threshold.
    struct FilterAbove {
        data: Buffer<u32>,
        out: Buffer<u32>,
        threshold: u32,
    }

    impl CoopKernel for FilterAbove {
        type Carry = u32;
        fn name(&self) -> &'static str {
            "filter"
        }
        fn count(&self, t: &mut impl KernelCtx) -> (u32, u32) {
            let i = t.global_id() as usize;
            if i >= self.data.len() {
                return (0, 0);
            }
            let v = t.ld(self.data, i);
            t.alu(1);
            (i as u32, (v > self.threshold) as u32)
        }
        fn emit(&self, t: &mut impl KernelCtx, carry: u32, dst: u32) {
            let i = carry as usize;
            if i >= self.data.len() {
                return;
            }
            let v = t.ld(self.data, i);
            if v > self.threshold {
                t.st(self.out, dst as usize, carry);
            }
        }
    }

    #[test]
    fn coop_compaction_preserves_order() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let n = 5000;
        let data: Vec<u32> = (0..n as u32).map(|i| i * 7 % 100).collect();
        let db = mem.alloc_from_slice(&data);
        let ob = mem.alloc::<u32>(n);
        let k = FilterAbove {
            data: db,
            out: ob,
            threshold: 50,
        };
        let (stats, total) = launch_coop(&mem, &dev, grid_for(n, 128), 128, &k);
        let expect: Vec<u32> = (0..n as u32).filter(|&i| data[i as usize] > 50).collect();
        assert_eq!(total as usize, expect.len());
        let out = mem.read_vec(ob);
        assert_eq!(&out[..total as usize], expect.as_slice());
        // One global atomic per block was charged.
        assert!(stats.atomics >= grid_for(n, 128) as u64);
    }

    #[test]
    fn coop_with_zero_grid() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let db = mem.alloc::<u32>(1);
        let ob = mem.alloc::<u32>(1);
        let k = FilterAbove {
            data: db,
            out: ob,
            threshold: 0,
        };
        let (stats, total) = launch_coop(&mem, &dev, 0, 128, &k);
        assert_eq!(total, 0);
        assert!(stats.cycles > 0, "launch overhead still charged");
    }

    #[test]
    fn partial_warp_and_single_thread() {
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let x = mem.alloc_from_slice(&[1.0f32; 3]);
        let y = mem.alloc_from_slice(&[0.0f32; 3]);
        let k = Saxpy { a: 2.0, x, y };
        launch(&mem, &dev, 3, 1, &k);
        assert_eq!(mem.read_vec(y), vec![2.0, 2.0, 2.0]);
    }

    // ------------------------------------------------------------------
    // Oracle equivalence: the pipelined launch against the single-thread
    // path it replaced (blocks in id order, each warp
    // charged inline by `account_warp`), kept here as the reference.
    // ------------------------------------------------------------------

    /// The single-thread replay: every warp charged on the launching
    /// thread as soon as it has run.
    struct Inline<'d> {
        dev: &'d Device,
        sms: Vec<SmState>,
        l2: Cache,
    }

    impl<'d> Inline<'d> {
        fn new(dev: &'d Device) -> Self {
            Self {
                dev,
                sms: (0..dev.num_sms).map(|_| SmState::new(dev)).collect(),
                l2: Cache::new(dev.l2_bytes, dev.l2_line_bytes, dev.l2_ways),
            }
        }

        fn finish(
            self,
            name: &str,
            grid: u32,
            block: u32,
            occ: Occupancy,
        ) -> (KernelStats, Vec<SmState>) {
            let stats = finalize(self.dev, name, grid, block, occ, &self.sms, self.l2.stats());
            (stats, self.sms)
        }
    }

    impl Timing for Inline<'_> {
        fn warp(&mut self, sm: u32, trace: &WarpTrace) {
            self.sms[sm as usize].account_warp(self.dev, &mut self.l2, trace);
        }
        fn block_scan(&mut self, sm: u32, threads: u32) {
            self.sms[sm as usize].charge_block_scan(self.dev, threads);
        }
        fn base_atomics(&mut self, grid: u32) {
            for bid in 0..grid {
                self.sms[(bid % self.dev.num_sms) as usize].charge_block_base_atomic(self.dev);
            }
        }
    }

    fn reference_launch<K: Kernel>(
        mem: &GpuMem,
        dev: &Device,
        grid: u32,
        block: u32,
        kernel: &K,
    ) -> (KernelStats, Vec<SmState>) {
        let regs = kernel.regs_per_thread();
        let occ = occupancy(dev, grid.max(1), block, regs, kernel.smem_per_block());
        let mut inline = Inline::new(dev);
        run_blocks(mem, dev, grid, block, kernel, &mut inline);
        inline.finish(kernel.name(), grid, block, occ)
    }

    fn reference_launch_coop<K: CoopKernel>(
        mem: &GpuMem,
        dev: &Device,
        grid: u32,
        block: u32,
        kernel: &K,
    ) -> (KernelStats, u32, Vec<SmState>) {
        let smem = kernel.smem_per_block() + 4 * block;
        let occ = occupancy(dev, grid.max(1), block, kernel.regs_per_thread(), smem);
        let mut inline = Inline::new(dev);
        let total = run_coop_blocks(mem, dev, grid, block, kernel, &mut inline);
        let (stats, sms) = inline.finish(kernel.name(), grid, block, occ);
        (stats, total, sms)
    }

    /// Every per-SM counter equal, including those `finalize` folds into
    /// a maximum (a mis-replayed warp can hide there).
    fn assert_sms_identical(a: &[SmState], b: &[SmState]) {
        let fields = |s: &SmState| {
            let (ro_hits, ro_misses) = s.ro_stats();
            [
                s.issue,
                s.mem_lat,
                s.mem_insts,
                s.transactions,
                s.dram_bytes,
                s.atomics,
                s.atomic_serial,
                s.sync_cycles,
                s.max_warp_lat,
                s.simd_useful,
                s.simd_slots,
                ro_hits,
                ro_misses,
            ]
        };
        assert_eq!(a.len(), b.len());
        for (sm, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(fields(x), fields(y), "SM {sm}");
        }
    }

    /// Every integer equal and every f64 equal bit for bit.
    fn assert_bit_identical(a: &KernelStats, b: &KernelStats) {
        assert_eq!(a, b);
        let bits = |s: &KernelStats| {
            [
                s.time_ms,
                s.achieved_bw_frac,
                s.achieved_ipc_frac,
                s.simd_efficiency,
                s.occupancy.fraction,
                s.stalls.memory_dependency,
                s.stalls.execution_dependency,
                s.stalls.synchronization,
                s.stalls.instruction_fetch,
                s.stalls.other,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(a), bits(b), "{}", a.name);
    }

    /// Runs `kernel`, each time on fresh memory from `setup`, through
    /// `launch`, through the pipeline directly (for the per-SM state) and
    /// through the reference, and checks stats, SM state and output.
    fn check_launch<K: Kernel, R: Fn(&GpuMem) -> Vec<u32>>(
        dev: &Device,
        grid: u32,
        block: u32,
        setup: impl Fn(&mut GpuMem) -> (K, R),
    ) {
        let fresh = || {
            let mut mem = GpuMem::new();
            let (k, output) = setup(&mut mem);
            (mem, k, output)
        };
        let (mem, k, output) = fresh();
        let got = launch(&mem, dev, grid, block, &k);
        let got_out = output(&mem);
        let (mem, k, _) = fresh();
        let ((), replayed) = pipelined(dev, |feed| run_blocks(&mem, dev, grid, block, &k, feed));
        let (mem, k, output) = fresh();
        let (want, want_sms) = reference_launch(&mem, dev, grid, block, &k);
        assert_bit_identical(&got, &want);
        assert_sms_identical(&replayed.sms, &want_sms);
        assert_eq!(got_out, output(&mem), "functional output");
    }

    /// Divergent, atomic, shared-memory and local-memory traffic, plus
    /// one long-running lane per block whose warp alone overflows a
    /// replay batch.
    struct Mixed {
        data: Buffer<u32>,
        hist: Buffer<u32>,
        out: Buffer<u32>,
        hub_len: usize,
    }

    impl Kernel for Mixed {
        fn name(&self) -> &'static str {
            "mixed"
        }
        fn smem_per_block(&self) -> u32 {
            4 * 64
        }
        fn run(&self, t: &mut impl KernelCtx) {
            let i = t.global_id() as usize;
            let tid = t.tid() as usize;
            if i >= self.data.len() {
                return;
            }
            let v = t.ld(self.data, i);
            // Bank conflicts: stride-2 words collide pairwise.
            t.smem_st((tid * 2) % 64, v);
            let s = t.smem_ld((tid * 2 + 1) % 64);
            t.local_reserve(2);
            if v.is_multiple_of(3) {
                // Divergent slot: Ld, Local and Atomic side by side.
                t.local_st(0, s);
                t.atomic_add(self.hist, (v % 5) as usize, 1);
            } else if v % 3 == 1 {
                let w = t.ldg(self.data, (i * 13) % self.data.len());
                t.local_st(1, w);
            } else {
                t.atomic_max(self.hist, 0, v);
            }
            t.alu(1 + v % 4);
            if tid == 0 {
                // The hub lane: one warp with thousands of op slots.
                let mut acc = 0u32;
                for k in 0..self.hub_len {
                    acc = acc.wrapping_add(t.ld(self.data, (k * 7) % self.data.len()));
                }
                t.st(self.out, i, acc);
            } else {
                let a = t.local_ld(0);
                t.st(self.out, i, a.wrapping_add(s));
            }
        }
    }

    #[test]
    fn pipelined_launch_matches_single_thread_reference() {
        let saxpy_dev = Device::tiny();
        check_launch(&saxpy_dev, grid_for(1000, 128), 128, |mem| {
            let x: Vec<f32> = (0..1000).map(|i| i as f32).collect();
            let y: Vec<f32> = (0..1000).map(|i| (3 * i) as f32).collect();
            let (x, y) = (mem.alloc_from_slice(&x), mem.alloc_from_slice(&y));
            let out = move |m: &GpuMem| m.read_vec(y).iter().map(|v| v.to_bits()).collect();
            (Saxpy { a: 2.5, x, y }, out)
        });
        for dev in [Device::tiny(), Device::k20c()] {
            let n = 20_000;
            check_launch(&dev, grid_for(n, 256), 256, |mem| {
                let data: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
                let data = mem.alloc_from_slice(&data);
                let hist = mem.alloc::<u32>(7);
                (AtomicHist { data, hist }, move |m: &GpuMem| {
                    m.read_vec(hist)
                })
            });
            let n = 3000;
            check_launch(&dev, grid_for(n, 96), 96, |mem| {
                let data: Vec<u32> = (0..n as u32)
                    .map(|i| i.wrapping_mul(40503) % 1000)
                    .collect();
                let data = mem.alloc_from_slice(&data);
                let hist = mem.alloc::<u32>(5);
                let out = mem.alloc::<u32>(n);
                let k = Mixed {
                    data,
                    hist,
                    out,
                    hub_len: 5000,
                };
                (k, move |m: &GpuMem| {
                    [m.read_vec(hist), m.read_vec(out)].concat()
                })
            });
        }
    }

    /// Every traced op kind over random inputs: plain and read-only
    /// loads (the latter reversed, so imperfectly coalesced), local
    /// scratch, ALU work, per-thread stores and an atomic reduction.
    struct MixedSaxpy {
        x: Buffer<u32>,
        y: Buffer<u32>,
        out: Buffer<u32>,
        total: Buffer<u32>,
        n: usize,
    }

    impl Kernel for MixedSaxpy {
        fn name(&self) -> &'static str {
            "mixed-saxpy"
        }
        fn run(&self, t: &mut impl KernelCtx) {
            let i = t.global_id() as usize;
            if i >= self.n {
                return;
            }
            let a = t.ld(self.x, i);
            let b = t.ldg(self.y, self.n - 1 - i);
            t.local_reserve(1);
            t.local_st(0, a.wrapping_mul(3));
            let c = t.local_ld(0);
            t.alu(4);
            let v = c.wrapping_add(b);
            t.st(self.out, i, v);
            t.atomic_add(self.total, 0, v % 97);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn pipelined_launch_matches_reference_on_random_inputs(
            n in 1usize..4000,
            block_exp in 0u32..4,
            seed in any::<u64>(),
        ) {
            let block = 32u32 << block_exp;
            check_launch(&Device::k20c(), grid_for(n, block), block, |mem| {
                // splitmix64 over the seed.
                let mut state = seed;
                let mut next = move || {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    (z ^ (z >> 31)) as u32
                };
                let x: Vec<u32> = (0..n).map(|_| next()).collect();
                let y: Vec<u32> = (0..n).map(|_| next()).collect();
                let (x, y) = (mem.alloc_from_slice(&x), mem.alloc_from_slice(&y));
                let out = mem.alloc::<u32>(n);
                let total = mem.alloc::<u32>(1);
                (MixedSaxpy { x, y, out, total, n }, move |m: &GpuMem| {
                    [m.read_vec(out), m.read_vec(total)].concat()
                })
            });
        }
    }

    #[test]
    fn pipelined_coop_launch_matches_single_thread_reference() {
        for (dev, n, block) in [(Device::tiny(), 5000, 128), (Device::k20c(), 40_000, 256)] {
            let grid = grid_for(n, block);
            let fresh = || {
                let mut mem = GpuMem::new();
                let data: Vec<u32> = (0..n as u32).map(|i| i * 7 % 100).collect();
                let data = mem.alloc_from_slice(&data);
                let out = mem.alloc::<u32>(n);
                let threshold = 50;
                (
                    mem,
                    FilterAbove {
                        data,
                        out,
                        threshold,
                    },
                )
            };
            let (mem, k) = fresh();
            let (got, got_total) = launch_coop(&mem, &dev, grid, block, &k);
            let got_out = mem.read_vec(k.out);
            let (mem, k) = fresh();
            let (_, replayed) = pipelined(&dev, |feed| {
                run_coop_blocks(&mem, &dev, grid, block, &k, feed)
            });
            let (mem, k) = fresh();
            let (want, want_total, want_sms) = reference_launch_coop(&mem, &dev, grid, block, &k);
            assert_bit_identical(&got, &want);
            assert_sms_identical(&replayed.sms, &want_sms);
            assert_eq!(got_total, want_total);
            assert_eq!(got_out, mem.read_vec(k.out));
        }
    }

    #[test]
    fn grid_for_rounds_up() {
        assert_eq!(grid_for(0, 128), 0);
        assert_eq!(grid_for(1, 128), 1);
        assert_eq!(grid_for(128, 128), 1);
        assert_eq!(grid_for(129, 128), 2);
    }
}
