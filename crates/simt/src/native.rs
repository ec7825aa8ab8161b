//! The native execution path: runs the *same* [`Kernel`] / [`CoopKernel`]
//! impls at full host speed, with zero trace or timing machinery.
//!
//! This is the production backend the ROADMAP's "run huge graphs fast, not
//! just modeled" goal asks for. Blocks are distributed over rayon workers;
//! within a block the executor keeps the simulator's SIMT structure —
//! warps of 32 lanes executed in lane order, with `st_warp` stores
//! deferred until the warp completes — so warp-synchronous kernels keep
//! their semantics and, on a single worker, results match the
//! simulator exactly. Across blocks the algorithm's own
//! races are real, exactly as on hardware.

use crate::exec::assert_block_threads;
use crate::kernel::{CoopKernel, Kernel, KernelCtx};
use crate::mem::{Buffer, GpuMem, Word};
use rayon::prelude::*;

/// Fixed warp width of the native executor (matches every [`crate::Device`]).
const WARP: u32 = 32;

/// [`KernelCtx`] implementation that touches memory directly: loads and
/// stores go straight to the arena, `alu` is free, nothing is recorded.
pub struct NativeCtx<'a> {
    mem: &'a GpuMem,
    tid: u32,
    bid: u32,
    bdim: u32,
    gdim: u32,
    scratch: Vec<u32>,
    deferred: Vec<(u32, u32)>,
    smem: Vec<u32>,
}

impl<'a> NativeCtx<'a> {
    fn new(mem: &'a GpuMem) -> Self {
        Self {
            mem,
            tid: 0,
            bid: 0,
            bdim: 0,
            gdim: 0,
            scratch: Vec::new(),
            deferred: Vec::new(),
            smem: Vec::new(),
        }
    }

    fn flush_deferred(&mut self) {
        for (addr, bits) in self.deferred.drain(..) {
            self.mem.store_raw(addr as usize, bits);
        }
    }
}

impl KernelCtx for NativeCtx<'_> {
    #[inline]
    fn tid(&self) -> u32 {
        self.tid
    }

    #[inline]
    fn bid(&self) -> u32 {
        self.bid
    }

    #[inline]
    fn bdim(&self) -> u32 {
        self.bdim
    }

    #[inline]
    fn gdim(&self) -> u32 {
        self.gdim
    }

    #[inline]
    fn ld<T: Word>(&mut self, buf: Buffer<T>, i: usize) -> T {
        self.mem.load(buf, i)
    }

    #[inline]
    fn ldg<T: Word>(&mut self, buf: Buffer<T>, i: usize) -> T {
        self.mem.load(buf, i)
    }

    #[inline]
    fn st<T: Word>(&mut self, buf: Buffer<T>, i: usize, v: T) {
        self.mem.store(buf, i, v);
    }

    #[inline]
    fn st_warp<T: Word>(&mut self, buf: Buffer<T>, i: usize, v: T) {
        self.deferred.push((buf.addr(i), v.to_bits()));
    }

    #[inline]
    fn atomic_add(&mut self, buf: Buffer<u32>, i: usize, v: u32) -> u32 {
        self.mem.fetch_add(buf, i, v)
    }

    #[inline]
    fn atomic_max(&mut self, buf: Buffer<u32>, i: usize, v: u32) -> u32 {
        self.mem.fetch_max(buf, i, v)
    }

    #[inline]
    fn atomic_min(&mut self, buf: Buffer<u32>, i: usize, v: u32) -> u32 {
        self.mem.fetch_min(buf, i, v)
    }

    #[inline]
    fn atomic_cas(&mut self, buf: Buffer<u32>, i: usize, expected: u32, new: u32) -> u32 {
        self.mem.compare_exchange(buf, i, expected, new)
    }

    #[inline]
    fn alu(&mut self, _n: u32) {}

    #[inline]
    fn local_reserve(&mut self, n: usize) {
        if self.scratch.len() < n {
            self.scratch.resize(n, u32::MAX);
        }
    }

    #[inline]
    fn local_ld(&mut self, i: usize) -> u32 {
        self.scratch[i]
    }

    #[inline]
    fn local_st(&mut self, i: usize, v: u32) {
        self.scratch[i] = v;
    }

    #[inline]
    fn smem_ld(&mut self, i: usize) -> u32 {
        self.smem[i]
    }

    #[inline]
    fn smem_st(&mut self, i: usize, v: u32) {
        self.smem[i] = v;
    }
}

/// Runs one block: warps of 32 lanes in lane order, deferred stores
/// flushed after each warp (the `st_warp` contract).
fn run_block_native<K: Kernel>(
    kernel: &K,
    bid: u32,
    grid: u32,
    block_threads: u32,
    ctx: &mut NativeCtx<'_>,
) {
    ctx.bid = bid;
    ctx.bdim = block_threads;
    ctx.gdim = grid;
    ctx.smem.clear();
    ctx.smem.resize(kernel.smem_per_block() as usize / 4, 0);
    let mut warp_start = 0;
    while warp_start < block_threads {
        let active = WARP.min(block_threads - warp_start);
        for lane in 0..active {
            ctx.tid = warp_start + lane;
            kernel.run(ctx);
        }
        ctx.flush_deferred();
        warp_start += WARP;
    }
}

/// Launches a [`Kernel`] natively: blocks over rayon workers, no timing.
pub fn launch_native<K: Kernel>(mem: &GpuMem, grid: u32, block_threads: u32, kernel: &K) {
    assert_block_threads(block_threads);
    (0..grid).into_par_iter().for_each_init(
        || NativeCtx::new(mem),
        |ctx, bid| run_block_native(kernel, bid, grid, block_threads, ctx),
    );
}

/// Per-block count-phase result (mirrors the simulator's coop plumbing).
struct BlockCount<C> {
    entries: Vec<(C, u32)>,
    total: u32,
}

/// Launches a [`CoopKernel`] natively: parallel count phase, host-side
/// exclusive scan over block totals (the semantic equivalent of the
/// per-block `atomicAdd`), parallel emit phase. Output positions follow
/// block-id order, identical to the simulator's layout. Returns the total
/// number of emitted items.
pub fn launch_coop_native<K: CoopKernel>(
    mem: &GpuMem,
    grid: u32,
    block_threads: u32,
    kernel: &K,
) -> u32 {
    assert_block_threads(block_threads);

    let count_block = |ctx: &mut NativeCtx<'_>, bid: u32| -> BlockCount<K::Carry> {
        ctx.bid = bid;
        ctx.bdim = block_threads;
        ctx.gdim = grid;
        ctx.smem.clear();
        ctx.smem.resize(kernel.smem_per_block() as usize / 4, 0);
        let mut entries = Vec::with_capacity(block_threads as usize);
        let mut running = 0u32;
        let mut warp_start = 0;
        while warp_start < block_threads {
            let active = WARP.min(block_threads - warp_start);
            for lane in 0..active {
                ctx.tid = warp_start + lane;
                let (carry, req) = kernel.count(ctx);
                entries.push((carry, running));
                running += req;
            }
            ctx.flush_deferred();
            warp_start += WARP;
        }
        BlockCount {
            entries,
            total: running,
        }
    };

    let counts: Vec<BlockCount<K::Carry>> = (0..grid)
        .into_par_iter()
        .map_init(|| NativeCtx::new(mem), |ctx, bid| count_block(ctx, bid))
        .collect();

    let mut bases = Vec::with_capacity(grid as usize);
    let mut total = 0u32;
    for bc in &counts {
        bases.push(total);
        total += bc.total;
    }

    counts.into_par_iter().enumerate().for_each_init(
        || NativeCtx::new(mem),
        |ctx, (bid, bc)| {
            let bid = bid as u32;
            ctx.bid = bid;
            ctx.bdim = block_threads;
            ctx.gdim = grid;
            ctx.smem.clear();
            ctx.smem.resize(kernel.smem_per_block() as usize / 4, 0);
            let base = bases[bid as usize];
            let mut it = bc.entries.into_iter();
            let mut warp_start = 0;
            while warp_start < block_threads {
                let active = WARP.min(block_threads - warp_start);
                for lane in 0..active {
                    ctx.tid = warp_start + lane;
                    let (carry, offset) = it.next().expect("one entry per thread");
                    kernel.emit(ctx, carry, base + offset);
                }
                ctx.flush_deferred();
                warp_start += WARP;
            }
        },
    );

    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{grid_for, launch, launch_coop};
    use crate::Device;

    struct Saxpy {
        a: f32,
        x: Buffer<f32>,
        y: Buffer<f32>,
    }

    impl Kernel for Saxpy {
        fn run(&self, t: &mut impl KernelCtx) {
            let i = t.global_id() as usize;
            if i < self.x.len() {
                let xi = t.ldg(self.x, i);
                let yi = t.ld(self.y, i);
                t.alu(2);
                t.st(self.y, i, self.a * xi + yi);
            }
        }
    }

    #[test]
    fn native_saxpy_matches_reference() {
        let mut mem = GpuMem::new();
        let n = 1500;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| (3 * i) as f32).collect();
        let xb = mem.alloc_from_slice(&x);
        let yb = mem.alloc_from_slice(&y);
        launch_native(
            &mem,
            grid_for(n, 128),
            128,
            &Saxpy {
                a: 2.0,
                x: xb,
                y: yb,
            },
        );
        let out = mem.read_vec(yb);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32 + 3.0 * i as f32);
        }
    }

    /// A warp-synchronous kernel: every lane reads its left neighbor's slot
    /// and writes its own via `st_warp`. Lockstep semantics say each lane
    /// must observe the *pre-warp* value. The native executor must agree
    /// with the simulator.
    struct WarpShift {
        data: Buffer<u32>,
    }

    impl Kernel for WarpShift {
        fn run(&self, t: &mut impl KernelCtx) {
            let i = t.global_id() as usize;
            if i >= self.data.len() {
                return;
            }
            let left = if i == 0 { 0 } else { t.ld(self.data, i - 1) };
            t.st_warp(self.data, i, left + 1);
        }
    }

    #[test]
    fn st_warp_defers_like_the_simulator() {
        let run_native = || {
            let mut mem = GpuMem::new();
            let d = mem.alloc::<u32>(256);
            launch_native(&mem, grid_for(256, 128), 128, &WarpShift { data: d });
            mem.read_vec(d)
        };
        let run_simt = || {
            let mut mem = GpuMem::new();
            let d = mem.alloc::<u32>(256);
            let dev = Device::tiny();
            launch(&mem, &dev, grid_for(256, 128), 128, &WarpShift { data: d });
            mem.read_vec(d)
        };
        assert_eq!(run_native(), run_simt());
    }

    struct FilterAbove {
        data: Buffer<u32>,
        out: Buffer<u32>,
        threshold: u32,
    }

    impl CoopKernel for FilterAbove {
        type Carry = u32;
        fn count(&self, t: &mut impl KernelCtx) -> (u32, u32) {
            let i = t.global_id() as usize;
            if i >= self.data.len() {
                return (0, 0);
            }
            let v = t.ld(self.data, i);
            (i as u32, (v > self.threshold) as u32)
        }
        fn emit(&self, t: &mut impl KernelCtx, carry: u32, dst: u32) {
            let i = carry as usize;
            if i < self.data.len() && t.ld(self.data, i) > self.threshold {
                t.st(self.out, dst as usize, carry);
            }
        }
    }

    #[test]
    fn native_coop_matches_simulator_layout() {
        let n = 4000;
        let data: Vec<u32> = (0..n as u32).map(|i| i * 13 % 97).collect();

        let mut mem_n = GpuMem::new();
        let dn = mem_n.alloc_from_slice(&data);
        let on = mem_n.alloc::<u32>(n);
        let total_n = launch_coop_native(
            &mem_n,
            grid_for(n, 128),
            128,
            &FilterAbove {
                data: dn,
                out: on,
                threshold: 48,
            },
        );

        let mut mem_s = GpuMem::new();
        let ds = mem_s.alloc_from_slice(&data);
        let os = mem_s.alloc::<u32>(n);
        let dev = Device::tiny();
        let (_, total_s) = launch_coop(
            &mem_s,
            &dev,
            grid_for(n, 128),
            128,
            &FilterAbove {
                data: ds,
                out: os,
                threshold: 48,
            },
        );

        assert_eq!(total_n, total_s);
        assert_eq!(
            mem_n.read_vec(on)[..total_n as usize],
            mem_s.read_vec(os)[..total_s as usize]
        );
    }

    #[test]
    fn native_coop_zero_grid() {
        let mut mem = GpuMem::new();
        let d = mem.alloc::<u32>(1);
        let o = mem.alloc::<u32>(1);
        let total = launch_coop_native(
            &mem,
            0,
            128,
            &FilterAbove {
                data: d,
                out: o,
                threshold: 0,
            },
        );
        assert_eq!(total, 0);
    }
}
