//! Tests of the shared-memory (scratchpad) model: functional semantics of
//! the per-block banked memory, bank-conflict timing, and the lane-ordered
//! warp-scan idiom it enables.

use gcol_simt::mem::Buffer;
use gcol_simt::{grid_for, launch, Device, GpuMem, Kernel, KernelCtx};

/// Every thread stores to a strided smem slot and reads it back; the
/// stride controls the bank-conflict degree.
struct StridedSmem {
    n: usize,
    stride: usize,
    sink: Buffer<u32>,
}

impl Kernel for StridedSmem {
    fn name(&self) -> &'static str {
        "strided-smem"
    }
    fn smem_per_block(&self) -> u32 {
        // Enough words for the largest strided slot of a 128-thread block.
        (128 * self.stride as u32 + 1) * 4
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        if i >= self.n {
            return;
        }
        let slot = (t.tid() as usize) * self.stride;
        t.smem_st(slot, i as u32 + 1);
        let v = t.smem_ld(slot);
        t.st(self.sink, i, v);
    }
}

fn run_strided(stride: usize) -> gcol_simt::KernelStats {
    let dev = Device::k20c();
    let mut mem = GpuMem::new();
    let n = 4096;
    let sink = mem.alloc::<u32>(n);
    let k = StridedSmem { n, stride, sink };
    let stats = launch(&mem, &dev, grid_for(n, 128), 128, &k);
    // Functional: every thread read back what it wrote.
    let got = mem.read_vec(sink);
    for (i, &v) in got.iter().enumerate() {
        assert_eq!(v, i as u32 + 1);
    }
    stats
}

#[test]
fn bank_conflicts_scale_with_stride() {
    // Stride 1: conflict-free. Stride 2: 2-way. Stride 32: 32-way
    // (all lanes in the same bank).
    let c1 = run_strided(1).cycles;
    let c2 = run_strided(2).cycles;
    let c32 = run_strided(32).cycles;
    assert!(c2 > c1, "2-way conflicts must cost more ({c2} vs {c1})");
    assert!(c32 > c2, "32-way conflicts must cost most ({c32} vs {c2})");
}

/// Broadcast: all lanes read smem word 0 — no conflict (hardware
/// broadcasts a single word).
struct Broadcast {
    n: usize,
    sink: Buffer<u32>,
}

impl Kernel for Broadcast {
    fn name(&self) -> &'static str {
        "broadcast"
    }
    fn smem_per_block(&self) -> u32 {
        4
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        if i >= self.n {
            return;
        }
        if t.tid() == 0 {
            t.smem_st(0, 77);
        }
        let v = t.smem_ld(0);
        t.st(self.sink, i, v);
    }
}

#[test]
fn same_word_access_broadcasts_without_conflict() {
    let dev = Device::k20c();
    let mut mem = GpuMem::new();
    let n = 4096;
    let sink = mem.alloc::<u32>(n);
    let bcast = launch(&mem, &dev, grid_for(n, 128), 128, &Broadcast { n, sink });
    // Lane 0 wrote before the others read (lower-lane visibility), so all
    // threads observed 77.
    assert!(mem.read_vec(sink).iter().all(|&v| v == 77));
    // A broadcast read is far cheaper than a heavily conflicted access.
    let conflicted = run_strided(32);
    assert!(
        bcast.cycles < conflicted.cycles,
        "broadcast {} vs 32-way conflict {}",
        bcast.cycles,
        conflicted.cycles
    );
}

/// Warp inclusive scan in the *lane-ordered* form the executor's shared
/// memory supports: each lane adds the previous lane's (final) prefix to
/// its own value — correct under lane-ordered visibility, and the shape a
/// warp-serial scan takes on hardware too.
struct WarpScan {
    data: Buffer<u32>,
    out: Buffer<u32>,
}

impl Kernel for WarpScan {
    fn name(&self) -> &'static str {
        "warp-scan"
    }
    fn smem_per_block(&self) -> u32 {
        128 * 4
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        if i >= self.data.len() {
            return;
        }
        let lane = (t.tid() % 32) as usize;
        let warp_base = (t.tid() - t.tid() % 32) as usize;
        let own = t.ld(self.data, i);
        let prefix = if lane == 0 {
            own
        } else {
            // Lower-lane read: lane - 1 has already finished, so its slot
            // holds its final inclusive prefix.
            own + t.smem_ld(warp_base + lane - 1)
        };
        t.smem_st(warp_base + lane, prefix);
        t.alu(2);
        t.st(self.out, i, prefix);
    }
}

#[test]
fn warp_scan_matches_host_scan_per_warp() {
    let dev = Device::k20c();
    let mut mem = GpuMem::new();
    let n = 1024;
    let data: Vec<u32> = (0..n as u32).map(|i| (i * 7) % 5 + 1).collect();
    let db = mem.alloc_from_slice(&data);
    let out = mem.alloc::<u32>(n);
    launch(
        &mem,
        &dev,
        grid_for(n, 128),
        128,
        &WarpScan { data: db, out },
    );
    let got = mem.read_vec(out);
    for warp in 0..n / 32 {
        let base = warp * 32;
        let expect = gcol_scan::inclusive_scan(&data[base..base + 32]);
        assert_eq!(
            &got[base..base + 32],
            expect.as_slice(),
            "warp {warp} scan mismatch"
        );
    }
}

#[test]
fn smem_is_zeroed_per_block() {
    // A kernel that reads smem before writing must see zeros, in every
    // block (no leakage from previous blocks on the same SM).
    struct ReadFirst {
        n: usize,
        sink: Buffer<u32>,
    }
    impl Kernel for ReadFirst {
        fn name(&self) -> &'static str {
            "read-first"
        }
        fn smem_per_block(&self) -> u32 {
            64 * 4
        }
        fn run(&self, t: &mut impl KernelCtx) {
            let i = t.global_id() as usize;
            if i >= self.n {
                return;
            }
            let before = t.smem_ld((t.tid() % 64) as usize);
            t.smem_st((t.tid() % 64) as usize, 0xBEEF);
            t.st(self.sink, i, before);
        }
    }
    let dev = Device::tiny();
    let mut mem = GpuMem::new();
    let n = 2048;
    let sink = mem.alloc::<u32>(n);
    launch(&mem, &dev, grid_for(n, 64), 64, &ReadFirst { n, sink });
    assert!(
        mem.read_vec(sink).iter().all(|&v| v == 0),
        "smem must start zeroed in every block"
    );
}
