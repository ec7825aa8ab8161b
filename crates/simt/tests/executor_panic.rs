//! A kernel that panics in the middle of a Deterministic launch must
//! reach the caller through `catch_unwind`, without hanging on the
//! replay worker that charges the launch's timing on a second thread.
//! The worker must not keep anything of the abandoned launch: the next
//! launch on the same thread returns exactly the stats a fresh thread
//! gets.

use gcol_simt::mem::Buffer;
use gcol_simt::{
    grid_for, launch, launch_coop, CoopKernel, Device, ExecMode, GpuMem, Kernel, KernelCtx,
    KernelStats,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const N: usize = 64 * 128;
const BLOCK: u32 = 128;

/// Strided loads, a store and an atomic per thread; block `panic_block`
/// panics at thread 5, after earlier blocks have filled several replay
/// batches.
struct Gather {
    data: Buffer<u32>,
    out: Buffer<u32>,
    count: Buffer<u32>,
    panic_block: Option<u32>,
}

impl Kernel for Gather {
    fn name(&self) -> &'static str {
        "gather"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        if Some(t.bid()) == self.panic_block && t.tid() == 5 {
            panic!("kernel panic in block {}", t.bid());
        }
        let mut acc = 0u32;
        for k in 0..16 {
            acc = acc.wrapping_add(t.ld(self.data, (i * 31 + k * 517) % N));
        }
        t.alu(4);
        t.st(self.out, i, acc);
        t.atomic_add(self.count, acc as usize % 8, 1);
    }
}

/// Compaction that panics in the emit phase of block `panic_block`.
struct Filter {
    data: Buffer<u32>,
    out: Buffer<u32>,
    panic_block: Option<u32>,
}

impl CoopKernel for Filter {
    type Carry = u32;
    fn name(&self) -> &'static str {
        "filter"
    }
    fn count(&self, t: &mut impl KernelCtx) -> (u32, u32) {
        let i = t.global_id() as usize;
        let v = t.ld(self.data, i);
        (i as u32, v.is_multiple_of(3) as u32)
    }
    fn emit(&self, t: &mut impl KernelCtx, carry: u32, dst: u32) {
        if Some(t.bid()) == self.panic_block {
            panic!("coop panic in block {}", t.bid());
        }
        if t.ld(self.data, carry as usize).is_multiple_of(3) {
            t.st(self.out, dst as usize, carry);
        }
    }
}

/// Runs `f` on a new thread and fails instead of hanging.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("the launch hung or its thread died")
}

fn input(mem: &mut GpuMem) -> Buffer<u32> {
    let data: Vec<u32> = (0..N as u32).map(|i| i.wrapping_mul(2654435761)).collect();
    mem.alloc_from_slice(&data)
}

/// One `Gather` launch on fresh memory: stats and the output buffers.
fn gather(panic_block: Option<u32>) -> (KernelStats, Vec<u32>) {
    let dev = Device::k20c();
    let mut mem = GpuMem::new();
    let k = Gather {
        data: input(&mut mem),
        out: mem.alloc::<u32>(N),
        count: mem.alloc::<u32>(8),
        panic_block,
    };
    let stats = launch(
        &mem,
        &dev,
        ExecMode::Deterministic,
        grid_for(N, BLOCK),
        BLOCK,
        &k,
    );
    (stats, [mem.read_vec(k.out), mem.read_vec(k.count)].concat())
}

/// One `Filter` launch on fresh memory: stats, total and output.
fn filter(panic_block: Option<u32>) -> (KernelStats, u32, Vec<u32>) {
    let dev = Device::k20c();
    let mut mem = GpuMem::new();
    let k = Filter {
        data: input(&mut mem),
        out: mem.alloc::<u32>(N),
        panic_block,
    };
    let grid = grid_for(N, BLOCK);
    let (stats, total) = launch_coop(&mem, &dev, ExecMode::Deterministic, grid, BLOCK, &k);
    (stats, total, mem.read_vec(k.out))
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// `KernelStats` equality plus bit equality of every f64.
fn assert_identical(a: &KernelStats, b: &KernelStats) {
    assert_eq!(a, b);
    let bits = |s: &KernelStats| {
        [
            s.time_ms,
            s.achieved_bw_frac,
            s.achieved_ipc_frac,
            s.simd_efficiency,
            s.stalls.memory_dependency,
            s.stalls.other,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(bits(a), bits(b));
}

#[test]
fn kernel_panic_reaches_the_caller_and_leaves_no_replay_state() {
    let (after, message) = on_fresh_thread(|| {
        let err = catch_unwind(AssertUnwindSafe(|| gather(Some(40))))
            .expect_err("the kernel panic must reach the caller");
        // Same thread, so the same replay worker as the aborted launch.
        (gather(None), panic_message(err))
    });
    assert!(message.contains("kernel panic in block 40"), "{message}");
    let fresh = on_fresh_thread(|| gather(None));
    assert_identical(&after.0, &fresh.0);
    assert_eq!(after.1, fresh.1);
}

#[test]
fn coop_panic_reaches_the_caller_and_leaves_no_replay_state() {
    let (after, message) = on_fresh_thread(|| {
        let err = catch_unwind(AssertUnwindSafe(|| filter(Some(50))))
            .expect_err("the emit-phase panic must reach the caller");
        (filter(None), panic_message(err))
    });
    assert!(message.contains("coop panic in block 50"), "{message}");
    let fresh = on_fresh_thread(|| filter(None));
    assert_identical(&after.0, &fresh.0);
    assert_eq!((after.1, &after.2), (fresh.1, &fresh.2));
}

#[test]
fn repeated_panics_on_one_thread_stay_contained() {
    let stats = on_fresh_thread(|| {
        for block in [0, 13, 63] {
            assert!(catch_unwind(AssertUnwindSafe(|| gather(Some(block)))).is_err());
            assert!(catch_unwind(AssertUnwindSafe(|| filter(Some(block)))).is_err());
        }
        gather(None).0
    });
    assert_identical(&stats, &on_fresh_thread(|| gather(None)).0);
}
