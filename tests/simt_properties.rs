//! Property-based integration tests of the simulator substrate against
//! host-side oracles: arbitrary kernels over arbitrary data must compute
//! exactly what the equivalent host loop computes, and the timing model
//! must respect basic monotonicity laws.

use gcol::scan::exclusive_scan;
use gcol::simt::mem::Buffer;
use gcol::simt::{grid_for, launch, launch_coop, CoopKernel, Device, GpuMem, Kernel, KernelCtx};
use proptest::prelude::*;

/// out[i] = a*x[i] + b, with a strided access pattern to vary coalescing.
struct Affine {
    a: u32,
    b: u32,
    stride: usize,
    x: Buffer<u32>,
    out: Buffer<u32>,
}

impl Kernel for Affine {
    fn name(&self) -> &'static str {
        "affine"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        let n = self.x.len();
        if i >= n {
            return;
        }
        // Permuted index: (i * stride) mod n with gcd(stride, n) == 1 is a
        // bijection; we force that in the strategy below.
        let j = (i * self.stride) % n;
        let v = t.ld(self.x, j);
        t.alu(2);
        t.st(self.out, j, v.wrapping_mul(self.a).wrapping_add(self.b));
    }
}

/// Emit every element larger than its predecessor (order-preserving
/// compaction with data-dependent predicates).
struct RisingEdges {
    x: Buffer<u32>,
    out: Buffer<u32>,
}

impl CoopKernel for RisingEdges {
    type Carry = (u32, bool);
    fn name(&self) -> &'static str {
        "rising"
    }
    fn count(&self, t: &mut impl KernelCtx) -> (Self::Carry, u32) {
        let i = t.global_id() as usize;
        if i == 0 || i >= self.x.len() {
            return ((0, false), 0);
        }
        let prev = t.ld(self.x, i - 1);
        let cur = t.ld(self.x, i);
        t.alu(1);
        let rising = cur > prev;
        ((cur, rising), rising as u32)
    }
    fn emit(&self, t: &mut impl KernelCtx, carry: Self::Carry, dst: u32) {
        if carry.1 {
            t.st(self.out, dst as usize, carry.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn affine_kernel_matches_host_loop(
        data in proptest::collection::vec(any::<u32>(), 1..2000),
        a in any::<u32>(),
        b in any::<u32>(),
        stride_sel in 0usize..4,
        block_exp in 0u32..5,
    ) {
        let n = data.len();
        // Strides coprime with any n: 1 plus odd primes (skip those
        // dividing n).
        let candidates = [1usize, 3, 7, 11];
        let stride = candidates[stride_sel];
        prop_assume!(n % stride != 0 || stride == 1);
        let block = 32u32 << block_exp; // 32..512
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let x = mem.alloc_from_slice(&data);
        let out = mem.alloc::<u32>(n);
        let k = Affine { a, b, stride, x, out };
        let stats = launch(&mem, &dev, grid_for(n, block), block, &k);
        let got = mem.read_vec(out);
        for (j, &xv) in data.iter().enumerate() {
            prop_assert_eq!(got[j], xv.wrapping_mul(a).wrapping_add(b));
        }
        prop_assert!(stats.cycles > 0);
        prop_assert!(stats.mem_transactions >= 1);
    }

    #[test]
    fn coop_compaction_matches_host_filter(
        data in proptest::collection::vec(any::<u32>(), 2..3000),
        block_exp in 0u32..4,
    ) {
        let n = data.len();
        let block = 64u32 << block_exp;
        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let x = mem.alloc_from_slice(&data);
        let out = mem.alloc::<u32>(n);
        let k = RisingEdges { x, out };
        let (_, total) = launch_coop(&mem, &dev, grid_for(n, block), block, &k);
        let expect: Vec<u32> = (1..n)
            .filter(|&i| data[i] > data[i - 1])
            .map(|i| data[i])
            .collect();
        prop_assert_eq!(total as usize, expect.len());
        let got = mem.read_vec(out);
        prop_assert_eq!(&got[..expect.len()], expect.as_slice());
    }

    #[test]
    fn coop_totals_agree_with_scan_crate(
        reqs in proptest::collection::vec(0u32..4, 1..500),
    ) {
        // The device-side block scan and the host scan crate must agree on
        // the grand total for identical inputs.
        let (_, host_total) = exclusive_scan(&reqs);

        struct Emitter { reqs: Buffer<u32>, out: Buffer<u32> }
        impl CoopKernel for Emitter {
            type Carry = u32;
            fn count(&self, t: &mut impl KernelCtx) -> (u32, u32) {
                let i = t.global_id() as usize;
                if i >= self.reqs.len() { return (0, 0); }
                let r = t.ld(self.reqs, i);
                (r, r)
            }
            fn emit(&self, t: &mut impl KernelCtx, r: u32, dst: u32) {
                for k in 0..r {
                    t.st(self.out, (dst + k) as usize, 1);
                }
            }
        }

        let dev = Device::tiny();
        let mut mem = GpuMem::new();
        let rb = mem.alloc_from_slice(&reqs);
        let out = mem.alloc::<u32>(host_total.max(1) as usize);
        let k = Emitter { reqs: rb, out };
        let (_, total) = launch_coop(&mem, &dev, grid_for(reqs.len(), 128), 128, &k);
        prop_assert_eq!(total, host_total);
        // Every reserved slot was written exactly once.
        let written = mem.read_vec(out);
        prop_assert!(written[..host_total as usize].iter().all(|&w| w == 1));
    }

    #[test]
    fn more_work_never_takes_less_modeled_time(
        n1 in 100usize..800,
        factor in 2usize..5,
    ) {
        let n2 = n1 * factor;
        let dev = Device::tiny();
        let time_for = |n: usize| {
            let mut mem = GpuMem::new();
            let data: Vec<u32> = (0..n as u32).collect();
            let x = mem.alloc_from_slice(&data);
            let out = mem.alloc::<u32>(n);
            let k = Affine { a: 3, b: 1, stride: 1, x, out };
            launch(&mem, &dev, grid_for(n, 128), 128, &k).cycles
        };
        prop_assert!(time_for(n2) >= time_for(n1));
    }
}
