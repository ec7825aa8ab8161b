//! Ablation variant: data-driven coloring with a **per-thread atomic**
//! worklist push instead of the prefix-sum compaction.
//!
//! This is the unoptimized design §III-C ("Atomic Operation Reduction")
//! argues against: every conflicted vertex performs `atomicAdd` on one
//! global counter, so all pushes in a warp serialize on the same address
//! and the Atomic Operation Unit becomes the bottleneck. The `ablation`
//! experiment in `gcol-bench` quantifies exactly how much the paper's
//! prefix-sum optimization buys.
//!
//! gcol::hot_path

use super::{pass_marker, speculative_first_fit, GpuGraph, SpecGreedyDriver};
use crate::{ColorError, ColorOptions, Coloring, Scheme};
use gcol_graph::Csr;
use gcol_simt::mem::Buffer;
use gcol_simt::{Backend, Kernel, KernelCtx};

/// Same coloring kernel as D-base (shared via `speculative_first_fit`).
struct AtomicDataColor {
    g: GpuGraph,
    color: Buffer<u32>,
    w_in: Buffer<u32>,
    len: usize,
    pass: u32,
}

impl Kernel for AtomicDataColor {
    fn name(&self) -> &'static str {
        "data-color(atomic-variant)"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        if i >= self.len {
            return;
        }
        let v = t.ld(self.w_in, i);
        let marker = pass_marker(self.pass, self.g.n, v);
        let c = speculative_first_fit(t, &self.g, self.color, v, marker, false);
        t.st_warp(self.color, v as usize, c);
    }
}

/// Detection with per-item atomic pushes — the "before" picture of Fig. 5.
struct AtomicDetect {
    g: GpuGraph,
    color: Buffer<u32>,
    w_in: Buffer<u32>,
    len: usize,
    w_out: Buffer<u32>,
    counter: Buffer<u32>,
}

impl Kernel for AtomicDetect {
    fn name(&self) -> &'static str {
        "detect-atomic-push"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        if i >= self.len {
            return;
        }
        let v = t.ld(self.w_in, i);
        let cv = t.ld(self.color, v as usize);
        if cv == 0 {
            return;
        }
        let start = t.ld(self.g.r, v as usize) as usize;
        let end = t.ld(self.g.r, v as usize + 1) as usize;
        for e in start..end {
            let w = t.ld(self.g.c, e);
            t.alu(3);
            if v < w && cv == t.ld(self.color, w as usize) {
                // One global atomic per conflicting vertex: the cost the
                // paper's prefix-sum scheme eliminates.
                let dst = t.atomic_add(self.counter, 0, 1);
                t.st(self.w_out, dst as usize, v);
                return;
            }
        }
    }
}

/// Fills the initial worklist with the identity permutation.
struct Iota {
    w: Buffer<u32>,
}

impl Kernel for Iota {
    fn name(&self) -> &'static str {
        "init-worklist"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        if i < self.w.len() {
            t.alu(1);
            t.st(self.w, i, i as u32);
        }
    }
}

/// Runs the atomic-push data-driven ablation on `backend`.
pub fn color_data_atomic<B: Backend>(
    g: &Csr,
    backend: &B,
    opts: &ColorOptions,
) -> Result<Coloring, ColorError> {
    let n = g.num_vertices();
    let mut d = SpecGreedyDriver::new(backend, Scheme::DataAtomic, g, opts);
    let color = d.alloc_vertex_buf();
    // Worklists are write-before-read by construction; allocating them
    // uninitialized lets the sanitizer check that claim.
    let mut w_in = d.alloc_vertex_buf_uninit();
    let mut w_out = d.alloc_vertex_buf_uninit();
    let counter = d.alloc_flag();
    d.label(color, "color");
    d.label(w_in, "worklist-a");
    d.label(w_out, "worklist-b");
    d.label(counter, "worklist-counter");

    d.launch(n, &Iota { w: w_in });

    let gg = d.gg;
    let mut len = n;
    let iterations = if len == 0 {
        0
    } else {
        d.run_passes(|d, pass| {
            d.launch(
                len,
                &AtomicDataColor {
                    g: gg,
                    color,
                    w_in,
                    len,
                    pass,
                },
            );
            d.mem.store(counter, 0, 0);
            d.launch(
                len,
                &AtomicDetect {
                    g: gg,
                    color,
                    w_in,
                    len,
                    w_out,
                    counter,
                },
            );
            len = d.read_flag("worklist size d2h", counter) as usize;
            std::mem::swap(&mut w_in, &mut w_out);
            len > 0
        })?
    };
    Ok(d.finish(color, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_graph::check::verify_coloring;
    use gcol_graph::gen::simple::{complete, erdos_renyi};
    use gcol_graph::gen::{grid2d, StencilKind};
    use gcol_simt::{Device, SimtBackend};

    fn opts() -> ColorOptions {
        ColorOptions::default()
    }

    #[test]
    fn colors_properly() {
        let dev = Device::tiny();
        for g in [
            complete(16),
            erdos_renyi(800, 4000, 2),
            grid2d(25, 25, StencilKind::FivePoint),
        ] {
            let r = color_data_atomic(&g, &SimtBackend::new(&dev), &opts()).unwrap();
            verify_coloring(&g, &r.colors).unwrap();
            assert!(r.num_colors <= g.max_degree() + 1);
        }
    }

    #[test]
    fn pays_more_atomic_serialization_than_prefix_sum_variant() {
        let dev = Device::tiny();
        // A stencil graph guarantees warp-mate conflicts → non-empty
        // worklists → contended pushes.
        let g = grid2d(40, 40, StencilKind::FivePoint);
        let atomic = color_data_atomic(&g, &SimtBackend::new(&dev), &opts()).unwrap();
        let prefix =
            super::super::data::color_data(&g, &SimtBackend::new(&dev), &opts(), false).unwrap();
        let serial = |c: &Coloring| -> u64 {
            c.profile
                .phases
                .iter()
                .filter_map(|p| match p {
                    gcol_simt::Phase::Kernel(k) => Some(k.atomic_serial_cycles),
                    _ => None,
                })
                .sum()
        };
        assert!(
            serial(&atomic) > serial(&prefix),
            "atomic variant should serialize more ({} vs {})",
            serial(&atomic),
            serial(&prefix)
        );
    }

    #[test]
    fn same_quality_as_prefix_sum_variant() {
        let dev = Device::tiny();
        let g = erdos_renyi(1000, 8000, 5);
        let a = color_data_atomic(&g, &SimtBackend::new(&dev), &opts()).unwrap();
        let b =
            super::super::data::color_data(&g, &SimtBackend::new(&dev), &opts(), false).unwrap();
        // Same algorithm, different worklist plumbing: same color count.
        assert_eq!(a.num_colors, b.num_colors);
    }
}
