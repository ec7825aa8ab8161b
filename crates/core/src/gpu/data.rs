//! Algorithm 5: data-driven GPU graph coloring (D-base / D-ldg).
//!
//! The coloring kernel launches one thread per *worklist entry* (perfect
//! work efficiency); conflict detection is a cooperative kernel that
//! assembles the next worklist with a block-wide prefix sum and a single
//! global atomic per block (§III-C "Atomic Operation Reduction", Fig. 5).
//! The two worklists are double-buffered and swapped by handle — no copy —
//! exactly as the paper describes.

use super::{pass_marker, speculative_first_fit, GpuGraph, SpecGreedyDriver};
use crate::{ColorError, ColorOptions, Coloring, Scheme};
use gcol_graph::Csr;
use gcol_simt::mem::Buffer;
use gcol_simt::{Backend, CoopKernel, Kernel, KernelCtx};

/// Fills the initial worklist with the identity permutation (`W_in ← V`).
struct InitWorklist {
    w: Buffer<u32>,
}

impl Kernel for InitWorklist {
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

/// Lines 4–10 of Algorithm 5: speculatively color the worklist.
struct DataColor {
    g: GpuGraph,
    color: Buffer<u32>,
    w_in: Buffer<u32>,
    len: usize,
    pass: u32,
    use_ldg: bool,
}

impl Kernel for DataColor {
    fn name(&self) -> &'static str {
        if self.use_ldg {
            "data-color-ldg"
        } else {
            "data-color"
        }
    }

    fn run(&self, t: &mut impl KernelCtx) {
        let i = t.global_id() as usize;
        if i >= self.len {
            return;
        }
        let v = t.ld(self.w_in, i);
        let marker = pass_marker(self.pass, self.g.n, v);
        let c = speculative_first_fit(t, &self.g, self.color, v, marker, self.use_ldg);
        t.st_warp(self.color, v as usize, c);
    }
}

/// Lines 12–18 of Algorithm 5: detect conflicts and compact the losers
/// into `W_out` via block scan + one atomic per block.
///
/// Detection scans only the vertices colored this round (the worklist),
/// following Çatalyürek et al. (ref. \[10\], the algorithm the paper derives
/// from): a vertex colored this round saw every *earlier*-round color when
/// it chose, so monochromatic edges can only join two same-round vertices
/// — and both endpoints are in the worklist, so scanning the worklist
/// finds every conflict and the `v < w` rule re-queues exactly one of
/// them. This is precisely the work-efficiency that makes the data-driven
/// scheme outrun the topology-driven one on the sparse graphs (§IV).
struct DetectCompact {
    g: GpuGraph,
    color: Buffer<u32>,
    w_in: Buffer<u32>,
    len: usize,
    w_out: Buffer<u32>,
    use_ldg: bool,
}

impl CoopKernel for DetectCompact {
    /// (vertex, wants-requeue).
    type Carry = (u32, bool);

    fn name(&self) -> &'static str {
        if self.use_ldg {
            "detect-compact-ldg"
        } else {
            "detect-compact"
        }
    }

    fn count(&self, t: &mut impl KernelCtx) -> (Self::Carry, u32) {
        let i = t.global_id() as usize;
        if i >= self.len {
            return ((0, false), 0);
        }
        let v = t.ld(self.w_in, i);
        let cv = t.ld(self.color, v as usize);
        if cv == 0 {
            return ((v, false), 0);
        }
        let start = self.g.load_r(t, v as usize, self.use_ldg) as usize;
        let end = self.g.load_r(t, v as usize + 1, self.use_ldg) as usize;
        for e in start..end {
            let w = self.g.load_c(t, e, self.use_ldg);
            t.alu(3);
            if v < w && cv == t.ld(self.color, w as usize) {
                return ((v, true), 1);
            }
        }
        ((v, false), 0)
    }

    fn emit(&self, t: &mut impl KernelCtx, carry: Self::Carry, dst: u32) {
        let (v, requeue) = carry;
        if requeue {
            t.st(self.w_out, dst as usize, v);
        }
    }
}

/// Runs the full data-driven scheme on `backend`.
pub fn color_data<B: Backend>(
    g: &Csr,
    backend: &B,
    opts: &ColorOptions,
    use_ldg: bool,
) -> Result<Coloring, ColorError> {
    let scheme = if use_ldg {
        Scheme::DataLdg
    } else {
        Scheme::DataBase
    };
    let n = g.num_vertices();
    let mut d = SpecGreedyDriver::new(backend, scheme, g, opts);
    let color = d.alloc_vertex_buf();
    // Worklists are write-before-read by construction; allocating them
    // uninitialized lets the sanitizer check that claim.
    let mut w_in = d.alloc_vertex_buf_uninit();
    let mut w_out = d.alloc_vertex_buf_uninit();
    d.label(color, "color");
    d.label(w_in, "worklist-a");
    d.label(w_out, "worklist-b");
    d.charge_upload("graph h2d", &[color]);

    d.launch(n, &InitWorklist { w: w_in });

    let gg = d.gg;
    let mut len = n;
    let iterations = if len == 0 {
        0
    } else {
        d.run_passes(|d, pass| {
            // Threads in proportion to the worklist — the work-efficiency
            // win over the topology-driven scheme.
            d.launch(
                len,
                &DataColor {
                    g: gg,
                    color,
                    w_in,
                    len,
                    pass,
                    use_ldg,
                },
            );
            let total = d.launch_coop(
                len,
                &DetectCompact {
                    g: gg,
                    color,
                    w_in,
                    len,
                    w_out,
                    use_ldg,
                },
            );
            // Worklist length comes back over PCIe (4 bytes), like reading
            // the global counter the per-block atomics incremented.
            d.transfer("worklist size d2h", 4);
            len = total as usize;
            std::mem::swap(&mut w_in, &mut w_out); // the pointer swap of line 19
            len > 0
        })?
    };
    Ok(d.finish(color, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_graph::check::verify_coloring;
    use gcol_graph::gen::simple::{complete, cycle, erdos_renyi, star};
    use gcol_graph::gen::{grid2d, rmat, RmatParams, StencilKind};
    use gcol_simt::{grid_for, Device, SimtBackend};

    fn opts() -> ColorOptions {
        ColorOptions::default()
    }

    #[test]
    fn valid_on_assorted_graphs() {
        let dev = Device::tiny();
        for g in [
            cycle(90),
            complete(15),
            star(256),
            erdos_renyi(700, 3500, 2),
            grid2d(20, 20, StencilKind::NinePoint),
        ] {
            for use_ldg in [false, true] {
                let r = color_data(&g, &SimtBackend::new(&dev), &opts(), use_ldg).unwrap();
                verify_coloring(&g, &r.colors).unwrap();
                assert!(r.num_colors <= g.max_degree() + 1);
            }
        }
    }

    #[test]
    fn matches_topology_driven_in_deterministic_mode_quality() {
        let dev = Device::tiny();
        let g = rmat(RmatParams::erdos_renyi(10, 10), 6);
        let t =
            super::super::topo::color_topo(&g, &SimtBackend::new(&dev), &opts(), false).unwrap();
        let d = color_data(&g, &SimtBackend::new(&dev), &opts(), false).unwrap();
        verify_coloring(&g, &d.colors).unwrap();
        // Both are SGR; counts land within a few colors of each other.
        assert!(
            (t.num_colors as i64 - d.num_colors as i64).abs() <= 3,
            "topo {} vs data {}",
            t.num_colors,
            d.num_colors
        );
    }

    #[test]
    fn uses_per_block_atomics_not_per_thread() {
        let dev = Device::tiny();
        let g = erdos_renyi(2000, 10_000, 3);
        let r = color_data(&g, &SimtBackend::new(&dev), &opts(), false).unwrap();
        verify_coloring(&g, &r.colors).unwrap();
        // Atomics across all kernels should be ~one per block per detect
        // pass, far below one per vertex per pass.
        let atomics: u64 = r
            .profile
            .phases
            .iter()
            .filter_map(|p| match p {
                gcol_simt::Phase::Kernel(k) => Some(k.atomics),
                _ => None,
            })
            .sum();
        let blocks_per_pass = grid_for(2000, 128) as u64;
        assert!(
            atomics <= blocks_per_pass * r.iterations as u64,
            "atomics {atomics} exceed one per block per pass"
        );
    }

    #[test]
    fn empty_graph_and_singleton() {
        let dev = Device::tiny();
        let r = color_data(&Csr::empty(0), &SimtBackend::new(&dev), &opts(), false).unwrap();
        assert_eq!(r.num_colors, 0);
        let r = color_data(&Csr::empty(3), &SimtBackend::new(&dev), &opts(), false).unwrap();
        assert_eq!(r.colors, vec![1, 1, 1]);
    }

    #[test]
    fn deterministic_reproducible() {
        let dev = Device::tiny();
        let g = erdos_renyi(600, 3000, 8);
        let a = color_data(&g, &SimtBackend::new(&dev), &opts(), true).unwrap();
        let b = color_data(&g, &SimtBackend::new(&dev), &opts(), true).unwrap();
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.iterations, b.iterations);
    }
}
