//! The cuSPARSE `csrcolor` algorithm (§II-C; Naumov et al., NVIDIA TR
//! 2015): Jones–Plassmann with the *multi-hash* trick. Per sweep, every
//! uncolored vertex evaluates `N` hash functions of the vertex ids; being
//! the strict local maximum (resp. minimum) of hash `i` among uncolored
//! neighbors admits the vertex into independent set `2i` (resp. `2i+1`),
//! so one sweep peels up to `2N` independent sets — which is why csrcolor
//! is fast, and why its colors balloon (Figs. 1b/6: each set burns a whole
//! color).

use super::{GpuGraph, SpecGreedyDriver};
use crate::hash::mix_hash;
use crate::{ColorError, ColorOptions, Coloring, Scheme};
use gcol_graph::Csr;
use gcol_simt::mem::Buffer;
use gcol_simt::{Backend, CoopKernel, Kernel, KernelCtx};

/// Upper bound on the number of hash functions per sweep (cuSPARSE uses a
/// small constant; 2 is its effective default).
pub const MAX_HASHES: usize = 8;

/// One csrcolor sweep: assign colors `base+1 ..= base+2N` to the local
/// extrema of the `N` hash orderings.
struct CsrColorSweep {
    g: GpuGraph,
    color: Buffer<u32>,
    base: u32,
    num_hashes: u32,
    seed: u64,
}

impl Kernel for CsrColorSweep {
    fn name(&self) -> &'static str {
        "csrcolor-sweep"
    }

    // The hash kernel keeps per-thread hash registers, not a colorMask, so
    // its register footprint is smaller than the greedy kernels'.
    fn regs_per_thread(&self) -> u32 {
        28
    }

    fn run(&self, t: &mut impl KernelCtx) {
        let v = t.global_id();
        if v as usize >= self.g.n {
            return;
        }
        if t.ld(self.color, v as usize) != 0 {
            return;
        }
        let nh = self.num_hashes as usize;
        let mut own = [(0u32, 0u32); MAX_HASHES];
        for (i, slot) in own.iter_mut().take(nh).enumerate() {
            *slot = (mix_hash(self.seed, i as u32, v), v);
            t.alu(4); // hash arithmetic
        }
        let mut is_max = (1u32 << nh) - 1;
        let mut is_min = is_max;
        let start = t.ld(self.g.r, v as usize) as usize;
        let end = t.ld(self.g.r, v as usize + 1) as usize;
        for e in start..end {
            let w = t.ld(self.g.c, e);
            let cw = t.ld(self.color, w as usize);
            t.alu(2);
            // Skip neighbors settled in an *earlier* sweep only. A
            // neighbor colored during this sweep (its color is > base)
            // must still compete, otherwise the sweep-start snapshot the
            // MIS argument relies on is broken and adjacent vertices can
            // both claim the same extremum color.
            if cw != 0 && cw <= self.base {
                continue;
            }
            for (i, &own_i) in own.iter().enumerate().take(nh) {
                let hw = (mix_hash(self.seed, i as u32, w), w);
                t.alu(5); // hash + two comparisons + mask updates
                if hw > own_i {
                    is_max &= !(1 << i);
                }
                if hw < own_i {
                    is_min &= !(1 << i);
                }
            }
            // NOTE: no early exit when both masks empty — the cuSPARSE
            // kernel computes full min/max reductions over the adjacency
            // (warp-uniform control flow), so a beaten vertex still pays
            // for its whole neighbor scan.
        }
        if is_max == 0 && is_min == 0 {
            return; // beaten in every ordering: stay uncolored
        }
        // Smallest applicable color: max of hash i → base + 2i + 1,
        // min of hash i → base + 2i + 2.
        let mut chosen = 0u32;
        for i in 0..nh as u32 {
            if is_max & (1 << i) != 0 {
                chosen = self.base + 2 * i + 1;
                break;
            }
            if is_min & (1 << i) != 0 {
                chosen = self.base + 2 * i + 2;
                break;
            }
        }
        debug_assert!(chosen != 0, "extrema mask non-empty implies a color");
        t.alu(2);
        t.st_warp(self.color, v as usize, chosen);
    }
}

/// Counts the vertices still uncolored (device-side reduction: block scan
/// + one atomic per block, as cuSPARSE's internal nnz counters do).
struct CountUncolored {
    color: Buffer<u32>,
    n: usize,
}

impl CoopKernel for CountUncolored {
    type Carry = ();
    fn name(&self) -> &'static str {
        "count-uncolored"
    }
    fn regs_per_thread(&self) -> u32 {
        16
    }
    fn count(&self, t: &mut impl KernelCtx) -> ((), u32) {
        let v = t.global_id() as usize;
        if v >= self.n {
            return ((), 0);
        }
        t.alu(1);
        ((), (t.ld(self.color, v) == 0) as u32)
    }
    fn emit(&self, _t: &mut impl KernelCtx, _carry: (), _dst: u32) {}
}

/// Runs csrcolor on `backend`. The raw colors are sparse in
/// `base + 2i + k` space; like the cuSPARSE reporting path we compact them
/// to a dense `1..=k` range on the host (reporting only — no device time
/// charged).
pub fn color_csrcolor<B: Backend>(
    g: &Csr,
    backend: &B,
    opts: &ColorOptions,
) -> Result<Coloring, ColorError> {
    if !(1..=MAX_HASHES).contains(&opts.num_hashes) {
        return Err(ColorError::InvalidOptions {
            scheme: Scheme::CsrColor,
            reason: format!(
                "num_hashes must be in 1..={MAX_HASHES}, got {}",
                opts.num_hashes
            ),
        });
    }
    let n = g.num_vertices();
    let mut d = SpecGreedyDriver::new(backend, Scheme::CsrColor, g, opts);
    let color = d.alloc_vertex_buf();
    d.label(color, "color");
    d.charge_upload("graph h2d", &[color]);

    let gg = d.gg;
    let num_hashes = opts.num_hashes as u32;
    let seed = opts.seed;
    let mut base = 0u32;
    let mut remaining = n as u32;
    let sweeps = if remaining == 0 {
        0
    } else {
        d.run_passes(|d, _pass| {
            d.launch(
                n,
                &CsrColorSweep {
                    g: gg,
                    color,
                    base,
                    num_hashes,
                    seed,
                },
            );
            remaining = d.launch_coop(n, &CountUncolored { color, n });
            d.transfer("remaining count d2h", 4);
            base += 2 * num_hashes;
            remaining > 0
        })?
    };

    let mut colors = d.read_colors(color);
    let num_colors = gcol_graph::check::compact_colors(&mut colors);
    Ok(Coloring {
        scheme: Scheme::CsrColor,
        colors,
        num_colors,
        iterations: sweeps,
        profile: d.profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_graph::check::verify_coloring;
    use gcol_graph::gen::simple::{complete, cycle, erdos_renyi, star};
    use gcol_graph::gen::{rmat, RmatParams};
    use gcol_simt::{Device, SimtBackend};

    fn opts() -> ColorOptions {
        ColorOptions::default()
    }

    #[test]
    fn valid_on_assorted_graphs() {
        let dev = Device::tiny();
        for g in [
            cycle(50),
            complete(10),
            star(128),
            erdos_renyi(900, 5000, 4),
        ] {
            let r = color_csrcolor(&g, &SimtBackend::new(&dev), &opts()).unwrap();
            verify_coloring(&g, &r.colors).unwrap();
        }
    }

    #[test]
    fn uses_markedly_more_colors_than_greedy() {
        // The central quality observation of Figs. 1(b)/6.
        let dev = Device::tiny();
        let g = rmat(RmatParams::erdos_renyi(11, 16), 5);
        let mis = color_csrcolor(&g, &SimtBackend::new(&dev), &opts()).unwrap();
        let seq = crate::seq::greedy_seq(&g, gcol_graph::ordering::Ordering::Natural);
        assert!(
            mis.num_colors as f64 >= 1.5 * seq.num_colors as f64,
            "csrcolor {} vs seq {}",
            mis.num_colors,
            seq.num_colors
        );
    }

    #[test]
    fn more_hashes_need_fewer_sweeps() {
        let dev = Device::tiny();
        let g = erdos_renyi(1200, 9000, 6);
        let one = color_csrcolor(
            &g,
            &SimtBackend::new(&dev),
            &ColorOptions {
                num_hashes: 1,
                ..opts()
            },
        )
        .unwrap();
        let four = color_csrcolor(
            &g,
            &SimtBackend::new(&dev),
            &ColorOptions {
                num_hashes: 4,
                ..opts()
            },
        )
        .unwrap();
        assert!(
            four.iterations <= one.iterations,
            "4 hashes: {} sweeps, 1 hash: {}",
            four.iterations,
            one.iterations
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let dev = Device::tiny();
        let g = erdos_renyi(500, 2500, 7);
        let a = color_csrcolor(&g, &SimtBackend::new(&dev), &opts()).unwrap();
        let b = color_csrcolor(&g, &SimtBackend::new(&dev), &opts()).unwrap();
        assert_eq!(a.colors, b.colors);
    }

    #[test]
    fn empty_graph() {
        let dev = Device::tiny();
        let r = color_csrcolor(&Csr::empty(0), &SimtBackend::new(&dev), &opts()).unwrap();
        assert_eq!(r.num_colors, 0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn rejects_bad_hash_count() {
        let dev = Device::tiny();
        let err = color_csrcolor(
            &cycle(5),
            &SimtBackend::new(&dev),
            &ColorOptions {
                num_hashes: 0,
                ..opts()
            },
        )
        .unwrap_err();
        match err {
            ColorError::InvalidOptions { scheme, reason } => {
                assert_eq!(scheme, Scheme::CsrColor);
                assert!(reason.contains("num_hashes must be in 1..=8"), "{reason}");
            }
            other => panic!("expected InvalidOptions, got {other:?}"),
        }
    }
}
