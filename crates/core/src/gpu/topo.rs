//! Algorithm 4: topology-driven GPU graph coloring (T-base / T-ldg).
//!
//! One thread per vertex every iteration; a thread whose vertex is already
//! colored immediately exits (the work-inefficiency the data-driven variant
//! removes). A global `changed` flag, set by any thread that colors a
//! vertex, drives the host-side do/while loop.
//!
//! gcol::hot_path

use super::{pass_marker, speculative_first_fit, GpuGraph, SpecGreedyDriver};
use crate::{ColorError, ColorOptions, Coloring, Scheme};
use gcol_graph::Csr;
use gcol_simt::mem::Buffer;
use gcol_simt::{Backend, Kernel, KernelCtx};

/// Lines 4–14 of Algorithm 4: color every not-yet-colored vertex.
struct TopoColor {
    g: GpuGraph,
    color: Buffer<u32>,
    colored: Buffer<u32>,
    changed: Buffer<u32>,
    pass: u32,
    use_ldg: bool,
}

impl Kernel for TopoColor {
    fn name(&self) -> &'static str {
        if self.use_ldg {
            "topo-color-ldg"
        } else {
            "topo-color"
        }
    }

    fn run(&self, t: &mut impl KernelCtx) {
        let v = t.global_id();
        if v as usize >= self.g.n {
            return;
        }
        t.alu(2);
        if t.ld(self.colored, v as usize) != 0 {
            return;
        }
        let marker = pass_marker(self.pass, self.g.n, v);
        let c = speculative_first_fit(t, &self.g, self.color, v, marker, self.use_ldg);
        t.st_warp(self.color, v as usize, c);
        t.st(self.colored, v as usize, 1);
        t.st(self.changed, 0, 1);
    }
}

/// Lines 15–21 of Algorithm 4: clear `colored[v]` for the smaller endpoint
/// of every monochromatic edge.
struct TopoDetect {
    g: GpuGraph,
    color: Buffer<u32>,
    colored: Buffer<u32>,
    use_ldg: bool,
}

impl Kernel for TopoDetect {
    fn name(&self) -> &'static str {
        if self.use_ldg {
            "topo-detect-ldg"
        } else {
            "topo-detect"
        }
    }

    fn run(&self, t: &mut impl KernelCtx) {
        let v = t.global_id();
        if v as usize >= self.g.n {
            return;
        }
        let cv = t.ld(self.color, v as usize);
        if cv == 0 {
            return;
        }
        let start = self.g.load_r(t, v as usize, self.use_ldg) as usize;
        let end = self.g.load_r(t, v as usize + 1, self.use_ldg) as usize;
        for e in start..end {
            let w = self.g.load_c(t, e, self.use_ldg);
            t.alu(3); // compare color, compare ids, loop bookkeeping
            if v < w && cv == t.ld(self.color, w as usize) {
                t.st(self.colored, v as usize, 0);
                return; // first conflict suffices
            }
        }
    }
}

/// Runs the full topology-driven scheme on `backend`.
pub fn color_topo<B: Backend>(
    g: &Csr,
    backend: &B,
    opts: &ColorOptions,
    use_ldg: bool,
) -> Result<Coloring, ColorError> {
    let scheme = if use_ldg {
        Scheme::TopoLdg
    } else {
        Scheme::TopoBase
    };
    let mut d = SpecGreedyDriver::new(backend, scheme, g, opts);
    let color = d.alloc_vertex_buf();
    let colored = d.alloc_vertex_buf();
    let changed = d.alloc_flag();
    d.label(color, "color");
    d.label(colored, "colored");
    d.label(changed, "changed");
    d.charge_upload("graph h2d", &[color, colored]);

    let gg = d.gg;
    let n = g.num_vertices();
    let iterations = d.run_passes(|d, pass| {
        d.mem.store(changed, 0, 0);
        d.launch(
            n,
            &TopoColor {
                g: gg,
                color,
                colored,
                changed,
                pass,
                use_ldg,
            },
        );
        d.launch(
            n,
            &TopoDetect {
                g: gg,
                color,
                colored,
                use_ldg,
            },
        );
        d.read_flag("changed flag d2h", changed) != 0
    })?;
    Ok(d.finish(color, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcol_graph::check::verify_coloring;
    use gcol_graph::gen::simple::{complete, cycle, erdos_renyi, star};
    use gcol_graph::gen::{grid3d, rmat, RmatParams};
    use gcol_simt::{Device, SimtBackend};

    fn opts() -> ColorOptions {
        ColorOptions::default()
    }

    #[test]
    fn valid_on_assorted_graphs() {
        let dev = Device::tiny();
        for g in [
            cycle(77),
            complete(17),
            star(300),
            erdos_renyi(800, 4000, 1),
            grid3d(8, 8, 4),
        ] {
            for use_ldg in [false, true] {
                let r = color_topo(&g, &SimtBackend::new(&dev), &opts(), use_ldg).unwrap();
                verify_coloring(&g, &r.colors).unwrap();
                assert!(r.num_colors <= g.max_degree() + 1);
                assert!(r.iterations >= 1);
                assert!(r.profile.total_ms() > 0.0);
            }
        }
    }

    #[test]
    fn quality_close_to_sequential() {
        let dev = Device::tiny();
        let g = rmat(RmatParams::erdos_renyi(10, 12), 3);
        let seq = crate::seq::greedy_seq(&g, gcol_graph::ordering::Ordering::Natural);
        let r = color_topo(&g, &SimtBackend::new(&dev), &opts(), false).unwrap();
        assert!(
            (r.num_colors as i64 - seq.num_colors as i64).abs() <= 3,
            "topo {} vs seq {}",
            r.num_colors,
            seq.num_colors
        );
    }

    #[test]
    fn ldg_reduces_latency_not_correctness() {
        let dev = Device::tiny();
        let g = erdos_renyi(1000, 6000, 5);
        let base = color_topo(&g, &SimtBackend::new(&dev), &opts(), false).unwrap();
        let ldg = color_topo(&g, &SimtBackend::new(&dev), &opts(), true).unwrap();
        verify_coloring(&g, &ldg.colors).unwrap();
        // The load path changes timing, never functional behavior.
        assert_eq!(base.colors, ldg.colors);
        // The ldg variant must hit the read-only cache.
        let ro_hits: u64 = ldg
            .profile
            .phases
            .iter()
            .filter_map(|p| match p {
                gcol_simt::Phase::Kernel(k) => Some(k.ro_hits),
                _ => None,
            })
            .sum();
        assert!(ro_hits > 0, "ldg path never hit the RO cache");
    }

    #[test]
    fn empty_graph() {
        let dev = Device::tiny();
        let r = color_topo(&Csr::empty(0), &SimtBackend::new(&dev), &opts(), false).unwrap();
        assert_eq!(r.num_colors, 0);
        assert!(r.colors.is_empty());
    }

    #[test]
    fn deterministic_mode_is_reproducible() {
        let dev = Device::tiny();
        let g = erdos_renyi(500, 3000, 9);
        let a = color_topo(&g, &SimtBackend::new(&dev), &opts(), false).unwrap();
        let b = color_topo(&g, &SimtBackend::new(&dev), &opts(), false).unwrap();
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.profile.total_ms(), b.profile.total_ms());
    }

    #[test]
    fn exceeding_max_iterations_is_an_error() {
        let dev = Device::tiny();
        let g = complete(24);
        let o = ColorOptions {
            max_iterations: 1,
            ..ColorOptions::default()
        };
        let err = color_topo(&g, &SimtBackend::new(&dev), &o, false).unwrap_err();
        assert!(matches!(err, ColorError::MaxIterations { limit: 1, .. }));
    }
}
