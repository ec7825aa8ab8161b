//! Edge-parallel conflict detection — the "further optimization … to
//! improve parallelism" the paper's §IV leaves as future work.
//!
//! The vertex-parallel detection kernel assigns one thread per vertex, so
//! a thread's work is its vertex's degree: on skewed graphs (rmat-g) a
//! hub serializes its warp. The classic fix (Merrill et al., the paper's
//! ref. \[24\]) is to parallelize over *edges*: one thread per CSR slot,
//! with a precomputed edge→source map, giving perfect balance at the cost
//! of `m` threads and one extra array. Coloring stays vertex-parallel
//! (the first-fit mask is inherently per-vertex); only detection — half
//! of every round's work — changes.

use super::{pass_marker, speculative_first_fit, GpuGraph, SpecGreedyDriver};
use crate::{ColorError, ColorOptions, Coloring, Scheme};
use gcol_graph::Csr;
use gcol_simt::mem::Buffer;
use gcol_simt::{Backend, Kernel, KernelCtx};

/// Same coloring kernel as T-base.
struct EdgeVariantColor {
    g: GpuGraph,
    color: Buffer<u32>,
    colored: Buffer<u32>,
    changed: Buffer<u32>,
    pass: u32,
}

impl Kernel for EdgeVariantColor {
    fn name(&self) -> &'static str {
        "topo-color(edge-variant)"
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
        let c = speculative_first_fit(t, &self.g, self.color, v, marker, true);
        t.st_warp(self.color, v as usize, c);
        t.st(self.colored, v as usize, 1);
        t.st(self.changed, 0, 1);
    }
}

/// One thread per stored edge: perfectly balanced detection.
struct EdgeDetect {
    g: GpuGraph,
    /// Source vertex of each CSR slot (edge→row map).
    /// gcol-lint: readonly
    src: Buffer<u32>,
    color: Buffer<u32>,
    colored: Buffer<u32>,
}

impl Kernel for EdgeDetect {
    fn name(&self) -> &'static str {
        "edge-detect"
    }
    fn run(&self, t: &mut impl KernelCtx) {
        let e = t.global_id() as usize;
        if e >= self.g.m {
            return;
        }
        let u = t.ldg(self.src, e);
        let w = t.ldg(self.g.c, e);
        t.alu(2);
        if u >= w {
            return; // each undirected conflict handled from its smaller end
        }
        let cu = t.ld(self.color, u as usize);
        if cu != 0 && cu == t.ld(self.color, w as usize) {
            t.st(self.colored, u as usize, 0);
        }
    }
}

/// Expands `R` into the per-slot source-vertex array on the host (the
/// standard companion structure for edge-parallel kernels; built once,
/// uploaded with the graph).
fn edge_sources(g: &Csr) -> Vec<u32> {
    let mut src = vec![0u32; g.num_edges()];
    for v in g.vertices() {
        let lo = g.row_offsets()[v as usize] as usize;
        let hi = g.row_offsets()[v as usize + 1] as usize;
        src[lo..hi].fill(v);
    }
    src
}

/// Runs the topology-driven scheme with edge-parallel detection on
/// `backend`.
pub fn color_topo_edge<B: Backend>(
    g: &Csr,
    backend: &B,
    opts: &ColorOptions,
) -> Result<Coloring, ColorError> {
    let mut d = SpecGreedyDriver::new(backend, Scheme::TopoEdge, g, opts);
    let src = d.mem.alloc_from_slice(&edge_sources(g));
    let color = d.alloc_vertex_buf();
    let colored = d.alloc_vertex_buf();
    let changed = d.alloc_flag();
    d.label(src, "edge-src");
    d.label(color, "color");
    d.label(colored, "colored");
    d.label(changed, "changed");

    let gg = d.gg;
    let n = g.num_vertices();
    let m = g.num_edges();
    let iterations = d.run_passes(|d, pass| {
        d.mem.store(changed, 0, 0);
        d.launch(
            n,
            &EdgeVariantColor {
                g: gg,
                color,
                colored,
                changed,
                pass,
            },
        );
        d.launch(
            m,
            &EdgeDetect {
                g: gg,
                src,
                color,
                colored,
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
    use gcol_graph::gen::simple::{complete, erdos_renyi, star};
    use gcol_graph::gen::{rmat, RmatParams};
    use gcol_simt::{Device, SimtBackend};

    fn opts() -> ColorOptions {
        ColorOptions::default()
    }

    #[test]
    fn edge_sources_expand_correctly() {
        let g = star(5);
        // Vertex 0 has 4 slots, leaves one each.
        assert_eq!(edge_sources(&g), vec![0, 0, 0, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn colors_properly() {
        let dev = Device::tiny();
        for g in [complete(14), star(200), erdos_renyi(900, 5400, 3)] {
            let r = color_topo_edge(&g, &SimtBackend::new(&dev), &opts()).unwrap();
            verify_coloring(&g, &r.colors).unwrap();
            assert!(r.num_colors <= g.max_degree() + 1);
        }
    }

    #[test]
    fn same_quality_as_vertex_parallel_topo() {
        let dev = Device::tiny();
        let g = erdos_renyi(1200, 7200, 8);
        let edge = color_topo_edge(&g, &SimtBackend::new(&dev), &opts()).unwrap();
        let vertex =
            super::super::topo::color_topo(&g, &SimtBackend::new(&dev), &opts(), true).unwrap();
        // Identical coloring kernels ⇒ identical colors (detection order
        // differs but flags the same losers).
        assert_eq!(edge.num_colors, vertex.num_colors);
    }

    #[test]
    fn balances_hub_detection() {
        // A skewed graph: edge-parallel detection must not be dominated by
        // the hub's chain; compare the detect kernels' time directly.
        let dev = Device::k20c();
        let g = rmat(RmatParams::skewed(12, 12), 7);
        let edge = color_topo_edge(&g, &SimtBackend::new(&dev), &opts()).unwrap();
        let vertex =
            super::super::topo::color_topo(&g, &SimtBackend::new(&dev), &opts(), true).unwrap();
        let detect_ms = |c: &Coloring, name: &str| -> f64 {
            c.profile
                .phases
                .iter()
                .filter_map(|p| match p {
                    gcol_simt::Phase::Kernel(k) if k.name.contains(name) => Some(k.time_ms),
                    _ => None,
                })
                .sum()
        };
        let e = detect_ms(&edge, "edge-detect");
        let v = detect_ms(&vertex, "topo-detect");
        assert!(
            e < v,
            "edge-parallel detection should win on skewed graphs: \
             {e:.4} ms vs {v:.4} ms"
        );
    }

    #[test]
    fn empty_graph() {
        let dev = Device::tiny();
        let r = color_topo_edge(&Csr::empty(0), &SimtBackend::new(&dev), &opts()).unwrap();
        assert_eq!(r.num_colors, 0);
    }
}
