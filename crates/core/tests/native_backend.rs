//! Differential tests of the native rayon backend against the
//! deterministic timing simulator: every GPU scheme on every graph family
//! must produce a *proper* coloring natively, with a color count close to
//! (and, for warp-synchronous-free semantics, often identical to) the
//! simulator's.
//!
//! The native executor preserves the simulator's warp-deferred store
//! semantics (`st_warp` flushes after each 32-lane warp) and runs blocks
//! in a deterministic order under the sequential fallback, but with real
//! rayon the inter-block interleaving differs — so colors may legitimately
//! diverge between backends. Properness may not.

use gcol_core::{ColorOptions, Scheme};
use gcol_graph::check::verify_coloring;
use gcol_graph::gen::simple::{erdos_renyi, star};
use gcol_graph::gen::{grid2d, rmat, RmatParams, StencilKind};
use gcol_graph::Csr;
use gcol_simt::{BackendKind, Device, NativeBackend, SimtBackend};

/// The schemes that launch kernels (everything the backend layer affects).
const GPU_SCHEMES: [Scheme; 8] = Scheme::GPU;

fn graphs() -> Vec<(&'static str, Csr)> {
    vec![
        ("er", erdos_renyi(1200, 7200, 42)),
        ("rmat", rmat(RmatParams::skewed(10, 12), 3)),
        ("grid", grid2d(30, 30, StencilKind::NinePoint)),
        ("star", star(500)),
    ]
}

#[test]
fn native_colors_are_proper_and_close_to_simulator() {
    let dev = Device::tiny();
    let simt = SimtBackend::new(&dev);
    let native = NativeBackend::new();
    let opts = ColorOptions::default();
    for (name, g) in graphs() {
        for scheme in GPU_SCHEMES {
            let s = scheme
                .try_color_on(&simt, &g, &opts)
                .unwrap_or_else(|e| panic!("{scheme}/{name} simt: {e}"));
            let n = scheme
                .try_color_on(&native, &g, &opts)
                .unwrap_or_else(|e| panic!("{scheme}/{name} native: {e}"));
            verify_coloring(&g, &n.colors)
                .unwrap_or_else(|e| panic!("{scheme}/{name} native improper: {e}"));
            // Same algorithm, same speculation semantics: color counts stay
            // in the same ballpark even where interleaving differs.
            let (a, b) = (s.num_colors as i64, n.num_colors as i64);
            assert!(
                (a - b).abs() <= a.max(b) / 2 + 3,
                "{scheme}/{name}: simt {a} vs native {b} colors"
            );
        }
    }
}

#[test]
fn backend_selection_through_color_options() {
    let dev = Device::tiny();
    let g = erdos_renyi(800, 4800, 7);
    for scheme in GPU_SCHEMES {
        let r = scheme.color(
            &g,
            &dev,
            &ColorOptions::default().with_backend(BackendKind::Native),
        );
        verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        // No modeled kernels or transfers on the native path: time is the
        // measured host wall clock.
        assert!(r.profile.kernel_ms() == 0.0, "{scheme} modeled kernel time");
    }
}

#[test]
fn native_is_proper_on_rmat_scale_17() {
    // The acceptance workload: the benchmark graph of the hotpath driver.
    let g = rmat(RmatParams::erdos_renyi(17, 20), 0xE5);
    let native = NativeBackend::new();
    let opts = ColorOptions::default();
    for scheme in [Scheme::TopoBase, Scheme::DataBase] {
        let r = scheme.try_color_on(&native, &g, &opts).unwrap();
        verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(r.num_colors <= g.max_degree() + 1);
    }
}

#[test]
fn native_profile_records_wall_clock_phases() {
    let dev = Device::tiny();
    let g = erdos_renyi(600, 3600, 9);
    let r = Scheme::TopoBase.color(
        &g,
        &dev,
        &ColorOptions::default().with_backend(BackendKind::Native),
    );
    let hosts = r
        .profile
        .phases
        .iter()
        .filter(|p| matches!(p, gcol_simt::Phase::Host { .. }))
        .count();
    assert!(hosts >= 2, "expected per-kernel host phases, got {hosts}");
}
