//! Sanitizer audit over every GPU scheme: all 8 schemes (and the sharded
//! driver at P = 2, ghost-exchange rounds included) must run *clean*
//! under shadow-memory launch analysis — no harmful races, no
//! `ldg`-coherence violations, no out-of-bounds or read-before-init —
//! with exactly one expected finding class: the paper's documented
//! benign `st_warp` speculation race on `color[v]`.
//!
//! Because the sanitizer forwards every in-bounds access to the real
//! context unchanged, a sanitized run must also match the plain
//! deterministic simulator bit for bit: same colors, same modeled time.

use gcol_core::{color_sanitized, ColorOptions, ExchangeKind, Scheme};
use gcol_graph::check::verify_coloring;
use gcol_graph::gen::simple::erdos_renyi;
use gcol_graph::gen::{grid2d, StencilKind};
use gcol_graph::Csr;
use gcol_simt::sanitize::FindingKind;
use gcol_simt::{BackendKind, Device, SimtBackend};

fn graphs() -> Vec<(&'static str, Csr)> {
    vec![
        ("er", erdos_renyi(400, 2400, 7)),
        ("grid", grid2d(20, 20, StencilKind::NinePoint)),
    ]
}

#[test]
fn all_gpu_schemes_run_clean_single_device() {
    let dev = Device::tiny();
    let opts = ColorOptions::default();
    let simt = SimtBackend::new(&dev);
    for scheme in Scheme::GPU {
        let mut saw_benign = false;
        for (name, g) in graphs() {
            let (coloring, report) = color_sanitized(scheme, &g, &dev, &opts)
                .unwrap_or_else(|e| panic!("{scheme}/{name}: {e}"));
            verify_coloring(&g, &coloring.colors)
                .unwrap_or_else(|e| panic!("{scheme}/{name} improper: {e}"));
            assert!(
                report.is_clean(),
                "{scheme}/{name} has harmful findings:\n{report}"
            );
            saw_benign |= report.benign().any(|f| f.kind == FindingKind::WarpSpecRace);

            // Bit-identical to the unsanitized deterministic simulator:
            // the sanitizer lives off the timing path.
            let plain = scheme
                .try_color_on(&simt, &g, &opts)
                .unwrap_or_else(|e| panic!("{scheme}/{name} plain: {e}"));
            assert_eq!(coloring.colors, plain.colors, "{scheme}/{name} colors");
            assert_eq!(
                coloring.profile.total_ms().to_bits(),
                plain.profile.total_ms().to_bits(),
                "{scheme}/{name} modeled time diverged under the sanitizer"
            );
        }
        // Every speculative scheme exhibits the documented benign race on
        // at least one of the graphs (adjacent vertices in one warp).
        assert!(
            saw_benign,
            "{scheme}: expected the benign st_warp race class to appear"
        );
    }
}

#[test]
fn sharded_p2_runs_clean_including_ghost_exchange() {
    // Both wire encodings go under the sanitizer: the compressed (delta)
    // exchange applies partial frontier updates and launches the scoped
    // CrossResolve/OwnedResolve kernels over dirty worklists — exactly
    // the machinery most likely to read stale or uninitialized ghost
    // slots if the dirty-set bookkeeping were wrong.
    let dev = Device::tiny();
    for kind in ExchangeKind::ALL {
        let opts = ColorOptions::default().with_shards(2).with_exchange(kind);
        for scheme in Scheme::GPU {
            for (name, g) in graphs() {
                let (coloring, report) = color_sanitized(scheme, &g, &dev, &opts)
                    .unwrap_or_else(|e| panic!("{scheme}/{name}/{kind} P=2: {e}"));
                verify_coloring(&g, &coloring.colors)
                    .unwrap_or_else(|e| panic!("{scheme}/{name}/{kind} P=2 improper: {e}"));
                assert!(
                    report.is_clean(),
                    "{scheme}/{name}/{kind} P=2 has harmful findings:\n{report}"
                );

                // Bit-identical to the plain sharded simt run — colors
                // AND modeled time, so the sanitizer provably stays off
                // the exchange timing path too.
                let plain = scheme
                    .try_color(&g, &dev, &opts)
                    .unwrap_or_else(|e| panic!("{scheme}/{name}/{kind} P=2 plain: {e}"));
                assert_eq!(
                    coloring.colors, plain.colors,
                    "{scheme}/{name}/{kind} P=2 colors"
                );
                assert_eq!(
                    coloring.profile.total_ms().to_bits(),
                    plain.profile.total_ms().to_bits(),
                    "{scheme}/{name}/{kind} P=2 modeled time diverged under the sanitizer"
                );
            }
        }
    }
}

#[test]
fn backend_kind_sanitize_routes_through_try_color() {
    let dev = Device::tiny();
    let g = erdos_renyi(300, 1500, 11);
    let sane = ColorOptions::default().with_backend(BackendKind::Sanitize);
    let plain = ColorOptions::default();
    for scheme in [Scheme::TopoBase, Scheme::DataBase] {
        let a = scheme.try_color(&g, &dev, &sane).expect("sanitized run");
        let b = scheme.try_color(&g, &dev, &plain).expect("plain run");
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.num_colors, b.num_colors);
    }
    // Sharded routing also accepts the sanitize backend.
    let sharded = ColorOptions::default()
        .with_backend(BackendKind::Sanitize)
        .with_shards(2);
    let c = Scheme::TopoBase.try_color(&g, &dev, &sharded).expect("P=2");
    verify_coloring(&g, &c.colors).expect("proper");
}

#[test]
fn cpu_schemes_come_back_with_empty_reports() {
    let dev = Device::tiny();
    let g = grid2d(12, 12, StencilKind::FivePoint);
    let opts = ColorOptions::default();
    for scheme in [Scheme::Sequential, Scheme::CpuGm, Scheme::CpuJp] {
        let (coloring, report) =
            color_sanitized(scheme, &g, &dev, &opts).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        verify_coloring(&g, &coloring.colors).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(
            report.findings.is_empty(),
            "{scheme} launches no kernels:\n{report}"
        );
    }
}
