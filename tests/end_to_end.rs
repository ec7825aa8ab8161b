//! End-to-end integration tests spanning every crate: graphs come from
//! generators or IO, colorings from all nine schemes on the simulated
//! device, and every result is checked against the graph-crate verifier.

use gcol::coloring::{verify_coloring, ColorOptions, Scheme};
use gcol::graph::gen::{self, RmatParams, StencilKind};
use gcol::graph::Csr;
use gcol::simt::Device;

fn all_schemes() -> [Scheme; 9] {
    [
        Scheme::Sequential,
        Scheme::ThreeStepGm,
        Scheme::TopoBase,
        Scheme::TopoLdg,
        Scheme::DataBase,
        Scheme::DataLdg,
        Scheme::CsrColor,
        Scheme::CpuGm,
        Scheme::CpuJp,
    ]
}

/// A zoo of structurally diverse graphs; every scheme must produce a
/// proper coloring on each.
fn zoo() -> Vec<(&'static str, Csr)> {
    vec![
        ("path", gen::path(501)),
        ("odd-cycle", gen::cycle(333)),
        ("complete", gen::complete(40)),
        ("star", gen::star(1000)),
        ("bipartite", gen::random_bipartite(150, 250, 2000, 3)),
        ("er", gen::erdos_renyi(1500, 9000, 5)),
        ("regular", gen::random_regular(800, 10, 7)),
        ("grid2d", gen::grid2d(37, 23, StencilKind::FivePoint)),
        ("grid2d-9pt", gen::grid2d(25, 25, StencilKind::NinePoint)),
        ("grid3d", gen::grid3d(11, 12, 13)),
        ("mesh", gen::mesh2d(40, 40, 0.12, 9)),
        ("circuit", gen::circuit_graph(2000, 3, 0.8, 11)),
        ("rmat-er", gen::rmat(RmatParams::erdos_renyi(11, 10), 13)),
        ("rmat-skew", gen::rmat(RmatParams::skewed(11, 10), 13)),
        ("isolated", Csr::empty(64)),
    ]
}

#[test]
fn every_scheme_properly_colors_the_zoo() {
    let dev = Device::k20c();
    let opts = ColorOptions::default();
    for (name, g) in zoo() {
        for scheme in all_schemes() {
            let r = scheme.color(&g, &dev, &opts);
            verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{scheme} on {name}: {e}"));
            assert!(
                r.num_colors <= g.max_degree() + 1
                    || scheme == Scheme::CsrColor
                    || scheme == Scheme::CpuJp,
                "{scheme} on {name}: {} colors exceeds Δ+1 = {}",
                r.num_colors,
                g.max_degree() + 1
            );
        }
    }
}

#[test]
fn greedy_schemes_meet_known_chromatic_numbers() {
    let dev = Device::k20c();
    let opts = ColorOptions::default();
    // (graph, chromatic number, allowed slack for speculative variants)
    let cases: Vec<(&str, Csr, usize, usize)> = vec![
        ("path", gen::path(100), 2, 1),
        ("even-cycle", gen::cycle(100), 2, 1),
        ("odd-cycle", gen::cycle(101), 3, 1),
        ("complete", gen::complete(25), 25, 0),
        ("star", gen::star(200), 2, 1),
    ];
    for (name, g, chi, slack) in cases {
        for scheme in [
            Scheme::Sequential,
            Scheme::TopoBase,
            Scheme::DataBase,
            Scheme::ThreeStepGm,
            Scheme::CpuGm,
        ] {
            let r = scheme.color(&g, &dev, &opts);
            assert!(
                r.num_colors >= chi,
                "{scheme} on {name} used fewer colors than chromatic number"
            );
            assert!(
                r.num_colors <= chi + slack,
                "{scheme} on {name}: {} colors vs χ = {chi} (+{slack} slack)",
                r.num_colors,
            );
        }
    }
}

#[test]
fn deterministic_mode_is_bit_stable_across_runs() {
    let dev = Device::k20c();
    let opts = ColorOptions::default();
    let g = gen::rmat(RmatParams::skewed(11, 12), 99);
    for scheme in [Scheme::TopoLdg, Scheme::DataLdg, Scheme::CsrColor] {
        let a = scheme.color(&g, &dev, &opts);
        let b = scheme.color(&g, &dev, &opts);
        assert_eq!(a.colors, b.colors, "{scheme} functional determinism");
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.total_ms(), b.total_ms(), "{scheme} timing determinism");
    }
}

#[test]
fn mtx_loaded_graph_flows_through_the_whole_pipeline() {
    // Write a graph to MatrixMarket, read it back, color it, verify.
    let g = gen::mesh2d(30, 30, 0.1, 4);
    let mut buf = Vec::new();
    gcol::graph::io::write_matrix_market(&g, &mut buf).unwrap();
    let loaded =
        gcol::graph::io::read_matrix_market(std::io::BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(loaded, g);
    let dev = Device::k20c();
    let r = Scheme::DataLdg.color(&loaded, &dev, &ColorOptions::default());
    verify_coloring(&loaded, &r.colors).unwrap();
}

#[test]
fn block_size_sweep_is_functionally_invariant() {
    // Fig. 8 varies the block size; the coloring must stay proper and the
    // quality must stay in the same band for every size.
    let dev = Device::k20c();
    let g = gen::grid3d(16, 16, 16);
    let mut counts = Vec::new();
    for block in [32u32, 64, 128, 256, 512, 1024] {
        let opts = ColorOptions {
            block_size: block,
            ..ColorOptions::default()
        };
        let r = Scheme::DataBase.color(&g, &dev, &opts);
        verify_coloring(&g, &r.colors).unwrap();
        counts.push(r.num_colors);
    }
    let min = *counts.iter().min().unwrap();
    let max = *counts.iter().max().unwrap();
    assert!(
        max <= min + 3,
        "color quality should not depend strongly on block size: {counts:?}"
    );
}

#[test]
fn csrcolor_quality_gap_shows_at_scale() {
    // The motivating observation (Figs. 1b, 6): MIS coloring burns several
    // times more colors than speculative greedy.
    let dev = Device::k20c();
    let opts = ColorOptions::default();
    let g = gen::rmat(RmatParams::erdos_renyi(13, 16), 21);
    let seq = Scheme::Sequential.color(&g, &dev, &opts);
    let csr = Scheme::CsrColor.color(&g, &dev, &opts);
    let sgr = Scheme::DataLdg.color(&g, &dev, &opts);
    assert!(
        csr.num_colors as f64 >= 2.0 * seq.num_colors as f64,
        "csrcolor {} vs sequential {}",
        csr.num_colors,
        seq.num_colors
    );
    assert!(
        sgr.num_colors <= seq.num_colors + 4,
        "SGR {} vs sequential {}",
        sgr.num_colors,
        seq.num_colors
    );
}

#[test]
fn threestep_is_slower_and_data_driven_is_faster_than_sequential() {
    // The headline performance shape of Figs. 1a and 7 at reduced scale.
    let dev = Device::k20c();
    let opts = ColorOptions::default();
    let g = gen::rmat(RmatParams::erdos_renyi(14, 16), 33);
    let seq_ms = Scheme::Sequential.color(&g, &dev, &opts).total_ms();
    let threestep_ms = Scheme::ThreeStepGm.color(&g, &dev, &opts).total_ms();
    let data_ms = Scheme::DataLdg.color(&g, &dev, &opts).total_ms();
    assert!(
        threestep_ms > seq_ms,
        "3-step GM must be slower than sequential ({threestep_ms:.3} vs {seq_ms:.3})"
    );
    assert!(
        data_ms < seq_ms,
        "D-ldg must beat sequential ({data_ms:.3} vs {seq_ms:.3})"
    );
}
