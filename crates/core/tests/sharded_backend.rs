//! Differential safety net for the sharded multi-device driver: every GPU
//! scheme, on every graph family, at every shard count must produce a
//! *proper* coloring whose color count stays close to the single-device
//! result — and at one shard the sharded driver must be *label-identical*
//! to the existing single-device path (same subgraph, same kernels, same
//! schedule), which pins the whole exchange machinery to a known anchor.
//!
//! Sharding legitimately changes colors for P > 1: each device speculates
//! against its own interior first and cross-shard conflicts are resolved
//! by global-id priority, a different (but still first-fit greedy)
//! schedule than one device would follow. Color *counts* stay in the same
//! ballpark; properness may never change.

use gcol_core::gpu::color_sharded;
use gcol_core::{ColorError, ColorOptions, ExchangeKind, Scheme};
use gcol_graph::check::verify_coloring;
use gcol_graph::gen::simple::{complete, erdos_renyi, star};
use gcol_graph::gen::{grid2d, rmat, RmatParams, StencilKind};
use gcol_graph::partition::Partitioning;
use gcol_graph::Csr;
use gcol_simt::{BackendKind, Device, NativeBackend, Phase, ShardedBackend, SimtBackend};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn graphs() -> Vec<(&'static str, Csr)> {
    vec![
        ("er", erdos_renyi(1100, 6600, 17)),
        ("rmat", rmat(RmatParams::skewed(10, 10), 23)),
        ("grid", grid2d(28, 28, StencilKind::NinePoint)),
        ("star", star(400)),
    ]
}

/// Same ballpark bound the native-vs-simt differential suite uses.
fn assert_close(label: &str, a: usize, b: usize) {
    let (a, b) = (a as i64, b as i64);
    assert!(
        (a - b).abs() <= a.max(b) / 2 + 3,
        "{label}: single-device {a} vs sharded {b} colors"
    );
}

#[test]
fn sharded_is_proper_and_close_for_every_scheme_generator_and_shard_count() {
    let dev = Device::tiny();
    // Native backend: real parallel execution, fast enough for the full
    // schemes × generators × shard-counts cross product.
    let opts = ColorOptions::default().with_backend(BackendKind::Native);
    for (name, g) in graphs() {
        for scheme in Scheme::GPU {
            let single = scheme
                .try_color(&g, &dev, &opts)
                .unwrap_or_else(|e| panic!("{scheme}/{name} single-device: {e}"));
            for p in SHARD_COUNTS {
                let sharded = scheme
                    .try_color(&g, &dev, &opts.clone().with_shards(p))
                    .unwrap_or_else(|e| panic!("{scheme}/{name} P={p}: {e}"));
                verify_coloring(&g, &sharded.colors)
                    .unwrap_or_else(|e| panic!("{scheme}/{name} P={p} improper: {e}"));
                assert_close(
                    &format!("{scheme}/{name} P={p}"),
                    single.num_colors,
                    sharded.num_colors,
                );
            }
        }
    }
}

#[test]
fn one_shard_is_label_identical_to_the_single_device_driver() {
    let dev = Device::tiny();
    let g = erdos_renyi(700, 4200, 29);
    let opts = ColorOptions::default();
    let fleet = ShardedBackend::uniform(1, |_| SimtBackend::new(&dev));
    for scheme in Scheme::GPU {
        let single = scheme
            .try_color(&g, &dev, &opts)
            .unwrap_or_else(|e| panic!("{scheme} single: {e}"));
        let sharded = color_sharded(scheme, &g, &fleet, &opts)
            .unwrap_or_else(|e| panic!("{scheme} P=1: {e}"));
        assert_eq!(single.colors, sharded.colors, "{scheme}: labels drifted");
        assert_eq!(single.num_colors, sharded.num_colors, "{scheme}");
        assert_eq!(single.iterations, sharded.iterations, "{scheme}");
    }
}

#[test]
fn sharded_simt_is_proper_and_charges_the_modeled_frontier() {
    let dev = Device::tiny();
    let g = rmat(RmatParams::skewed(9, 8), 5);
    let total_ghosts: usize = Partitioning::contiguous(&g, 4)
        .extract_shards(&g)
        .iter()
        .map(|s| s.ghost_gids.len())
        .sum();
    assert!(total_ghosts > 0, "graph too sparse to exercise exchanges");
    // The per-round wire bound comes from the encoding, not a magic
    // constant: a dense round ships exactly 4 bytes per ghost, and a
    // delta round can never exceed that (the encoder falls back to the
    // dense payload whenever the bitmask would not pay for itself).
    let dense_round = 4 * total_ghosts;
    for kind in ExchangeKind::ALL {
        let opts = ColorOptions::default().with_shards(4).with_exchange(kind);
        for scheme in [Scheme::TopoBase, Scheme::DataLdg, Scheme::CsrColor] {
            let r = scheme.try_color(&g, &dev, &opts).unwrap();
            verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{scheme}/{kind}: {e}"));
            let frontier_rounds: Vec<(usize, f64)> = r
                .profile
                .phases
                .iter()
                .filter_map(|p| match p {
                    Phase::Transfer { label, bytes, ms } if label.contains("d2d") => {
                        Some((*bytes, *ms))
                    }
                    _ => None,
                })
                .collect();
            assert!(
                !frontier_rounds.is_empty(),
                "{scheme}/{kind}: no d2d exchange"
            );
            for (round, &(bytes, ms)) in frontier_rounds.iter().enumerate() {
                match kind {
                    ExchangeKind::Dense => assert_eq!(bytes, dense_round, "{scheme} round {round}"),
                    ExchangeKind::Delta => assert!(
                        bytes <= dense_round,
                        "{scheme} round {round}: delta frame ({bytes} B) exceeds dense ({dense_round} B)"
                    ),
                }
                assert!(ms >= 0.0, "{scheme}/{kind}: negative d2d transfer time");
            }
            // Round 1 diffs against a never-seen mirror, so every ghost is
            // dirty and delta's dense fallback ships the full frontier.
            assert_eq!(frontier_rounds[0].0, dense_round, "{scheme}/{kind} round 1");
        }
    }
}

#[test]
fn cpu_schemes_ignore_the_shard_count() {
    let dev = Device::tiny();
    let g = erdos_renyi(500, 3000, 3);
    let opts = ColorOptions::default().with_shards(4);
    for scheme in [Scheme::Sequential, Scheme::CpuGm, Scheme::CpuJp] {
        let r = scheme.try_color(&g, &dev, &opts).unwrap();
        verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{scheme}: {e}"));
    }
}

#[test]
fn single_device_non_convergence_is_a_typed_error() {
    let dev = Device::tiny();
    let g = erdos_renyi(400, 2400, 11);
    // One pass can never confirm convergence: the speculate/detect loop
    // needs a final all-quiet pass on top of any real work.
    for backend in [BackendKind::Simt, BackendKind::Native] {
        let opts = ColorOptions {
            max_iterations: 1,
            backend,
            ..ColorOptions::default()
        };
        let err = Scheme::TopoBase.try_color(&g, &dev, &opts).unwrap_err();
        assert_eq!(
            err,
            ColorError::MaxIterations {
                scheme: Scheme::TopoBase,
                limit: 1
            },
            "{backend}"
        );
        assert!(err.to_string().contains("did not converge"));
    }
}

#[test]
fn sharded_non_convergence_is_a_typed_error() {
    let dev = Device::tiny();
    // K16 over two devices: both shards color their half with the same
    // low colors, so cross-shard conflicts are certain, and resolving any
    // of them needs more than the one allowed iteration. ThreeStepGm runs
    // a *fixed* number of local GPU rounds, so the budget is consumed by
    // the exchange machinery, not by local speculation.
    let g = complete(16);
    for backend in [BackendKind::Simt, BackendKind::Native] {
        let opts = ColorOptions {
            max_iterations: 1,
            backend,
            num_shards: 2,
            ..ColorOptions::default()
        };
        let err = Scheme::ThreeStepGm.try_color(&g, &dev, &opts).unwrap_err();
        assert_eq!(
            err,
            ColorError::MaxIterations {
                scheme: Scheme::ThreeStepGm,
                limit: 1
            },
            "{backend}"
        );
    }
    // The same configuration with a sane budget converges.
    let opts = ColorOptions::default().with_shards(2);
    let r = Scheme::ThreeStepGm.try_color(&g, &dev, &opts).unwrap();
    verify_coloring(&g, &r.colors).unwrap();
    assert_eq!(r.num_colors, 16);
}

#[test]
fn native_fleet_handles_the_acceptance_scale() {
    // Scaled-down rehearsal of the CLI acceptance run (`gcol-bench
    // shardscale --backend native --shards 4` covers scale 17): every GPU
    // scheme, four native shards, a skewed rmat.
    let dev = Device::tiny();
    let g = rmat(RmatParams::skewed(12, 8), 0xACCE);
    let opts = ColorOptions::default()
        .with_backend(BackendKind::Native)
        .with_shards(4);
    for scheme in Scheme::GPU {
        let r = scheme.try_color(&g, &dev, &opts).unwrap();
        verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(r.num_colors <= g.max_degree() + 1, "{scheme}");
    }
    // Explicit fleet construction drives the same path the CLI uses.
    let fleet = ShardedBackend::uniform(4, |_| NativeBackend::new());
    let r = color_sharded(Scheme::DataBase, &g, &fleet, &ColorOptions::default()).unwrap();
    verify_coloring(&g, &r.colors).unwrap();
}
