//! Failure-injection / adversarial stress tests: inputs crafted to trigger
//! the worst behavior of each component — conflict storms where every
//! warp-mate is adjacent, hubs that serialize a warp, degenerate block
//! sizes, and colorMask reuse across many rounds.

use gcol::coloring::{verify_coloring, ColorOptions, Scheme};
use gcol::graph::builder::from_undirected_edges;
use gcol::graph::{gen, Csr, VertexId};
use gcol::simt::Device;

/// A graph of disjoint 32-cliques, each exactly filling one warp: every
/// lane of a warp is adjacent to every other lane — the maximal
/// speculative conflict storm under lockstep semantics.
fn warp_clique_storm(num_cliques: usize) -> Csr {
    let n = num_cliques * 32;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for c in 0..num_cliques {
        let base = (c * 32) as VertexId;
        for i in 0..32 {
            for j in (i + 1)..32 {
                edges.push((base + i, base + j));
            }
        }
    }
    from_undirected_edges(n, edges)
}

#[test]
fn conflict_storm_converges_and_stays_delta_plus_one() {
    let g = warp_clique_storm(64);
    let dev = Device::k20c();
    for scheme in [Scheme::TopoBase, Scheme::DataBase, Scheme::DataAtomic] {
        let r = scheme.color(&g, &dev, &ColorOptions::default());
        verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert_eq!(r.num_colors, 32, "{scheme}: clique needs exactly 32");
        // Lockstep speculation needs one round per clique member in the
        // worst case; it must converge well within the safety valve.
        assert!(r.iterations <= 40, "{scheme}: {} rounds", r.iterations);
    }
}

#[test]
fn single_monster_hub_does_not_break_anything() {
    // Star of 20k leaves: one thread walks 20k neighbors while its warp
    // mates walk one — the divergence + chain-latency worst case.
    let g = gen::star(20_000);
    let dev = Device::k20c();
    for scheme in [Scheme::TopoLdg, Scheme::DataLdg, Scheme::CsrColor] {
        let r = scheme.color(&g, &dev, &ColorOptions::default());
        verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(r.total_ms().is_finite() && r.total_ms() > 0.0);
    }
}

#[test]
fn extreme_block_sizes_stay_correct() {
    let g = gen::erdos_renyi(3000, 18_000, 1);
    let dev = Device::k20c();
    for block in [1u32, 2, 31, 33, 1024] {
        let opts = ColorOptions {
            block_size: block,
            ..ColorOptions::default()
        };
        let r = Scheme::DataBase.color(&g, &dev, &opts);
        verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("block {block}: {e}"));
    }
}

#[test]
#[should_panic(expected = "bad block size")]
fn oversized_block_is_rejected() {
    let g = gen::path(10);
    let dev = Device::k20c();
    let opts = ColorOptions {
        block_size: 2048,
        ..ColorOptions::default()
    };
    Scheme::TopoBase.color(&g, &dev, &opts);
}

#[test]
fn many_rounds_do_not_corrupt_the_colormask_reuse() {
    // A long path colored with 32-thread blocks maximizes warp-mate
    // conflicts and hence the number of rounds the per-lane colorMask is
    // reused across — the pass-tagged markers must stay sound.
    let g = gen::path(50_000);
    let dev = Device::k20c();
    let opts = ColorOptions {
        block_size: 32,
        ..ColorOptions::default()
    };
    let r = Scheme::TopoBase.color(&g, &dev, &opts);
    verify_coloring(&g, &r.colors).unwrap();
    assert!(r.num_colors <= 3, "path needs ≤ 3 under any greedy order");
}

#[test]
fn dense_small_world_with_multiple_components() {
    // Disconnected mix: cliques + isolated vertices + a bipartite blob.
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    // Clique on 0..20.
    for i in 0..20u32 {
        for j in (i + 1)..20 {
            edges.push((i, j));
        }
    }
    // Bipartite 40..60 vs 60..90.
    for a in 40u32..60 {
        for b in 60u32..90 {
            if (a + b) % 3 == 0 {
                edges.push((a, b));
            }
        }
    }
    let g = from_undirected_edges(120, edges); // 90..120 isolated
    let dev = Device::k20c();
    for scheme in [Scheme::Sequential, Scheme::DataLdg, Scheme::CpuRokos] {
        let r = scheme.color(&g, &dev, &ColorOptions::default());
        verify_coloring(&g, &r.colors).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(r.num_colors >= 20, "clique forces ≥ 20");
        // Isolated tail must be color 1.
        assert!(r.colors[90..].iter().all(|&c| c == 1));
    }
}

#[test]
fn csrcolor_survives_adversarial_hash_collisions() {
    // All vertices hash through the same seed; a clique forces total
    // ordering resolution purely via tie-breaks.
    let g = gen::complete(64);
    let dev = Device::k20c();
    let r = Scheme::CsrColor.color(&g, &dev, &ColorOptions::default());
    verify_coloring(&g, &r.colors).unwrap();
    assert_eq!(r.num_colors, 64);
}

#[test]
fn threestep_handles_zero_conflict_graphs() {
    // A graph so sparse the GPU rounds leave nothing for the CPU step.
    let g = gen::path(5000);
    let dev = Device::k20c();
    let r = Scheme::ThreeStepGm.color(&g, &dev, &ColorOptions::default());
    verify_coloring(&g, &r.colors).unwrap();
}
