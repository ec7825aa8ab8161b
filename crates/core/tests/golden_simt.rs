//! Golden guard: the Deterministic-mode SIMT backend must keep producing
//! **bit-identical** colorings and modeled profile totals for the paper's
//! seven schemes across refactors of the driver/backend plumbing. The
//! constants below were captured from the pre-backend-refactor drivers
//! (PR 1 tree) and must never drift: any change here is a change to the
//! paper-faithful path, not a refactor.
//!
//! To regenerate after an *intentional* model change, run
//!
//! ```text
//! GCOL_REGEN_GOLDEN=1 cargo test -p gcol-core --test golden_simt -- --nocapture regen --ignored
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use gcol_core::{ColorOptions, Coloring, Scheme};
use gcol_graph::gen::simple::erdos_renyi;
use gcol_graph::gen::{rmat, RmatParams};
use gcol_graph::Csr;
use gcol_simt::{Device, Phase};

/// One scheme's captured fingerprint on one graph.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    graph: &'static str,
    scheme: &'static str,
    /// FNV-1a over the per-vertex colors (order-sensitive).
    colors_fnv: u64,
    num_colors: usize,
    iterations: usize,
    /// Bit patterns of the modeled time totals (exact f64 equality).
    total_ms_bits: u64,
    kernel_ms_bits: u64,
    transfer_ms_bits: u64,
    host_ms_bits: u64,
    /// Sum of the integer hardware counters over all kernel launches.
    cycles: u64,
    instructions: u64,
    mem_transactions: u64,
    dram_bytes: u64,
    atomics: u64,
}

fn fnv1a(colors: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &c in colors {
        for b in c.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn fingerprint(graph: &'static str, r: &Coloring) -> Golden {
    let (mut cycles, mut instructions, mut txn, mut dram, mut atomics) = (0, 0, 0, 0, 0);
    for p in &r.profile.phases {
        if let Phase::Kernel(k) = p {
            cycles += k.cycles;
            instructions += k.instructions;
            txn += k.mem_transactions;
            dram += k.dram_bytes;
            atomics += k.atomics;
        }
    }
    Golden {
        graph,
        scheme: r.scheme.name(),
        colors_fnv: fnv1a(&r.colors),
        num_colors: r.num_colors,
        iterations: r.iterations,
        total_ms_bits: r.profile.total_ms().to_bits(),
        kernel_ms_bits: r.profile.kernel_ms().to_bits(),
        transfer_ms_bits: r.profile.transfer_ms().to_bits(),
        host_ms_bits: r.profile.host_ms().to_bits(),
        cycles,
        instructions,
        mem_transactions: txn,
        dram_bytes: dram,
        atomics,
    }
}

fn graphs() -> [(&'static str, Csr); 2] {
    [
        ("er-2500", erdos_renyi(2500, 15_000, 42)),
        ("rmat-skew-11", rmat(RmatParams::skewed(11, 8), 7)),
    ]
}

fn opts() -> ColorOptions {
    ColorOptions {
        // Exercise the h2d charging path too: its byte accounting is part
        // of the guarded surface.
        charge_h2d: true,
        ..ColorOptions::default()
    }
}

fn capture() -> Vec<Golden> {
    let dev = Device::k20c();
    let opts = opts();
    let mut out = Vec::new();
    for (name, g) in graphs() {
        for scheme in Scheme::paper_seven() {
            out.push(fingerprint(name, &scheme.color(&g, &dev, &opts)));
        }
    }
    out
}

/// One sharded Deterministic run's captured fingerprint: colors, rounds
/// and the modeled ghost-frontier traffic must stay bit-stable for the
/// pinned rmat graph at 2 and 4 devices.
#[derive(Debug, PartialEq, Eq)]
struct GoldenSharded {
    shards: usize,
    scheme: &'static str,
    colors_fnv: u64,
    num_colors: usize,
    /// Phase-A critical-path iterations plus exchange rounds.
    iterations: usize,
    total_ms_bits: u64,
    transfer_ms_bits: u64,
    /// Total d2d ghost-frontier bytes (frontier size × rounds).
    transfer_bytes: u64,
}

fn capture_sharded() -> Vec<GoldenSharded> {
    let dev = Device::k20c();
    let opts = opts();
    let g = rmat(RmatParams::skewed(11, 8), 7);
    let mut out = Vec::new();
    for shards in [2usize, 4] {
        for scheme in Scheme::proposed_four() {
            let r = scheme.color(&g, &dev, &opts.clone().with_shards(shards));
            let bytes: u64 = r
                .profile
                .phases
                .iter()
                .filter_map(|p| match p {
                    Phase::Transfer { bytes, .. } => Some(*bytes as u64),
                    _ => None,
                })
                .sum();
            out.push(GoldenSharded {
                shards,
                scheme: scheme.name(),
                colors_fnv: fnv1a(&r.colors),
                num_colors: r.num_colors,
                iterations: r.iterations,
                total_ms_bits: r.profile.total_ms().to_bits(),
                transfer_ms_bits: r.profile.transfer_ms().to_bits(),
                transfer_bytes: bytes,
            });
        }
    }
    out
}

#[test]
#[ignore = "regeneration helper, run with GCOL_REGEN_GOLDEN=1"]
fn regen() {
    if std::env::var("GCOL_REGEN_GOLDEN").is_err() {
        return;
    }
    for g in capture_sharded() {
        println!(
            "    GoldenSharded {{ shards: {}, scheme: {:?}, colors_fnv: 0x{:016x}, \
             num_colors: {}, iterations: {}, total_ms_bits: 0x{:016x}, \
             transfer_ms_bits: 0x{:016x}, transfer_bytes: {} }},",
            g.shards,
            g.scheme,
            g.colors_fnv,
            g.num_colors,
            g.iterations,
            g.total_ms_bits,
            g.transfer_ms_bits,
            g.transfer_bytes
        );
    }
    for g in capture() {
        println!(
            "    Golden {{ graph: {:?}, scheme: {:?}, colors_fnv: 0x{:016x}, num_colors: {}, \
             iterations: {}, total_ms_bits: 0x{:016x}, kernel_ms_bits: 0x{:016x}, \
             transfer_ms_bits: 0x{:016x}, host_ms_bits: 0x{:016x}, cycles: {}, \
             instructions: {}, mem_transactions: {}, dram_bytes: {}, atomics: {} }},",
            g.graph,
            g.scheme,
            g.colors_fnv,
            g.num_colors,
            g.iterations,
            g.total_ms_bits,
            g.kernel_ms_bits,
            g.transfer_ms_bits,
            g.host_ms_bits,
            g.cycles,
            g.instructions,
            g.mem_transactions,
            g.dram_bytes,
            g.atomics
        );
    }
}

#[test]
fn deterministic_simt_path_is_bit_stable_across_refactors() {
    let measured = capture();
    assert_eq!(measured.len(), GOLDEN.len());
    for (m, g) in measured.iter().zip(GOLDEN.iter()) {
        assert_eq!(m, g, "paper-path drift on {} / {}", g.graph, g.scheme);
    }
}

#[test]
fn deterministic_sharded_profiles_are_bit_stable() {
    let measured = capture_sharded();
    assert_eq!(measured.len(), GOLDEN_SHARDED.len());
    for (m, g) in measured.iter().zip(GOLDEN_SHARDED.iter()) {
        assert_eq!(m, g, "sharded-path drift on {} at P={}", g.scheme, g.shards);
    }
}

/// Captured from the compressed-exchange sharded driver (delta frontier
/// frames, fused cross/owned resolve, palette rotation) on the pinned
/// `rmat-skew-11` graph; regenerate like `GOLDEN` (see module docs).
const GOLDEN_SHARDED: &[GoldenSharded] = &[
    GoldenSharded {
        shards: 2,
        scheme: "T-base",
        colors_fnv: 0x17e7c6cddba11678,
        num_colors: 13,
        iterations: 7,
        total_ms_bits: 0x3fe247cf29812b8b,
        transfer_ms_bits: 0x3f9532dc84891f80,
        transfer_bytes: 7499,
    },
    GoldenSharded {
        shards: 2,
        scheme: "T-ldg",
        colors_fnv: 0x17e7c6cddba11678,
        num_colors: 13,
        iterations: 7,
        total_ms_bits: 0x3fe0e23d26979502,
        transfer_ms_bits: 0x3f9532dc84891f80,
        transfer_bytes: 7499,
    },
    GoldenSharded {
        shards: 2,
        scheme: "D-base",
        colors_fnv: 0x9c182c19fc76870e,
        num_colors: 13,
        iterations: 7,
        total_ms_bits: 0x3fe1ba3d169757db,
        transfer_ms_bits: 0x3f9531a357d01240,
        transfer_bytes: 7471,
    },
    GoldenSharded {
        shards: 2,
        scheme: "D-ldg",
        colors_fnv: 0x9c182c19fc76870e,
        num_colors: 13,
        iterations: 7,
        total_ms_bits: 0x3fdfee560e1bc45c,
        transfer_ms_bits: 0x3f9531a357d01240,
        transfer_bytes: 7471,
    },
    GoldenSharded {
        shards: 4,
        scheme: "T-base",
        colors_fnv: 0xd9f1240d0ab26ac1,
        num_colors: 14,
        iterations: 9,
        total_ms_bits: 0x3fea42437c7c168f,
        transfer_ms_bits: 0x3f9fbd10debc2a40,
        transfer_bytes: 21716,
    },
    GoldenSharded {
        shards: 4,
        scheme: "T-ldg",
        colors_fnv: 0xd9f1240d0ab26ac1,
        num_colors: 14,
        iterations: 9,
        total_ms_bits: 0x3fe902b4bc463f93,
        transfer_ms_bits: 0x3f9fbd10debc2a40,
        transfer_bytes: 21716,
    },
    GoldenSharded {
        shards: 4,
        scheme: "D-base",
        colors_fnv: 0xea8bfb05e9e845a7,
        num_colors: 13,
        iterations: 7,
        total_ms_bits: 0x3fe53a21da5de4c6,
        transfer_ms_bits: 0x3f9fbc312c8120b0,
        transfer_bytes: 21468,
    },
    GoldenSharded {
        shards: 4,
        scheme: "D-ldg",
        colors_fnv: 0xea8bfb05e9e845a7,
        num_colors: 13,
        iterations: 7,
        total_ms_bits: 0x3fe431048c71b35c,
        transfer_ms_bits: 0x3f9fbc312c8120b0,
        transfer_bytes: 21468,
    },
];

/// Captured on the pre-refactor tree; see module docs.
const GOLDEN: &[Golden] = &[
    Golden {
        graph: "er-2500",
        scheme: "sequential",
        colors_fnv: 0x138f4030c40ef72b,
        num_colors: 9,
        iterations: 1,
        total_ms_bits: 0x3fbdfb2c4b23b932,
        kernel_ms_bits: 0x8000000000000000,
        transfer_ms_bits: 0x8000000000000000,
        host_ms_bits: 0x3fbdfb2c4b23b932,
        cycles: 0,
        instructions: 0,
        mem_transactions: 0,
        dram_bytes: 0,
        atomics: 0,
    },
    Golden {
        graph: "er-2500",
        scheme: "3-step GM",
        colors_fnv: 0xd37fed5ac414516a,
        num_colors: 9,
        iterations: 2,
        total_ms_bits: 0x3fd60ad0af29b646,
        kernel_ms_bits: 0x3fbe6df72587fc6e,
        transfer_ms_bits: 0x3fb2c392023d38b7,
        host_ms_bits: 0x3fc37cdcca70d1fa,
        cycles: 83919,
        instructions: 171929,
        mem_transactions: 153626,
        dram_bytes: 452960,
        atomics: 0,
    },
    Golden {
        graph: "er-2500",
        scheme: "T-base",
        colors_fnv: 0xd37fed5ac414516a,
        num_colors: 9,
        iterations: 3,
        total_ms_bits: 0x3fcc698bb2cd67ec,
        kernel_ms_bits: 0x3fc418c2fbc83bec,
        transfer_ms_bits: 0x3fb0a1916e0a5801,
        host_ms_bits: 0x8000000000000000,
        cycles: 110846,
        instructions: 223854,
        mem_transactions: 200746,
        dram_bytes: 602848,
        atomics: 0,
    },
    Golden {
        graph: "er-2500",
        scheme: "T-ldg",
        colors_fnv: 0xd37fed5ac414516a,
        num_colors: 9,
        iterations: 3,
        total_ms_bits: 0x3fc9b56d16b3ab6b,
        kernel_ms_bits: 0x3fc164a45fae7f6b,
        transfer_ms_bits: 0x3fb0a1916e0a5801,
        host_ms_bits: 0x8000000000000000,
        cycles: 95934,
        instructions: 168947,
        mem_transactions: 145839,
        dram_bytes: 608928,
        atomics: 0,
    },
    Golden {
        graph: "er-2500",
        scheme: "D-base",
        colors_fnv: 0xd37fed5ac414516a,
        num_colors: 9,
        iterations: 2,
        total_ms_bits: 0x3fc77c1c4de75b69,
        kernel_ms_bits: 0x3fc0a9a4466ec123,
        transfer_ms_bits: 0x3fab49e01de26916,
        host_ms_bits: 0x8000000000000000,
        cycles: 91905,
        instructions: 121492,
        mem_transactions: 107489,
        dram_bytes: 333408,
        atomics: 21,
    },
    Golden {
        graph: "er-2500",
        scheme: "D-ldg",
        colors_fnv: 0xd37fed5ac414516a,
        num_colors: 9,
        iterations: 2,
        total_ms_bits: 0x3fc554c3708eaaa0,
        kernel_ms_bits: 0x3fbd0496d22c20b3,
        transfer_ms_bits: 0x3fab49e01de26916,
        host_ms_bits: 0x8000000000000000,
        cycles: 80026,
        instructions: 92792,
        mem_transactions: 78789,
        dram_bytes: 344416,
        atomics: 21,
    },
    Golden {
        graph: "er-2500",
        scheme: "csrcolor",
        colors_fnv: 0x7be5b4f17a60e058,
        num_colors: 26,
        iterations: 7,
        total_ms_bits: 0x3fd597fe236cf8f2,
        kernel_ms_bits: 0x3fcdf701e2b39006,
        transfer_ms_bits: 0x3fba71f4c84cc3b8,
        host_ms_bits: 0x8000000000000000,
        cycles: 165275,
        instructions: 245788,
        mem_transactions: 169147,
        dram_bytes: 575296,
        atomics: 140,
    },
    Golden {
        graph: "rmat-skew-11",
        scheme: "sequential",
        colors_fnv: 0x9a84727179df4434,
        num_colors: 9,
        iterations: 1,
        total_ms_bits: 0x3fb0d2927c4ddca0,
        kernel_ms_bits: 0x8000000000000000,
        transfer_ms_bits: 0x8000000000000000,
        host_ms_bits: 0x3fb0d2927c4ddca0,
        cycles: 0,
        instructions: 0,
        mem_transactions: 0,
        dram_bytes: 0,
        atomics: 0,
    },
    Golden {
        graph: "rmat-skew-11",
        scheme: "3-step GM",
        colors_fnv: 0x447c708a5f7f676b,
        num_colors: 11,
        iterations: 2,
        total_ms_bits: 0x3fd33f4d25a18428,
        kernel_ms_bits: 0x3fc3803f1f5bb224,
        transfer_ms_bits: 0x3faf7712cda9b334,
        host_ms_bits: 0x3fb6412cf0f9d2c0,
        cycles: 107560,
        instructions: 95815,
        mem_transactions: 79146,
        dram_bytes: 280128,
        atomics: 0,
    },
    Golden {
        graph: "rmat-skew-11",
        scheme: "T-base",
        colors_fnv: 0x8ffd1ac5955adebe,
        num_colors: 11,
        iterations: 5,
        total_ms_bits: 0x3fd871ff0a5a9f34,
        kernel_ms_bits: 0x3fd3ab39be8b93ca,
        transfer_ms_bits: 0x3fb31b152f3c2dae,
        host_ms_bits: 0x8000000000000000,
        cycles: 216972,
        instructions: 179380,
        mem_transactions: 150040,
        dram_bytes: 552128,
        atomics: 0,
    },
    Golden {
        graph: "rmat-skew-11",
        scheme: "T-ldg",
        colors_fnv: 0x8ffd1ac5955adebe,
        num_colors: 11,
        iterations: 5,
        total_ms_bits: 0x3fd61f70250346fe,
        kernel_ms_bits: 0x3fd158aad9343b93,
        transfer_ms_bits: 0x3fb31b152f3c2dae,
        host_ms_bits: 0x8000000000000000,
        cycles: 191352,
        instructions: 141256,
        mem_transactions: 111916,
        dram_bytes: 573824,
        atomics: 0,
    },
    Golden {
        graph: "rmat-skew-11",
        scheme: "D-base",
        colors_fnv: 0xbcabb0e968480b07,
        num_colors: 12,
        iterations: 5,
        total_ms_bits: 0x3fdee061914c53d9,
        kernel_ms_bits: 0x3fda2ffae4fe3b00,
        transfer_ms_bits: 0x3fb2c19ab1386366,
        host_ms_bits: 0x8000000000000000,
        cycles: 288880,
        instructions: 76053,
        mem_transactions: 62280,
        dram_bytes: 259968,
        atomics: 21,
    },
    Golden {
        graph: "rmat-skew-11",
        scheme: "D-ldg",
        colors_fnv: 0xbcabb0e968480b07,
        num_colors: 12,
        iterations: 5,
        total_ms_bits: 0x3fdb8414f640e76c,
        kernel_ms_bits: 0x3fd6d3ae49f2ce94,
        transfer_ms_bits: 0x3fb2c19ab1386366,
        host_ms_bits: 0x8000000000000000,
        cycles: 251809,
        instructions: 62577,
        mem_transactions: 48804,
        dram_bytes: 300192,
        atomics: 21,
    },
    Golden {
        graph: "rmat-skew-11",
        scheme: "csrcolor",
        colors_fnv: 0x820e39345b54e7d1,
        num_colors: 25,
        iterations: 7,
        total_ms_bits: 0x3fd66fa4214a3537,
        kernel_ms_bits: 0x3fd07789c8d95ad9,
        transfer_ms_bits: 0x3fb7e06961c36978,
        host_ms_bits: 0x8000000000000000,
        cycles: 181651,
        instructions: 133444,
        mem_transactions: 77868,
        dram_bytes: 330112,
        atomics: 112,
    },
];
