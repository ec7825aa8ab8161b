//! Wall-clock hot-path driver: times the simulator's execute-trace-replay
//! loop end to end, without criterion, so regressions are measurable in
//! constrained environments (and by the CI smoke gate).
//!
//! Runs the requested schemes on an rmat-er graph on the simulator and
//! prints, per repeat: host wall-clock, modeled time, colors,
//! iterations, and a digest of every modeled hardware counter. The digest
//! is the equivalence check: any change to the timing model's arithmetic
//! shows up as a different digest on the same workload.
//!
//! ```text
//! cargo run --release -p gcol-bench --bin hotpath -- --scale 14 --repeat 3
//! ```
//!
//! `--backend native` runs the same schemes on the rayon backend instead
//! (no modeled time or counters — the digest is all zeros), which gives
//! the simulated-vs-native wall-clock A/B comparison.

use gcol_core::{BackendKind, ColorOptions, Scheme};
use gcol_graph::gen::{self, RmatParams};
use gcol_simt::{Device, Phase};

fn die(msg: &str) -> ! {
    eprintln!("hotpath: {msg}");
    std::process::exit(2);
}

/// Sums every integer counter of every kernel launch into one line a
/// human can diff; floats are excluded so the digest is exact.
fn digest(profile: &gcol_simt::RunProfile) -> String {
    let (mut cycles, mut instr, mut txn, mut dram) = (0u64, 0u64, 0u64, 0u64);
    let (mut ro_h, mut ro_m, mut l2_h, mut l2_m) = (0u64, 0u64, 0u64, 0u64);
    let (mut atomics, mut serial, mut kernels) = (0u64, 0u64, 0u64);
    for p in &profile.phases {
        if let Phase::Kernel(k) = p {
            kernels += 1;
            cycles += k.cycles;
            instr += k.instructions;
            txn += k.mem_transactions;
            dram += k.dram_bytes;
            ro_h += k.ro_hits;
            ro_m += k.ro_misses;
            l2_h += k.l2_hits;
            l2_m += k.l2_misses;
            atomics += k.atomics;
            serial += k.atomic_serial_cycles;
        }
    }
    format!(
        "kernels={kernels} cycles={cycles} instr={instr} txn={txn} dram={dram} \
         ro={ro_h}/{ro_m} l2={l2_h}/{l2_m} atomics={atomics} serial={serial}"
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 14u32;
    let mut repeat = 3usize;
    let mut schemes = vec![Scheme::TopoBase, Scheme::DataBase];
    let mut backend = BackendKind::Simt;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs an integer"));
                i += 2;
            }
            "--repeat" => {
                repeat = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--repeat needs an integer"));
                i += 2;
            }
            "--schemes" => {
                let list = args
                    .get(i + 1)
                    .unwrap_or_else(|| die("--schemes needs a comma-separated list"));
                schemes = list
                    .split(',')
                    .map(|s| {
                        Scheme::from_name(s)
                            .unwrap_or_else(|| die(&format!("unknown scheme {s:?}")))
                    })
                    .collect();
                i += 2;
            }
            "--backend" => {
                backend = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--backend needs 'simt' or 'native'"));
                i += 2;
            }
            other => die(&format!("unknown option {other:?}")),
        }
    }

    let t0 = std::time::Instant::now();
    let g = gen::rmat(RmatParams::erdos_renyi(scale, 20), 0xE5);
    eprintln!(
        "graph: rmat-er scale {scale} ({} vertices, {} edges) built in {:.1}s",
        g.num_vertices(),
        g.num_edges(),
        t0.elapsed().as_secs_f64()
    );

    let dev = Device::k20c();
    let opts = ColorOptions::default().with_backend(backend);
    eprintln!("backend: {backend}");
    for scheme in &schemes {
        for rep in 0..repeat {
            let t = std::time::Instant::now();
            let c = match scheme.try_color(&g, &dev, &opts) {
                Ok(c) => c,
                Err(e) => die(&format!("{e}")),
            };
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            println!(
                "{name} rep={rep} wall_ms={wall_ms:.1} modeled_ms={modeled:.3} \
                 colors={colors} iters={iters}\n  {digest}",
                name = scheme.name(),
                modeled = c.total_ms(),
                colors = c.num_colors,
                iters = c.iterations,
                digest = digest(&c.profile),
            );
        }
    }
}
