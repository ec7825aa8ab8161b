//! Fig. 8: performance as a function of thread-block size
//! {32, 64, 128, 256, 512}. Expected shape: 32 threads starves the SMs of
//! warps (poor latency hiding); the peak sits at 128/256; beyond 256
//! resource pressure ("oversaturation") costs occupancy. The paper picks
//! 128 as the default.

use super::{geomean, ExpConfig};
use crate::report::{maybe_write_json, speedup, Table};

use gcol_core::{ColorOptions, Scheme};
use gcol_simt::Device;
use serde::Serialize;

/// Block sizes the paper sweeps.
pub const BLOCK_SIZES: [u32; 5] = [32, 64, 128, 256, 512];

#[derive(Serialize)]
struct Row {
    graph: String,
    block: u32,
    ms: f64,
    speedup: f64,
    occupancy_pct: f64,
}

/// Runs the Fig. 8 experiment: sweeps the block size for the D-ldg scheme.
pub fn run(cfg: &ExpConfig) -> String {
    let dev = Device::k20c();
    let suite = cfg.suite();
    let mut header: Vec<String> = vec!["graph".into()];
    header.extend(BLOCK_SIZES.iter().map(|b| format!("{b}t")));
    let mut table = Table::new(header);
    let mut rows = Vec::new();
    let mut per_block: Vec<Vec<f64>> = vec![Vec::new(); BLOCK_SIZES.len()];
    for e in &suite {
        let seq_ms = Scheme::Sequential
            .color(&e.graph, &dev, &cfg.color_options())
            .total_ms();
        let mut cells = vec![e.name.to_string()];
        for (bi, &block) in BLOCK_SIZES.iter().enumerate() {
            let opts = ColorOptions {
                block_size: block,
                ..ColorOptions::default()
            };
            let r = Scheme::DataLdg.color(&e.graph, &dev, &opts);
            gcol_core::verify_coloring(&e.graph, &r.colors).unwrap();
            let sp = seq_ms / r.total_ms();
            cells.push(speedup(sp));
            per_block[bi].push(sp);
            let occ = r
                .profile
                .phases
                .iter()
                .filter_map(|p| match p {
                    gcol_simt::Phase::Kernel(k) => Some(k.occupancy.fraction),
                    _ => None,
                })
                .fold(0.0f64, f64::max);
            rows.push(Row {
                graph: e.name.to_string(),
                block,
                ms: r.total_ms(),
                speedup: sp,
                occupancy_pct: occ * 100.0,
            });
        }
        table.row(cells);
    }
    let mut mean = vec!["geomean".to_string()];
    mean.extend(
        per_block
            .iter()
            .map(|v| speedup(geomean(v.iter().copied()))),
    );
    table.row(mean);
    maybe_write_json(cfg.json.as_deref(), &rows).expect("json write");
    format!(
        "Fig. 8 — D-ldg speedup vs thread-block size.\n\
         Expected shape: poor at 32 (few resident warps), peak at 128/256,\n\
         degraded at 512 (register-pressure occupancy loss).\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_at_tiny_scale() {
        let cfg = ExpConfig {
            scale: 10,
            ..ExpConfig::default()
        };
        let out = run(&cfg);
        for b in BLOCK_SIZES {
            assert!(out.contains(&format!("{b}t")), "missing column {b}");
        }
    }
}
