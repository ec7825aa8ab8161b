//! csrcolor hash-count sweep (beyond the paper's figures, grounded in its
//! §II-C): "assume N hash values are associated with each vertex … this
//! multi-hash method can generate 2N (maximal) independent sets at once".
//! More hashes ⇒ fewer sweeps but more per-edge hash work and *more
//! colors* (every independent set burns one). The sweep quantifies that
//! three-way trade.

use super::ExpConfig;
use crate::report::{f, maybe_write_json, Table};
use crate::suite::build_graph;
use gcol_core::{ColorOptions, Scheme};
use gcol_simt::Device;
use serde::Serialize;

/// Hash counts to sweep.
pub const HASH_COUNTS: [usize; 5] = [1, 2, 3, 4, 6];

#[derive(Serialize)]
struct Row {
    graph: String,
    num_hashes: usize,
    colors: usize,
    sweeps: usize,
    ms: f64,
}

/// Runs the sweep on the two R-MAT graphs (where csrcolor's behavior
/// differs most).
pub fn run(cfg: &ExpConfig) -> String {
    let dev = Device::k20c();
    let mut table = Table::new(vec!["graph", "N", "colors", "sweeps", "modeled ms"]);
    let mut rows = Vec::new();
    let workload: Vec<(String, _)> = match cfg.graph_override() {
        Some(e) => vec![(e.name, e.graph)],
        None => ["rmat-er", "rmat-g", "thermal2"]
            .into_iter()
            .map(|n| (n.to_string(), build_graph(n, cfg.scale)))
            .collect(),
    };
    for (name, g) in workload {
        let name = name.as_str();
        for &n in &HASH_COUNTS {
            let opts = ColorOptions {
                num_hashes: n,
                block_size: cfg.block_size,
                ..ColorOptions::default()
            };
            let r = Scheme::CsrColor.color(&g, &dev, &opts);
            gcol_core::verify_coloring(&g, &r.colors).unwrap();
            table.row(vec![
                name.to_string(),
                n.to_string(),
                r.num_colors.to_string(),
                r.iterations.to_string(),
                f(r.total_ms(), 3),
            ]);
            rows.push(Row {
                graph: name.to_string(),
                num_hashes: n,
                colors: r.num_colors,
                sweeps: r.iterations,
                ms: r.total_ms(),
            });
        }
    }
    maybe_write_json(cfg.json.as_deref(), &rows).expect("json write");
    format!(
        "csrcolor multi-hash sweep — 2N independent sets per sweep\n\
         (§II-C). Expected: sweeps fall as N grows; colors and per-sweep\n\
         hash work rise.\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shows_the_trade() {
        let cfg = ExpConfig {
            scale: 11,
            ..ExpConfig::default()
        };
        let out = run(&cfg);
        assert!(out.contains("sweeps"));
    }
}
