//! Locality-preprocessing ablation: the paper stores graphs "in the order
//! they are defined and do\[es\] not perform any preprocessing in order to
//! improve locality or load balance" (§III-C). This experiment measures
//! what a reverse Cuthill–McKee relabeling — the standard
//! bandwidth-reducing preprocessing — would have bought: CSR bandwidth
//! shrinks, neighbor color loads start hitting the caches, and the
//! latency-bound kernels speed up accordingly.

use super::ExpConfig;
use crate::report::{maybe_write_json, speedup, Table};

use gcol_core::Scheme;
use gcol_graph::relabel::{bandwidth, rcm_permutation, relabel};
use gcol_simt::Device;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    graph: String,
    bandwidth_before: usize,
    bandwidth_after: usize,
    d_ldg_natural_ms: f64,
    d_ldg_rcm_ms: f64,
    rcm_gain: f64,
    rounds_natural: usize,
    rounds_rcm: usize,
    colors_natural: usize,
    colors_rcm: usize,
}

/// Runs the RCM relabeling ablation with D-ldg.
pub fn run(cfg: &ExpConfig) -> String {
    let dev = Device::k20c();
    let opts = cfg.color_options();
    let suite = cfg.suite();
    let mut table = Table::new(vec![
        "graph",
        "bandwidth before",
        "after RCM",
        "D-ldg gain",
        "rounds (nat/rcm)",
        "colors (nat/rcm)",
    ]);
    let mut rows = Vec::new();
    for e in &suite {
        let natural = Scheme::DataLdg.color(&e.graph, &dev, &opts);
        let perm = rcm_permutation(&e.graph);
        let relabeled = relabel(&e.graph, &perm);
        let rcm = Scheme::DataLdg.color(&relabeled, &dev, &opts);
        gcol_core::verify_coloring(&relabeled, &rcm.colors).unwrap();
        let gain = natural.total_ms() / rcm.total_ms();
        let (bw_before, bw_after) = (bandwidth(&e.graph), bandwidth(&relabeled));
        table.row(vec![
            e.name.to_string(),
            bw_before.to_string(),
            bw_after.to_string(),
            speedup(gain),
            format!("{}/{}", natural.iterations, rcm.iterations),
            format!("{}/{}", natural.num_colors, rcm.num_colors),
        ]);
        rows.push(Row {
            graph: e.name.to_string(),
            bandwidth_before: bw_before,
            bandwidth_after: bw_after,
            d_ldg_natural_ms: natural.total_ms(),
            d_ldg_rcm_ms: rcm.total_ms(),
            rcm_gain: gain,
            rounds_natural: natural.iterations,
            rounds_rcm: rcm.iterations,
            colors_natural: natural.num_colors,
            colors_rcm: rcm.num_colors,
        });
    }
    maybe_write_json(cfg.json.as_deref(), &rows).expect("json write");
    format!(
        "RCM relabeling ablation — the locality preprocessing §III-C\n\
         declines. Two mechanisms are at play: (a) bandwidth reduction\n\
         improves cache locality of the neighbor color loads, and (b) the\n\
         BFS reordering moves graph-adjacent vertices out of (or into)\n\
         shared warps, changing the speculative conflict rate and hence\n\
         the round count — compare the rounds column. Ordering also\n\
         shifts the first-fit color count slightly, as §IV notes for the\n\
         scheme variants themselves.\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabel_experiment_runs() {
        let cfg = ExpConfig {
            scale: 10,
            ..ExpConfig::default()
        };
        let out = run(&cfg);
        assert!(out.contains("bandwidth before"));
    }
}
