//! Ablation studies for the design choices §III motivates:
//!
//! 1. **Atomic operation reduction** (Fig. 5): prefix-sum worklist
//!    compaction (D-base) vs per-thread atomic pushes (D-atomic).
//! 2. **Read-only data caching** (Fig. 4): ld vs ldg for both task
//!    mappings.
//! 3. **Task mapping**: topology-driven vs data-driven, isolating the
//!    work-efficiency argument — plus the edge-parallel detection variant
//!    (the §IV future-work item) against vertex-parallel detection.
//! 4. **Color balancing** (ref. \[19\]): post-process effect on class-size
//!    skew, at zero cost to the color count.

use super::{geomean, ExpConfig};
use crate::report::{f, maybe_write_json, Table};

use gcol_core::balance::balance_colors;
use gcol_core::Scheme;
use gcol_simt::Device;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    graph: String,
    d_base_ms: f64,
    d_atomic_ms: f64,
    atomic_penalty: f64,
    t_base_ms: f64,
    mapping_gain: f64,
    ldg_gain_topo: f64,
    ldg_gain_data: f64,
    edge_detect_gain: f64,
    balance_stddev_before: f64,
    balance_stddev_after: f64,
}

/// Runs all four ablations over the suite.
pub fn run(cfg: &ExpConfig) -> String {
    let dev = Device::k20c();
    let opts = cfg.color_options();
    let suite = cfg.suite();
    let mut table = Table::new(vec![
        "graph",
        "atomic/prefix",
        "topo/data",
        "ldg gain (T)",
        "ldg gain (D)",
        "edge/vertex detect",
        "balance σ before→after",
    ]);
    let mut rows = Vec::new();
    let mut penalties = Vec::new();
    for e in &suite {
        let d_base = Scheme::DataBase.color(&e.graph, &dev, &opts);
        let d_atomic = Scheme::DataAtomic.color(&e.graph, &dev, &opts);
        let d_ldg = Scheme::DataLdg.color(&e.graph, &dev, &opts);
        let t_base = Scheme::TopoBase.color(&e.graph, &dev, &opts);
        let t_ldg = Scheme::TopoLdg.color(&e.graph, &dev, &opts);
        let t_edge = Scheme::TopoEdge.color(&e.graph, &dev, &opts);
        let atomic_penalty = d_atomic.total_ms() / d_base.total_ms();
        let mapping_gain = t_base.total_ms() / d_base.total_ms();
        let ldg_t = t_base.total_ms() / t_ldg.total_ms();
        let ldg_d = d_base.total_ms() / d_ldg.total_ms();
        let edge_gain = t_edge.total_ms() / t_ldg.total_ms();
        // Balance the D-base coloring.
        let mut colors = d_base.colors.clone();
        let outcome = balance_colors(&e.graph, &mut colors, d_base.num_colors, 4);
        gcol_core::verify_coloring(&e.graph, &colors).expect("balance broke it");
        penalties.push(atomic_penalty);
        table.row(vec![
            e.name.to_string(),
            format!("{atomic_penalty:.2}x"),
            format!("{mapping_gain:.2}x"),
            format!("{ldg_t:.2}x"),
            format!("{ldg_d:.2}x"),
            format!("{edge_gain:.2}x"),
            format!(
                "{} → {}",
                f(outcome.stddev_before, 0),
                f(outcome.stddev_after, 0)
            ),
        ]);
        rows.push(Row {
            graph: e.name.to_string(),
            d_base_ms: d_base.total_ms(),
            d_atomic_ms: d_atomic.total_ms(),
            atomic_penalty,
            t_base_ms: t_base.total_ms(),
            mapping_gain,
            ldg_gain_topo: ldg_t,
            ldg_gain_data: ldg_d,
            edge_detect_gain: edge_gain,
            balance_stddev_before: outcome.stddev_before,
            balance_stddev_after: outcome.stddev_after,
        });
    }
    maybe_write_json(cfg.json.as_deref(), &rows).expect("json write");
    format!(
        "Ablations of the paper's design choices (all ratios > 1 mean the\n\
         paper's choice wins).\n\
         atomic/prefix: per-thread-atomic worklists vs prefix-sum (§III-C);\n\
         topo/data: task-mapping work-efficiency; ldg gain: Fig. 4's\n\
         read-only cache; edge-detect: edge-parallel detection (the §IV\n\
         future-work item) vs vertex-parallel; balance: Gjertsen-style\n\
         class rebalancing.\n\n{}\n\
         geomean atomic-push penalty: {:.2}x\n",
        table.render(),
        geomean(penalties)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_at_small_scale() {
        let cfg = ExpConfig {
            scale: 10,
            ..ExpConfig::default()
        };
        let out = run(&cfg);
        assert!(out.contains("atomic/prefix"));
        assert!(out.contains("geomean atomic-push penalty"));
    }
}
