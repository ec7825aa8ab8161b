//! Fig. 3: why coloring kernels are memory-latency bound.
//! (a) achieved compute throughput and memory bandwidth, both expected
//! below ~60% of peak; (b) the stall-reason breakdown, expected to be
//! dominated by memory dependency.

use super::ExpConfig;
use crate::report::{f, maybe_write_json, Table};

use gcol_core::Scheme;
use gcol_simt::Device;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    graph: String,
    compute_pct: f64,
    bandwidth_pct: f64,
    stall_memory_pct: f64,
    stall_exec_pct: f64,
    stall_sync_pct: f64,
    stall_fetch_pct: f64,
    stall_other_pct: f64,
}

/// Runs the Fig. 3 experiment: profiles the T-base kernels over the suite.
pub fn run(cfg: &ExpConfig) -> String {
    let dev = Device::k20c();
    let opts = cfg.color_options();
    let suite = cfg.suite();
    let mut table = Table::new(vec![
        "graph",
        "compute %",
        "bandwidth %",
        "| mem dep %",
        "exec dep %",
        "sync %",
        "fetch %",
        "other %",
    ]);
    let mut rows = Vec::new();
    for e in &suite {
        let r = Scheme::TopoBase.color(&e.graph, &dev, &opts);
        let (bw, ipc, stalls) = r
            .profile
            .aggregate_kernel_metrics()
            .expect("topology-driven run always launches kernels");
        table.row(vec![
            e.name.to_string(),
            f(ipc * 100.0, 1),
            f(bw * 100.0, 1),
            f(stalls.memory_dependency * 100.0, 1),
            f(stalls.execution_dependency * 100.0, 1),
            f(stalls.synchronization * 100.0, 1),
            f(stalls.instruction_fetch * 100.0, 1),
            f(stalls.other * 100.0, 1),
        ]);
        rows.push(Row {
            graph: e.name.to_string(),
            compute_pct: ipc * 100.0,
            bandwidth_pct: bw * 100.0,
            stall_memory_pct: stalls.memory_dependency * 100.0,
            stall_exec_pct: stalls.execution_dependency * 100.0,
            stall_sync_pct: stalls.synchronization * 100.0,
            stall_fetch_pct: stalls.instruction_fetch * 100.0,
            stall_other_pct: stalls.other * 100.0,
        });
    }
    maybe_write_json(cfg.json.as_deref(), &rows).expect("json write");
    format!(
        "Fig. 3 — kernel characterization (T-base, time-weighted over all\n\
         launches). Expected shape: (a) compute and bandwidth both below\n\
         ~60% of peak (latency bound); (b) memory dependency dominates the\n\
         stall breakdown.\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_look_latency_bound_at_small_scale() {
        let cfg = ExpConfig {
            scale: 11,
            ..ExpConfig::default()
        };
        let out = run(&cfg);
        assert!(out.contains("rmat-er"));
        assert!(out.contains("mem dep"));
    }
}
