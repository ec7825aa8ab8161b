//! Robustness / variance study. The paper runs every benchmark 10 times
//! and averages "to avoid system noise"; our simulator has
//! no timing noise, but two other variance sources remain and deserve the
//! same treatment:
//!
//! 1. **Generator seeds** — the suite graphs are random instances; do the
//!    headline ratios survive resampling the graphs themselves?
//! 2. **Hash seeds** — csrcolor's and JP's priorities are seeded; how much
//!    do their color counts wobble?

use super::{geomean, ExpConfig};
use crate::report::{f, maybe_write_json, Table};
use crate::suite::build_graph;
use gcol_core::{ColorOptions, Scheme};
use gcol_graph::gen::{self, RmatParams};
use gcol_simt::Device;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    what: String,
    values: Vec<f64>,
    min: f64,
    max: f64,
    spread_pct: f64,
}

fn spread(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(0.0f64, f64::max);
    (min, max, (max / min - 1.0) * 100.0)
}

/// Runs the variance study.
pub fn run(cfg: &ExpConfig) -> String {
    let dev = Device::k20c();
    let opts = cfg.color_options();
    let mut table = Table::new(vec!["quantity", "samples", "min", "max", "spread %"]);
    let mut rows = Vec::new();
    let mut push = |what: &str, values: Vec<f64>, digits: usize| {
        let (min, max, pct) = spread(&values);
        table.row(vec![
            what.to_string(),
            values
                .iter()
                .map(|v| f(*v, digits))
                .collect::<Vec<_>>()
                .join(" "),
            f(min, digits),
            f(max, digits),
            f(pct, 1),
        ]);
        rows.push(Row {
            what: what.to_string(),
            values,
            min,
            max,
            spread_pct: pct,
        });
    };

    // 1. Resample the rmat-er instance with three generator seeds and
    //    track the D-ldg speedup and the csrcolor color-inflation ratio.
    let mut d_speedups = Vec::new();
    let mut inflations = Vec::new();
    for seed in [0xE5u64, 0x1234, 0xFEED] {
        let g = gen::rmat(RmatParams::erdos_renyi(cfg.scale.min(15), 20), seed);
        let seq = Scheme::Sequential.color(&g, &dev, &opts);
        let d = Scheme::DataLdg.color(&g, &dev, &opts);
        let c = Scheme::CsrColor.color(&g, &dev, &opts);
        d_speedups.push(seq.total_ms() / d.total_ms());
        inflations.push(c.num_colors as f64 / seq.num_colors as f64);
    }
    push("rmat-er resample: D-ldg speedup", d_speedups, 2);
    push("rmat-er resample: csr/seq colors", inflations, 2);

    // 2. Hash-seed wobble of csrcolor and JP color counts on a fixed graph
    //    (the `--graph` file when one was given).
    let g = match cfg.graph_override() {
        Some(e) => e.graph,
        None => build_graph("thermal2", cfg.scale.min(15)),
    };
    let mut csr_colors = Vec::new();
    let mut jp_colors = Vec::new();
    for seed in [1u64, 2, 3, 4, 5] {
        let o = ColorOptions {
            seed,
            ..opts.clone()
        };
        csr_colors.push(Scheme::CsrColor.color(&g, &dev, &o).num_colors as f64);
        jp_colors.push(Scheme::CpuJp.color(&g, &dev, &o).num_colors as f64);
    }
    push("thermal2: csrcolor colors over 5 seeds", csr_colors, 0);
    push("thermal2: plain-JP colors over 5 seeds", jp_colors, 0);

    // 3. Determinism control: the same configuration twice must agree
    //    exactly (spread 0).
    let a = Scheme::DataLdg.color(&g, &dev, &opts).total_ms();
    let b = Scheme::DataLdg.color(&g, &dev, &opts).total_ms();
    push("thermal2: D-ldg modeled ms, repeated run", vec![a, b], 4);

    let _ = geomean([1.0]); // keep the shared helper exercised in docs
    maybe_write_json(cfg.json.as_deref(), &rows).expect("json write");
    format!(
        "Variance study — the reproduction's analogue of the paper's\n\
         10-run averaging. Generator resampling and hash seeds wobble the\n\
         numbers a few percent; the repeated-run control must show 0%\n\
         (the simulator is deterministic).\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_control_shows_zero_spread() {
        let cfg = ExpConfig {
            scale: 10,
            ..ExpConfig::default()
        };
        let out = run(&cfg);
        let control_line = out
            .lines()
            .find(|l| l.contains("repeated run"))
            .expect("control row present");
        assert!(
            control_line.trim_end().ends_with("0.0"),
            "determinism control must show zero spread: {control_line}"
        );
    }
}
