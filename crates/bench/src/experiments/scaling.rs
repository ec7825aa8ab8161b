//! Scale-sensitivity study: how the headline speedups move with graph
//! size. The paper fixed one size (scale 20); this reproduction usually
//! runs smaller, so the trend matters for interpreting EXPERIMENTS.md —
//! GPU speedups grow with scale (more parallelism to hide latency with,
//! better amortized launch overhead) while the quality picture is flat.

use super::{geomean, ExpConfig};
use crate::report::{maybe_write_json, speedup, Table};
use crate::suite::build_suite;
use gcol_core::Scheme;
use gcol_simt::Device;
use serde::Serialize;

/// Scales to sweep (log2-equivalent suite sizes).
pub const SCALES: [u32; 4] = [12, 13, 14, 15];

#[derive(Serialize)]
struct Row {
    scale: u32,
    d_ldg_speedup: f64,
    csrcolor_speedup: f64,
    d_over_csr: f64,
    csr_color_ratio: f64,
}

/// Runs the sweep; per scale: suite geomean speedups of D-ldg and
/// csrcolor, their ratio, and csrcolor's color inflation.
pub fn run(cfg: &ExpConfig) -> String {
    let dev = Device::k20c();
    let opts = cfg.color_options();
    let mut table = Table::new(vec![
        "scale",
        "D-ldg",
        "csrcolor",
        "D/csr",
        "csr colors / seq colors",
    ]);
    let mut rows = Vec::new();
    for scale in SCALES {
        let suite = build_suite(scale);
        let mut d_sp = Vec::new();
        let mut c_sp = Vec::new();
        let mut inflation = Vec::new();
        for e in &suite {
            let seq = Scheme::Sequential.color(&e.graph, &dev, &opts);
            let d = Scheme::DataLdg.color(&e.graph, &dev, &opts);
            let c = Scheme::CsrColor.color(&e.graph, &dev, &opts);
            gcol_core::verify_coloring(&e.graph, &d.colors).unwrap();
            gcol_core::verify_coloring(&e.graph, &c.colors).unwrap();
            d_sp.push(seq.total_ms() / d.total_ms());
            c_sp.push(seq.total_ms() / c.total_ms());
            inflation.push(c.num_colors as f64 / seq.num_colors.max(1) as f64);
        }
        let d = geomean(d_sp);
        let c = geomean(c_sp);
        let infl = geomean(inflation);
        table.row(vec![
            scale.to_string(),
            speedup(d),
            speedup(c),
            speedup(d / c),
            format!("{infl:.1}x"),
        ]);
        rows.push(Row {
            scale,
            d_ldg_speedup: d,
            csrcolor_speedup: c,
            d_over_csr: d / c,
            csr_color_ratio: infl,
        });
    }
    maybe_write_json(cfg.json.as_deref(), &rows).expect("json write");
    format!(
        "Scale sweep — suite geomeans per size (paper scale = 20).\n\
         Expected trend: absolute speedups grow with scale; the D/csrcolor\n\
         ratio and the color-inflation ratio stay in the paper's band.\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_report_renders_at_tiny_scales() {
        // Uses its own internal scale list; just confirm it runs end to
        // end at the small end (first entries dominate the runtime).
        let cfg = ExpConfig {
            ..ExpConfig::default()
        };
        let out = run(&cfg);
        assert!(out.contains("D/csr"));
        for s in SCALES {
            assert!(out.contains(&s.to_string()));
        }
    }
}
