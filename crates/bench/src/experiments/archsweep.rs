//! Architecture sensitivity study (beyond the paper's figures, grounded in
//! its §III-C): the paper's `__ldg` optimization exists *because* Kepler
//! stopped caching plain global loads in L1. On a Fermi-class device,
//! where plain loads go through L1 anyway, the ldg variant should buy
//! nothing — this experiment runs the proposed schemes on both simulated
//! generations and shows exactly that.

use super::ExpConfig;
use crate::report::{maybe_write_json, speedup, Table};

use gcol_core::Scheme;
use gcol_simt::Device;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    graph: String,
    kepler_ldg_gain_topo: f64,
    fermi_ldg_gain_topo: f64,
    kepler_ldg_gain_data: f64,
    fermi_ldg_gain_data: f64,
    kepler_d_ms: f64,
    fermi_d_ms: f64,
}

/// Runs the Kepler-vs-Fermi sweep.
pub fn run(cfg: &ExpConfig) -> String {
    let kepler = Device::k20c();
    let fermi = Device::fermi_like();
    let opts = cfg.color_options();
    let suite = cfg.suite();
    let mut table = Table::new(vec![
        "graph",
        "ldg gain T (Kepler)",
        "ldg gain T (Fermi)",
        "ldg gain D (Kepler)",
        "ldg gain D (Fermi)",
        "Fermi/Kepler D-ldg",
    ]);
    let mut rows = Vec::new();
    for e in &suite {
        let ms =
            |scheme: Scheme, dev: &Device| -> f64 { scheme.color(&e.graph, dev, &opts).total_ms() };
        let k_t = ms(Scheme::TopoBase, &kepler) / ms(Scheme::TopoLdg, &kepler);
        let f_t = ms(Scheme::TopoBase, &fermi) / ms(Scheme::TopoLdg, &fermi);
        let k_d = ms(Scheme::DataBase, &kepler) / ms(Scheme::DataLdg, &kepler);
        let f_d = ms(Scheme::DataBase, &fermi) / ms(Scheme::DataLdg, &fermi);
        let k_dms = ms(Scheme::DataLdg, &kepler);
        let f_dms = ms(Scheme::DataLdg, &fermi);
        table.row(vec![
            e.name.to_string(),
            speedup(k_t),
            speedup(f_t),
            speedup(k_d),
            speedup(f_d),
            speedup(f_dms / k_dms),
        ]);
        rows.push(Row {
            graph: e.name.to_string(),
            kepler_ldg_gain_topo: k_t,
            fermi_ldg_gain_topo: f_t,
            kepler_ldg_gain_data: k_d,
            fermi_ldg_gain_data: f_d,
            kepler_d_ms: k_dms,
            fermi_d_ms: f_dms,
        });
    }
    maybe_write_json(cfg.json.as_deref(), &rows).expect("json write");
    format!(
        "Architecture sweep — why __ldg is a *Kepler* optimization\n\
         (§III-C): on Fermi, plain loads already ride the L1, so the ldg\n\
         gain should collapse toward 1.00x there, and the slower memory\n\
         system makes everything take longer.\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ldg_gain_collapses_on_fermi() {
        let cfg = ExpConfig {
            scale: 11,
            ..ExpConfig::default()
        };
        let out = run(&cfg);
        assert!(out.contains("Fermi"), "{out}");
    }
}
