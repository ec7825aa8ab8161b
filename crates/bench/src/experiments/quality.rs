//! Coloring-quality league table (beyond the paper's Fig. 6): every scheme
//! in the library — the paper's seven plus the extension algorithms from
//! its related-work section — ranked by colors used, with the degeneracy+1
//! lower-bound-ish reference (greedy in smallest-degree-last order attains
//! it) alongside.

use super::ExpConfig;
use crate::report::{maybe_write_json, Table};

use gcol_core::Scheme;
use gcol_graph::ordering::{degeneracy, Ordering};
use gcol_simt::Device;
use serde::Serialize;

/// All schemes in quality order of interest.
pub fn quality_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Sequential,
        Scheme::CpuGm,
        Scheme::CpuRokos,
        Scheme::DataLdg,
        Scheme::TopoLdg,
        Scheme::ThreeStepGm,
        Scheme::CpuJpLlf,
        Scheme::CpuJpSl,
        Scheme::CpuJp,
        Scheme::CsrColor,
    ]
}

#[derive(Serialize)]
struct Row {
    graph: String,
    degeneracy_plus_one: usize,
    sdl_greedy: usize,
    colors: Vec<(String, usize)>,
}

/// Runs the quality league table.
pub fn run(cfg: &ExpConfig) -> String {
    let dev = Device::k20c();
    let opts = cfg.color_options();
    let suite = cfg.suite();
    let schemes = quality_schemes();
    let mut header: Vec<String> = vec!["graph".into(), "degen+1".into(), "SDL".into()];
    header.extend(schemes.iter().map(|s| s.name().to_string()));
    let mut table = Table::new(header);
    let mut rows = Vec::new();
    for e in &suite {
        let degen = degeneracy(&e.graph) + 1;
        let sdl = gcol_core::seq::greedy_seq(&e.graph, Ordering::SmallestDegreeLast).num_colors;
        let mut cells = vec![e.name.to_string(), degen.to_string(), sdl.to_string()];
        let mut colors = Vec::new();
        for &scheme in &schemes {
            let r = scheme.color(&e.graph, &dev, &opts);
            gcol_core::verify_coloring(&e.graph, &r.colors).unwrap();
            cells.push(r.num_colors.to_string());
            colors.push((scheme.name().to_string(), r.num_colors));
        }
        table.row(cells);
        rows.push(Row {
            graph: e.name.to_string(),
            degeneracy_plus_one: degen,
            sdl_greedy: sdl,
            colors,
        });
    }
    maybe_write_json(cfg.json.as_deref(), &rows).expect("json write");
    format!(
        "Quality league table — colors used by every scheme (lower is\n\
         better; `degen+1` is the degeneracy bound that SDL-ordered greedy\n\
         attains). Expected ordering: greedy family ≤ ordered-JP family\n\
         < plain JP < csrcolor.\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn league_table_orders_families_correctly() {
        let cfg = ExpConfig {
            scale: 11,
            ..ExpConfig::default()
        };
        let out = run(&cfg);
        assert!(out.contains("degen+1"));
        assert!(out.contains("cpu-JP-SL"));
    }
}
