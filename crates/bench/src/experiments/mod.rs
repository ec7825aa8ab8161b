//! One module per table/figure of the paper's evaluation (§IV), plus a
//! CPU-model calibration check. Each experiment renders a text report with
//! paper-expected values alongside the measured ones, and can dump JSON.

pub mod ablation;
pub mod archsweep;
pub mod calibrate;
pub mod convergence;
pub mod fig1;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod hashsweep;
pub mod incremental;
pub mod loadgen;
pub mod planner;
pub mod planner_calibrate;
pub mod profile;
pub mod quality;
pub mod relabel;
pub mod sanitize;
pub mod scaling;
pub mod shardscale;
pub mod table1;
pub mod variance;

use crate::suite::{build_suite, SuiteEntry};
use gcol_core::{BackendKind, ColorOptions, ExchangeKind, Scheme, SchemeChoice};
use gcol_plan::Slo;
use gcol_simt::Device;
use serde::Serialize;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// log2-equivalent suite scale; the paper's runs correspond to 20.
    pub scale: u32,
    /// Thread block size for GPU schemes (paper default 128).
    pub block_size: u32,
    /// Execution backend: the timing simulator (default) or native rayon.
    pub backend: BackendKind,
    /// Device count for the GPU schemes (1 = the single-device driver;
    /// more shards the graph across modeled devices).
    pub shards: usize,
    /// Ghost-frontier wire encoding for sharded runs. `None` means "not
    /// pinned": experiments that A/B the encodings (shardscale) sweep
    /// both; everything else uses the library default.
    pub exchange: Option<ExchangeKind>,
    /// Run the experiment's CI invariant checks instead of (or on top of)
    /// the full report. Only shardscale honors this today.
    pub smoke: bool,
    /// Path to a real graph file (`--graph`). When set, experiments run
    /// on this graph instead of the generated Table I suite: suite-wide
    /// experiments shrink to a one-entry suite, workload experiments
    /// (shardscale, incremental, profile, hashsweep, variance) swap
    /// their generated graph for the file.
    pub graph: Option<String>,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional path for the `sanitize` experiment's structured findings
    /// report (`--sanitize-json`): the full [`gcol_simt::SanitizerReport`]
    /// per (scheme, graph, shards) run, for diffing against the
    /// checked-in expected-findings baseline.
    pub sanitize_json: Option<String>,
    /// Scheme selection (`--scheme`): a fixed scheme, or `auto` to let
    /// the planner pick per graph. `None` keeps each experiment's own
    /// default set. Only `profile` honors this today.
    pub scheme: Option<SchemeChoice>,
    /// Planner objective (`--slo`) used wherever `--scheme auto` (or the
    /// planner experiment) resolves a plan. `None` means the planner
    /// default for `profile`, and "report every SLO" for `planner`.
    pub slo: Option<Slo>,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            scale: 15,
            block_size: 128,
            backend: BackendKind::Simt,
            shards: 1,
            exchange: None,
            smoke: false,
            graph: None,
            json: None,
            sanitize_json: None,
            scheme: None,
            slo: None,
        }
    }
}

impl ExpConfig {
    /// The graphs an experiment iterates: the `--graph` file as a
    /// one-entry suite when set, the six Table I graphs otherwise.
    ///
    /// Panics with the typed ingest error's message if the file fails to
    /// load — the CLI validates the path up front, so reaching the panic
    /// means an embedding skipped that check.
    pub fn suite(&self) -> Vec<SuiteEntry> {
        match self.graph_override() {
            Some(entry) => vec![entry],
            None => build_suite(self.scale),
        }
    }

    /// The `--graph` file as a single suite entry, if one was given.
    /// Same panic contract as [`ExpConfig::suite`].
    pub fn graph_override(&self) -> Option<SuiteEntry> {
        self.graph.as_deref().map(|path| {
            crate::suite::load_entry(path).unwrap_or_else(|e| panic!("--graph {path}: {e}"))
        })
    }

    /// Coloring options derived from this configuration.
    pub fn color_options(&self) -> ColorOptions {
        ColorOptions {
            block_size: self.block_size,
            backend: self.backend,
            num_shards: self.shards,
            exchange: self.exchange.unwrap_or_default(),
            ..ColorOptions::default()
        }
    }
}

/// Result of one scheme on one graph.
#[derive(Debug, Clone, Serialize)]
pub struct SchemeRun {
    /// Which scheme.
    pub scheme: Scheme,
    /// Colors used.
    pub num_colors: usize,
    /// Rounds/sweeps executed.
    pub iterations: usize,
    /// Modeled milliseconds.
    pub ms: f64,
    /// Speedup over the sequential baseline of the same graph.
    pub speedup: f64,
}

/// All schemes on one graph.
#[derive(Debug, Clone, Serialize)]
pub struct GraphResults {
    /// Graph name (Table I).
    pub graph: String,
    /// Sequential baseline time in ms.
    pub seq_ms: f64,
    /// Per-scheme outcomes, in `Scheme::paper_seven()` order.
    pub runs: Vec<SchemeRun>,
}

/// Runs the paper's seven schemes over the whole suite. This is the
/// workhorse shared by Figs. 1, 6 and 7 (and reused by `all` so the suite
/// is colored once, not three times).
pub fn run_suite_all_schemes(cfg: &ExpConfig) -> Vec<GraphResults> {
    run_suite_schemes(cfg, &Scheme::paper_seven())
}

/// Runs a chosen set of schemes over the whole suite.
pub fn run_suite_schemes(cfg: &ExpConfig, schemes: &[Scheme]) -> Vec<GraphResults> {
    let dev = Device::k20c();
    let opts = cfg.color_options();
    let suite = cfg.suite();
    suite
        .iter()
        .map(|entry| run_graph_schemes(entry, &dev, &opts, schemes))
        .collect()
}

/// Runs the given schemes on one suite entry, verifying every coloring.
/// A scheme that returns a [`gcol_core::ColorError`] is reported to stderr
/// and skipped — one misconfigured or non-converging scheme no longer
/// aborts the whole experiment.
pub fn run_graph_schemes(
    entry: &SuiteEntry,
    dev: &Device,
    opts: &ColorOptions,
    schemes: &[Scheme],
) -> GraphResults {
    let seq_ms = Scheme::Sequential.color(&entry.graph, dev, opts).total_ms();
    let runs = schemes
        .iter()
        .filter_map(|&scheme| {
            let r = match scheme.try_color(&entry.graph, dev, opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("warning: {} on {} skipped: {e}", scheme, entry.name);
                    return None;
                }
            };
            gcol_core::verify_coloring(&entry.graph, &r.colors).unwrap_or_else(|e| {
                panic!(
                    "{} produced an invalid coloring on {}: {e}",
                    scheme, entry.name
                )
            });
            let ms = r.total_ms();
            Some(SchemeRun {
                scheme,
                num_colors: r.num_colors,
                iterations: r.iterations,
                ms,
                speedup: seq_ms / ms,
            })
        })
        .collect();
    GraphResults {
        graph: entry.name.to_string(),
        seq_ms,
        runs,
    }
}

/// Geometric mean of positive values (how the paper averages speedups).
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for x in xs {
        assert!(x > 0.0, "geomean needs positive values");
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean([1.0, 0.0]);
    }

    #[test]
    fn small_scale_run_produces_consistent_results() {
        let cfg = ExpConfig {
            scale: 10,
            ..ExpConfig::default()
        };
        let results = run_suite_schemes(&cfg, &[Scheme::Sequential, Scheme::DataBase]);
        assert_eq!(results.len(), 6);
        for g in &results {
            assert_eq!(g.runs.len(), 2);
            // Sequential speedup over itself is exactly 1.
            assert!((g.runs[0].speedup - 1.0).abs() < 1e-9);
            assert!(g.runs[1].num_colors >= 1);
        }
    }
}
