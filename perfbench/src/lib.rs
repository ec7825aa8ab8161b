//! # gcol-perfbench — the repository benchmark
//!
//! Drives the coloring service in-process over one connection with the
//! request lines a client would send, on four workloads (see
//! [`workload`]), and checks every coloring it gets back.
//!
//! * Untraced runs (`--trace 0`) measure the end-to-end metrics
//!   ([`E2E_METRICS`]) through the real `gcol_serve::serve_lines`.
//! * Traced runs (`--trace 1`) replay the workload twice: once untraced
//!   and once through [`replay::serve_traced`], which calls the layers'
//!   public functions with a span around each call. The per-layer
//!   metrics ([`LAYER_METRICS`]) come from the spans, and the spans are
//!   written as a Chrome trace.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; the
//! note beside this crate says which layer and workload each one is for.

pub mod check;
pub mod client;
pub mod pipe;
pub mod replay;
pub mod resolve;
pub mod trace;
pub mod workload;

use check::Checker;
use client::{Conn, Sample};
use gcol_serve::{serve_lines, Service, ServiceConfig};
use resolve::Resolver;
use std::cell::Cell;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Recorder;
use workload::{Traffic, Workload};

/// End-to-end metrics of an untraced run: (name, unit).
pub const E2E_METRICS: [(&str, &str); 6] = [
    ("quiet_p50_ms", "ms"),
    ("quiet_p90_ms", "ms"),
    ("quiet_rps", "1/s"),
    ("colors_mean", "colors"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: (name, unit).
pub const LAYER_METRICS: [(&str, &str); 37] = [
    ("graph.materialize_ms", "ms"),
    ("graph.materialize_ns_per_edge", "ns"),
    ("graph.materialize_window_calls", "count"),
    ("graph.fingerprint_ms", "ms"),
    ("graph.ingest_ms", "ms"),
    ("graph.edit_ms", "ms"),
    ("graph.edit_touched", "count"),
    ("plan.plan_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.response_bytes", "bytes"),
    ("serve.queue_ms", "ms"),
    ("serve.handoff_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("core.color_ms.native", "ms"),
    ("core.color_ms.simt", "ms"),
    ("core.iterations_mean", "count"),
    ("core.repair_ms", "ms"),
    ("core.repair_dirty", "count"),
    ("core.exchange_rounds", "count"),
    ("core.frontier_bytes", "bytes"),
    ("simt.kernel_launches", "count"),
    ("simt.warp_instructions", "count"),
    ("simt.mem_transactions", "count"),
    ("simt.dram_bytes", "bytes"),
    ("simt.atomics", "count"),
    ("simt.ro_hit_ratio", "ratio"),
    ("simt.l2_hit_ratio", "ratio"),
    ("simt.kernel_ms", "ms"),
    ("simt.transfer_ms", "ms"),
    ("simt.modeled_ms_mean", "ms"),
    ("simt.host_ns_per_warp_instruction", "ns"),
    ("bench.client_ms", "ms"),
    ("bench.failed_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// How one benchmark run is configured.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window (split in two halves when traced).
    pub seconds: f64,
    /// Run the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Shrink every graph (self-tests).
    pub tiny: bool,
    /// Where the Chrome trace is written.
    pub out_dir: PathBuf,
    /// Tamper with the first coloring before verifying it (self-tests).
    pub corrupt: bool,
}

/// A p90 needs at least ten samples beyond it.
const MIN_SAMPLES: usize = 100;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The share of each request kind's repeats, the fastest, that the
/// quiet metrics keep.
const QUIET_SHARE: f64 = 0.25;

/// The leading timed requests a window must complete and `colors_mean`
/// averages over: the fewest whole cycles holding [`MIN_SAMPLES`].
fn mean_window(t: &dyn Traffic) -> usize {
    MIN_SAMPLES.div_ceil(t.cycle()) * t.cycle()
}

/// No window runs longer than this, whatever `min_samples` asks.
const WINDOW_CAP: Duration = Duration::from_secs(50);

impl Options {
    /// The configuration the command line runs.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            tiny: false,
            out_dir: PathBuf::from(".bench_out"),
            corrupt: false,
        }
    }
}

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Timed requests sent.
    pub attempted: u64,
    /// Timed requests answered with an error.
    pub failed: u64,
    /// The metrics the run reports ([`E2E_METRICS`] or [`LAYER_METRICS`]).
    pub metrics: Vec<Metric>,
    /// Further figures for the run record (not compared between runs).
    pub extra: Vec<Metric>,
    /// The Chrome trace file of a traced run.
    pub trace_file: Option<PathBuf>,
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    gcol_serve::json::Json::Str(s.to_string()).to_string()
}

/// Renders metrics as `{"name":{"value":v,"unit":"u"},…}`, every value
/// with all its digits.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line of a run that passed every check.
pub fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.attempted,
        o.failed,
        metrics_json(&o.metrics)
    )
}

/// The timed window of one connection.
struct Window {
    samples: Vec<Sample>,
    /// Peak RSS when the first [`mean_window`] requests had completed.
    rss_mb: f64,
    secs: f64,
    accepted: f64,
    hits: f64,
    materialized: u64,
}

/// One connection: start a service, run set-up, optionally a window.
struct Pass {
    setup_s: f64,
    window: Option<Window>,
    verified: usize,
}

fn run_pass(
    opts: &Options,
    traffic: &mut dyn Traffic,
    resolver: &Resolver,
    rec: Option<&Recorder>,
    window_secs: Option<f64>,
) -> Result<Pass, String> {
    resolver.clear();
    let (client_tx, server_rx) = pipe::pipe();
    let (server_tx, client_rx) = pipe::pipe();
    let next_id = Cell::new(1u64);
    let ids = || {
        let id = next_id.get();
        next_id.set(id + 1);
        id
    };
    std::thread::scope(|s| {
        let t0 = Instant::now();
        let service = Service::start(ServiceConfig::default());
        let resolve = |name: &str, scale: u32, seed: u64| resolver.resolve(name, scale, seed);
        let server = s.spawn(move || match rec {
            Some(rec) => replay::serve_traced(service, server_rx, server_tx, &resolve, rec),
            None => serve_lines(service, server_rx, server_tx, &resolve),
        });
        let mut conn = Conn::new(client_tx, client_rx);
        let mut checker = Checker::new(resolver);
        let mut run = || -> Result<Pass, String> {
            let mut setup = traffic.setup(&ids).into_iter();
            let (warm, _) = conn.drive(&mut checker, rec, 1, usize::MAX, &mut |_| setup.next())?;
            if let Some(bad) = warm.iter().find(|s| !s.facts.ok) {
                return Err(format!("set-up request {} failed", bad.id));
            }
            let setup_s = t0.elapsed().as_secs_f64();
            let Some(secs) = window_secs else {
                return Ok(Pass {
                    setup_s,
                    window: None,
                    verified: 0,
                });
            };
            let (acc0, hits0) = conn.stats(ids())?;
            let built0 = resolver.calls();
            let start = Instant::now();
            let (min, cycle, depth) = (mean_window(traffic), traffic.cycle(), traffic.depth());
            let (samples, rss_mb) = conn.drive(&mut checker, rec, depth, min, &mut |issued| {
                let t = start.elapsed();
                let whole = issued >= min && issued % cycle == 0;
                let done = (whole && t.as_secs_f64() >= secs) || t >= WINDOW_CAP;
                (!done).then(|| traffic.next(ids()))
            })?;
            let secs = start.elapsed().as_secs_f64();
            let materialized = resolver.calls() - built0;
            let (acc1, hits1) = conn.stats(ids())?;
            if samples.len() < min {
                return Err(format!(
                    "only {} requests completed in {secs:.0} s; a p90 needs {min}",
                    samples.len()
                ));
            }
            if materialized > 0 && !opts.workload.materializes_in_window() {
                return Err(format!(
                    "{materialized} graphs were built in the timed window"
                ));
            }
            Ok(Pass {
                setup_s,
                window: Some(Window {
                    samples,
                    rss_mb,
                    secs,
                    accepted: acc1 - acc0,
                    hits: hits1 - hits0,
                    materialized,
                }),
                verified: 0,
            })
        };
        let result = run();
        // Closing the client end lets the server drain and return.
        drop(conn);
        let served = server.join().expect("server thread panicked");
        let mut pass = result?;
        served.map_err(|e| format!("server I/O failed: {e}"))?;
        pass.verified = checker.verify(opts.corrupt)?;
        Ok(pass)
    })
}

/// Linear-interpolated percentile of unsorted values.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (s, n) = values.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        s / n as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn latency_percentile(samples: &[Sample], q: f64) -> f64 {
    let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    percentile(&lat, q)
}

/// The quiet sample of a window: the fastest [`QUIET_SHARE`] of each
/// request kind's latencies (at least one), pooled. Requests of one kind
/// send the same work, so their spread is the host's, not the
/// program's: the host is shared and its speed drifts by a quarter over
/// seconds. The fastest of them are the program on a quiet host.
fn quiet_latencies(samples: &[Sample]) -> Vec<f64> {
    let mut kinds: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for s in samples {
        kinds.entry(s.kind).or_default().push(s.latency_ms());
    }
    kinds
        .into_values()
        .flat_map(|mut lat| {
            lat.sort_by(f64::total_cmp);
            let keep = ((lat.len() as f64 * QUIET_SHARE).round() as usize).max(1);
            lat.truncate(keep);
            lat
        })
        .collect()
}

/// Requests per second of a closed loop with `depth` requests in flight
/// whose latencies are `lat_ms` (Little's law).
fn closed_loop_rate(lat_ms: &[f64], depth: usize) -> f64 {
    depth as f64 * 1e3 / mean(lat_ms.iter().copied())
}

/// Completed requests over the time from the first request written to
/// the last reply read.
fn rate(samples: &[Sample]) -> f64 {
    let start = samples.iter().map(|s| s.start).min().expect("samples");
    let end = samples.iter().map(|s| s.end).max().expect("samples");
    samples.len() as f64 / (end - start).as_secs_f64()
}

fn failed(w: &Window) -> u64 {
    w.samples.iter().filter(|s| !s.facts.ok).count() as u64
}

/// Runs one benchmark run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let resolver = Resolver::default();
    let mut traffic = opts.workload.traffic(opts.seed, opts.tiny);
    if opts.trace {
        run_traced(opts, traffic.as_mut(), &resolver)
    } else {
        run_untraced(opts, traffic.as_mut(), &resolver)
    }
}

fn run_untraced(
    opts: &Options,
    traffic: &mut dyn Traffic,
    resolver: &Resolver,
) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut window = None;
    let mut verified = 0;
    for i in 0..SETUP_REPS {
        let last = i + 1 == SETUP_REPS;
        let pass = run_pass(opts, traffic, resolver, None, last.then_some(opts.seconds))?;
        setups.push(pass.setup_s);
        verified += pass.verified;
        window = pass.window;
    }
    let w = window.expect("the last pass has a window");
    let first = |s: &&Sample| s.index < mean_window(traffic);
    let colors = mean(
        w.samples
            .iter()
            .filter(first)
            .filter_map(|s| s.facts.colors),
    );
    let modeled = mean(
        w.samples
            .iter()
            .filter(first)
            .filter_map(|s| s.facts.modeled_ms),
    );
    let n = w.samples.len() as f64;
    let quiet = quiet_latencies(&w.samples);
    let values = [
        percentile(&quiet, 0.5),
        percentile(&quiet, 0.9),
        closed_loop_rate(&quiet, traffic.depth()),
        colors,
        percentile(&setups, 0.5),
        w.rss_mb,
    ];
    let metrics = E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let mut extra = vec![
        Metric {
            name: "req_p50_ms",
            value: latency_percentile(&w.samples, 0.5),
            unit: "ms",
        },
        Metric {
            name: "req_p90_ms",
            value: latency_percentile(&w.samples, 0.9),
            unit: "ms",
        },
        Metric {
            name: "throughput_rps",
            value: rate(&w.samples),
            unit: "1/s",
        },
        Metric {
            name: "quiet_samples",
            value: quiet.len() as f64,
            unit: "count",
        },
        Metric {
            name: "failed_ratio",
            value: failed(&w) as f64 / n,
            unit: "ratio",
        },
        Metric {
            name: "samples",
            value: n,
            unit: "count",
        },
        Metric {
            name: "window_s",
            value: w.secs,
            unit: "s",
        },
        Metric {
            name: "colorings_verified",
            value: verified as f64,
            unit: "count",
        },
    ];
    if opts.workload == Workload::SimtPaper {
        extra.push(Metric {
            name: "modeled_ms_mean",
            value: modeled,
            unit: "ms",
        });
    }
    Ok(Outcome {
        attempted: w.samples.len() as u64,
        failed: failed(&w),
        metrics,
        extra,
        trace_file: None,
    })
}

fn run_traced(
    opts: &Options,
    traffic: &mut dyn Traffic,
    resolver: &Resolver,
) -> Result<Outcome, String> {
    let half = opts.seconds / 2.0;
    let plain = run_pass(opts, traffic, resolver, None, Some(half))?;
    let rec = Recorder::new();
    let traced = run_pass(opts, traffic, resolver, Some(&rec), Some(half))?;
    let verified = plain.verified + traced.verified;
    let (plain, traced) = (
        plain.window.expect("window requested"),
        traced.window.expect("window requested"),
    );

    let spans = rec.spans();
    let layer = |name: &str| {
        let (n, ns) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns()));
        (n, ns as f64)
    };
    let mean_ms = |name: &str| {
        let (n, ns) = layer(name);
        if n == 0 {
            0.0
        } else {
            ns / n as f64 / 1e6
        }
    };
    let val = |name: &str| rec.value(name).mean();
    let ratio = |num: &str, den: &str| {
        let d = rec.value(den).sum;
        if d == 0.0 {
            0.0
        } else {
            rec.value(num).sum / d
        }
    };
    let window_ids: std::collections::HashSet<u64> = traced.samples.iter().map(|s| s.id).collect();
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == s.req && s.name != "bench.client" && window_ids.contains(&s.req))
        .map(|s| s.dur_ns() as f64)
        .sum();
    let wall: f64 = traced
        .samples
        .iter()
        .map(|s| (s.end - s.start).as_nanos() as f64)
        .sum();
    let client_ms = mean(plain.samples.iter().map(|s| s.client_ns as f64 / 1e6));
    let simt_ns = rec.value("core.color_ms.simt").sum * 1e6;
    let instructions = rec.value("simt.warp_instructions").sum;
    let n = traced.samples.len() as f64;

    let values: Vec<(&str, f64)> = vec![
        ("graph.materialize_ms", mean_ms("graph.materialize")),
        (
            "graph.materialize_ns_per_edge",
            layer("graph.materialize").1 / rec.value("graph.materialize_edges").sum.max(1.0),
        ),
        ("graph.materialize_window_calls", traced.materialized as f64),
        ("graph.fingerprint_ms", mean_ms("graph.fingerprint")),
        ("graph.ingest_ms", mean_ms("graph.ingest")),
        ("graph.edit_ms", mean_ms("graph.edit")),
        ("graph.edit_touched", val("graph.edit_touched")),
        ("plan.plan_ms", mean_ms("plan.plan")),
        ("serve.parse_ms", mean_ms("serve.parse")),
        ("serve.submit_ms", mean_ms("serve.submit")),
        ("serve.encode_ms", mean_ms("serve.encode")),
        ("serve.response_bytes", val("serve.response_bytes")),
        ("serve.queue_ms", val("serve.queue_ms")),
        ("serve.handoff_ms", val("serve.handoff_ms")),
        (
            "serve.cache_hit_ratio",
            traced.hits / traced.accepted.max(1.0),
        ),
        ("core.color_ms.native", val("core.color_ms.native")),
        ("core.color_ms.simt", val("core.color_ms.simt")),
        ("core.iterations_mean", val("core.iterations")),
        ("core.repair_ms", mean_ms("core.repair")),
        ("core.repair_dirty", val("core.repair_dirty")),
        ("core.exchange_rounds", val("core.exchange_rounds")),
        ("core.frontier_bytes", val("core.frontier_bytes")),
        ("simt.kernel_launches", val("simt.kernel_launches")),
        ("simt.warp_instructions", val("simt.warp_instructions")),
        ("simt.mem_transactions", val("simt.mem_transactions")),
        ("simt.dram_bytes", val("simt.dram_bytes")),
        ("simt.atomics", val("simt.atomics")),
        (
            "simt.ro_hit_ratio",
            ratio("simt.ro_hits", "simt.ro_accesses"),
        ),
        (
            "simt.l2_hit_ratio",
            ratio("simt.l2_hits", "simt.l2_accesses"),
        ),
        ("simt.kernel_ms", val("simt.kernel_ms")),
        ("simt.transfer_ms", val("simt.transfer_ms")),
        ("simt.modeled_ms_mean", val("simt.modeled_ms")),
        (
            "simt.host_ns_per_warp_instruction",
            if instructions == 0.0 {
                0.0
            } else {
                simt_ns / instructions
            },
        ),
        ("bench.client_ms", client_ms),
        ("bench.failed_ratio", failed(&traced) as f64 / n),
        ("trace.coverage", covered / wall.max(1.0)),
        (
            "trace.overhead",
            percentile(&quiet_latencies(&traced.samples), 0.5)
                / percentile(&quiet_latencies(&plain.samples), 0.5),
        ),
    ];
    let metrics = LAYER_METRICS
        .iter()
        .zip(&values)
        .map(|(&(name, unit), &(vname, value))| {
            assert_eq!(name, vname, "metric table and values out of step");
            Metric { name, value, unit }
        })
        .collect();

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let path = opts.out_dir.join(format!(
        "trace-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    let other = format!(
        "{{\"workload\":\"{}\",\"seed\":{}}}",
        opts.workload.name(),
        opts.seed
    );
    rec.write_chrome(&path, &other)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Outcome {
        attempted: traced.samples.len() as u64,
        failed: failed(&traced),
        metrics,
        extra: vec![Metric {
            name: "colorings_verified",
            value: verified as f64,
            unit: "count",
        }],
        trace_file: Some(path),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::Facts;

    fn sample(kind: usize, ms: u64) -> Sample {
        let start = Instant::now();
        Sample {
            index: 0,
            id: 0,
            kind,
            start,
            end: start + Duration::from_millis(ms),
            client_ns: 0,
            facts: Facts::default(),
        }
    }

    #[test]
    fn the_quiet_sample_keeps_the_fastest_quarter_of_each_kind() {
        let mut samples: Vec<Sample> = (1..=8).rev().map(|ms| sample(0, 10 * ms)).collect();
        samples.push(sample(1, 500));
        samples.push(sample(1, 300));
        let mut quiet = quiet_latencies(&samples);
        quiet.sort_by(f64::total_cmp);
        assert_eq!(quiet, [10.0, 20.0, 300.0]);
        assert_eq!(closed_loop_rate(&[10.0, 30.0], 2), 100.0);
    }
}
