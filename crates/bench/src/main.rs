//! CLI entry point for the experiment harness.

use gcol_bench::experiments::{
    self, ablation, archsweep, calibrate, convergence, fig1, fig3, fig6, fig7, fig8, hashsweep,
    incremental, loadgen, planner, planner_calibrate, profile, quality, relabel, sanitize, scaling,
    shardscale, table1, variance, ExpConfig,
};
use gcol_graph::gen::{self, RmatParams};
use gcol_graph::Csr;
use gcol_serve::{serve_lines, Service, ServiceConfig};
use gcol_simt::MAX_BLOCK_THREADS;
use std::sync::Arc;

const USAGE: &str = "\
gcol-bench — regenerate the paper's tables and figures

USAGE:
    gcol-bench <COMMAND> [OPTIONS]

COMMANDS:
    table1      Table I  — benchmark-graph statistics
    fig1        Fig. 1   — existing GPU implementations vs sequential
    fig3        Fig. 3   — kernel characterization (latency-bound)
    fig6        Fig. 6   — colors per scheme
    fig7        Fig. 7   — speedup per scheme
    fig8        Fig. 8   — thread-block-size sweep
    calibrate   CPU-cost-model sanity check
    profile G S nvprof-style timeline of scheme S on suite graph G
                (S may be `auto`: the planner resolves the scheme from the
                graph profile and --slo, and the plan is printed)
    planner     scheme-auto A/B: measure every candidate scheme per suite
                graph, resolve the planner's choice under each SLO, report
                wall regret vs the per-graph best and color overhead vs the
                per-graph fewest; --smoke runs the tier-1 CI gate (three
                small generators, modeled simt times, fastest-wall regret
                ≤ 1.10x, fewest-colors overhead ≤ +1)
    planner-calibrate
                fit the planner's log-linear decision table over the
                generated suite at --scale and two smaller scales, and
                print the `MODELS` block to paste into
                crates/plan/src/model.rs (the only source of coefficients;
                nothing is fitted at runtime)
    ablation    design-choice ablations (atomics, ldg, task mapping, balance)
    archsweep   Kepler vs Fermi: why __ldg is a Kepler-specific win
    hashsweep   csrcolor quality/speed trade vs hash count N
    convergence per-round worklist drain of the speculative scheme
    quality     color-count league table across every scheme + bounds
    scaling     headline speedups vs suite scale
    shardscale  multi-device scaling: every GPU scheme at P = 1/2/4 shards,
                dense-vs-delta frontier-encoding A/B (frontier bytes +
                modeled ms); --exchange pins one encoding, --smoke runs
                the CI invariant checks (delta never ships more bytes,
                one-round schemes never regress vs dense)
    incremental incremental-recoloring A/B: repair the old coloring through
                the dirty-set engine vs rerun from scratch after edge-edit
                batches of 0.1/1/5% of the edges, every GPU scheme (wall
                clock + modeled kernel work); --smoke runs the CI gate
                (at 1%, delta never issues more kernel instructions)
    relabel     RCM locality-preprocessing ablation (the choice of SIII-C)
    sanitize    kernel launch sanitizer audit: every GPU scheme, P = 1/2,
                shadow-memory race/ldg/bounds/init analysis (fails on any
                harmful finding)
    variance    seed-robustness study (the paper's 10-run averaging analogue)
    loadgen     coloring-service load generator: open-loop arrival traces
                (unique / bursty / duplicate-heavy) vs worker count, with
                throughput + latency percentiles; default (no --trace) runs
                the {1,--workers} x {unique,duplicate} A/B grid; --smoke runs
                the CI invariant checks (0 rejections idle, 100% cache hits
                on a duplicate-only replay)
    serve       run the coloring service on stdio (or --listen HOST:PORT,
                one connection), speaking the line-delimited JSON protocol
                of gcol-serve: {\"op\":\"color\",\"graph\":{...},...} per line
    all         run every experiment (colors the suite once)

OPTIONS:
    --graph PATH  run on a real graph file instead of the generated suite.
                  Format resolved from the extension (.mtx, .col, .graph,
                  .edges), then by content sniffing. Suite experiments
                  shrink to this one graph; shardscale, incremental,
                  profile, hashsweep and variance swap their generated
                  workload for it; scaling and loadgen ignore it
    --scale N     log2-equivalent suite scale (default 15; the paper's
                  experiments correspond to 20 — expect long runtimes on a
                  laptop at that size)
    --block N     thread block size for GPU schemes, 1..=1024 (default 128)
    --backend B   execution backend for the GPU schemes: simt (the timing
                  simulator, default: blocks in id order on a modeled K20c
                  with one chip-wide L2, so colors and modeled times are
                  identical run to run), native (rayon, wall-clock only —
                  no modeled kernel times, so speedup columns lose their
                  paper meaning) or sanitize (simt + shadow-memory launch
                  analysis; identical colors and modeled times)
    --sanitize    shorthand for --backend sanitize
    --shards N    device count for the GPU schemes (default 1): partition
                  the graph into N shards colored on independent backend
                  instances with ghost-frontier exchange rounds
    --exchange E  ghost-frontier wire encoding for sharded runs: dense
                  (ship every ghost color every round) or delta (dirty
                  bitmask + changed colors, dense fallback). Default:
                  delta everywhere; shardscale sweeps both when the flag
                  is absent
    --scheme S    scheme selection for `profile` (alternative to the
                  positional): a paper scheme name, or `auto` to let the
                  planner pick from the graph profile
    --slo S       planner objective wherever a scheme is auto-resolved:
                  fastest-wall (default), fewest-colors or balanced;
                  `planner` reports all three unless --slo pins one
    --json PATH   also write the raw results as JSON
    --sanitize-json PATH
                  sanitize: also write the full structured findings report
                  (every scheme/graph/P run with its complete sanitizer
                  report) for diffing against the checked-in baseline at
                  crates/bench/tests/data/sanitize_baseline.json

SERVICE OPTIONS (loadgen / serve):
    --workers N   service worker threads (default 4)
    --jobs N      loadgen: jobs per trace replay (default 200)
    --rate R      loadgen: open-loop arrival rate in jobs/s (default 0 =
                  unpaced: the whole trace is submitted at once)
    --trace T     loadgen: replay a single trace — uniform, bursty,
                  duplicate or unique — instead of the A/B grid
    --smoke       loadgen/shardscale/incremental: run the CI invariant
                  checks and exit
    --listen A    serve: accept one TCP connection on A (e.g. 127.0.0.1:7070)
                  instead of serving stdio
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help") {
        eprint!("{USAGE}");
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let command = args[0].clone();
    let mut cfg = ExpConfig::default();
    let mut lg = loadgen::LoadgenOptions::default();
    let mut listen: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--graph" => {
                cfg.graph = Some(
                    args.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| die("--graph needs a path")),
                );
                i += 2;
            }
            "--scale" => {
                cfg.scale = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs an integer"));
                i += 2;
            }
            "--block" => {
                cfg.block_size = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|b| (1..=MAX_BLOCK_THREADS).contains(b))
                    .unwrap_or_else(|| {
                        die(&format!(
                            "--block needs an integer in 1..={MAX_BLOCK_THREADS}"
                        ))
                    });
                i += 2;
            }
            "--backend" => {
                cfg.backend = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--backend needs 'simt', 'native' or 'sanitize'"));
                i += 2;
            }
            "--sanitize" => {
                cfg.backend = gcol_core::BackendKind::Sanitize;
                i += 1;
            }
            "--shards" => {
                cfg.shards = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--shards needs a positive integer"));
                i += 2;
            }
            "--exchange" => {
                cfg.exchange = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--exchange needs 'dense' or 'delta'")),
                );
                i += 2;
            }
            "--scheme" => {
                cfg.scheme = Some(
                    args.get(i + 1)
                        .and_then(|v| profile::parse_choice(v))
                        .unwrap_or_else(|| die("--scheme needs a scheme name or 'auto'")),
                );
                i += 2;
            }
            "--slo" => {
                cfg.slo = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| {
                            die("--slo needs fastest-wall, fewest-colors or balanced")
                        }),
                );
                i += 2;
            }
            "--json" => {
                cfg.json = Some(
                    args.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| die("--json needs a path")),
                );
                i += 2;
            }
            "--sanitize-json" => {
                cfg.sanitize_json = Some(
                    args.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| die("--sanitize-json needs a path")),
                );
                i += 2;
            }
            "--workers" => {
                lg.workers = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
                i += 2;
            }
            "--jobs" => {
                lg.jobs = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--jobs needs a positive integer"));
                i += 2;
            }
            "--rate" => {
                lg.rate = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&r: &f64| r.is_finite() && r >= 0.0)
                    .unwrap_or_else(|| die("--rate needs a non-negative number"));
                i += 2;
            }
            "--trace" => {
                lg.trace = Some(
                    args.get(i + 1)
                        .and_then(|v| loadgen::TraceKind::parse(v))
                        .unwrap_or_else(|| {
                            die("--trace needs uniform, bursty, duplicate or unique")
                        }),
                );
                i += 2;
            }
            "--smoke" => {
                lg.smoke = true;
                cfg.smoke = true;
                i += 1;
            }
            "--listen" => {
                listen = Some(
                    args.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| die("--listen needs HOST:PORT")),
                );
                i += 2;
            }
            other if !other.starts_with('-') => {
                positional.push(other.to_string());
                i += 1;
            }
            other => die(&format!("unknown option {other:?}")),
        }
    }
    let _ = &positional;

    // Validate --graph up front: a typo or malformed file dies with the
    // typed ingest error (and its line number) before any experiment
    // spends minutes generating graphs.
    if let Some(path) = cfg.graph.as_deref() {
        if let Err(e) = gcol_bench::suite::load_entry(path) {
            die(&format!("--graph {path}: {e}"));
        }
    }

    let t0 = std::time::Instant::now();
    match command.as_str() {
        "table1" => println!("{}", table1::run(&cfg)),
        "fig1" => println!("{}", fig1::run(&cfg)),
        "fig3" => println!("{}", fig3::run(&cfg)),
        "fig6" => println!("{}", fig6::run(&cfg)),
        "fig7" => println!("{}", fig7::run(&cfg)),
        "fig8" => println!("{}", fig8::run(&cfg)),
        "calibrate" => println!("{}", calibrate::run(&cfg)),
        "ablation" => println!("{}", ablation::run(&cfg)),
        "archsweep" => println!("{}", archsweep::run(&cfg)),
        "hashsweep" => println!("{}", hashsweep::run(&cfg)),
        "convergence" => println!("{}", convergence::run(&cfg)),
        "quality" => println!("{}", quality::run(&cfg)),
        "scaling" => println!("{}", scaling::run(&cfg)),
        "shardscale" => println!("{}", shardscale::run(&cfg)),
        "incremental" => println!("{}", incremental::run(&cfg)),
        "relabel" => println!("{}", relabel::run(&cfg)),
        "sanitize" => println!("{}", sanitize::run(&cfg)),
        "variance" => println!("{}", variance::run(&cfg)),
        "loadgen" => println!("{}", loadgen::run(&cfg, &lg)),
        "serve" => run_serve(&lg, listen.as_deref()),
        "planner" => println!("{}", planner::run(&cfg)),
        "planner-calibrate" => println!("{}", planner_calibrate::run(&cfg)),
        "profile" => {
            // With --graph the file is the subject, so the only
            // positional is the scheme: `profile --graph g.mtx D-ldg`.
            let (graph, scheme_at) = if cfg.graph.is_some() {
                (String::new(), 0)
            } else {
                let name = positional
                    .first()
                    .cloned()
                    .unwrap_or_else(|| die("profile needs: profile <graph> <scheme>"));
                (name, 1)
            };
            // The positional scheme (which may itself be `auto`) wins
            // over --scheme; either may supply it.
            let choice = match positional.get(scheme_at) {
                Some(s) => profile::parse_choice(s)
                    .unwrap_or_else(|| die("profile needs a valid scheme name or 'auto'")),
                None => cfg
                    .scheme
                    .unwrap_or_else(|| die("profile needs a scheme name or 'auto'")),
            };
            println!("{}", profile::run(&cfg, &graph, choice));
        }
        "all" => {
            println!("{}", table1::run(&cfg));
            println!("{}", calibrate::run(&cfg));
            // Color the suite once for Figs. 1, 6 and 7.
            let results = experiments::run_suite_all_schemes(&cfg);
            gcol_bench::report::maybe_write_json(cfg.json.as_deref(), &results)
                .expect("json write");
            println!("{}", fig1::render(&results));
            println!("{}", fig6::render(&results));
            println!("{}", fig7::render(&results));
            println!("{}", fig3::run(&cfg));
            println!("{}", fig8::run(&cfg));
            println!("{}", ablation::run(&cfg));
            println!("{}", archsweep::run(&cfg));
            println!("{}", hashsweep::run(&cfg));
            println!("{}", convergence::run(&cfg));
            println!("{}", quality::run(&cfg));
            println!("{}", relabel::run(&cfg));
            println!("{}", sanitize::run(&cfg));
            println!("{}", variance::run(&cfg));
        }
        other => die(&format!("unknown command {other:?}")),
    }
    eprintln!("[{command} done in {:.1}s]", t0.elapsed().as_secs_f64());
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Resolves the protocol's named-graph requests (`{"gen":name,...}`):
/// the Table I suite names, plus `rmat`/`rmat-er`/`rmat-g` with the
/// request's own seed. Suite stand-ins keep their pinned seeds, so the
/// request seed only matters for the plain rmat generators.
fn resolve_graph(name: &str, scale: u32, seed: u64) -> Result<Arc<Csr>, String> {
    if !(8..=22).contains(&scale) {
        return Err(format!("scale {scale} out of the supported 8..=22 range"));
    }
    match name {
        "rmat" | "rmat-er" => Ok(Arc::new(gen::rmat(RmatParams::erdos_renyi(scale, 20), seed))),
        "rmat-g" => Ok(Arc::new(gen::rmat(RmatParams::skewed(scale, 20), seed))),
        "thermal2" | "atmosmodd" | "Hamrle3" | "G3_circuit" => {
            Ok(Arc::new(gcol_bench::suite::build_graph(name, scale)))
        }
        other => Err(format!(
            "unknown graph {other:?} (known: rmat-er, rmat-g, thermal2, atmosmodd, Hamrle3, G3_circuit)"
        )),
    }
}

/// `gcol-bench serve`: the coloring service over stdio, or over a single
/// TCP connection with `--listen`.
fn run_serve(lg: &loadgen::LoadgenOptions, listen: Option<&str>) {
    let service = Service::start(ServiceConfig {
        num_workers: lg.workers,
        ..ServiceConfig::default()
    });
    let stats = match listen {
        None => {
            eprintln!(
                "gcol-bench serve: {} workers, line protocol on stdio (EOF or {{\"op\":\"shutdown\"}} to stop)",
                lg.workers
            );
            serve_lines(
                service,
                std::io::stdin().lock(),
                std::io::stdout(),
                &resolve_graph,
            )
        }
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .unwrap_or_else(|e| die(&format!("--listen {addr}: {e}")));
            eprintln!(
                "gcol-bench serve: {} workers, listening on {addr} (serving one connection)",
                lg.workers
            );
            let (stream, peer) = listener.accept().expect("accept");
            eprintln!("gcol-bench serve: connection from {peer}");
            let reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
            serve_lines(service, reader, stream, &resolve_graph)
        }
    }
    .expect("serve I/O");
    eprintln!("gcol-bench serve: drained\n{stats}");
}
