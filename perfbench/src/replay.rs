//! The traced server: the request handling of `gcol_serve::serve_lines`
//! for the request forms the workloads send (named-graph colors, one-chunk
//! uploads with a format, session mutates and recolors, stats), rebuilt
//! from the layers' public functions with a span around each call.
//!
//! It answers the same request lines with the same replies, so the same
//! client and checker drive it. Per-request structure is kept: colorings
//! go through `Service::submit` and a responder thread per job waits on
//! the handle, encodes and writes under the connection lock; session
//! verbs run on the reading thread. Thread spawns and the writer lock are
//! not spanned, so they show up as the uncovered share of a request.

use crate::trace::Recorder;
use gcol_core::{recolor_delta, BackendKind, Coloring, JobSpec};
use gcol_graph::io::{GraphSource, IngestLimits};
use gcol_graph::{Csr, VertexId};
use gcol_plan::AutoColorer;
use gcol_serve::proto::{self, GraphSpec, Request};
use gcol_serve::server::GraphResolver;
use gcol_serve::{JobRequest, JobResponse, ResultSource, Service, ServiceStats};
use gcol_simt::Phase;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::io::{self, BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Session {
    graph: Arc<Csr>,
    base: Option<(JobSpec, Arc<Coloring>)>,
    dirty: BTreeSet<VertexId>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Records what a resolved coloring job shows about the layers below
/// serve: queue wait and execution (as child spans of the wait, placed
/// from the job's own timings), and for an execution its iterations,
/// simulator counters and sharded exchange traffic.
///
/// The handoff is the time from the earliest moment the reply could be
/// picked up (the job resolved and `submit` returned) to the responder
/// waking with it. The job's clock starts inside `submit`, after the
/// rehash, so `submit_start + total_ms` is the resolution's earliest
/// possible time and the handoff is an upper bound by at most the
/// rehash.
fn record_job(
    rec: &Recorder,
    req: u64,
    wait: u64,
    (submit_start, submit_end): (Instant, Instant),
    woke: Instant,
    spec: &JobSpec,
    r: &JobResponse,
) {
    let since = |ms: f64| submit_start + Duration::from_secs_f64(ms / 1e3);
    rec.add("serve.queue_ms", r.queue_ms);
    rec.add(
        "serve.handoff_ms",
        ms(woke - submit_end.max(since(r.total_ms))),
    );
    if r.source != ResultSource::Cold {
        return;
    }
    let (queued, ran) = (since(r.queue_ms), since(r.queue_ms + r.exec_ms));
    rec.span("serve.queue", req, wait, submit_start, queued);
    rec.span("core.color", req, wait, queued, ran);
    record_coloring(rec, spec, &r.coloring, r.exec_ms);
}

/// Per-execution values of a coloring that ran for this request.
fn record_coloring(rec: &Recorder, spec: &JobSpec, c: &Coloring, exec_ms: f64) {
    rec.add("core.iterations", c.iterations as f64);
    let sharded = spec.opts.num_shards > 1;
    if sharded {
        let frontier = c.profile.phases.iter().filter_map(|p| match p {
            Phase::Transfer { label, bytes, .. } if label.contains("ghost frontier") => {
                Some(*bytes)
            }
            _ => None,
        });
        let (rounds, bytes) = frontier.fold((0usize, 0usize), |(n, b), x| (n + 1, b + x));
        rec.add("core.exchange_rounds", rounds as f64);
        rec.add("core.frontier_bytes", bytes as f64);
    }
    if spec.opts.backend != BackendKind::Simt {
        rec.add("core.color_ms.native", exec_ms);
        return;
    }
    rec.add("core.color_ms.simt", exec_ms);
    let mut k = [0u64; 9];
    for p in &c.profile.phases {
        if let Phase::Kernel(s) = p {
            let row = [
                1,
                s.instructions,
                s.mem_transactions,
                s.dram_bytes,
                s.atomics,
                s.ro_hits,
                s.ro_hits + s.ro_misses,
                s.l2_hits,
                s.l2_hits + s.l2_misses,
            ];
            k.iter_mut().zip(row).for_each(|(a, x)| *a += x);
        }
    }
    let names = [
        "simt.kernel_launches",
        "simt.warp_instructions",
        "simt.mem_transactions",
        "simt.dram_bytes",
        "simt.atomics",
        "simt.ro_hits",
        "simt.ro_accesses",
        "simt.l2_hits",
        "simt.l2_accesses",
    ];
    for (name, v) in names.into_iter().zip(k) {
        rec.add(name, v as f64);
    }
    rec.add("simt.kernel_ms", c.profile.kernel_ms());
    rec.add("simt.transfer_ms", c.profile.transfer_ms());
    rec.add("simt.modeled_ms", c.total_ms());
}

/// Serves `reader` like `serve_lines`, recording spans into `rec`.
pub fn serve_traced<R, W>(
    service: Service,
    reader: R,
    writer: W,
    resolve: &GraphResolver<'_>,
    rec: &Recorder,
) -> io::Result<ServiceStats>
where
    R: BufRead,
    W: Write + Send,
{
    let writer = Mutex::new(writer);
    let write_line = |line: &str| -> io::Result<()> {
        let mut w = writer.lock().expect("writer lock poisoned");
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    };
    let encode = |req: u64, f: &dyn Fn() -> String| -> String {
        let line = rec.time("serve.encode", req, f);
        rec.add("serve.response_bytes", line.len() as f64 + 1.0);
        line
    };
    let service_ref = &service;
    let served = std::thread::scope(|s| -> io::Result<()> {
        let mut graphs: HashMap<(String, u32, u64), Arc<Csr>> = HashMap::new();
        let mut hashed: HashSet<usize> = HashSet::new();
        let mut session: Option<Session> = None;
        // Like `serve_lines`, keep every responder's handle until the
        // connection closes.
        let mut responders = Vec::new();
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let t0 = Instant::now();
            let parsed = Request::parse(&line);
            let rid = parsed.as_ref().ok().and_then(Request::id).unwrap_or(0);
            rec.span("serve.parse", rid, rid, t0, Instant::now());
            let req = match parsed {
                Ok(req) => req,
                Err(msg) => {
                    write_line(&proto::error_response(None, "bad-request", &msg))?;
                    continue;
                }
            };
            match req {
                Request::Stats { id } => {
                    write_line(&proto::stats_response(id, &service_ref.stats()))?;
                }
                Request::Shutdown { id } => {
                    write_line(&proto::ack_response(id, "draining"))?;
                    break;
                }
                Request::Load {
                    id,
                    format: Some(fmt),
                    data,
                    last: true,
                } => {
                    let cfg = service_ref.config();
                    let limits = IngestLimits {
                        max_vertices: cfg.max_vertices,
                        max_edges: cfg.max_edges,
                    };
                    let read = rec.time("graph.ingest", rid, || {
                        GraphSource::new(fmt)
                            .with_limits(limits)
                            .read(data.as_bytes())
                    });
                    let line = match read {
                        Ok(g) => {
                            let g = Arc::new(g);
                            session = Some(Session {
                                graph: Arc::clone(&g),
                                base: None,
                                dirty: BTreeSet::new(),
                            });
                            encode(rid, &|| proto::load_response(id, fmt, &g))
                        }
                        Err(e) => proto::error_response(id, "bad-graph", &e.to_string()),
                    };
                    write_line(&line)?;
                }
                Request::Mutate {
                    id,
                    graph: None,
                    edits,
                } => {
                    let Some(sess) = session.as_mut() else {
                        write_line(&proto::error_response(id, "no-graph", "no session graph"))?;
                        continue;
                    };
                    match rec.time("graph.edit", rid, || sess.graph.with_edits(&edits)) {
                        Ok((g, touched)) => {
                            rec.add("graph.edit_touched", touched.len() as f64);
                            sess.graph = Arc::new(g);
                            sess.dirty.extend(touched.iter().copied());
                            let g = &sess.graph;
                            let line =
                                encode(rid, &|| proto::mutate_response(id, touched.len(), g));
                            write_line(&line)?;
                        }
                        Err(e) => {
                            write_line(&proto::error_response(id, "bad-edit", &e.to_string()))?;
                        }
                    }
                }
                Request::Recolor {
                    id,
                    spec,
                    assignment,
                } => {
                    let Some(spec) = spec.fixed() else {
                        write_line(&proto::error_response(id, "bad-request", "auto recolor"))?;
                        continue;
                    };
                    let Some(sess) = session.as_mut() else {
                        write_line(&proto::error_response(id, "no-graph", "no session graph"))?;
                        continue;
                    };
                    let fp = rec.time("graph.fingerprint", rid, || spec.fingerprint(&sess.graph));
                    let same_spec = sess
                        .base
                        .as_ref()
                        .is_some_and(|(s, _)| s.fingerprint_of(0) == spec.fingerprint_of(0));
                    let dev = service_ref.device();
                    let (source, repaired, run) = if same_spec && sess.dirty.is_empty() {
                        let base = Arc::clone(&sess.base.as_ref().expect("same_spec").1);
                        ("session", 0, Ok(base))
                    } else if same_spec {
                        let base = Arc::clone(&sess.base.as_ref().expect("same_spec").1);
                        let dirty: Vec<VertexId> = sess.dirty.iter().copied().collect();
                        rec.add("core.repair_dirty", dirty.len() as f64);
                        let run = rec.time("core.repair", rid, || {
                            recolor_delta(&sess.graph, &base, &dirty, dev, &spec.opts)
                        });
                        ("delta", dirty.len(), run.map(Arc::new))
                    } else {
                        let t = Instant::now();
                        let run = rec.time("core.color", rid, || {
                            spec.scheme.try_color(&sess.graph, dev, &spec.opts)
                        });
                        if let Ok(c) = &run {
                            record_coloring(rec, &spec, c, ms(t.elapsed()));
                        }
                        ("scratch", 0, run.map(Arc::new))
                    };
                    let line = match run {
                        Ok(c) => {
                            if source != "session" {
                                sess.base = Some((spec, Arc::clone(&c)));
                                sess.dirty.clear();
                            }
                            encode(rid, &|| {
                                proto::recolor_response(id, source, repaired, fp, &c, assignment)
                            })
                        }
                        Err(e) => proto::error_response(id, "coloring-failed", &e.to_string()),
                    };
                    write_line(&line)?;
                }
                Request::Color {
                    id,
                    graph: GraphSpec::Named { name, scale, seed },
                    spec,
                    deadline_ms,
                    assignment,
                } => {
                    let key = (name, scale, seed);
                    let graph = match graphs.get(&key) {
                        Some(g) => Arc::clone(g),
                        None => {
                            let built =
                                rec.time("graph.materialize", rid, || resolve(&key.0, scale, seed));
                            match built {
                                Ok(g) => {
                                    rec.add("graph.materialize_edges", g.num_edges() as f64);
                                    graphs.insert(key, Arc::clone(&g));
                                    g
                                }
                                Err(msg) => {
                                    let line = proto::error_response(id, "unknown-graph", &msg);
                                    write_line(&line)?;
                                    continue;
                                }
                            }
                        }
                    };
                    // Once per distinct graph: the cost of the rehash that
                    // `Service::submit` repeats on every request.
                    if hashed.insert(Arc::as_ptr(&graph) as usize) {
                        rec.time("graph.fingerprint", rid, || graph.content_fingerprint());
                    }
                    let (job, plan) = match spec.fixed() {
                        Some(job) => (job, None),
                        None => rec.time("plan.plan", rid, || {
                            let slo = spec.slo.unwrap_or_default();
                            let plan = AutoColorer::new(slo).plan_for(&graph, &spec.opts);
                            service_ref.note_auto_planned();
                            (plan.spec(&spec.opts), Some((slo, plan)))
                        }),
                    };
                    let request = JobRequest {
                        graph,
                        spec: job.clone(),
                        deadline: deadline_ms.map(Duration::from_millis),
                    };
                    let submit_start = Instant::now();
                    let submitted = service_ref.submit(request);
                    let submit_end = Instant::now();
                    rec.span("serve.submit", rid, rid, submit_start, submit_end);
                    match submitted {
                        Err(rej) => write_line(&proto::error_response(
                            id,
                            proto::rejection_code(&rej),
                            &rej.to_string(),
                        ))?,
                        Ok(handle) => {
                            let (write_line, encode) = (&write_line, &encode);
                            responders.push(s.spawn(move || {
                                let w0 = Instant::now();
                                let res = handle.wait();
                                let woke = Instant::now();
                                let wait = rec.span("serve.wait", rid, rid, w0, woke);
                                let line = match res {
                                    Ok(r) => {
                                        let submit = (submit_start, submit_end);
                                        record_job(rec, rid, wait, submit, woke, &job, &r);
                                        let plan = plan.as_ref().map(|(slo, p)| (*slo, p));
                                        encode(rid, &|| {
                                            proto::ok_response(id, &r, assignment, plan)
                                        })
                                    }
                                    Err(e) => proto::error_response(
                                        id,
                                        proto::serve_error_code(&e),
                                        &e.to_string(),
                                    ),
                                };
                                // A write error means the client is gone.
                                let _ = write_line(&line);
                            }));
                        }
                    }
                }
                other => write_line(&proto::error_response(
                    other.id(),
                    "bad-request",
                    "request form not handled by the traced server",
                ))?,
            }
        }
        for r in responders {
            r.join().expect("responder thread panicked");
        }
        Ok(())
    });
    let stats = service.shutdown();
    served.map(|()| stats)
}
