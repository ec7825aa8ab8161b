//! Protocol corpus: the serve wire pinned byte for byte.
//!
//! * `tests/corpus/protocol.txt` holds request lines (`> `), each case
//!   followed by the exact response lines (`< `) a fresh service must
//!   write for it through [`serve_lines`]. The cases cover the parser's
//!   edges (malformed documents with their byte offsets, the nesting
//!   bound, surrogates, control characters, non-finite numbers,
//!   repeated keys) and the protocol's integer rule (integral numbers
//!   below 2^53 in any spelling, digit strings, the too-large error).
//! * The encoder cases below call the `proto::*_response` renderers with
//!   fixed values, pinning the number spellings (`0` not `0.0`, `null`
//!   for NaN) and the sorted key order of every response shape.
//!
//! Only responses that carry no wall-clock field are pinned; the
//! coloring path's timings are covered by the encoder cases instead.

use gcol_core::{Coloring, ExchangeKind, Fingerprint, Scheme};
use gcol_graph::gen::{self, RmatParams};
use gcol_graph::io::GraphFormat;
use gcol_graph::Csr;
use gcol_plan::{Plan, Slo};
use gcol_serve::{
    proto, serve_lines, JobResponse, ResultSource, Service, ServiceConfig, ServiceStats,
};
use std::io::Write;
use std::sync::{Arc, Mutex};

#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Feeds `requests` to a fresh one-worker service and returns what it wrote.
fn serve(requests: &[&str]) -> Vec<String> {
    let svc = Service::start(ServiceConfig {
        num_workers: 1,
        ..ServiceConfig::default()
    });
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let resolve = |name: &str, scale: u32, seed: u64| match name {
        "rmat" => Ok(Arc::new(gen::rmat(RmatParams::erdos_renyi(scale, 8), seed))),
        other => Err(format!("unknown graph generator '{other}'")),
    };
    let input: String = requests.iter().map(|r| format!("{r}\n")).collect();
    serve_lines(svc, input.as_bytes(), buf.clone(), &resolve).unwrap();
    let out = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    out.lines().map(str::to_string).collect()
}

#[test]
fn every_request_in_the_corpus_gets_its_pinned_response() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/protocol.txt");
    let text = std::fs::read_to_string(path).unwrap();
    let mut mismatches = String::new();
    let mut cases = 0;
    for block in text.split("\n\n") {
        let lines = || block.lines().filter(|l| !l.starts_with('#'));
        let requests: Vec<&str> = lines().filter_map(|l| l.strip_prefix("> ")).collect();
        let expected: Vec<&str> = lines().filter_map(|l| l.strip_prefix("< ")).collect();
        if requests.is_empty() {
            continue;
        }
        cases += 1;
        let actual = serve(&requests);
        if actual != expected {
            for r in &requests {
                mismatches += &format!("> {r}\n");
            }
            for a in &actual {
                mismatches += &format!("< {a}\n");
            }
            mismatches += "\n";
        }
    }
    assert!(cases >= 10, "corpus not found or empty");
    assert!(
        mismatches.is_empty(),
        "responses differ from the corpus; actual:\n{mismatches}"
    );
}

fn coloring(colors: Vec<u32>, iterations: usize) -> Coloring {
    let num_colors = colors.iter().copied().max().unwrap_or(0) as usize;
    Coloring {
        scheme: Scheme::DataBase,
        colors,
        num_colors,
        iterations,
        profile: Default::default(),
    }
}

fn job(queue_ms: f64, exec_ms: f64, total_ms: f64) -> JobResponse {
    JobResponse {
        coloring: Arc::new(coloring(vec![1, 2, 1, 3], 2)),
        source: ResultSource::Cold,
        fingerprint: Fingerprint(0x0123_4567_89ab_cdef_0011_2233_4455_6677),
        queue_ms,
        exec_ms,
        total_ms,
    }
}

#[test]
fn ok_responses_spell_numbers_exactly() {
    assert_eq!(
        proto::ok_response(Some(1), &job(0.0, 0.25, 1e15), false, None),
        r#"{"colors":3,"exec_ms":0.25,"fingerprint":"0123456789abcdef0011223344556677","id":1,"iterations":2,"modeled_ms":0,"ok":true,"queue_ms":0,"scheme":"D-base","source":"cold","total_ms":1000000000000000}"#
    );
    assert_eq!(
        proto::ok_response(None, &job(f64::NAN, -2.5, 1e-7), true, None),
        r#"{"assignment":[1,2,1,3],"colors":3,"exec_ms":-2.5,"fingerprint":"0123456789abcdef0011223344556677","iterations":2,"modeled_ms":0,"ok":true,"queue_ms":null,"scheme":"D-base","source":"cold","total_ms":0.0000001}"#
    );
    let plan = Plan {
        scheme: Scheme::CsrColor,
        backend: gcol_core::BackendKind::Simt,
        num_shards: 2,
        exchange: ExchangeKind::Delta,
        predicted_ms: 12.5,
        predicted_colors: 9.0,
    };
    assert_eq!(
        proto::ok_response(
            Some(9_007_199_254_740_991),
            &job(f64::INFINITY, 3.0, 9_007_199_254_740_992.0),
            true,
            Some((Slo::FastestWall, &plan))
        ),
        r#"{"assignment":[1,2,1,3],"colors":3,"exec_ms":3,"fingerprint":"0123456789abcdef0011223344556677","id":9007199254740991,"iterations":2,"modeled_ms":0,"ok":true,"plan":{"backend":"simt","exchange":"delta","predicted_colors":9,"predicted_ms":12.5,"scheme":"csrcolor","shards":2,"slo":"fastest-wall"},"queue_ms":null,"scheme":"D-base","source":"cold","total_ms":9007199254740992}"#
    );
}

#[test]
fn session_responses_are_pinned() {
    let g = Csr::try_new(vec![0, 1, 2], vec![1, 0]).unwrap();
    let fp = format!("{:016x}", g.content_fingerprint());
    assert_eq!(
        proto::mutate_response(Some(4), 2, &g),
        format!(
            r#"{{"edges":2,"graph_fingerprint":"{fp}","id":4,"ok":true,"touched":2,"vertices":2}}"#
        )
    );
    assert_eq!(
        proto::load_response(None, GraphFormat::Metis, &g),
        format!(
            r#"{{"edges":2,"format":"metis","graph_fingerprint":"{fp}","ok":true,"status":"loaded","vertices":2}}"#
        )
    );
    assert_eq!(
        proto::loading_response(Some(0), 512),
        r#"{"bytes":512,"id":0,"ok":true,"status":"loading"}"#
    );
    assert_eq!(
        proto::recolor_response(
            Some(5),
            "delta",
            3,
            Fingerprint(7),
            &coloring(vec![2, 1], 1),
            true
        ),
        r#"{"assignment":[2,1],"colors":2,"fingerprint":"00000000000000000000000000000007","id":5,"iterations":1,"modeled_ms":0,"ok":true,"repaired":3,"scheme":"D-base","source":"delta"}"#
    );
    assert_eq!(
        proto::ack_response(None, "draining"),
        r#"{"ok":true,"status":"draining"}"#
    );
}

#[test]
fn error_details_are_escaped() {
    assert_eq!(
        proto::error_response(
            Some(2),
            "bad-request",
            "a \"quoted\"\\path\n\r\t\u{1}\u{1f} é😀"
        ),
        r#"{"detail":"a \"quoted\"\\path\n\r\t\u0001\u001f é😀","error":"bad-request","id":2,"ok":false}"#
    );
}

#[test]
fn stats_responses_render_idle_percentiles_as_null() {
    let mut s = ServiceStats {
        submitted: 9,
        accepted: 8,
        rejected_queue_full: 1,
        rejected_too_large: 0,
        rejected_shutdown: 0,
        cache_hits: 3,
        coalesced: 2,
        auto_planned: 1,
        executions: 3,
        skipped_executions: 0,
        completed_ok: 3,
        completed_err: 0,
        deadline_exceeded: 0,
        cache_entries: 3,
        cache_evictions: 0,
        queued: 0,
        avg_queue_wait_ms: 0.5,
        avg_exec_ms: 4.0,
        latency_samples: 0,
        p50_ms: f64::NAN,
        p95_ms: f64::NAN,
        p99_ms: f64::NAN,
    };
    assert_eq!(
        proto::stats_response(Some(3), &s),
        r#"{"accepted":8,"auto_planned":1,"cache_entries":3,"cache_evictions":0,"cache_hits":3,"coalesced":2,"deadline_exceeded":0,"executions":3,"id":3,"ok":true,"p50_ms":null,"p95_ms":null,"p99_ms":null,"queued":0,"rejected_queue_full":1,"rejected_shutdown":0,"rejected_too_large":0,"submitted":9}"#
    );
    (s.p50_ms, s.p95_ms, s.p99_ms) = (1.5, 20.0, 0.125);
    assert!(proto::stats_response(None, &s).contains(r#""p50_ms":1.5,"p95_ms":20,"p99_ms":0.125,"#));
}
