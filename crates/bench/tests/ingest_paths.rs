//! Acceptance cross-check of the ingest pipeline: one checked-in
//! fixture must produce the *same graph* and the *same coloring*
//! whichever front end carried it —
//!
//! 1. the direct library reader (`read_matrix_market` + `try_color`),
//! 2. the bench CLI's `--graph` path (`suite::load_entry`, the exact
//!    loader `ExpConfig::suite` calls),
//! 3. the serve protocol's `load` verb followed by coloring the
//!    session graph.
//!
//! Equality is pinned at both levels: identical content fingerprints
//! (the ingest relabeling is stable) and identical color assignments
//! (the coloring path downstream of ingest is oblivious to the route).

use gcol_core::{BackendKind, ColorOptions, Scheme};
use gcol_graph::io::read_matrix_market;
use gcol_serve::{serve_lines, Service, ServiceConfig};
use gcol_simt::Device;
use serde_json::Value;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The shared corpus fixture: the paper's Fig. 2 graph in MatrixMarket
/// form, checked in under the graph crate's parser-corpus tests.
fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../graph/tests/corpus/valid/fig2.mtx")
}

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

#[test]
fn one_fixture_colors_identically_through_every_front_end() {
    let path = fixture();
    let text = std::fs::read_to_string(&path).unwrap();

    // Route 1: direct reader + direct coloring.
    let direct_graph = read_matrix_market(text.as_bytes()).unwrap();
    let opts = ColorOptions {
        backend: BackendKind::Native,
        seed: 7,
        ..ColorOptions::default()
    };
    let direct = Scheme::DataBase
        .try_color(&direct_graph, &Device::k20c(), &opts)
        .unwrap();

    // Route 2: the bench CLI's `--graph` loader.
    let entry = gcol_bench::suite::load_entry(&path).unwrap();
    assert_eq!(
        entry.graph.content_fingerprint(),
        direct_graph.content_fingerprint(),
        "--graph ingest must relabel to the same CSR as the direct reader"
    );
    assert_eq!(entry.name, "fig2");
    let bench = Scheme::DataBase
        .try_color(&entry.graph, &Device::k20c(), &opts)
        .unwrap();
    assert_eq!(bench.colors, direct.colors);

    // Route 3: serve `load` + coloring the session graph.
    let input = format!(
        concat!(
            r#"{{"id":1,"op":"load","format":"mtx","data":{data}}}"#,
            "\n",
            r#"{{"id":2,"op":"color","graph":"session","scheme":"D-base","backend":"native","seed":7,"assignment":true}}"#,
            "\n",
        ),
        data = Value::Str(text.clone()),
    );
    let svc = Service::start(ServiceConfig::default());
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let resolve = |name: &str, _: u32, _: u64| Err(format!("unknown graph {name:?}"));
    serve_lines(svc, input.as_bytes(), buf.clone(), &resolve).unwrap();
    let bytes = buf.0.lock().unwrap().clone();
    let lines: Vec<Value> = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let by_id = |id: u64| {
        lines
            .iter()
            .find(|l| l.get("id").and_then(Value::as_u64) == Some(id))
            .unwrap()
    };

    let loaded = by_id(1);
    assert_eq!(
        loaded.get("ok").and_then(Value::as_bool),
        Some(true),
        "{loaded:?}"
    );
    assert_eq!(
        loaded.get("graph_fingerprint").and_then(Value::as_str),
        Some(format!("{:016x}", direct_graph.content_fingerprint()).as_str()),
        "serve load must ingest to the same content fingerprint"
    );

    let colored = by_id(2);
    assert_eq!(
        colored.get("ok").and_then(Value::as_bool),
        Some(true),
        "{colored:?}"
    );
    assert_eq!(
        colored.get("colors").and_then(Value::as_u64),
        Some(direct.num_colors as u64)
    );
    let served: Vec<u32> = colored
        .get("assignment")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|c| c.as_u64().unwrap() as u32)
        .collect();
    assert_eq!(
        served, direct.colors,
        "the served coloring must be bit-identical to the direct run"
    );
}
