//! Self-tests of the benchmark: a tiny pass of every workload reports
//! every metric with its unit, a tampered coloring fails the run, the
//! Chrome trace parses, and `BENCHMARK.json` lists what the program
//! prints.

use gcol_perfbench::workload::Workload;
use gcol_perfbench::{result_line, run, Options, E2E_METRICS, LAYER_METRICS};
use gcol_serve::json::{self, Json};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool) -> Options {
    let mut o = Options::new(workload, 5, 0.2, trace);
    o.tiny = true;
    o.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    o
}

fn assert_reports(line: &str, table: &[(&str, &str)]) {
    let v = json::parse(line).expect("result line is JSON");
    assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
    assert!(v.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let Some(Json::Obj(metrics)) = v.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    assert_eq!(metrics.len(), table.len(), "{line}");
    for (name, unit) in table {
        let m = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        assert!(
            m.get("value").and_then(Json::as_f64).unwrap().is_finite(),
            "{name}"
        );
    }
}

fn reports_every_end_to_end_metric(w: Workload) {
    let o = run(&tiny(w, false)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    assert_eq!(o.failed, 0, "{}", w.name());
    assert_reports(&result_line(&o), &E2E_METRICS);
}

fn reports_every_layer_metric_and_a_loadable_trace(w: Workload) {
    let o = run(&tiny(w, true)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    assert_reports(&result_line(&o), &LAYER_METRICS);
    let value = |name: &str| o.metrics.iter().find(|m| m.name == name).unwrap().value;
    let coverage = value("trace.coverage");
    assert!(
        coverage > 0.0 && coverage <= 1.0,
        "{}: coverage {coverage}",
        w.name()
    );
    let calls = value("graph.materialize_window_calls");
    assert_eq!(calls > 0.0, w.materializes_in_window(), "{}", w.name());
    if w == Workload::WarmHits {
        assert_eq!(value("serve.cache_hit_ratio"), 1.0);
    }

    let path = o.trace_file.expect("traced runs write a trace");
    let text = std::fs::read_to_string(&path).unwrap();
    let trace = json::parse(&text).expect("the trace is JSON");
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("request")));
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        for key in ["ts", "dur"] {
            assert!(e.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
        for key in ["req", "span", "parent"] {
            assert!(e.get("args").and_then(|a| a.get(key)).is_some(), "{key}");
        }
    }
}

#[test]
fn cold_native_reports_every_metric() {
    reports_every_end_to_end_metric(Workload::ColdNative);
    reports_every_layer_metric_and_a_loadable_trace(Workload::ColdNative);
}

#[test]
fn warm_hits_reports_every_metric() {
    reports_every_end_to_end_metric(Workload::WarmHits);
    reports_every_layer_metric_and_a_loadable_trace(Workload::WarmHits);
}

#[test]
fn simt_paper_reports_every_metric() {
    reports_every_end_to_end_metric(Workload::SimtPaper);
    reports_every_layer_metric_and_a_loadable_trace(Workload::SimtPaper);
}

#[test]
fn session_edit_reports_every_metric() {
    reports_every_end_to_end_metric(Workload::SessionEdit);
    reports_every_layer_metric_and_a_loadable_trace(Workload::SessionEdit);
}

#[test]
fn a_coloring_with_a_neighbour_conflict_fails_the_run() {
    for w in [Workload::ColdNative, Workload::SessionEdit] {
        let mut o = tiny(w, false);
        o.corrupt = true;
        let err = run(&o).expect_err("a tampered coloring must fail");
        assert!(err.contains("improper coloring"), "{}: {err}", w.name());
    }
}

#[test]
fn benchmark_json_lists_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let v = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), table(&E2E_METRICS));
    assert_eq!(names("per_layer"), table(&LAYER_METRICS));
    for (name, _) in names("workloads") {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
}
