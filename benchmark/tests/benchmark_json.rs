//! `BENCHMARK.json` names exactly the workloads and metrics the benchmark
//! prints (`run.sh --list`), with the same units, directions and bounds.

use serde::Value;
use servebench::metrics::{end_to_end, per_layer, Metric};
use servebench::workload::WORKLOADS;

fn field<'a>(map: &'a [(String, Value)], name: &str) -> &'a Value {
    serde::find_field(map, name).unwrap_or_else(|| panic!("BENCHMARK.json lacks {name:?}"))
}

fn text(entry: &Value, name: &str) -> String {
    field(entry.as_map().expect("an object"), name).as_str().expect("a string").to_string()
}

fn number(entry: &Value, name: &str) -> f64 {
    match field(entry.as_map().expect("an object"), name) {
        Value::F64(v) => *v,
        Value::U64(v) => *v as f64,
        other => panic!("{name} is not a number: {other:?}"),
    }
}

fn assert_metrics(listed: &[Value], ours: &[Metric], bounded: bool) {
    let names = |m: &[Metric]| m.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    let listed_names: Vec<String> = listed.iter().map(|e| text(e, "name")).collect();
    assert_eq!(listed_names, names(ours));
    for (entry, m) in listed.iter().zip(ours) {
        assert_eq!(text(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(text(entry, "better"), m.better, "{}", m.name);
        assert_eq!(entry.as_map().unwrap().len(), if bounded { 4 } else { 3 }, "{}", m.name);
        if bounded {
            assert_eq!(number(entry, "bound"), m.bound.expect("end-to-end metrics are bounded"));
        }
    }
}

#[test]
fn benchmark_json_matches_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json reads"))
            .expect("BENCHMARK.json parses");
    let doc = doc.as_map().expect("an object");

    let workloads = field(doc, "workloads").as_seq().expect("a list");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(entry, "name"), w.name);
        assert_eq!(text(entry, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why is one short line", w.name);
    }
    assert_metrics(field(doc, "end_to_end").as_seq().expect("a list"), &end_to_end(), true);
    assert_metrics(field(doc, "per_layer").as_seq().expect("a list"), &per_layer(), false);

    let paths: Vec<&str> =
        field(doc, "paths").as_seq().expect("a list").iter().filter_map(Value::as_str).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> =
        field(doc, "command").as_seq().expect("a list").iter().filter_map(Value::as_str).collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let Value::U64(seconds) = field(doc, "run_seconds") else {
        panic!("run_seconds is a whole number")
    };
    assert_eq!(*seconds as f64, servebench::cli::DEFAULT_SECONDS);
}

#[test]
fn names_are_unique_and_well_formed() {
    let mut names: Vec<String> =
        end_to_end().into_iter().chain(per_layer()).map(|m| m.name).collect();
    names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
    for n in &names {
        assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
    }
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(end_to_end()
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
}
