//! Two-second runs of every workload at toy size, through the real binary:
//! the servers come up, the load runs, the oracle agrees, and the result line
//! carries every metric `BENCHMARK.json` promises.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_onex-benchmark");
const TMP: &str = env!("CARGO_TARGET_TMPDIR");

fn result_line(workload: &str, trace: &str) -> String {
    let trace_out = format!("{TMP}/trace-{workload}.jsonl");
    let out = Command::new(BIN)
        .args(["run", "--scale", "toy", "--seed", "5", "--seconds", "2"])
        .args(["--workload", workload, "--trace", trace])
        .args(["--trace-out", &trace_out])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {stdout}\n{stderr}"
    );
    stdout.lines().last().expect("a result line").to_owned()
}

fn metric_names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = &doc[doc.find(&format!("\"{key}\"")).expect("section present")..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_owned())
        .collect()
}

fn check(workload: &str, trace: &str, section: &str) {
    let line = result_line(workload, trace);
    assert!(
        line.starts_with(r#"{"correct":true,"attempted":"#),
        "{line}"
    );
    assert!(line.contains(r#""failed":0,"#), "{line}");
    let names = metric_names(section);
    assert!(!names.is_empty());
    for name in &names {
        assert!(
            line.contains(&format!(r#""{name}":{{"value":"#)),
            "{workload}: no {name} in {line}"
        );
    }
    assert_eq!(line.matches(r#"{"value":"#).count(), names.len(), "{line}");
}

#[test]
fn explore_timed() {
    check("explore", "0", "end_to_end");
}

#[test]
fn explore_traced() {
    check("explore", "1", "per_layer");
    let spans = std::fs::read_to_string(format!("{TMP}/trace-explore.jsonl")).unwrap();
    for name in [
        "client.http",
        "server.handle",
        "core.kbest",
        "grouping.build",
        "client.append",
    ] {
        assert!(
            spans.contains(&format!(r#""name":"{name}""#)),
            "no {name} span"
        );
    }
}

#[test]
fn cluster_timed() {
    check("cluster", "0", "end_to_end");
}

#[test]
fn cluster_traced() {
    check("cluster", "1", "per_layer");
}

#[test]
fn ingest_timed() {
    check("ingest", "0", "end_to_end");
}

#[test]
fn ingest_traced() {
    check("ingest", "1", "per_layer");
}

#[test]
fn repeat_timed() {
    check("repeat", "0", "end_to_end");
}

#[test]
fn repeat_traced() {
    check("repeat", "1", "per_layer");
}

#[test]
fn unknown_workloads_and_arguments_are_refused() {
    for args in [
        vec!["run", "--workload", "nope"],
        vec!["run", "--bogus"],
        vec!["compare", "only-one.json"],
        vec![],
    ] {
        let out = Command::new(BIN).args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
