//! `BENCHMARK.json` and the binary cannot drift: the file is byte-for-byte
//! what `--describe` prints, a `--smoke` run of every workload in both
//! modes prints exactly the names the file lists, a single run ends with
//! the result line the driver reads, and a poisoned oracle makes a run
//! exit nonzero.

use std::collections::BTreeSet;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_tir-benchmark");
const SPEC: &str = include_str!("../../BENCHMARK.json");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

/// The `"name": "…"` values between two top-level keys of the spec.
fn names_between(from: &str, to: Option<&str>) -> BTreeSet<String> {
    let start = SPEC.find(from).expect("key present");
    let end = to.map_or(SPEC.len(), |k| SPEC.find(k).expect("key present"));
    SPEC[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn benchmark_json_is_what_describe_prints() {
    let out = run(&["--describe"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8"),
        SPEC,
        "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --describe > BENCHMARK.json"
    );
}

#[test]
fn smoke_run_prints_exactly_the_names_in_benchmark_json() {
    let workloads = names_between("\"workloads\"", Some("\"end_to_end\""));
    let mut metrics = names_between("\"end_to_end\"", Some("\"per_layer\""));
    metrics.extend(names_between("\"per_layer\"", None));
    for name in workloads.iter().chain(&metrics) {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
    let out = run(&["--smoke", "--seed", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let (mut seen_workloads, mut seen_metrics) = (BTreeSet::new(), BTreeSet::new());
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 4, "workload metric value unit: {line}");
        assert!(fields[2].parse::<f64>().expect("a number").is_finite());
        seen_workloads.insert(fields[0].to_string());
        seen_metrics.insert(fields[1].to_string());
    }
    assert_eq!(seen_workloads, workloads);
    assert_eq!(seen_metrics, metrics);
    assert_eq!(stdout.lines().count(), workloads.len() * metrics.len());
}

#[test]
fn a_single_run_ends_with_the_result_line() {
    let out = run(&["--smoke", "--workload", "durable_mixed", "--trace", "0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, rows) = lines.split_last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    let metrics = names_between("\"end_to_end\"", Some("\"per_layer\""));
    assert_eq!(rows.len(), metrics.len());
    for name in &metrics {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(
            rows.iter()
                .any(|r| r.starts_with(&format!("durable_mixed {name} "))),
            "{name}"
        );
    }
}

#[test]
fn a_wrong_expected_answer_fails_the_run() {
    for workload in ["serve_point", "lib_methods"] {
        let out = run(&[
            "--smoke",
            "--workload",
            workload,
            "--trace",
            "0",
            "--poison-oracle",
        ]);
        assert!(!out.status.success(), "{workload} passed a poisoned oracle");
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let last = stdout.lines().last().expect("a result line");
        assert!(last.contains("\"correct\": false"), "{last}");
        assert!(!last.contains("\"failed\": 0,"), "{last}");
    }
}
