//! Runs the benchmark binary on every workload at its smoke size, untraced
//! and traced, and checks the output against `BENCHMARK.json`. The
//! package is a workspace of its own, so these tests run under
//! `cargo test --manifest-path benchmark/Cargo.toml`, not the root
//! `cargo test`.

use dike_util::json::{self, Value};
use std::path::Path;
use std::process::Command;

fn names(doc: &Value, list: &str) -> Vec<String> {
    doc.field(list)
        .and_then(Value::items)
        .expect("BENCHMARK.json list")
        .iter()
        .map(|m| match m.field("name") {
            Ok(Value::Str(s)) => s.clone(),
            other => panic!("metric without a name: {other:?}"),
        })
        .collect()
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// Run the binary; returns its exit success and the parsed last line.
fn run(args: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let result = json::parse(&last).unwrap_or_else(|e| {
        panic!(
            "{args:?}: last line is not JSON ({e}): {last}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), result)
}

fn check(result: &Value, expected: &[String], args: &[&str]) {
    assert_eq!(result.field("correct"), Ok(&Value::Bool(true)), "{args:?}");
    let Ok(Value::Object(metrics)) = result.field("metrics") else {
        panic!("{args:?}: no metrics");
    };
    let got: Vec<&String> = metrics.iter().map(|(k, _)| k).collect();
    assert_eq!(got, expected.iter().collect::<Vec<_>>(), "{args:?}");
    for (name, m) in metrics {
        match m.field("value") {
            Ok(Value::Num(n)) => assert!(n.as_f64().is_finite(), "{name}"),
            other => panic!("{name}: {other:?}"),
        }
    }
    match result.field("attempted") {
        Ok(Value::Num(n)) => assert!(n.as_f64() >= 1.0),
        other => panic!("attempted: {other:?}"),
    }
}

#[test]
fn every_workload_runs_at_smoke_size() {
    let doc = benchmark_json();
    let end_to_end = names(&doc, "end_to_end");
    let workloads = names(&doc, "workloads");
    assert_eq!(workloads.len(), 4);
    for w in &workloads {
        let args = [
            "--workload",
            w,
            "--smoke",
            "--seconds",
            "0.01",
            "--trace",
            "0",
        ];
        let (ok, result) = run(&args);
        assert!(ok, "{args:?} failed");
        check(&result, &end_to_end, &args);
    }
}

#[test]
fn traced_runs_report_every_layer_and_write_spans() {
    let doc = benchmark_json();
    let per_layer = names(&doc, "per_layer");
    for w in names(&doc, "workloads") {
        let spans = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke_spans_{w}.json"));
        let spans_arg = spans.to_str().expect("utf-8 path");
        let args = [
            "--workload",
            &w,
            "--smoke",
            "--seed",
            "7",
            "--seconds",
            "0.01",
            "--trace",
            "1",
            "--trace-out",
            spans_arg,
        ];
        let (ok, result) = run(&args);
        assert!(ok, "{args:?} failed");
        check(&result, &per_layer, &args);
        let written = json::parse(&std::fs::read_to_string(&spans).expect("spans written"))
            .expect("spans are JSON");
        assert!(!written.items().expect("span array").is_empty());
    }
}

#[test]
fn bad_arguments_exit_non_zero() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "numa_closed", "--trace", "2"],
        &["--seed", "x"],
        &[],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("benchmark runs")
            .status;
        assert!(!status.success(), "{args:?} should be refused");
    }
}
